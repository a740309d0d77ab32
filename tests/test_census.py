"""The census grows one facet wall at a time: the differential tests
against the full-hull growth and the census by chamber mask it
replaced, the lemmas it rests on (a child depends on the wall crossed
alone, and its inversion union names it), one search per distinct
child, the records a child inherits from its parent against the full
scans they replaced, the walls built only when read, the hull's own
properties, and the group's memo of rank-2 residue bases."""

import json
import sys
import threading
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxlab import cli, davis
from coxlab.davis import (_facet_panels, _grow_order, _mask, _residue_counts,
                          _walls, angle_sites, census_line, chambers_of,
                          convex_hull, enumerate_convex_polytopes, is_convex,
                          polytope_of, region, side, stacan_pairs)
from coxlab.errors import BudgetError, ConsistencyError
from coxlab.matrices import INFINITY
from coxlab.words import CoxeterGroup

import oracles
from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (angle_sites_by_arc_walk, angle_sites_by_residue,
                     census_by_full_hulls, census_by_mask_seen,
                     census_record_by_residue, facet_panels_by_scan,
                     facet_panels_inherited, facet_walls_by_count,
                     hull_fixpoint, residue_base_by_descent,
                     residue_by_coset, residue_top_by_ascent)

DIFFERENTIAL = {**BENCH_MATRICES, "a3": MATRICES["a3"], "h3": MATRICES["h3"],
                "CYCLE4": CYCLE4}
INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
LEMMA = {"t23inf": MATRICES["t23inf"], "t255": MATRICES["t255"],
         "univ3": MATRICES["univ3"], "CYCLE4": CYCLE4}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_census_matches_full_hull_growth(name):
    # the same polytopes, chambers and facet walls, in the same order
    m = DIFFERENTIAL[name]
    got = list(enumerate_convex_polytopes(CoxeterGroup(m), 6))
    expected = census_by_full_hulls(CoxeterGroup(m), 6)
    assert len(got) == len(expected) > 1
    for p, q in zip(got, expected):
        assert p.chambers == q.chambers, name
        assert p.facet_walls == q.facet_walls, name


@pytest.mark.parametrize("name", sorted(LEMMA))
def test_child_depends_on_the_facet_wall_alone(name):
    # at every boundary panel (g, s) of a census member P, g s is longer
    # than g; every panel of P on one wall gives P | {g s} one hull, and
    # its new chambers lie across that wall and form a convex set
    group = CoxeterGroup(LEMMA[name])
    shared = 0
    for p in enumerate_convex_polytopes(group, 5):
        hulls = {}
        for g in p.sorted_chambers():
            for s in range(group.rank):
                x = group.step(g, s)
                if x in p.chambers:
                    continue
                assert len(x) > len(g), (name, p, g, s)
                hull = convex_hull(group, p.chambers | {x}).chambers
                wall = group.wall_between(g, s)
                if wall in hulls:
                    assert hulls[wall] == hull, (name, p, g, s)
                    shared += 1
                    continue
                hulls[wall] = hull
                new = hull - p.chambers
                assert {side(group, wall, c) for c in new} == {-1}
                assert is_convex(group, new), (name, p, g, s)
        assert set(hulls) == set(p.facet_walls)
    # the chamber graph of (oo,oo,oo) is a tree: a wall is one panel
    assert (shared > 0) == (name != "univ3")


def _records(p):
    """What a census member carries: its chamber mask, first panels, site
    counts and facet count."""
    return p._numbered[1], p._panels, p._counts, p.facet_count


@pytest.mark.parametrize("name,k", [(stem, 7) for stem in BENCH_MATRICES]
                         + [(name, 6) for name in sorted(DIFFERENTIAL)])
def test_census_matches_the_census_by_chamber_mask(name, k):
    # the census keyed by inversion union, each child built when dequeued,
    # gives the members of the one that searched every child when queued
    # and dropped repeats by chamber mask, in the same order, with the
    # same records; both run on one group, so their ids agree
    group = CoxeterGroup(DIFFERENTIAL[name])
    expected = [_records(p) for p in census_by_mask_seen(group, k)]
    got = [_records(p) for p in enumerate_convex_polytopes(group, k)]
    assert len(got) > 1
    assert got == expected


@pytest.mark.parametrize("stem", ["cycle4", "tooo"])
def test_census_budget_stops_both_censuses_at_one_member(stem, monkeypatch):
    # a small COXLAB_BUDGET ends both censuses with the same members
    # yielded before it and the same BudgetError in place of the next
    monkeypatch.setenv("COXLAB_BUDGET", "40")
    group = CoxeterGroup(BENCH_MATRICES[stem])
    runs = []
    for census in (census_by_mask_seen, enumerate_convex_polytopes):
        monkeypatch.setattr(davis, "enumerate_convex_polytopes", census)
        got = []
        with pytest.raises(BudgetError) as stop:
            for p in cli.capped_census(group, 7):
                got.append(_records(p))
        runs.append((got, str(stop.value)))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 40


def _inversion_union(group, mask):
    n = 0
    for i in davis._members(mask):
        n |= group.inversion_mask(i)
    return n


@pytest.mark.parametrize("name", sorted(LEMMA))
def test_inversion_union_names_each_member(name):
    # for each member H: the search from e across N_H reaches H, distinct
    # members have distinct N_H, and each child P | {g s} within the
    # budget, taken as a full hull, has N = N_P | {root of (g, s)}
    group = CoxeterGroup(LEMMA[name])
    e = 1 << group.chamber_id(group.identity())
    census = list(enumerate_convex_polytopes(group, 6))
    names = {}
    for p in census:
        mask = p._numbered[1]
        n = _inversion_union(group, mask)
        assert region(group, e, n, 10 ** 6) == mask, p
        names[n] = mask
    assert len(names) == len(census)
    children = 0
    for p in census:
        if len(p.chambers) >= 6:
            continue
        n = _inversion_union(group, p._numbered[1])
        for g in p.chambers:
            for s in range(group.rank):
                x = group.step(g, s)
                if x in p.chambers:
                    continue
                try:
                    hull = convex_hull(group, p.chambers | {x}, 6)
                except BudgetError:
                    continue
                child = _inversion_union(group, _mask(group, hull.chambers))
                assert child == n | 1 << group.panel_root(g, s), (p, g, s)
                assert names[child] == _mask(group, hull.chambers)
                children += 1
    assert children > len(census)


def _searches(monkeypatch):
    """The results of every ``davis.region`` call from now on."""
    results = []
    search = davis.region

    def recorded(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(davis, "region", recorded)
    monkeypatch.setattr(oracles, "region", recorded)
    return results


@pytest.mark.parametrize("name", sorted(LEMMA))
def test_census_searches_each_child_once(name, monkeypatch):
    # one search for the base chamber and one per distinct child key
    # N_P | {r}, over the members below the budget and their facet roots,
    # within the budget or past it
    group = CoxeterGroup(LEMMA[name])
    results = _searches(monkeypatch)
    census = list(enumerate_convex_polytopes(group, 6))
    searched = len(results)
    keys = set()
    for p in census:
        if len(p.chambers) < 6:
            n = _inversion_union(group, p._numbered[1])
            keys.update(n | 1 << rid
                        for rid in facet_panels_by_scan(group, p.chambers))
    assert searched == 1 + len(keys)
    assert sum(mask is not None for mask in results) == len(census)
    # a panel on a wall is met at most once per member: a census that
    # searched a child per facet of each member searched more
    assert searched < 1 + sum(p.facet_count for p in census
                              if len(p.chambers) < 6)


@pytest.mark.parametrize("k", [1, 2, 10, 60])
def test_cut_census_searches_no_child_it_has_not_dequeued(k, monkeypatch):
    # after k members the census has searched the base chamber and the
    # children it dequeued: each search that found a child within the
    # budget yielded it, the last search yielded the k-th member, and the
    # children of the k-th member are queued unsearched
    group = CoxeterGroup(CYCLE4)
    results = _searches(monkeypatch)
    census = enumerate_convex_polytopes(group, 6)
    got = list(islice(census, k))
    assert len(got) == k
    assert sum(mask is not None for mask in results) == k
    assert results[-1] == got[-1]._numbered[1]
    # the census by chamber mask had searched the children of the first
    # k - 1 members by then: more than k are within the budget
    del results[:]
    list(islice(census_by_mask_seen(CoxeterGroup(CYCLE4), 6), k))
    assert (sum(mask is not None for mask in results) > k) == (k > 1)


def _by_ids(group, panels):
    """An oracle's panel map {root: (g, s)} in the library's id form
    {root: (chamber key, s, id)}."""
    out = {}
    for rid, (g, s) in panels.items():
        i = group.chamber_id(g)
        out[rid] = (group.chamber_key(i), s, i)
    return out


def _assert_full_scan_records(group, p, panels):
    # the same first panels, met in the same order when the member grows,
    # the same facet walls, and equal sites
    expect = _by_ids(group, facet_panels_by_scan(group, p.chambers))
    assert panels == expect, p
    assert _grow_order(panels) == list(expect.items()), p
    assert p.facet_walls == _walls(
        group, [(i, s) for _, s, i in expect.values()]), p
    sites = angle_sites(group, p)
    assert sites == angle_sites_by_residue(group, p.chambers), p
    return sites


def _parents(group, max_chambers):
    """{chambers: parent's chambers} of the census members, from the full
    hull growth: a parent is the first member whose growth reached the
    child, as in the census's breadth-first order."""
    parents = {}
    census_by_full_hulls(CoxeterGroup(group.matrix), max_chambers, parents)
    return parents


def _assert_counted_from_parent(group, parents, counts, mask, new,
                                inherited):
    """Check one census call of ``_residue_counts`` against ``parents``
    and the maps ``counts`` already counted, by chambers: the base chamber
    with every chamber new and no inherited map, any other member with
    its new chambers and its parent's map.  Returns its chambers."""
    chambers = chambers_of(group, mask)
    assert chambers not in counts
    if chambers == {group.identity()}:
        assert (new, inherited) == (mask, None)
    else:
        parent = parents[chambers]
        assert new == mask & ~_mask(group, parent)
        assert inherited is counts[parent]
    return chambers


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_inherited_records_match_full_scans(name):
    # a census child's first panels are its parent's, less the one on the
    # wall crossed, merged with those of its new chambers, and its site
    # counts, there from birth, are its parent's plus those of its new
    # chambers; polytopes with no parent, the stacan translates and the
    # convex hulls, take the same routines with every chamber new, on
    # first read.  A census member holds the base of each of its sites
    # (gate property)
    group = CoxeterGroup(DIFFERENTIAL[name])
    census = list(enumerate_convex_polytopes(group, 6))
    parents = _parents(group, 6)
    by_chambers, panels = {}, {}
    for p in census:
        mask = _mask(group, p.chambers)
        assert p._numbered == (group, mask)
        if p.chambers == {group.identity()}:
            got = _facet_panels(group, mask)
            counts = _residue_counts(group, mask, mask, None)
        else:
            parent = by_chambers[parents[p.chambers]]
            new = mask & ~_mask(group, parent.chambers)
            assert parent.chambers | chambers_of(group, new) == p.chambers
            inherited = panels[parent.chambers]
            # the lemma: exactly one of the parent's first panels leads
            # into the new chambers, and its root is the wall crossed
            into = [rid for rid, (_, s, i) in inherited.items()
                    if new >> group.adjacent(i)[s][0] & 1]
            assert len(into) == 1, p
            got = facet_panels_inherited(group, mask, new, inherited,
                                         into[0])
            counts = _residue_counts(group, mask, new, parent._counts)
        # the census merges the same map in its one walk of the child
        assert p._panels == got, p
        by_chambers[p.chambers], panels[p.chambers] = p, got
        assert p._counts == counts == _residue_counts(group, mask, mask,
                                                      None), p
        sites = _assert_full_scan_records(group, p, got)
        assert all(z.base in p.chambers for z in sites), p
    assert len(by_chambers) == len(parents) + 1
    ball = group.ball(2)
    hulls = [convex_hull(group, pair) for pair in combinations(ball, 2)]
    translates = [p2 for _, p2, _ in stacan_pairs(group, 5, census=census)]
    assert hulls and translates
    for p in hulls + translates:
        assert p._counts is None
        mask = _mask(group, p.chambers)
        got = _facet_panels(group, mask)
        _assert_full_scan_records(group, p, got)
        assert p._counts == _residue_counts(group, mask, mask, None), p


def test_census_sites_are_counted_at_birth(monkeypatch):
    # each member has its counts when yielded, counted once before the
    # next member, from its parent's counts and its new chambers; reading
    # its lines and sites counts nothing more
    group = CoxeterGroup(MATRICES["t255"])
    parents = _parents(group, 6)
    counted = []
    routine = davis._residue_counts

    def recorded(group, chambers, new, inherited):
        counted.append((chambers, new, inherited))
        return routine(group, chambers, new, inherited)

    monkeypatch.setattr(davis, "_residue_counts", recorded)
    counts = {}
    for p in enumerate_convex_polytopes(group, 6):
        [call] = counted
        del counted[:]
        assert _assert_counted_from_parent(group, parents, counts,
                                           *call) == p.chambers
        assert p._counts is not None
        counts[p.chambers] = p._counts
        line, _, _ = census_line(group, p)
        assert line == json.dumps(
            census_record_by_residue(group, p.chambers), sort_keys=True), p
        sites = angle_sites(group, p)
        assert sites == angle_sites_by_residue(group, p.chambers), p
        assert angle_sites(group, p) == sites
        assert counted == []
    assert len(counts) == len(parents) + 1


def test_facet_bound_counts_each_member_once(monkeypatch, capsys):
    # the facet-bound suite reads facet counts alone, and its census
    # still counts every member's sites once, at birth: the base chamber
    # with every chamber new, each other member from its parent's counts
    # and its own new chambers
    calls = []
    routine = davis._residue_counts

    def counted(group, chambers, new, inherited):
        counts = routine(group, chambers, new, inherited)
        calls.append((group, chambers, new, inherited, counts))
        return counts

    monkeypatch.setattr(davis, "_residue_counts", counted)
    assert cli.main(["verify", str(INPUTS / "t255.json"), "--max-chambers",
                     "6", "--suite", "facet-bound", "--json"]) == 0
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["detail"].startswith(f"{len(calls)} polytopes")
    group = calls[0][0]
    parents = _parents(group, 6)
    assert len(calls) == len(parents) + 1
    counts = {}
    for g, mask, new, inherited, got in calls:
        assert g is group
        counts[_assert_counted_from_parent(group, parents, counts, mask,
                                           new, inherited)] = got


def test_non_contiguous_arc_is_refused():
    # a set meeting a rank-2 residue in two arcs is not convex: it spans
    # fewer cycle edges there than one arc would, whether both arcs hold
    # new chambers or one lies in the parent, whose counts the child
    # copies
    group = CoxeterGroup(MATRICES["a2aff"])
    e, s0, s1 = group.identity(), group.generator(0), group.generator(1)
    with pytest.raises(ConsistencyError):
        angle_sites(group, polytope_of(group, frozenset({s0, s1})))
    parent = _mask(group, {e})
    parent_counts = _residue_counts(group, parent, parent, None)
    new = _mask(group, {group.normal_form([0, 1])})
    with pytest.raises(ConsistencyError):
        _residue_counts(group, parent | new, new, parent_counts)


def _counts_or_refusal(count, group, chambers, new, inherited):
    """``count``'s map, or the message and payload of its
    ConsistencyError."""
    try:
        return count(group, chambers, new, inherited)
    except ConsistencyError as e:
        return str(e), e.payload


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_edge_count_matches_arc_walk_on_census_calls(name, monkeypatch):
    # every census call at K = 7, a parent's map and the child's new
    # chambers, counts the map of the arc walk that the edge count
    # replaced
    routine, calls = davis._residue_counts, []

    def compared(group, chambers, new, inherited):
        counts = routine(group, chambers, new, inherited)
        assert counts == oracles.residue_counts_by_walk(
            group, chambers, new, inherited)
        calls.append(new)
        return counts

    monkeypatch.setattr(davis, "_residue_counts", compared)
    census = list(enumerate_convex_polytopes(
        CoxeterGroup(DIFFERENTIAL[name]), 7))
    assert len(calls) == len(census)


@pytest.mark.parametrize("name", ["t255", "t237", "a2aff"])
def test_edge_count_matches_arc_walk_on_small_sets(name):
    # every set of at most 4 chambers of the ball of radius 2, convex or
    # not, with every chamber new and split into a parent and new
    # chambers wherever the parent passes on its own: the same map, or
    # the same refusal and payload.  The sets hold arcs split in two and
    # whole residues of order 2
    group = CoxeterGroup(MATRICES[name])
    ids = sorted(map(group.chamber_id, group.ball(2)))
    refused = whole = 0
    for n in range(1, 5):
        for chosen in combinations(ids, n):
            mask = sum(1 << i for i in chosen)
            splits = [(mask, None)]
            for k in range(1, n):
                for old in combinations(chosen, k):
                    parent = sum(1 << i for i in old)
                    inherited = _counts_or_refusal(_residue_counts, group,
                                                   parent, parent, None)
                    if not isinstance(inherited, tuple):
                        splits.append((mask & ~parent, inherited))
            for new, inherited in splits:
                got = _counts_or_refusal(_residue_counts, group, mask, new,
                                         inherited)
                assert got == _counts_or_refusal(
                    oracles.residue_counts_by_walk, group, mask, new,
                    inherited), (chosen, new)
                if isinstance(got, tuple):
                    refused += 1
                else:
                    whole += any(j == 2 * group.finite_pairs[k][2]
                                 for (k, _), j in got.items())
    assert refused and (whole or name == "a2aff")


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_counted_sites_match_oracles(name):
    # every census member at K = 7, its counts grown at birth from its
    # parent's, and every hull of two chambers of the ball of radius 2,
    # with every chamber counted on first read: the census line is, byte
    # for byte, the encoder's
    # text of the record built from the full residue scan, with its two
    # flags, and the sites, exit walls included, are those of the residue
    # scan and of the arc walk that counting replaced
    m = DIFFERENTIAL[name]
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    census = list(enumerate_convex_polytopes(group, 7))
    hulls = [convex_hull(group, pair)
             for pair in combinations(group.ball(2), 2)]
    assert all(p._counts is not None for p in census)
    assert all(p._counts is None for p in hulls)
    for p in census + hulls:
        line, coxeter, acute = census_line(group, p)
        record = census_record_by_residue(oracle, p.chambers)
        assert line == json.dumps(record, sort_keys=True), p
        assert (coxeter, acute) == (record["coxeter"], record["acute"]), p
        sites = angle_sites(group, p)
        by_residue = angle_sites_by_residue(oracle, p.chambers)
        by_walk = angle_sites_by_arc_walk(oracle, p.chambers)
        assert sites == by_residue == by_walk, p
        walls = [z.boundary_walls for z in sites]
        assert walls == [z.boundary_walls for z in by_residue] == \
            [z.boundary_walls for z in by_walk], p
        assert [{"m": z.m, "j": z.j} for z in sites] == record["angles"]


@pytest.mark.parametrize("stem", sorted(BENCH_MATRICES))
def test_polytopes_emit_builds_no_wall(stem, tmp_path, monkeypatch, capsys):
    # a census line reads chamber displays, the facet count and each
    # site's (m, j): none of them is a wall, so the command never asks
    # for one and the group ends with no wall and no reflection numbered
    def refused(self, g, s):
        raise AssertionError(f"wall_between({g!r}, {s}) on polytopes")

    built = []

    def recorded(matrix):
        built.append(CoxeterGroup(matrix))
        return built[-1]

    monkeypatch.setattr(CoxeterGroup, "wall_between", refused)
    monkeypatch.setattr(cli, "CoxeterGroup", recorded)
    out = tmp_path / "census.jsonl"
    assert cli.main(["polytopes", str(INPUTS / f"{stem}.json"),
                     "--max-chambers", "5", "--emit", str(out),
                     "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert out.read_bytes().count(b"\n") == summary["polytopes"] > 1
    [group] = built
    assert group._wall_memo == {} and group._wall_roots == {}


@pytest.mark.parametrize("walls_first", [True, False])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_lazy_walls_match_oracles(name, walls_first):
    # facet walls built from the first panels, and the sites' exit walls,
    # are the walls the full scans find, whether the facet walls are read
    # before or after the sites; reading them releases the panels
    m = DIFFERENTIAL[name]
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    for p in enumerate_convex_polytopes(group, 6):
        assert p._walls is None and p._panels is not None
        if walls_first:
            walls = p.facet_walls
            sites = angle_sites(group, p)
        else:
            sites = angle_sites(group, p)
            walls = p.facet_walls
        assert p._panels is None and p.facet_walls is walls
        assert p.facet_count == len(walls)
        expect = facet_walls_by_count(oracle, p.chambers)
        assert walls == tuple(w for w, _ in expect), (name, p)
        assert [z.boundary_walls for z in sites] == [
            z.boundary_walls
            for z in angle_sites_by_residue(oracle, p.chambers)], (name, p)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_residue_base_matches_descent_and_coset(name):
    # the least chamber of the coset g W_{s,t}: the descent loop and the
    # shortest of the whole residue for a finite pair; for any pair, the
    # one chamber x of the coset with no right descent in {s, t}; and for
    # a finite pair the oracle's ascent reaches the longest chamber of the
    # residue, and the two walks reach both ends from every chamber of it
    m = DIFFERENTIAL[name]
    group = CoxeterGroup(m)
    for g in group.ball(5):
        i = group.chamber_id(g)
        for s, t in combinations(range(m.rank), 2):
            base = group.chamber(group.residue_end(i, (s, t)))
            assert all(len(group.step(base, a)) > len(base) for a in (s, t))
            between = group.multiply(group.inverse(base), g)
            assert set(between.word) <= {s, t}, (name, g, s, t)
            if m.order(s, t) == INFINITY:
                continue
            assert base == residue_base_by_descent(group, g, s, t)
            residue = residue_by_coset(group, g, s, t)
            assert len(residue) == 2 * m.order(s, t)
            shortest = [x for x in residue if len(x) == len(base)]
            assert shortest == [base], (name, g, s, t)
            top = group.chamber(residue_top_by_ascent(group, i, (s, t)))
            assert top == max(residue, key=len)
            assert len(top) == len(base) + m.order(s, t)
            assert {(group.residue_end(group.chamber_id(x), (s, t)),
                     residue_top_by_ascent(group, group.chamber_id(x),
                                           (s, t)))
                    for x in residue} == {(group.chamber_id(base),
                                           group.chamber_id(top))}


def test_residue_end_descends_in_an_affine_residue():
    # every pair of (3,3,3) is finite but the whole group is affine: the
    # walk down from any chamber ends at the base chamber (a walk up would
    # not end, as the residue has no longest chamber)
    group = CoxeterGroup(BENCH_MATRICES["t333"])
    letters = tuple(range(3))
    for g in group.ball(4):
        i = group.chamber_id(g)
        assert group.residue_end(i, letters) == group.chamber_id(
            group.identity())


_HULL_GROUPS = {n: CoxeterGroup(m) for n, m in
                [(n, MATRICES[n]) for n in ("t23inf", "a2aff", "univ3")]
                + [("CYCLE4", CYCLE4)]}
_HULL_BALLS = {n: g.ball(3) for n, g in _HULL_GROUPS.items()}


@settings(max_examples=100)
@given(data=st.data())
def test_hull_properties(data):
    # idempotent, monotone, the geodesic-closure fixpoint, and a seed is
    # convex exactly when it is its own hull; seeds need not hold e
    name = data.draw(st.sampled_from(sorted(_HULL_GROUPS)))
    group, ball = _HULL_GROUPS[name], _HULL_BALLS[name]
    chambers = st.sampled_from(ball)
    seed = data.draw(st.frozensets(chambers, min_size=1, max_size=4))
    more = data.draw(st.frozensets(chambers, max_size=2))
    hull = convex_hull(group, seed).chambers
    assert seed <= hull
    assert convex_hull(group, hull).chambers == hull
    assert hull <= convex_hull(group, seed | more).chambers
    assert hull == hull_fixpoint(group, seed)
    assert is_convex(group, seed) == (hull == seed)


def test_cold_group_census_is_thread_safe():
    # four threads run the census and its angle sites on each of a series
    # of cold (2,3,7) groups together, so the residue, word and root memos
    # fill concurrently: each must see what a fresh single-threaded group
    # gives
    def census(group):
        return [(p, angle_sites(group, p))
                for p in enumerate_convex_polytopes(group, 6)]

    expected = census(CoxeterGroup(MATRICES["t237"]))
    groups = [CoxeterGroup(MATRICES["t237"]) for _ in range(8)]
    start = threading.Barrier(4, timeout=30)
    got = [[] for _ in range(4)]

    def work(k):
        for group in groups:
            start.wait()
            got[k].append(census(group))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert got == [[expected] * len(groups)] * 4


def test_shared_census_derives_sites_under_threads():
    # four threads ask one cold census, counted at birth, and its stacan
    # translates, counted on first read, for their sites in different
    # orders, so a translate's counts may be filled by another thread:
    # every thread sees the sites of a fresh census and translates, and
    # reads their facet and exit walls, which other threads may be
    # building from the same panels
    def read(group, p):
        sites = angle_sites(group, p)
        return sites, p.facet_walls, [z.boundary_walls for z in sites]

    def polytopes(group):
        census = list(enumerate_convex_polytopes(group, 6))
        return census + [p2 for _, p2, _ in stacan_pairs(group, 6, census)]

    group = CoxeterGroup(MATRICES["t237"])
    census = polytopes(group)
    fresh = CoxeterGroup(MATRICES["t237"])
    expected = [read(fresh, p) for p in polytopes(fresh)]
    assert any(p._counts is None for p in census)
    orders = [list(range(len(census)))[::step] + list(range(len(census)))
              for step in (1, -1, 3, -5)]
    start = threading.Barrier(4, timeout=30)
    got = [{} for _ in range(4)]

    def work(k):
        start.wait()
        for i in orders[k]:
            got[k][i] = read(group, census[i])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    for k in range(4):
        assert [got[k][i] for i in range(len(census))] == expected
    assert all(p._counts is not None and p._panels is None for p in census)


def test_region_stops_at_the_limit():
    # a start mask past the limit is refused before the first step; the
    # queue alone is stepped from; a root mask of -1 crosses every wall,
    # and a complement ~cut every wall but the cut ones
    group = CoxeterGroup(MATRICES["a2aff"])
    ball = group.ball(1)
    start = _mask(group, ball)
    ids = [group.chamber_id(g) for g in ball]
    assert region(group, start, -1, 3, queue=[]) is None
    assert region(group, start, -1, 4, queue=[]) == start
    assert region(group, start, -1, 6, queue=ids[1:]) is None
    simple = _mask(group, [])
    for s in range(group.rank):
        simple |= 1 << group.panel_root(group.identity(), s)
    assert region(group, 1 << ids[0], ~simple, 1) == 1 << ids[0]
    # in (oo,oo,oo) each wall has one panel, so crossing the walls of the
    # generators' panels reaches the ball of radius 2 and stops
    group = CoxeterGroup(MATRICES["univ3"])
    ball = group.ball(1)
    walls = 0
    for g in ball[1:]:
        for s in range(group.rank):
            walls |= 1 << group.panel_root(g, s)
    assert region(group, _mask(group, ball), walls, 10,
                  queue=[group.chamber_id(g) for g in ball[1:]]) == \
        _mask(group, group.ball(2))
