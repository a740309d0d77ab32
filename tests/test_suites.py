"""The stacan, andreev and facet-bound suites against the
implementations they replaced, kept in ``oracles``, and on the data they
decide: the same glued pairs in the same order and byte-identical report
entries from the partner index and the mask test of union convexity, the
member records of one boundary scan against the arc walk and the
identity translate, the scan oracle's refusal of an acute facet of two
chambers, the mask test flag for flag against the hull on unions that
are not convex too, the same violations from the Andreev check on root
supports as from the residue walk and from conjugates, the same meeting
per chamber, its sphericity memo against ``is_finite`` and under
threads, no group product formed by it, no residue walked, nor a wall
built but to display a violation, no order asked on a matrix with no
finite label, and an answer past rank 16; and the facet-bound suite's
failure on a decomposable matrix."""

import json
import sys
import threading
import time
from itertools import combinations

import pytest

from coxlab import cli, davis
from coxlab.davis import (_boundary_roots, _mask_of, check_andreev,
                          enumerate_convex_polytopes, glued_translates,
                          glued_unions, is_acute_angled, is_convex,
                          polytope_of, stacan_pairs, translate,
                          union_is_convex)
from coxlab.errors import ConsistencyError
from coxlab.matrices import INFINITY, CoxeterMatrix, is_finite
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (check_andreev_by_conjugates, check_andreev_by_walk,
                     glued_unions_wide, meet_at_by_conjugates,
                     obtuse_roots_by_arcs, stacan_entry_by_scan,
                     stacan_pairs_by_scan)

# the verify workload's matrices at its budgets
CASES = [("t23oo", 7), ("t255", 7), ("t237", 7), ("t333", 7), ("cycle4", 6),
         ("tooo", 5)]
# and the one with rank-3 spherical residues of three types (H3,
# I2(5)xA1, A1xI2(7)), which the rank-2 residues alone do not decide
ANDREEV_CASES = CASES + [("n210", 5)]
# and larger censuses, with the triangles (2,4,4) and (2,3,6)
ANDREEV_WIDE = ANDREEV_CASES + [("cycle4", 8), ("n210", 6), ("t244", 6),
                                ("t236", 6)]


def _census(name, k):
    group = CoxeterGroup({**MATRICES, **BENCH_MATRICES}[name])
    return group, list(enumerate_convex_polytopes(group, k))


@pytest.mark.parametrize("name,k", CASES)
def test_stacan_matches_scan_oracle(name, k, monkeypatch):
    group, census = _census(name, k)
    got = [(p1.chambers, p2, wall)
           for p1, p2, wall in stacan_pairs(group, k, census=census)]
    expect = [(p1.chambers, p2, wall)
              for p1, p2, wall in stacan_pairs_by_scan(group, k, census)]
    assert got == expect and got
    run = cli._VerifyRun(group, k, census)
    # every union is convex, so a second pass with the suite's mask test
    # refusing every union compares the counterexamples too
    for convex in (is_convex, lambda *_: False):
        if convex is not is_convex:
            monkeypatch.setattr(davis, "union_is_convex", lambda *_: False)
        report = cli.VerificationReport("stacan", "", {})
        cli.suite_stacan(run, report)
        entry = stacan_entry_by_scan(group, k, census, convex)
        assert json.dumps(report.checks, sort_keys=True) == \
            json.dumps([entry], sort_keys=True)
        assert entry["status"] == ("bounded-pass" if convex is is_convex
                                   else "fail")


@pytest.mark.parametrize("name,k", CASES)
def test_union_mask_test_matches_hull_where_unions_are_not_convex(name, k):
    # every (P1, acute facet) with every member C that fits and does not
    # hold s, C obtuse along the wall of s too: the mask test of the
    # suite, on P1 walked into C's frame, against the hull of the union
    # (``is_convex``, which compares the union's mask with its hull).
    # The test is exact there as well: if a chamber x != e of C has a
    # panel on the wall of s, the gallery s y, y on a minimal gallery from
    # e to x, leaves P1's frame Q | C on a wall other than s's that
    # separates e from x, so a second wall is in both masks.
    group, census = _census(name, k)
    base = group.chamber_id(group.identity())
    flags = []
    for p1, (g, s), c, union in glued_unions_wide(group, k, census):
        across, root = group.adjacent(base)[s]
        _, n_q, b_q = translate(group, _mask_of(group, p1), across,
                                group.chamber_id(g))
        _, n_c, b_c = translate(group, _mask_of(group, c), base)
        convex = is_convex(group, union)
        assert union_is_convex(n_q, b_q, n_c, b_c, root) == convex, \
            (p1, g, s, c)
        flags.append(convex)
    assert True in flags
    # the matrices with a finite label have partners obtuse along a wall
    # of s, whose unions are not convex
    assert (False in flags) == bool(group.finite_pairs)


@pytest.mark.parametrize("name", sorted(BENCH_MATRICES))
def test_member_records_match_arc_walk_and_translate(name, monkeypatch):
    # each member's one boundary scan at K = 7 gives the B of
    # ``translate`` by the identity and the obtuse roots of the arc walk
    # it replaced, so the same acute roots, and each partner the pair
    # loop tests carries the N and B of that translate
    group, census = _census(name, 7)
    base = group.chamber_id(group.identity())
    holding = [[k for k, (a, b, _) in enumerate(group.finite_pairs)
                if s in (a, b)] for s in range(group.rank)]
    for p in census:
        mask = _mask_of(group, p)
        boundary, obtuse = _boundary_roots(group, p, mask, holding)
        assert boundary == translate(group, mask, base, base)[2], p
        assert obtuse == obtuse_roots_by_arcs(group, p), p
    tested = []

    def recorded(n1, b1, n2, b2, root):
        tested.append((n2, b2))
        return union_is_convex(n1, b1, n2, b2, root)

    monkeypatch.setattr(davis, "union_is_convex", recorded)
    masks = [mask for *_, mask, _ in glued_unions(group, 7, census)]
    assert masks and len(masks) == len(tested)
    for mask, partner in zip(masks, tested):
        assert partner == translate(group, mask, base, base)[1:]


# non-convex sets whose residues are one arc each, with two panels on one
# acute facet wall: (matrix, words)
TWO_PANELS = [("t237", [(), (0, 2, 1)]), ("a2aff", [(), (0, 1, 2), (1, 0, 2)]),
              ("t23inf", [(), (0,), (1, 2, 0)]), ("remark", [(), (0, 1)])]


@pytest.mark.parametrize("name,words", TWO_PANELS)
def test_acute_facet_of_two_chambers_is_refused(name, words):
    # a census member acute along a facet wall with two panels on it is
    # no convex polytope: the pair search refuses it, with the scan
    # oracle's message and payload, after a census of convex members
    group, census = _census(name, 4)
    census.append(polytope_of(group, frozenset(
        group.normal_form(list(w)) for w in words)))
    refusals = []
    for search in (glued_unions, stacan_pairs_by_scan):
        with pytest.raises(ConsistencyError) as e:
            list(search(group, 6, census))
        refusals.append((str(e.value), e.value.payload))
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == \
        "acute facet of a convex polytope is not one chamber"
    assert len(refusals[0][1]) == 2


def test_stacan_budget_one_yields_nothing():
    # no pair fits in one chamber, with or without a census passed
    group, census = _census("t23oo", 3)
    for k in (1, 0):
        assert list(stacan_pairs(group, k)) == []
        assert list(stacan_pairs(group, k, census=census)) == []
        assert list(glued_translates(group, k)) == []


@pytest.mark.parametrize("name,k", ANDREEV_WIDE)
def test_check_andreev_matches_conjugates_oracle(name, k):
    # every census member, acute or not: the support test per chamber
    # against the residue walk it replaced and the conjugates before that
    group, census = _census(name, k)
    violations = 0
    for p in census:
        got = check_andreev(group, p)
        assert got == check_andreev_by_walk(group, p), (name, p)
        assert got == check_andreev_by_conjugates(group, p), (name, p)
        violations += len(got)
    # the obtuse members of the groups with no infinite label break the
    # guarantee, which is made for acute ones only
    assert (violations > 0) == (name in ("t255", "t237", "t333", "n210",
                                         "t244", "t236"))


@pytest.mark.parametrize("name,k", ANDREEV_WIDE)
def test_meet_at_matches_conjugate_supports(name, k):
    # every (chamber, facet pair) of the census: the supports of the roots
    # moved by g^-1 against the letters of the conjugated reflections
    group, census = _census(name, k)
    asked, met = set(), 0
    for p in census:
        for g in p.chambers:
            i = group.chamber_id(g)
            for a, b in combinations(p.facet_walls, 2):
                if (g, a, b) in asked:
                    continue
                asked.add((g, a, b))
                got = group.meet_at(i, group.wall_root(a), group.wall_root(b))
                assert got == meet_at_by_conjugates(group, g, a, b), \
                    (name, g, a, b)
                met += got
    # with no finite label no two walls meet (``check_andreev`` (ii))
    assert met < len(asked) and (met > 0) == bool(group.finite_pairs)


# every matrix of the tests and of the benchmark; all of rank at most 6
SPHERICAL_CASES = {**MATRICES, **BENCH_MATRICES, "CYCLE4": CYCLE4}


@pytest.mark.parametrize("name", sorted(SPHERICAL_CASES))
def test_sphericity_memo_matches_is_finite_on_every_subset(name):
    matrix = SPHERICAL_CASES[name]
    assert matrix.rank <= 6
    group = CoxeterGroup(matrix)
    for mask in range(1, 1 << matrix.rank):
        letters = [j for j in range(matrix.rank) if mask >> j & 1]
        assert group._is_spherical(mask) == \
            is_finite(matrix.restrict(letters)), (name, letters)
    assert sorted(group._spherical) == list(range(1, 1 << matrix.rank))


def test_check_andreev_walks_no_residue(monkeypatch):
    # over n210's census at K = 6 the check asks ``meet_at`` alone: no
    # residue walk, and few chamber ids beyond the census's (the walk to
    # the top of each maximal spherical residue numbered 901 in all)
    group, census = _census("n210", 6)
    walked = []
    monkeypatch.setattr(group, "residue_end",
                        lambda *args: walked.append(args))
    assert sum(len(check_andreev(group, p)) for p in census) > 0
    assert walked == [] and len(group._chambers) <= 160


def test_check_andreev_from_threads_on_a_cold_group():
    # 8 threads share one cold group of n210, with no chamber numbered, and
    # a census at K = 5 that another group built, each thread starting at
    # its own member: the answers are a serial run's on a fresh group, and
    # so is the sphericity memo
    census = _census("n210", 5)[1]
    group, serial = (CoxeterGroup(BENCH_MATRICES["n210"]) for _ in range(2))
    want = [check_andreev(serial, p) for p in census]
    assert any(want)
    start = threading.Barrier(8, timeout=30)
    got = [None] * 8

    def work(t):
        start.wait()
        order = list(range(t, len(census))) + list(range(t))
        answers = {j: check_andreev(group, census[j]) for j in order}
        got[t] = [answers[j] for j in range(len(census))]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert got == [want] * 8
    assert group._spherical == serial._spherical


def _affine_a(n):
    """The affine matrix of rank n: a cycle of n letters labelled 3."""
    return CoxeterMatrix([[1 if i == j else 3 if (i - j) % n in (1, n - 1)
                           else 2 for j in range(n)] for i in range(n)])


def test_andreev_at_high_rank_ends_quickly_or_reports_its_budget():
    # affine A~n has 2^(n+1) - 2 spherical subsets, but the check asks one
    # sphericity per support met and enumerates none: the base chamber,
    # whose facet pairs all have finite order, is checked in well under a
    # second at ranks 13 and 16, and past rank 16, where an enumeration of
    # spherical sets would stop at its cap, the suite answers as well
    for rank, k, seconds in ((13, 1, 5), (16, 3, 1)):
        start = time.perf_counter()
        checks = cli.run_verify(_affine_a(rank), "andreev", k).checks
        assert time.perf_counter() - start < seconds
        assert [c["status"] for c in checks] == ["bounded-pass"], rank
    for rank in (17, 20):
        checks = cli.run_verify(_affine_a(rank), "andreev", 3).checks
        assert [(c["status"], c["detail"]) for c in checks] == [
            ("bounded-pass", "0 violations over 1 acute polytopes")], rank


def _count_products(monkeypatch, group):
    calls = []
    for name in ("multiply", "inverse"):
        def counted(*args, _name=name, _method=getattr(group, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(group, name, counted)
    return calls


def test_andreev_forms_no_product_and_builds_walls_for_violations_only(
        monkeypatch):
    # the meeting test acts on root ids by chamber words: no group
    # product is formed on either census; in (oo,oo,oo) every product of
    # two walls has infinite order and no wall is built, and in (2,5,5)
    # the acute members report nothing and build no wall either, while
    # the obtuse ones build walls to display their violations
    group, census = _census("tooo", 5)
    calls = _count_products(monkeypatch, group)
    assert all(check_andreev(group, p) == [] for p in census)
    assert calls == [] and group._wall_memo == {}
    group, census = _census("t255", 5)
    calls = _count_products(monkeypatch, group)
    acute = [p for p in census if is_acute_angled(group, p)]
    assert acute and all(check_andreev(group, p) == [] for p in acute)
    assert group._wall_memo == {}
    assert sum(len(check_andreev(group, p)) for p in census) > 0
    assert calls == [] and group._wall_memo


# the matrices of the tests and of the benchmark with no finite label
ALL_INFINITE = sorted(
    name for name, matrix in {**MATRICES, **BENCH_MATRICES}.items()
    if all(matrix.order(a, b) == INFINITY
           for a, b in combinations(range(matrix.rank), 2)))


def test_all_infinite_matrices_are_the_ones_covered():
    assert ALL_INFINITE == ["a1aff", "tooo", "univ3"]


@pytest.mark.parametrize("name", ALL_INFINITE)
def test_no_wall_pair_has_finite_order_without_a_finite_label(name):
    # the lemma of ``check_andreev`` (ii): no two distinct walls of a
    # matrix with no finite label have a product of finite order, so the
    # check asks no order at all, on any census member
    matrix = {**MATRICES, **BENCH_MATRICES}[name]
    group = CoxeterGroup(matrix)
    roots = [group.wall_root(w) for w in group.enumerate_reflections(9)]
    assert len(roots) > 2 * matrix.rank
    assert all(group.order_of_roots(a, b) == INFINITY
               for a, b in combinations(roots, 2))
    group = CoxeterGroup(matrix)
    asked = []
    order_of_roots = group.order_of_roots
    group.order_of_roots = lambda *ids: asked.append(ids) or \
        order_of_roots(*ids)
    census = list(enumerate_convex_polytopes(group, 6))
    assert len(census) > 6
    assert all(check_andreev(group, p) == [] for p in census)
    assert asked == []


# {e, s3} has the facet walls of s1 and s2 alone, as s3 commutes with
# both, and so does {e, s3} grown across the wall of s1 or of s2
PINNED_FACET_BOUND = {
    "name": "facet-bound", "status": "fail",
    "detail": "13 polytopes, min facets 2 (rank 3)",
    "counterexample": [["", "3"], ["", "1", "3", "1 3"],
                       ["", "2", "3", "2 3"]]}


def test_facet_bound_fails_on_a_decomposable_matrix():
    # (oo) x A1 has polytopes of two facets against rank 3: run_verify
    # skips a decomposable matrix, so the suite is driven directly
    group = CoxeterGroup(MATRICES["remark"])
    run = cli._VerifyRun(group, 4, cli.census_list(group, 4))
    report = cli.VerificationReport("facet-bound", "", {})
    cli.suite_facet_bound(run, report)
    assert report.checks == [PINNED_FACET_BOUND]
    assert report.exit_code == 1
