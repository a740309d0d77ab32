"""Chamber ids: a group numbers each chamber the first time it is asked
and runs the chamber layer on those ids, with chamber sets as int
bitmasks and one adjacency row per chamber.  An id orders nothing, so a
group that numbered its chambers in another order gives the same census
and the same ``--emit`` bytes; racing threads get one id per word and
equal rows; and a polytope stays a value that every group of its matrix
reads, whichever group numbered it."""

import copy
import pickle
import sys
import threading
from pathlib import Path

import pytest

from coxlab import cli
from coxlab.davis import (AngleSite, ChamberPolytope, angle_sites,
                          census_line, check_andreev, convex_hull,
                          enumerate_convex_polytopes, is_convex,
                          is_coxeter_polytope, polytope_of, side,
                          stacan_pairs)
from coxlab.errors import InputError
from coxlab.matrices import parse_matrix
from coxlab.words import CoxeterGroup, Element, Wall

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import angle_sites_by_residue, inversion_set_by_prefixes

T237 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / \
    "t237.json"


def _reversed_group(matrix, radius=4):
    """A cold group that numbers its ball in reverse ShortLex first."""
    group = CoxeterGroup(matrix)
    ball = group.ball(radius)
    for g in reversed(ball):
        group.chamber_id(g)
    assert group.chamber_id(ball[-1]) == 0
    assert group.chamber_id(group.identity()) == len(ball) - 1
    return group


def test_reverse_numbering_gives_the_same_census():
    matrix = parse_matrix(T237.read_text())
    fresh, group = CoxeterGroup(matrix), _reversed_group(matrix)
    got = list(enumerate_convex_polytopes(group, 6))
    expected = list(enumerate_convex_polytopes(fresh, 6))
    assert [p.chambers for p in got] == [q.chambers for q in expected]
    assert [p.facet_walls for p in got] == [q.facet_walls for q in expected]
    assert [census_line(group, p) for p in got] == \
        [census_line(fresh, q) for q in expected]


def test_reverse_numbering_gives_the_same_emit_bytes(tmp_path, monkeypatch,
                                                     capsys):
    out = tmp_path / "census.jsonl"
    argv = ["polytopes", str(T237), "--max-chambers", "6", "--emit",
            str(out)]
    assert cli.main(argv) == 0
    summary = capsys.readouterr().out
    expected = out.read_bytes()
    out.unlink()
    built = []

    def numbered(matrix):
        built.append(_reversed_group(matrix))
        return built[-1]

    monkeypatch.setattr(cli, "CoxeterGroup", numbered)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == summary
    assert len(built) == 1 and built[0].chamber_id(
        built[0].identity()) != 0
    assert expected.count(b"\n") > 50
    assert out.read_bytes() == expected


def _rows(group, i):
    """Chamber i's row as values: (neighbour word, root coordinates)."""
    return [(group.chamber(j).word, group._root_list[r])
            for j, r in group.adjacent(i)]


def test_cold_group_numbers_each_chamber_once_under_threads():
    # eight threads race chamber_id and adjacent on a series of cold
    # (2,3,7) groups, each walking the ball in its own order: every word
    # gets one id and every id one interned element, in every thread, and
    # each row holds the serial values
    serial = CoxeterGroup(MATRICES["t237"])
    ball = serial.ball(12)
    expected = {g.word: _rows(serial, serial.chamber_id(g)) for g in ball}
    orders = [ball[k:] + ball[:k] for k in (0, 5, 11, 17)]
    orders += [order[::-1] for order in orders]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            group = CoxeterGroup(MATRICES["t237"])
            start = threading.Barrier(8, timeout=30)
            got = [None] * 8

            def work(k, group=group, start=start, got=got):
                start.wait()
                seen = {}
                for g in orders[k]:
                    i = group.chamber_id(g)
                    seen[g.word] = (i, group.adjacent(i))
                got[k] = seen

            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for g in ball:
                i, row = got[0][g.word]
                assert all(got[k][g.word] == (i, row) for k in range(8))
                assert group.chamber(i) is group._element(g.word)
                assert _rows(group, i) == expected[g.word]
            count = len(group._chambers)
            assert len(group._ids) == count >= len(ball)
            assert sorted(group._ids.values()) == list(range(count))
            for i in range(count):
                assert group.chamber_id(group.chamber(i)) == i
    finally:
        sys.setswitchinterval(switch)


def _values(group, p):
    return (angle_sites(group, p), is_coxeter_polytope(group, p),
            check_andreev(group, p), polytope_of(group, p.chambers))


@pytest.mark.parametrize("name", ["t237", "t255", "CYCLE4"])
def test_polytopes_stay_values_across_groups(name):
    # a second group of the matrix, numbered otherwise, reads the census
    # members, counted at birth in their own group's ids, last first, and
    # the stacan translates, counted on first read, through their
    # chambers, and finds what a fresh group finds on its own census; it
    # keeps nothing on them, so each member keeps its own counts and a
    # translate none
    matrix = CYCLE4 if name == "CYCLE4" else MATRICES[name]
    group, fresh = CoxeterGroup(matrix), CoxeterGroup(matrix)
    census = list(enumerate_convex_polytopes(group, 6))
    fresh_census = list(enumerate_convex_polytopes(fresh, 6))
    other = _reversed_group(matrix)

    def check(p, q):
        assert p.chambers == q.chambers
        sites, coxeter, andreev, poly = _values(other, p)
        assert sites == angle_sites(fresh, q)
        assert sites == angle_sites_by_residue(other, p.chambers)
        assert coxeter == is_coxeter_polytope(fresh, q)
        assert andreev == check_andreev(fresh, q)
        assert poly.facet_walls == p.facet_walls == q.facet_walls
        assert poly._numbered[0] is other

    counts = [p._counts for p in census]
    assert None not in counts
    for p, q in zip(census[::-1], fresh_census[::-1]):
        check(p, q)
    assert all(p._counts is c for p, c in zip(census, counts))
    assert [census_line(group, p) for p in census] == \
        [census_line(fresh, q) for q in fresh_census]
    translates = [p2 for _, p2, _ in stacan_pairs(group, 5, census=census)]
    fresh_translates = [p2 for _, p2, _ in stacan_pairs(fresh, 5,
                                                        census=fresh_census)]
    assert translates and len(translates) == len(fresh_translates)
    for p, q in zip(translates, fresh_translates):
        assert p._counts is None and p._numbered[0] is group
        check(p, q)
        assert p._counts is None


def test_polytope_survives_copy_and_pickle():
    # a copy is the value without the numbering group (which holds a
    # lock) or the caches, and any group reads it
    group = CoxeterGroup(MATRICES["t237"])
    p = list(enumerate_convex_polytopes(group, 5))[-1]
    copies = [copy.copy(p), copy.deepcopy(p)] + [
        pickle.loads(pickle.dumps(p, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    sites = angle_sites(CoxeterGroup(MATRICES["t237"]), p)
    for x in copies:
        assert type(x) is type(p) and x == p and hash(x) == hash(p)
        assert x.facet_walls == p.facet_walls
        assert x._counts is None and x._numbered == (None, 0)
        assert angle_sites(group, x) == sites


_COPIERS = [copy.copy, copy.deepcopy] + [
    lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


@pytest.mark.parametrize("copier", _COPIERS)
def test_unread_polytope_and_site_survive_copy_and_pickle(copier):
    # a census member whose chambers and walls were never read copies as
    # its value: the walls are built for the copy, which carries no group;
    # a site with exit walls copies as its five fields
    group = CoxeterGroup(MATRICES["t237"])
    p = list(enumerate_convex_polytopes(group, 5))[-1]
    assert p._chambers is None and p._walls is None
    x = copier(p)
    assert type(x) is ChamberPolytope and x._numbered == (None, 0)
    assert x._panels is None and x._counts is None
    site = next(z for z in angle_sites(group, p) if z.boundary_walls)
    y = copier(site)
    assert type(y) is AngleSite
    expected = CoxeterGroup(MATRICES["t237"])
    q = list(enumerate_convex_polytopes(expected, 5))[-1]
    assert x == p == q and hash(x) == hash(p) == hash(q)
    assert x.chambers == q.chambers and x.facet_walls == q.facet_walls
    assert x.facet_count == p.facet_count == q.facet_count
    assert angle_sites(group, x) == angle_sites(expected, q)
    z = angle_sites(expected, q)[angle_sites(group, p).index(site)]
    assert y == site == z and hash(y) == hash(site) == hash(z)
    assert y.boundary_walls == z.boundary_walls
    assert (y.base, y.pair, y.m, y.j) == (z.base, z.pair, z.m, z.j)


@pytest.mark.parametrize("name", [*BENCH_MATRICES, "a3", "h3"])
def test_records_match_prefix_and_product_oracles(name):
    # a cold group asked deepest chamber first grows each inversion mask
    # back through the records of its prefixes, and reads step off the
    # adjacency rows: on every chamber of the ball both agree with the
    # prefix-grown frozenset and with reducing the lengthened word
    group = CoxeterGroup(BENCH_MATRICES.get(name) or MATRICES[name])
    for g in reversed(group.ball(8)):
        n = inversion_set_by_prefixes(group, g)
        assert group.inversion_mask(group.chamber_id(g)) == \
            sum(1 << r for r in n)
        assert group.inversion_set(g) == n
        for s in range(group.rank):
            assert group.step(g, s) is group.normal_form(g.word + (s,))


def test_words_that_are_no_normal_form_are_refused():
    # an element whose word is no normal form of the group names no
    # chamber: every question about it is an input error, never an answer
    # about another chamber, and no id is handed out for it
    group = CoxeterGroup(MATRICES["t23inf"])  # m12 = 2, m23 = 3, m13 = oo
    e = group.identity()
    bad = [Element((0, 0)), Element((1, 0)), Element((1, 0, 1)),
           Element((0, 3)), Element((-1,))]
    for g in bad:
        with pytest.raises(InputError):
            group.chamber_id(g)
        with pytest.raises(InputError):
            group.step(g, 0)
        with pytest.raises(InputError):
            group.inversion_set(g)
        with pytest.raises(InputError):
            side(group, group.generator_wall(0), g)
        with pytest.raises(InputError):
            convex_hull(group, [g])
        with pytest.raises(InputError):
            is_convex(group, [g, e])
        assert g.word not in group._ids
    # a normal form the group has not handed out is numbered when asked
    g = Element((0, 1, 2))
    assert g.word not in group._ids
    assert group.chamber(group.chamber_id(g)) == g


# words that are no normal form of (2,3,oo) (m12 = 2, m23 = 3, m13 = oo)
# or of (2,3,7) (m12 = 2, m23 = 3, m13 = 7), with out-of-range letters
NOT_NORMAL = [Element((0, 0)), Element((1, 0)), Element((1, 0, 1)),
              Element((2, 1, 2)), Element((0, 3)), Element((-1,))]


def _cold(stem):
    return CoxeterGroup(BENCH_MATRICES[stem])


@pytest.mark.parametrize("stem", ["t23oo", "t237"])
def test_multiply_refuses_words_that_are_no_normal_form(stem):
    group = _cold(stem)
    for g in NOT_NORMAL:
        with pytest.raises(InputError):
            group.multiply(g, group.generator(0))
        with pytest.raises(InputError):
            group.multiply(group.generator(1), g)
        assert g.word not in group._ids
    assert group.multiply(Element((0, 1)), Element((0,))) == \
        group.normal_form((0, 1, 0))


@pytest.mark.parametrize("stem", ["t23oo", "t237"])
def test_inverse_refuses_words_that_are_no_normal_form(stem):
    group = _cold(stem)
    for g in NOT_NORMAL:
        with pytest.raises(InputError):
            group.inverse(g)
        assert g.word not in group._ids
    assert group.inverse(Element((0, 2))) == group.normal_form((2, 0))


@pytest.mark.parametrize("stem", ["t23oo", "t237"])
def test_panel_root_refuses_words_that_are_no_normal_form(stem):
    group = _cold(stem)
    for g in NOT_NORMAL:
        with pytest.raises(InputError):
            group.panel_root(g, 0)
        assert g.word not in group._ids
    e = group.identity()
    for s in (-1, 3):
        with pytest.raises(InputError):
            group.panel_root(e, s)
    assert group.panel_root(Element((0, 2)), 1) == \
        group.wall_root(group.wall_between(group.normal_form((0, 2)), 1))


@pytest.mark.parametrize("stem", ["t23oo", "t237"])
def test_wall_between_refuses_words_that_are_no_normal_form(stem):
    group = _cold(stem)
    for g in NOT_NORMAL:
        for s in range(group.rank):
            with pytest.raises(InputError):
                group.wall_between(g, s)
        assert g.word not in group._ids
    wall = group.wall_between(Element((0, 2)), 1)
    assert wall.reflection == group.normal_form((0, 2, 1, 2, 0))


@pytest.mark.parametrize("stem", ["t23oo", "t237"])
def test_conjugate_wall_refuses_words_that_are_no_normal_form(stem):
    group = _cold(stem)
    e, u = group.identity(), group.generator_wall(1)
    for g in NOT_NORMAL:
        with pytest.raises(InputError):
            group.conjugate_wall(Wall(g, (e, 0)), u)
        with pytest.raises(InputError):
            group.conjugate_wall(u, Wall(group.generator(0), (g, 0)))
        assert g.word not in group._ids
    t = group.generator_wall(0)
    assert group.conjugate_wall(t, u) == group.wall_between(
        group.generator(0), 1)


@pytest.mark.parametrize("stem", ["t23oo", "t237"])
def test_as_reflection_refuses_words_that_are_no_normal_form(stem):
    group = _cold(stem)
    for g in NOT_NORMAL:
        with pytest.raises(InputError):
            group.as_reflection(g)
        assert g.word not in group._ids
    assert group.as_reflection(Element((0, 1, 2))) is None
    assert group.as_reflection(Element((0, 2, 0))) == \
        group.wall_between(group.generator(0), 2)


def test_wall_root_reads_the_root_of_any_group_s_wall():
    # a group's own walls are read off the map that wall_between fills; a
    # wall of another group of the matrix, numbered in another order,
    # gets this group's id from its witness
    m = BENCH_MATRICES["t237"]
    group, other = CoxeterGroup(m), _reversed_group(m)
    for mine, theirs in zip(group.enumerate_reflections(9),
                            other.enumerate_reflections(9)):
        assert mine == theirs
        assert group.wall_root(mine) == group.panel_root(*mine.witness)
        assert group.wall_root(theirs) == group.wall_root(mine)
        assert other.wall_root(mine) == other.panel_root(*theirs.witness)
