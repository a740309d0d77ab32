"""The census grows one facet wall at a time: the differential test
against the full-hull growth it replaced, the lemma it rests on, the
hull's own properties, and the group's memo of rank-2 residue bases."""

import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coxlab.davis import (_region, angle_sites, convex_hull,
                          enumerate_convex_polytopes, is_convex, side)
from coxlab.matrices import INFINITY
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (census_by_full_hulls, hull_fixpoint,
                     residue_base_by_descent, residue_by_coset)

DIFFERENTIAL = {**BENCH_MATRICES, "a3": MATRICES["a3"], "h3": MATRICES["h3"],
                "CYCLE4": CYCLE4}
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


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_residue_base_matches_descent_and_coset(name):
    # the least chamber of the coset g W_{s,t}: the descent loop and the
    # shortest of the whole residue for a finite pair; for any pair, the
    # one chamber x of the coset with no right descent in {s, t}
    m = DIFFERENTIAL[name]
    group = CoxeterGroup(m)
    for g in group.ball(5):
        for s, t in combinations(range(m.rank), 2):
            base = group.residue_base(g, s, t)
            assert group.residue_base(g, s, t) is base
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


def test_region_stops_at_the_limit():
    # a start set past the limit is refused before the first step; the
    # queue alone is stepped from
    group = CoxeterGroup(MATRICES["a2aff"])
    ball = group.ball(1)
    assert _region(group, ball, lambda g, s: True, 3, queue=[]) is None
    assert _region(group, ball, lambda g, s: True, 4, queue=[]) == \
        frozenset(ball)
    assert _region(group, ball, lambda g, s: True, 6, queue=ball[1:]) \
        is None
    assert _region(group, ball, lambda g, s: len(g) == 1, 10,
                   queue=ball[1:]) == frozenset(group.ball(2))
