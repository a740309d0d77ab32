"""Every wall a group hands out comes from ``wall_between``: the middle
panel of ``as_reflection``, the seen-set-free ``ball``, the walls of
``enumerate_reflections`` and ``conjugate_wall``, each against the code
it replaced, and ``panel_root`` against the tracked-root walk."""

import pytest

from coxlab.errors import BudgetError
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (TrackingReduction, as_reflection_by_descent,
                     ball_by_seen_set, enumerate_reflections_by_word)

DIFFERENTIAL = {**BENCH_MATRICES, "a3": MATRICES["a3"], "h3": MATRICES["h3"],
                "CYCLE4": CYCLE4}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_as_reflection_matches_descent(name):
    group = CoxeterGroup(DIFFERENTIAL[name])
    for g in group.ball(7):
        got = group.as_reflection(g)
        expected = as_reflection_by_descent(group, g)
        assert (got is None) == (expected is None), (name, g)
        if got is not None:
            assert got.reflection == expected.reflection == g
            assert group.panel_root(*got.witness) == \
                group.panel_root(*expected.witness), (name, g)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_panel_root_matches_tracked_walk(name):
    m = DIFFERENTIAL[name]
    group = CoxeterGroup(m)
    oracle = TrackingReduction(CoxeterGroup(m))
    for g in group.ball(6):
        for s in range(m.rank):
            assert group._root_list[group.panel_root(g, s)] == \
                oracle.group._root_list[oracle.panel_root(g.word, s)], \
                (name, g, s)


def _ball_or_budget(fn, radius, cap):
    try:
        return fn(radius, cap)
    except BudgetError:
        return BudgetError


@pytest.mark.parametrize("name,radius", [
    ("i23", None), ("a3", None), ("b3", None), ("h3", None), ("t237", 12),
])
def test_ball_matches_seen_set(name, radius):
    group = CoxeterGroup(MATRICES[name])
    expected = ball_by_seen_set(group, radius)
    assert group.ball(radius) == expected
    n = len(expected)
    for cap in (1, 2, n // 2, n - 1, n, n + 1):
        got = _ball_or_budget(group.ball, radius, cap)
        assert got == _ball_or_budget(
            lambda r, c: ball_by_seen_set(group, r, c), radius, cap)
        assert (got is BudgetError) == (cap < n), (name, cap)


@pytest.mark.parametrize("length", [9, 13])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_enumerate_reflections_matches_word_keyed(name, length):
    group = CoxeterGroup(DIFFERENTIAL[name])
    got = group.enumerate_reflections(length)
    expected = enumerate_reflections_by_word(group, length)
    assert [w.reflection for w in got] == [w.reflection for w in expected]
    for a, b in zip(got, expected):
        assert group.panel_root(*a.witness) == group.panel_root(*b.witness)
        assert a is group.as_reflection(a.reflection)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_conjugate_wall_is_the_wall_of_its_panel(name):
    group = CoxeterGroup(DIFFERENTIAL[name])
    walls = group.enumerate_reflections(7)
    for t in walls:
        tw = t.reflection.word
        for u in walls:
            w, s = u.witness
            got = group.conjugate_wall(t, u)
            assert got is group.wall_between(
                group.multiply(t.reflection, w), s)
            # the product t u t, as conjugate_wall formed it before
            assert got.reflection == \
                group.normal_form(tw + u.reflection.word + tw)
