"""The elementary-root table and the word reduction that walks it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coxlab.matrices import CoxeterMatrix
from coxlab.words import CROSS, EXIT, CoxeterGroup

from conftest import BENCH_MATRICES, MATRICES
from oracles import (TrackingReduction, elementary_table_signed,
                     library_elementary_table)

H4 = CoxeterMatrix([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])

# |E| on the benchmark matrices, and |E| = |positive roots| on finite types
ELEMENTARY_COUNTS = {
    "cycle4": 9, "n210": 27, "t237": 12, "t23oo": 4, "t255": 10,
    "t333": 6, "tooo": 3,
}
FINITE_COUNTS = {"a3": 6, "b3": 9, "h3": 15, "h4": 60}

DIFFERENTIAL = {**BENCH_MATRICES, "a3": MATRICES["a3"], "b3": MATRICES["b3"],
                "h3": MATRICES["h3"], "h4": H4}


def test_bench_matrices_present():
    assert sorted(BENCH_MATRICES) == sorted(ELEMENTARY_COUNTS)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_reduction_matches_root_tracking(name):
    # the table walk against tracking alpha_t through the word in field
    # arithmetic: every step out of ball(6), every inverse in it, and
    # 200 seeded random words of length up to 40
    m = DIFFERENTIAL[name]
    group = CoxeterGroup(m)
    oracle = TrackingReduction(CoxeterGroup(m))
    for g in group.ball(6):
        assert group.inverse(g).word == oracle.canonical(g.word[::-1])
        for s in range(m.rank):
            assert group.step(g, s).word == oracle.mult_gen(g.word, s), \
                (name, g, s)
    rng = random.Random(12)
    for _ in range(200):
        w = [rng.randrange(m.rank) for _ in range(rng.randrange(41))]
        assert group.normal_form(w).word == oracle.normal_form(w), (name, w)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_table_matches_signed_construction(name):
    group = CoxeterGroup(DIFFERENTIAL[name])
    assert library_elementary_table(group) == elementary_table_signed(group)
    expected = {**ELEMENTARY_COUNTS, **FINITE_COUNTS}[name]
    assert len(group._small_roots) == expected


def _finite_matrix(rank, edges, perm):
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), order in edges.items():
        m[perm[i]][perm[j]] = m[perm[j]][perm[i]] = order
    return CoxeterMatrix(m)


@st.composite
def finite_matrices(draw):
    """Finite Coxeter matrices of rank 3 and 4, generators permuted."""
    p, q = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rank, edges = draw(st.sampled_from([
        (3, {(0, 1): p}),                        # I2(p) x A1
        (3, {(0, 1): 3, (1, 2): 3}),             # A3
        (3, {(0, 1): 4, (1, 2): 3}),             # B3
        (3, {(0, 1): 5, (1, 2): 3}),             # H3
        (4, {(0, 1): p, (2, 3): q}),             # I2(p) x I2(q)
        (4, {(0, 1): 3, (1, 2): 3}),             # A3 x A1
        (4, {(0, 1): 5, (1, 2): 3}),             # H3 x A1
        (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}),  # A4
        (4, {(0, 1): 4, (1, 2): 3, (2, 3): 3}),  # B4
        (4, {(0, 1): 3, (0, 2): 3, (0, 3): 3}),  # D4
        (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}),  # F4
    ]))
    return _finite_matrix(rank, edges, draw(st.permutations(range(rank))))


@settings(max_examples=40)
@given(m=finite_matrices())
def test_finite_table_properties(m):
    # on a finite group E is all of the positive roots: closed under
    # every simple reflection but its own, so no entry exits; each entry
    # is the tracked reflection of its root; and |E| is the number of
    # reflections, all of length at most that of the longest element
    group = CoxeterGroup(m)
    roots, table = group._small_roots, group._small_table
    for i, row in enumerate(table):
        assert EXIT not in row
        rid = group._intern(roots[i])
        for s, k in enumerate(row):
            if k == CROSS:
                assert rid == group._simple[s]
            else:
                assert group._root_list[group._reflect_id(rid, s)] == \
                    roots[k]
    longest = max(len(g) for g in group.ball(None))
    assert len(roots) == len(group.enumerate_reflections(longest))
