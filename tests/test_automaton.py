"""The ShortLex automaton: ``ball`` walks its states and ``_mult_gen``
lengthens through it, each against the canonicalising rule it replaced
and against the matrix-identified BFS, on cold groups under threads, and
with its input checks."""

import random
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coxlab.errors import BudgetError, InputError
from coxlab.matrices import is_finite
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (ball_by_canonical, doubled_matrix,
                     normal_form_by_canonical, shortlex_by_matrix_bfs)

DIFFERENTIAL = {**BENCH_MATRICES, "a3": MATRICES["a3"], "b3": MATRICES["b3"],
                "h3": MATRICES["h3"], "CYCLE4": CYCLE4}
BFS_RADIUS = 7


def _words_or_budget(fn, radius, cap):
    try:
        return [g.word for g in fn(radius, cap)]
    except BudgetError as e:
        return ("BudgetError", str(e))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_ball_matches_canonical_rule(name):
    # the same ordered list, and the same BudgetError at caps below the
    # size, one of them inside a level, on a cold group and a cold oracle
    m = DIFFERENTIAL[name]
    radius = None if is_finite(m) else 10
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    expected = [g.word for g in ball_by_canonical(oracle, radius)]
    assert [g.word for g in group.ball(radius)] == expected
    n = len(expected)
    sizes = Counter(len(w) for w in expected)
    widest = max(sizes, key=sizes.get)
    below = sum(sizes[k] for k in sizes if k < widest)
    mid_level = below + sizes[widest] // 2
    assert below < mid_level < below + sizes[widest]
    for cap in (1, 2, n // 3, mid_level, n - 1, n, n + 1):
        got = _words_or_budget(group.ball, radius, cap)
        assert got == _words_or_budget(
            lambda r, c: ball_by_canonical(oracle, r, c), radius, cap)
        assert (got[0] == "BudgetError") == (cap < n), (name, cap)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_normal_form_matches_canonical_rule(name):
    m = DIFFERENTIAL[name]
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    rng = random.Random(17)
    for _ in range(150):
        word = [rng.randrange(m.rank) for _ in range(rng.randrange(30))]
        assert group.normal_form(word).word == \
            normal_form_by_canonical(oracle, word), (name, word)


@pytest.fixture(scope="module")
def bench_bfs():
    """Per bench matrix: a group and its ShortLex forms by matrix BFS."""
    out = {}
    for name, m in sorted(BENCH_MATRICES.items()):
        group = CoxeterGroup(m)
        out[name] = (group, shortlex_by_matrix_bfs(group, BFS_RADIUS))
    return out


@settings(max_examples=150)
@given(data=st.data())
def test_normal_form_is_matrix_bfs_form(bench_bfs, data):
    # a word's normal form has the word's matrix and is the first word of
    # that matrix in ShortLex order
    group, forms = bench_bfs[data.draw(st.sampled_from(sorted(bench_bfs)))]
    word = tuple(data.draw(st.lists(st.integers(0, group.rank - 1),
                                    max_size=BFS_RADIUS)))
    nf = group.normal_form(word).word
    cols = doubled_matrix(group, word)
    assert doubled_matrix(group, nf) == cols
    assert forms[cols] == nf


def test_cold_group_automaton_is_thread_safe():
    # eight threads start together on cold (2,3,7) groups, one group after
    # another for two seconds, each asking for a ball and normal forms:
    # every answer must be the single-threaded one, and every state the
    # group cached for a prefix the state a fresh group gives that prefix
    m = MATRICES["t237"]
    rng = random.Random(11)
    words = [[rng.randrange(3) for _ in range(30)] for _ in range(40)]
    serial = CoxeterGroup(m)
    expected = (serial.ball(18), [serial.normal_form(w) for w in words])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            group = CoxeterGroup(m)
            start = threading.Barrier(8, timeout=30)
            got = [None] * 8

            def work(k, group=group, start=start, got=got):
                start.wait()
                if k % 2:
                    nfs = [group.normal_form(w) for w in words]
                    got[k] = (group.ball(18), nfs)
                else:
                    ball = group.ball(18)
                    got[k] = (ball, [group.normal_form(w) for w in words])

            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [expected] * 8
            fresh = CoxeterGroup(m)
            assert all(fresh._state(prefix) == state
                       for prefix, state in list(group._state_memo.items()))
    finally:
        sys.setswitchinterval(switch)


def test_ball_refuses_bad_budgets():
    group = CoxeterGroup(MATRICES["t237"])
    with pytest.raises(InputError):
        group.ball(-1)
    with pytest.raises(InputError):
        group.ball(0, cap=0)
    with pytest.raises(InputError):
        group.ball(None, cap=-5)
    assert group.ball(0, cap=1) == [group.identity()]
    with pytest.raises(BudgetError):
        group.ball(1, cap=1)


def _automaton_size(group):
    """States and transitions reached from the identity's empty state."""
    seen, todo, transitions = {frozenset()}, [frozenset()], 0
    while todo:
        for child in group._row(todo.pop()):
            if child is not None:
                transitions += 1
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
    return len(seen), transitions


def test_automaton_sizes_on_bench_matrices():
    # the sizes the README reports, each a finite automaton
    sizes = {name: _automaton_size(CoxeterGroup(m))
             for name, m in BENCH_MATRICES.items()}
    assert sizes == {"t23oo": (5, 8), "tooo": (4, 9), "t333": (13, 19),
                     "t255": (22, 32), "t237": (26, 36), "cycle4": (17, 33),
                     "n210": (179, 301)}
