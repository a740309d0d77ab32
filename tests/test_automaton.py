"""The ShortLex automaton that ``ball`` walks, and the one-walk product
``_mult_gen``, each against the canonicalising rule it replaced and
against the matrix-identified BFS, on cold groups under threads, and
with its input checks."""

import random
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coxlab.errors import BudgetError, InputError
from coxlab.matrices import INFINITY, is_finite
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (automaton_state, ball_by_canonical,
                     canonical_by_descents, doubled_matrix,
                     mult_gen_by_canonical, normal_form_by_canonical,
                     shortlex_by_matrix_bfs)

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


def _random_normal_forms(group, rng, count, longest=45):
    """Normal forms of seeded random words of length <= ``longest``, with
    no letter repeated next to itself, so that they reduce less."""
    out = []
    for _ in range(count):
        word = []
        for _ in range(rng.randrange(longest + 1)):
            word.append(rng.choice([a for a in range(group.rank)
                                    if word[-1:] != [a]]))
        out.append(group.normal_form(word).word)
    return out


def _outcome(word, t, product):
    if len(product) < len(word):
        return "delete"
    return "append" if product == word + (t,) else "insert"


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_mult_gen_matches_descent_stripping(name):
    # every generator times seeded random normal forms: the one walk gives
    # the descent-stripping form, appends exactly when the automaton lets
    # t follow, and on an infinite matrix deletes, inserts and appends;
    # it inserts nowhere when every pair of generators has order oo, as
    # then each element has one reduced word
    m = DIFFERENTIAL[name]
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    outcomes = Counter()
    for word in _random_normal_forms(group, random.Random(29), 120):
        row = oracle._row(automaton_state(oracle, word))
        for t in range(m.rank):
            got = group._mult_gen(word, t)
            assert got == mult_gen_by_canonical(oracle, word, t), \
                (name, word, t)
            kind = _outcome(word, t, got)
            assert (kind == "append") == ((t,) in row[0]), (name, word, t)
            outcomes[kind] += 1
    braided = any(m.order(i, j) != INFINITY
                  for i in range(m.rank) for j in range(i))
    if not is_finite(m):
        assert set(outcomes) == {"delete", "append"} | (
            {"insert"} if braided else set()), outcomes


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_inverse_matches_descent_stripping(name):
    m = DIFFERENTIAL[name]
    group, oracle = CoxeterGroup(m), CoxeterGroup(m)
    for word in _random_normal_forms(group, random.Random(31), 60):
        assert group.inverse(group.normal_form(word)).word == \
            canonical_by_descents(oracle, word[::-1]), (name, word)


@settings(max_examples=200)
@given(name=st.sampled_from(sorted(DIFFERENTIAL)), data=st.data())
def test_mult_gen_twice_by_a_generator_is_the_identity(name, data):
    group = CoxeterGroup(DIFFERENTIAL[name])
    letters = st.integers(0, group.rank - 1)
    word = group.normal_form(data.draw(st.lists(letters, max_size=45))).word
    t = data.draw(letters)
    assert group._mult_gen(group._mult_gen(word, t), t) == word


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
    # every answer must be the single-threaded one, and every automaton
    # row the group cached for a state the row a fresh group gives it
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
            rows = list(group._row_memo.items())
            assert rows
            assert all(fresh._row(state) == row for state, row in rows)
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
        for child in group._row(todo.pop())[1]:
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
