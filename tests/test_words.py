import random
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxlab.algebraic import SIGN_STATS
from coxlab.davis import enumerate_convex_polytopes
from coxlab.errors import InputError
from coxlab.matrices import INFINITY, CoxeterMatrix
from coxlab.words import CoxeterGroup, Element, root_span_rank, word_from_text

from conftest import BENCH_MATRICES, CYCLE4, MATRICES
from oracles import (AlgebraicReal, bilinear, doubled_matrix, element_count,
                     floor_scaled_generator, interval, matmul, matrix_of,
                     order_by_form_rows, order_by_powers, root_of,
                     shortlex_by_matrix_bfs, tits_form)


@pytest.fixture(scope="module")
def t23inf():
    return CoxeterGroup(MATRICES["t23inf"])


@pytest.fixture(scope="module")
def a1aff():
    return CoxeterGroup(MATRICES["a1aff"])


@pytest.fixture(scope="module")
def a2():
    return CoxeterGroup(CoxeterMatrix.dihedral(3))


def test_tits_form_triangle(t23inf):
    b = tits_form(t23inf)
    assert b[0][0] == 1 and b[1][1] == 1 and b[2][2] == 1
    assert b[0][1] == 0
    assert b[1][2] == Fraction(-1, 2)
    assert b[0][2] == -1
    assert b[2][1] == b[1][2]


def test_tits_form_trivial_cases():
    b = tits_form(CoxeterGroup(CoxeterMatrix([[1]])))
    assert b == ((b[0][0],),) and b[0][0] == 1
    g = CoxeterGroup(CoxeterMatrix([[1, 2, 2], [2, 1, 2], [2, 2, 1]]))
    b = tits_form(g)
    for i in range(3):
        for j in range(3):
            assert b[i][j] == (1 if i == j else 0)


def test_normal_form_basics(t23inf, a1aff, a2):
    assert t23inf.normal_form([0, 0]) == t23inf.identity()
    assert a2.normal_form([1, 0, 1]) == a2.normal_form([0, 1, 0])
    assert a1aff.normal_form([0, 1] * 5).length == 10
    with pytest.raises(InputError):
        t23inf.normal_form([5])


def test_step_and_wall_between_refuse_a_bad_generator():
    group = CoxeterGroup(MATRICES["t23inf"])
    e = group.identity()
    for s in (-1, group.rank):
        with pytest.raises(InputError):
            group.step(e, s)
        with pytest.raises(InputError):
            group.wall_between(e, s)
    assert (-1,) not in group._ids


def test_shortlex_is_least_geodesic(a2):
    # in the order-6 dihedral group the longest element has the two
    # reduced words 010 and 101; ShortLex picks 010
    w0 = a2.normal_form([1, 0, 1])
    assert w0.word == (0, 1, 0)


def test_multiply_inverse_fuzz(t23inf):
    rng = random.Random(5)
    for _ in range(200):
        u = [rng.randrange(3) for _ in range(rng.randrange(12))]
        v = [rng.randrange(3) for _ in range(rng.randrange(12))]
        gu, gv = t23inf.normal_form(u), t23inf.normal_form(v)
        assert t23inf.multiply(gu, gv) == t23inf.normal_form(u + v)
        assert t23inf.multiply(gu, t23inf.inverse(gu)) == t23inf.identity()
        assert t23inf.inverse(gu).length == gu.length


@pytest.fixture(scope="module")
def bench_groups():
    return {name: CoxeterGroup(m)
            for name, m in sorted(BENCH_MATRICES.items())}


@settings(max_examples=200)
@given(data=st.data())
def test_group_axioms(bench_groups, data):
    # multiply is associative, inverse is a two-sided inverse and the
    # identity a two-sided unit, on random words of every bench matrix
    group = bench_groups[data.draw(st.sampled_from(sorted(bench_groups)))]
    word = st.lists(st.integers(0, group.rank - 1), max_size=12)
    g, h, k = (group.normal_form(data.draw(word)) for _ in range(3))
    e = group.identity()
    assert group.multiply(group.multiply(g, h), k) == \
        group.multiply(g, group.multiply(h, k))
    assert group.multiply(g, group.inverse(g)) == e
    assert group.multiply(group.inverse(g), g) == e
    assert group.multiply(e, g) == g == group.multiply(g, e)


def test_relators_die():
    for name in ("t23inf", "a3", "h3", "a2aff", "t255", "t244"):
        g = CoxeterGroup(MATRICES[name])
        m = g.matrix
        for i, j in combinations(range(m.rank), 2):
            if m.order(i, j) == INFINITY:
                continue
            relator = [i, j] * m.order(i, j)
            assert g.normal_form(relator) == g.identity(), (name, i, j)


def test_as_reflection_examples(t23inf, a2):
    w = t23inf.as_reflection(t23inf.generator(0))
    assert w is not None
    assert w.witness == (t23inf.identity(), 0)
    assert root_of(t23inf, w) == (1, 0, 0)
    assert t23inf.as_reflection(t23inf.normal_form([0, 1])) is None
    r = t23inf.as_reflection(t23inf.normal_form([0, 2, 0]))
    assert r is not None and r.reflection.word == (0, 2, 0)
    # rotation of order 3 in the dihedral group
    assert a2.as_reflection(a2.normal_form([0, 1])) is None


def _is_reflection_matrix(group, g):
    """Independent oracle: involution whose matrix fixes a hyperplane
    (all 2x2 minors of M - I vanish, M - I nonzero)."""
    if g == group.identity():
        return False
    m = matrix_of(group, g)
    n = group.rank
    sq = matrix_of(group, group.multiply(g, g))
    for i in range(n):
        for j in range(n):
            if sq[i][j] != (1 if i == j else 0):
                return False
    d = [[m[i][j] - (1 if i == j else 0) for j in range(n)]
         for i in range(n)]
    if all(d[i][j] == 0 for i in range(n) for j in range(n)):
        return False
    for r1, r2 in combinations(range(n), 2):
        for c1, c2 in combinations(range(n), 2):
            if d[r1][c1] * d[r2][c2] - d[r1][c2] * d[r2][c1] != 0:
                return False
    return True


def _assert_witness_root(group, wall):
    """The oracle root r = w(e_s) of the witness (w, s) is a unit root,
    positive exactly when w s is longer than w, and the wall's reflection
    acts as x -> x - 2 B(r, x) r."""
    w, s = wall.witness
    r = root_of(group, wall)
    assert bilinear(group, r, r) == 1
    positive = len(group.step(w, s)) > len(w)
    assert all((x >= 0) if positive else (x <= 0) for x in r), (wall, r)
    m = matrix_of(group, wall.reflection)
    n = group.rank
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        c = bilinear(group, r, e) * 2
        assert tuple(row[j] for row in m) == \
            tuple(e[i] - c * r[i] for i in range(n)), (wall, j)


def test_as_reflection_agrees_with_matrix_oracle():
    for name in ("t23inf", "a3", "univ3"):
        g = CoxeterGroup(MATRICES[name])
        for el in g.ball(8 if name != "univ3" else 5):
            got = g.as_reflection(el)
            expected = _is_reflection_matrix(g, el)
            assert (got is not None) == expected, (name, el)
            if got is not None:
                assert got.reflection == el
                _assert_witness_root(g, got)
                w, s = got.witness
                assert g.multiply(g.multiply(w, g.generator(s)),
                                  g.inverse(w)) == el


def test_order_of_product_examples(t23inf, a2):
    w1, w2, w3 = (t23inf.generator_wall(i) for i in range(3))
    assert t23inf.order_of_product(w1, w2) == 2
    assert t23inf.order_of_product(w2, w3) == 3
    assert t23inf.order_of_product(w1, w3) == INFINITY
    assert t23inf.order_of_product(w3, w1) == INFINITY
    # reflections of the order-6 dihedral group: s1 and s2 s1 s2
    t1 = a2.generator_wall(0)
    t2 = a2.as_reflection(a2.normal_form([1, 0, 1]))
    assert a2.order_of_product(t1, t2) == 3
    with pytest.raises(InputError):
        a2.order_of_product(t1, t1)


def test_order_matches_matrix_entry():
    for name in ("t244", "t255", "h3", "t237"):
        g = CoxeterGroup(MATRICES[name])
        for i, j in combinations(range(g.rank), 2):
            o = g.order_of_product(g.generator_wall(i), g.generator_wall(j))
            assert o == g.matrix.order(i, j)


FINITE_TYPES = {
    "A3": MATRICES["a3"], "B3": MATRICES["b3"], "H3": MATRICES["h3"],
    "H4": CoxeterMatrix([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3],
                         [2, 2, 3, 1]]),
    "F4": CoxeterMatrix([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3],
                         [2, 2, 3, 1]]),
}


def test_order_matches_power_loop():
    # the table order against multiplying normal forms until the
    # identity: every reflection pair up to length 7 of five finite types,
    # and the distinct pairs among 2,000 seeded draws of short walls of
    # the degree-12 field of (2,3,7) and the degree-48 field of N = 210
    for name, m in FINITE_TYPES.items():
        g = CoxeterGroup(m)
        for t, u in combinations(g.enumerate_reflections(7), 2):
            assert g.order_of_product(t, u) == order_by_powers(g, t, u), \
                (name, t, u)
    n210 = CoxeterMatrix([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 7],
                          [2, 2, 7, 1]])
    for m, length in ((MATRICES["t237"], 17), (n210, 5)):
        g = CoxeterGroup(m)
        walls = g.enumerate_reflections(length)
        rng = random.Random(0)
        pairs = {tuple(sorted(rng.sample(range(len(walls)), 2)))
                 for _ in range(2000)}
        for i, j in sorted(pairs):
            t, u = walls[i], walls[j]
            assert g.order_of_product(t, u) == order_by_powers(g, t, u), \
                (m, t, u)


def test_order_matches_per_pair_form_rows():
    # C r memoised per root against C r formed afresh for each pair, on
    # seeded pairs of walls up to length 9 of every bench matrix, each
    # pair asked in both orders so the memo serves both roots
    for name, m in sorted(BENCH_MATRICES.items()):
        g = CoxeterGroup(m)
        walls = g.enumerate_reflections(9)
        rng = random.Random(1)
        for _ in range(300):
            t, u = rng.sample(walls, 2)
            assert g.order_of_product(t, u) == order_by_form_rows(g, t, u), \
                (name, t, u)
            assert g.order_of_product(u, t) == order_by_form_rows(g, u, t), \
                (name, u, t)


@pytest.fixture(scope="module")
def small_groups():
    return [CoxeterGroup(MATRICES[n])
            for n in ("a3", "b3", "h3", "a2aff", "t244")]


@settings(max_examples=60)
@given(data=st.data())
def test_order_is_least_identity_power(small_groups, data):
    # the order is the least k with matrix_of((t u)^k) the identity, and
    # INFINITY exactly where the form value says the walls never meet
    group = data.draw(st.sampled_from(small_groups))
    letter = st.integers(0, group.rank - 1)
    t, u = (group.wall_between(
        group.normal_form(data.draw(st.lists(letter, max_size=6))),
        data.draw(letter)) for _ in range(2))
    assume(t != u)
    order = group.order_of_product(t, u)
    b = bilinear(group, root_of(group, t), root_of(group, u))
    assert (order == INFINITY) == (b * b >= 1)
    if order != INFINITY:
        ident = matrix_of(group, group.identity())
        p = matrix_of(group, group.multiply(t.reflection, u.reflection))
        q = p
        for _ in range(order - 1):
            assert q != ident
            q = matmul(group, q, p)
        assert q == ident


def test_enumerate_reflections(t23inf, a1aff, a2):
    assert [w.reflection.word for w in t23inf.enumerate_reflections(1)] == \
        [(0,), (1,), (2,)]
    words = {w.reflection.word for w in a1aff.enumerate_reflections(3)}
    assert words == {(0,), (1,), (0, 1, 0), (1, 0, 1)}
    words = {w.reflection.word for w in a2.enumerate_reflections(3)}
    assert words == {(0,), (1,), (0, 1, 0)}


def test_enumerated_reflections_are_reflections(t23inf):
    for w in t23inf.enumerate_reflections(7):
        assert t23inf.multiply(w.reflection, w.reflection) == \
            t23inf.identity()
        _assert_witness_root(t23inf, w)


def test_interval_to(a1aff, t23inf):
    got = {e.word for e in interval(a1aff, a1aff.normal_form([0, 1]))}
    assert got == {(), (0,), (0, 1)}
    # identity interval
    assert interval(t23inf, t23inf.identity()) == \
        frozenset({t23inf.identity()})


def test_root_span_rank(t23inf):
    gens = [t23inf.generator_wall(i) for i in range(3)]
    assert root_span_rank(t23inf, gens) == 3
    assert root_span_rank(t23inf, gens[:2]) == 2
    # the index-2 generating set also spans everything
    r = t23inf.as_reflection(t23inf.normal_form([0, 2, 0]))
    assert root_span_rank(
        t23inf, [t23inf.generator_wall(1), t23inf.generator_wall(2), r]) == 3


def test_span_never_exceeds_rank(t23inf):
    walls = t23inf.enumerate_reflections(7)
    assert root_span_rank(t23inf, walls) <= t23inf.rank


def _poincare_counts(degrees):
    # coefficients of prod_i (1 + q + ... + q^(d_i - 1))
    poly = [1]
    for d in degrees:
        out = [0] * (len(poly) + d - 1)
        for i, x in enumerate(poly):
            for k in range(d):
                out[i + k] += x
        poly = out
    return poly


@pytest.mark.parametrize("name,degrees", [
    ("i23", (2, 3)),
    ("a3", (2, 3, 4)),
    ("b3", (2, 4, 6)),
    ("h3", (2, 6, 10)),
])
def test_length_histogram_matches_invariant_degrees(name, degrees):
    # the count of elements per length in a finite reflection group is
    # the coefficient list of prod (1+q+...+q^(d-1)) over its degrees
    group = CoxeterGroup(MATRICES[name])
    hist = {}
    for el in group.ball(None, cap=2000):
        hist[el.length] = hist.get(el.length, 0) + 1
    expected = _poincare_counts(degrees)
    assert [hist.get(i, 0) for i in range(len(expected))] == expected
    assert sum(hist.values()) == sum(expected)


def test_high_degree_field_stack():
    # (2,3,11) lives in Q(2cos(pi/11)), degree 5, where the orders 2 and 3
    # are read off rational values: the whole stack must still be exact
    m = CoxeterMatrix.triangle(2, 3, 11)
    g = CoxeterGroup(m)
    assert g.field.N == 11 and g.field.degree == 5
    assert g.order_of_product(g.generator_wall(0), g.generator_wall(2)) == 11
    assert g.normal_form([0, 2] * 11) == g.identity()
    w = g.as_reflection(g.normal_form([2, 0, 2]))
    assert w is not None and bilinear(g, root_of(g, w), root_of(g, w)) == 1


def test_rank_four_group_order():
    # A4: symmetric group on 5 letters
    m = CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 2],
                       [2, 3, 1, 3], [2, 2, 3, 1]])
    assert element_count(CoxeterGroup(m), cap=500) == 120


def test_representation_faithful_on_ball(t23inf):
    ball = t23inf.ball(6)
    mats = {matrix_of(t23inf, g) for g in ball}
    assert len(mats) == len(ball)


@pytest.mark.parametrize("name,radius", [
    ("t23inf", 8), ("a2aff", 6), ("t237", 6), ("h3", 6),
])
def test_shortlex_matches_matrix_bfs(name, radius):
    group = CoxeterGroup(MATRICES[name])
    brute = list(shortlex_by_matrix_bfs(group, radius).values())
    ours = group.ball(radius)
    assert sorted(Element(w).sort_key for w in brute) == \
        [e.sort_key for e in ours]
    for w in brute:
        assert group.normal_form(w).word == w


@pytest.mark.parametrize("name", ["t23inf", "t237", "h3", "univ3", "n210"])
def test_doubled_matrix_is_matrix_of(name):
    # the BFS's cheap columns are the transposed entries of matrix_of; on
    # the degree-48 n210 field radius 4 takes about a second, as matrix_of
    # builds each generator matrix once from one Tits form
    group = CoxeterGroup({**BENCH_MATRICES, **MATRICES}[name])
    n = group.rank
    for g in group.ball(4):
        m = matrix_of(group, g)
        assert doubled_matrix(group, g.word) == tuple(
            tuple(m[i][j].coeffs for i in range(n)) for j in range(n))


def test_infinite_order_products_never_close(t23inf):
    walls = t23inf.enumerate_reflections(5)
    for i, a in enumerate(walls):
        for b in walls[i + 1:]:
            if t23inf.order_of_product(a, b) == INFINITY:
                p = t23inf.multiply(a.reflection, b.reflection)
                q = p
                for _ in range(12):
                    assert q != t23inf.identity()
                    q = t23inf.multiply(q, p)


def test_wall_identity_across_construction_routes(lab):
    for name in ("t23inf", "a2aff", "univ3"):
        group = lab.group(name)
        # the same reflection reached four different ways must compare
        # equal and have the same positive root id
        g = group.generator(0)
        via_conj = group.conjugate_wall(group.generator_wall(0),
                                        group.generator_wall(2))
        via_panel = group.wall_between(g, 2)
        via_descent = group.as_reflection(group.normal_form([0, 2, 0]))
        via_enum = {w.reflection.word: w
                    for w in group.enumerate_reflections(3)}
        w4 = via_enum[(0, 2, 0)]
        rid = group.panel_root(*via_conj.witness)
        for w in (via_panel, via_descent, w4):
            assert w == via_conj
            assert group.panel_root(*w.witness) == rid
        # every panel of ball(4), with the wall memo already warm from a
        # census: one Wall per root, agreeing with the descent route, and
        # a witness that conjugates its generator to the reflection
        lab.census(name, 4)
        by_root = {}
        for g in group.ball(4):
            ginv = group.inverse(g)
            for s in range(group.rank):
                wall = group.wall_between(g, s)
                refl = group.as_reflection(
                    group.multiply(group.step(g, s), ginv))
                assert wall == refl, (name, g, s)
                rid = group.panel_root(g, s)
                assert group.panel_root(*wall.witness) == rid
                assert group.panel_root(*refl.witness) == rid
                w, t = wall.witness
                assert group.multiply(group.step(w, t),
                                      group.inverse(w)) == wall.reflection
                assert by_root.setdefault(rid, wall) is wall


def test_shared_group_is_thread_safe(t23inf):
    from concurrent.futures import ThreadPoolExecutor
    rng = random.Random(31)
    words = [[rng.randrange(3) for _ in range(rng.randrange(14))]
             for _ in range(300)]
    fresh = CoxeterGroup(MATRICES["t23inf"])
    expected = [fresh.normal_form(w) for w in words]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(t23inf.normal_form, words))
    assert got == expected


def test_cold_group_is_thread_safe():
    # eight threads start together on cold (2,5,5) groups, one group after
    # another for three seconds, so new roots are interned concurrently:
    # every root must keep one id, and the normal forms must match a
    # single-threaded group's
    rng = random.Random(2)
    words = [[rng.randrange(3) for _ in range(30)] for _ in range(40)]
    expected = [CoxeterGroup(MATRICES["t255"]).normal_form(w) for w in words]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 3
        while time.monotonic() < deadline:
            group = CoxeterGroup(MATRICES["t255"])
            start = threading.Barrier(8, timeout=30)
            got = [None] * 8

            def work(k, group=group, start=start, got=got):
                start.wait()
                got[k] = [group.normal_form(w) for w in words]

            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            roots, index = group._root_list, group._root_index
            one_id_per_root = len(index) == len(roots) and all(
                index[c] == i for i, c in enumerate(roots))
            assert one_id_per_root
            assert got == [expected] * 8
    finally:
        sys.setswitchinterval(switch)


def test_cold_group_panel_roots_are_thread_safe():
    # word reduction interns no root, so the intern lock now guards the
    # wall roots alone: eight threads ask cold (2,5,5) groups for the
    # inversion sets of the same chambers, and every root must keep one
    # id and every set the roots a single-threaded group gives it
    rng = random.Random(3)
    words = [[rng.randrange(3) for _ in range(16)] for _ in range(30)]

    def inversion_roots(group):
        return [frozenset(group._root_list[r] for r in group.inversion_set(
            group.normal_form(w))) for w in words]

    expected = inversion_roots(CoxeterGroup(MATRICES["t255"]))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            group = CoxeterGroup(MATRICES["t255"])
            start = threading.Barrier(8, timeout=30)
            got = [None] * 8

            def work(k, group=group, start=start, got=got):
                start.wait()
                got[k] = inversion_roots(group)

            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            roots, index = group._root_list, group._root_index
            assert len(index) == len(roots) and all(
                index[c] == i for i, c in enumerate(roots))
            assert got == [expected] * 8
    finally:
        sys.setswitchinterval(switch)


def test_cold_group_orders_are_thread_safe():
    # eight threads start together on cold (2,3,7) groups and ask the
    # orders of the same wall pairs, so the field's first sign table is
    # built under a race; one thread first decides 2^64 c - floor(2^64 c),
    # which the 64-bit table cannot, so a refinement replaces the table
    # while the others read it: every answer must be the serial one
    m = MATRICES["t237"]
    walls = CoxeterGroup(m).enumerate_reflections(13)
    rng = random.Random(5)
    pairs = [tuple(rng.sample(walls, 2)) for _ in range(60)]
    serial = CoxeterGroup(m)
    f = serial.field
    near = f.raw_add(f.raw_from_int(-floor_scaled_generator(f, 64)),
                     f.reduce([0, 2 ** 64]))
    expected = [serial.order_of_product(t, u) for t, u in pairs]
    assert f.sign_raw(near) == 1
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
                sign = group.field.sign_raw(near) if k == 0 else 1
                got[k] = (sign, [group.order_of_product(t, u)
                                 for t, u in pairs])

            refinements = SIGN_STATS.refinements
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert SIGN_STATS.refinements > refinements
            assert got == [(1, expected)] * 8
            # racing threads store equal values: the memo holds the serial
            # answer of every pair, once per unordered pair of roots
            assert group._order_memo == {
                _order_key(group, t, u): o
                for (t, u), o in zip(pairs, expected)}
    finally:
        sys.setswitchinterval(switch)


def _order_key(group, t, u):
    return tuple(sorted((group.panel_root(*t.witness),
                         group.panel_root(*u.witness))))


def test_order_memo_is_shared_by_both_orders():
    # (t, u) and (u, t) read one entry, and the second read decides no
    # sign; equal walls still raise after a cached call and are not kept
    g = CoxeterGroup(MATRICES["t237"])
    walls = g.enumerate_reflections(7)
    for t, u in combinations(walls[:12], 2):
        first = g.order_of_product(t, u)
        decisions = SIGN_STATS.decisions
        assert g.order_of_product(u, t) == first
        assert SIGN_STATS.decisions == decisions
        assert g._order_memo[_order_key(g, t, u)] == first
    assert len(g._order_memo) == 66
    for t in walls[:12]:
        with pytest.raises(InputError):
            g.order_of_product(t, t)
    assert len(g._order_memo) == 66


def test_enumerate_reflections_budget(a1aff):
    from coxlab.errors import BudgetError
    with pytest.raises(BudgetError):
        a1aff.enumerate_reflections(25, cap=5)
    with pytest.raises(InputError):
        a1aff.enumerate_reflections(0)


def test_word_from_text():
    assert word_from_text("1 3 1", 3) == (0, 2, 0)
    assert word_from_text("", 3) == ()
    with pytest.raises(InputError):
        word_from_text("4", 3)
    with pytest.raises(InputError):
        word_from_text("x", 3)


def test_element_display():
    assert Element((0, 2, 0)).display() == "1 3 1"
    assert Element(()).display() == ""


def test_inversion_set(t23inf):
    ball = t23inf.ball(4)
    seen = {}
    for g in ball:
        n = t23inf.inversion_set(g)
        assert len(n) == len(g)
        assert seen.setdefault(n, g) == g
        for s in range(t23inf.rank):
            gs = t23inf.step(g, s)
            assert t23inf.inversion_set(gs) == \
                n ^ {t23inf.panel_root(g, s)}


def test_panel_roots_positive_without_sign_decisions():
    # the word layer reads a wall's side off lengths: a census and the
    # inversion sets of a ball on a cold group decide no sign, intern only
    # positive roots, and each panel root is +/- g(e_s) from the matrix
    # representation, negated exactly when g s is shorter than g
    matrices = [MATRICES[n] for n in ("t23inf", "t255", "t237", "univ3")]
    for m in matrices + [CYCLE4]:
        before = SIGN_STATS.decisions
        group = CoxeterGroup(m)
        for _ in enumerate_convex_polytopes(group, 6):
            pass
        for g in group.ball(5):
            group.inversion_set(g)
        assert SIGN_STATS.decisions == before, m
        f = group.field
        for root in group._root_list:
            coords = [AlgebraicReal(f, c) for c in root]
            assert all(x >= 0 for x in coords) and \
                not all(x.is_zero() for x in coords), (m, root)
        for g in group.ball(4):
            columns = matrix_of(group, g)
            for s in range(m.rank):
                shorter = len(group.step(g, s)) < len(g)
                expected = tuple((-row[s] if shorter else row[s]).coeffs
                                 for row in columns)
                assert group._root_list[group.panel_root(g, s)] == \
                    expected, (m, g, s)


@pytest.fixture(scope="module")
def warm_groups():
    return [CoxeterGroup(m) for m in (MATRICES["t237"], MATRICES["univ3"],
                                      CYCLE4)]


@settings(max_examples=150)
@given(data=st.data())
def test_panel_root_properties(warm_groups, data):
    # both chambers of a panel name the same wall, and crossing it changes
    # the inversion set by exactly that wall
    group = data.draw(st.sampled_from(warm_groups))
    letter = st.integers(0, group.rank - 1)
    g = group.normal_form(data.draw(st.lists(letter, max_size=14)))
    s = data.draw(letter)
    h = group.step(g, s)
    root = group.panel_root(g, s)
    assert group.panel_root(h, s) == root
    assert group.inversion_set(h) == group.inversion_set(g) ^ {root}
