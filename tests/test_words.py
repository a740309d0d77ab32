import random
from fractions import Fraction
from itertools import combinations

import pytest

from coxlab.errors import InputError
from coxlab.matrices import INFINITY, CoxeterMatrix
from coxlab.words import CoxeterGroup, Element, root_span_rank, word_from_text

from conftest import MATRICES
from oracles import interval


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
    b = t23inf.tits_form()
    assert b[0][0] == 1 and b[1][1] == 1 and b[2][2] == 1
    assert b[0][1] == 0
    assert b[1][2] == Fraction(-1, 2)
    assert b[0][2] == -1
    assert b[2][1] == b[1][2]


def test_tits_form_trivial_cases():
    b = CoxeterGroup(CoxeterMatrix([[1]])).tits_form()
    assert b == ((b[0][0],),) and b[0][0] == 1
    g = CoxeterGroup(CoxeterMatrix([[1, 2, 2], [2, 1, 2], [2, 2, 1]]))
    b = g.tits_form()
    for i in range(3):
        for j in range(3):
            assert b[i][j] == (1 if i == j else 0)


def test_reflect_examples(t23inf):
    e1, e2, e3 = (t23inf.simple_root(i) for i in range(3))
    assert t23inf.reflect(e1, 0).coords == tuple(-x for x in e1.coords)
    # m23 = 3: reflecting e2 in s3 adds e3
    r = t23inf.reflect(e2, 2)
    assert r.coords[0] == 0 and r.coords[1] == 1 and r.coords[2] == 1


def test_reflect_involution_and_form_preserved(t23inf):
    rng = random.Random(3)
    b = t23inf.bilinear
    for _ in range(25):
        x = t23inf.simple_root(0)
        y = t23inf.simple_root(1)
        g = t23inf.normal_form([rng.randrange(3) for _ in range(6)])
        x = t23inf.apply(g, x)
        h = t23inf.normal_form([rng.randrange(3) for _ in range(5)])
        y = t23inf.apply(h, y)
        i = rng.randrange(3)
        assert t23inf.reflect(t23inf.reflect(x, i), i).coords == x.coords
        assert b(t23inf.reflect(x, i), t23inf.reflect(y, i)) == b(x, y)


def test_normal_form_basics(t23inf, a1aff, a2):
    assert t23inf.normal_form([0, 0]) == t23inf.identity()
    assert a2.normal_form([1, 0, 1]) == a2.normal_form([0, 1, 0])
    assert a1aff.normal_form([0, 1] * 5).length == 10
    with pytest.raises(InputError):
        t23inf.normal_form([5])


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
    assert w.root.coords == t23inf.simple_root(0).coords
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
    m = group.matrix_of(g)
    n = group.rank
    sq = group.matrix_of(group.multiply(g, g))
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


def test_as_reflection_agrees_with_matrix_oracle():
    for name in ("t23inf", "a3", "univ3"):
        g = CoxeterGroup(MATRICES[name])
        for el in g.ball(8 if name != "univ3" else 5):
            got = g.as_reflection(el)
            expected = _is_reflection_matrix(g, el)
            assert (got is not None) == expected, (name, el)
            if got is not None:
                assert got.reflection == el
                assert g.root_is_positive(got.root)
                assert g.bilinear(got.root, got.root) == 1
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
        assert t23inf.root_is_positive(w.root)
        assert t23inf.bilinear(w.root, w.root) == 1


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
    for el in group.elements(cap=2000):
        hist[el.length] = hist.get(el.length, 0) + 1
    expected = _poincare_counts(degrees)
    assert [hist.get(i, 0) for i in range(len(expected))] == expected
    assert sum(hist.values()) == sum(expected)


def test_high_degree_field_stack():
    # (2,3,11) lives in Q(2cos(pi/66)), degree 20: the whole stack must
    # still be exact there
    m = CoxeterMatrix.triangle(2, 3, 11)
    g = CoxeterGroup(m)
    assert g.field.N == 66 and g.field.degree == 20
    assert g.order_of_product(g.generator_wall(0), g.generator_wall(2)) == 11
    assert g.normal_form([0, 2] * 11) == g.identity()
    w = g.as_reflection(g.normal_form([2, 0, 2]))
    assert w is not None and g.bilinear(w.root, w.root) == 1


def test_rank_four_group_order():
    # A4: symmetric group on 5 letters
    m = CoxeterMatrix([[1, 3, 2, 2], [3, 1, 3, 2],
                       [2, 3, 1, 3], [2, 2, 3, 1]])
    assert CoxeterGroup(m).element_count(cap=500) == 120


def test_representation_faithful_on_ball(t23inf):
    ball = t23inf.ball(6)
    mats = {t23inf.matrix_of(g) for g in ball}
    assert len(mats) == len(ball)


def _matmul(group, a, b):
    n = group.rank
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                           start=group.field.zero())
                       for j in range(n))
                 for i in range(n))


def _brute_shortlex_ball(group, radius):
    """ShortLex representatives by matrix-identified free-monoid BFS.

    Independent of the exchange-condition machinery: elements are told
    apart only by their exact representation matrices, and the first
    word reaching an element in shortlex discovery order is its normal
    form.
    """
    def key(m):
        return tuple(x.coeffs for row in m for x in row)

    ident = group.matrix_of(group.identity())
    gens = [group.matrix_of(group.generator(i)) for i in range(group.rank)]
    seen = {key(ident)}
    reps = [()]
    frontier = [((), ident)]
    for _ in range(radius):
        nxt = []
        for word, mat in frontier:
            for t in range(group.rank):
                m2 = _matmul(group, mat, gens[t])
                k = key(m2)
                if k not in seen:
                    seen.add(k)
                    reps.append(word + (t,))
                    nxt.append((word + (t,), m2))
        frontier = nxt
    return reps


@pytest.mark.parametrize("name,radius", [
    ("t23inf", 8), ("a2aff", 6), ("t237", 6), ("h3", 6),
])
def test_shortlex_matches_matrix_bfs(name, radius):
    group = CoxeterGroup(MATRICES[name])
    brute = _brute_shortlex_ball(group, radius)
    ours = group.ball(radius)
    assert sorted(Element(w).sort_key for w in brute) == \
        [e.sort_key for e in ours]
    for w in brute:
        assert group.normal_form(w).word == w


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
        # equal and carry the same positive root
        g = group.generator(0)
        via_conj = group.conjugate_wall(group.generator_wall(0),
                                        group.generator_wall(2))
        via_panel = group.wall_between(g, 2)
        via_descent = group.as_reflection(group.normal_form([0, 2, 0]))
        via_enum = {w.reflection.word: w
                    for w in group.enumerate_reflections(3)}
        w4 = via_enum[(0, 2, 0)]
        for w in (via_panel, via_descent, w4):
            assert w == via_conj
            assert w.root.coords == via_conj.root.coords
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
                assert wall.root.coords == refl.root.coords
                assert wall.rid == group.panel_root(g, s) == refl.rid
                w, t = wall.witness
                assert group.multiply(group.step(w, t),
                                      group.inverse(w)) == wall.reflection
                assert by_root.setdefault(wall.rid, wall) is wall


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
