import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from coxlab.algebraic import (FIELD_ORDER_CAP, SIGN_BITS, SIGN_STATS,
                              FieldSpec, cyclotomic, field_for,
                              minpoly_two_cos)
from coxlab.errors import BudgetError, FieldError
from coxlab.matrices import INFINITY, CoxeterMatrix
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, MATRICES
from oracles import (_pderiv, _poly_gcd, count_roots, cos_pi_over,
                     cyclotomic_by_division, element, floor_scaled_generator,
                     form_by_rows, generator, isolate_largest_root,
                     isolating_interval, rational, raw_dot_per_product,
                     raw_mul_per_product, reduce_by_full_minpoly,
                     sign_by_interval_horner, sturm_chain)


def test_field_for_examples():
    # N is the lcm of the orders m >= 4: orders 2 and 3 give the rational
    # form entries 0 and -1, so forms with no other order are rational
    assert field_for(CoxeterMatrix.triangle(2, 3, INFINITY)).N == 2
    assert field_for(CoxeterMatrix([[1, 2, 2], [2, 1, 2], [2, 2, 1]])).N == 2
    assert field_for(CoxeterMatrix.triangle(3, 3, 3)).N == 2
    assert field_for(CoxeterMatrix.triangle(2, 5, 5)).N == 5
    assert field_for(CoxeterMatrix([[1]])).N == 2
    for name, n, degree in (("t23oo", 2, 1), ("t333", 2, 1), ("tooo", 2, 1),
                            ("cycle4", 2, 1), ("t255", 5, 2), ("t237", 7, 3),
                            ("n210", 35, 12)):
        f = field_for(BENCH_MATRICES[name])
        assert (f.N, f.degree) == (n, degree), name


def test_field_cap():
    with pytest.raises(BudgetError):
        field_for(CoxeterMatrix.triangle(7, 11, 13))


def test_field_of_orders_past_the_old_cap():
    # lcm(2, 11, 13) = 286 passed the cap of 210, and the matrix ended in
    # a BudgetError; the form needs only lcm(11, 13) = 143, and the whole
    # stack is exact there, in degree 60
    m = CoxeterMatrix.triangle(2, 11, 13)
    f = field_for(m)
    assert (f.N, f.degree) == (143, 60)
    g = CoxeterGroup(m)
    walls = [g.generator_wall(i) for i in range(3)]
    assert [g.order_of_product(walls[i], walls[j])
            for i, j in ((0, 1), (0, 2), (1, 2))] == [2, 13, 11]
    assert g.normal_form([1, 2] * 11) == g.identity()
    # s3 s2 s3 s2 = (s3 s2)^2, of order 11 / gcd(2, 11)
    w = g.as_reflection(g.normal_form([2, 1, 2]))
    assert g.order_of_product(w, walls[1]) == 11


def test_cyclotomic_matches_division():
    # the Moebius product against long division of x^n - 1, for the
    # order 2N of every field the cap admits
    for n in range(2, 2 * FIELD_ORDER_CAP + 1, 2):
        assert cyclotomic(n) == cyclotomic_by_division(n), n
    assert cyclotomic(1) == [-1, 1]


def test_minpoly_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(2, 13):
        ours = minpoly_two_cos(m)
        theirs = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / m), x)
        coeffs = list(reversed(theirs.as_poly(x).all_coeffs()))
        assert ours == [int(c) for c in coeffs], f"m={m}"


def test_minimal_polynomial_is_square_free():
    # FieldSpec relies on minimality and checks only the degree: the
    # gcd with the derivative is constant for every field the cap admits
    for n in range(2, FIELD_ORDER_CAP + 1):
        mp = minpoly_two_cos(n)
        assert len(_poly_gcd(mp, _pderiv(mp))) == 1, n


def test_degree_is_half_totient():
    for n in (2, 3, 4, 5, 6, 7, 10, 12, 30, 42):
        f = FieldSpec(n)
        assert f.degree == max(1, int(sympy.totient(2 * n)) // 2)


def test_isolating_interval_brackets_generator():
    for n in (4, 5, 6, 7, 12, 30):
        f = FieldSpec(n)
        lo, hi = isolating_interval(f)
        assert lo < hi
        import math
        c = 2 * math.cos(math.pi / n)
        assert float(lo) < c < float(hi)


def test_closed_form_interval_isolates_generator():
    # the closed-form interval holds exactly one root of the minimal
    # polynomial and none lies above it; on a sample it shares that root
    # with the interval Sturm bisection isolates (the slow part)
    for n in list(range(4, 65)) + [210]:
        f = FieldSpec(n)
        mp = list(f.minpoly)
        chain = sturm_chain(mp)
        lo, hi = isolating_interval(f)
        assert count_roots(chain, lo, hi) == 1, n
        assert count_roots(chain, hi, Fraction(3)) == 0, n
        if n in (4, 5, 7, 12, 30, 64, 210):
            slo, shi = isolate_largest_root(mp)
            assert count_roots(chain, max(lo, slo), min(hi, shi)) == 1, n


def test_power_table_brackets_generator_powers():
    # the first decision builds the table at SIGN_BITS: a unit bracket of
    # 2^b c holding c alone, and brackets of 2^b c^k that hold the powers
    for n in list(range(4, 65)) + [210]:
        f = FieldSpec(n)
        assert f._powers is None
        assert f.sign_raw(f.reduce([0, 1])) == 1
        b, lows, highs = f._powers
        assert b == SIGN_BITS and len(lows) == len(highs) == f.degree
        assert highs[1] - lows[1] == 1
        chain = sturm_chain(list(f.minpoly))
        assert count_roots(chain, Fraction(lows[1], 2 ** b),
                           Fraction(highs[1], 2 ** b)) == 1, n
        assert lows[1] == floor_scaled_generator(f, b)
        if n in (4, 5, 7, 12, 42, 210):
            c = 2 * sympy.cos(sympy.pi / n)
            for k, (low, high) in enumerate(zip(lows, highs)):
                v = (2 ** b * c ** k).evalf(1000)
                assert low <= v <= high, (n, k)


def test_sign_matches_interval_horner_on_wall_pairs():
    # the walls workload's decisions, C^2 - 4 over the distinct pairs among
    # seeded draws of short walls: the degree-12 field of (2,3,7) and the
    # degree-48 field of N = 210
    signs = []
    for m, length, draws in ((MATRICES["t237"], 17, 2000),
                             (BENCH_MATRICES["n210"], 5, 300)):
        g = CoxeterGroup(m)
        f = g.field
        walls = g.enumerate_reflections(length)
        rng = random.Random(0)
        pairs = {tuple(sorted(rng.sample(range(len(walls)), 2)))
                 for _ in range(draws)}
        for i, j in sorted(pairs):
            c = form_by_rows(g, walls[i], walls[j])
            x = f.raw_sub(f.raw_mul(c, c), f.raw_from_int(4))
            signs.append(f.sign_raw(x))
            assert signs[-1] == sign_by_interval_horner(f, x), (m, i, j)
    assert {-1, 1} <= set(signs)


_FIELDS = {n: FieldSpec(n) for n in (4, 5, 7, 12, 42, 210)}


@given(n=st.sampled_from(sorted(_FIELDS)), data=st.data())
def test_sign_matches_interval_horner_on_drawn_vectors(n, data):
    f = _FIELDS[n]
    coeffs = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                min_size=f.degree, max_size=f.degree))
    den = data.draw(st.integers(1, 12))
    if den > 1:
        coeffs = [Fraction(a, den) for a in coeffs]
    assert f.sign_raw(coeffs) == sign_by_interval_horner(f, coeffs)


_PRODUCT_FIELDS = {n: FieldSpec(n) for n in (2, 6, 10, 42, 210)}


def _raw(data, f, size):
    """``size`` coefficients, all ints or all Fractions over one drawn
    denominator, with zeros common as in root coordinates."""
    coeffs = data.draw(st.lists(
        st.one_of(st.just(0), st.integers(-10 ** 9, 10 ** 9)),
        min_size=size, max_size=size))
    den = data.draw(st.sampled_from([1, 1, 2, 3, 7, 12]))
    return tuple(Fraction(a, den) if den > 1 else a for a in coeffs)


@given(n=st.sampled_from(sorted(_PRODUCT_FIELDS)), data=st.data())
def test_dot_reduces_once_like_per_product(n, data):
    # summing the unreduced convolutions and reducing once gives what
    # reducing each product gives, over only the minimal polynomial's
    # nonzero coefficients; no product decides a sign
    f = _PRODUCT_FIELDS[n]
    terms = data.draw(st.integers(0, 5))
    a = [_raw(data, f, f.degree) for _ in range(terms)]
    b = [_raw(data, f, f.degree) for _ in range(terms)]
    long = _raw(data, f, data.draw(st.integers(0, 3 * f.degree)))
    before = SIGN_STATS.decisions
    assert f.raw_dot(a, b) == raw_dot_per_product(f, a, b)
    for x, y in zip(a, b):
        assert f.raw_mul(x, y) == raw_mul_per_product(f, x, y)
    assert f.reduce(long) == reduce_by_full_minpoly(f, long)
    assert SIGN_STATS.decisions == before


@pytest.mark.parametrize("n", [5, 42, 210])
@pytest.mark.parametrize("bits", [70, 150])
def test_sign_refines_near_zero(n, bits):
    # 2^B c - floor(2^B c) lies in (0, 1), far below what a 64-bit table
    # resolves at that scale: the decision must refine, and stay exact
    f = FieldSpec(n)
    x = f.raw_add(f.raw_from_int(-floor_scaled_generator(f, bits)),
                  f.reduce([0, 2 ** bits]))
    before = SIGN_STATS.refinements
    assert f.sign_raw(x) == 1
    assert f.sign_raw(f.raw_neg(x)) == -1
    assert f.sign_raw(f.raw_sub(x, f.raw_from_int(1))) == -1
    assert SIGN_STATS.refinements > before
    assert f._powers[0] > SIGN_BITS


@pytest.mark.parametrize("n", [2, 5, 42, 210])
def test_brackets_hold_their_values_across_a_refinement(n):
    # lo <= 2^b v <= hi, checked by exact signs, for brackets read off the
    # first table and off a refined one: both stay valid
    f = FieldSpec(n)
    rng = random.Random(n)
    values = [tuple(rng.randint(-99, 99) for _ in range(f.degree))
              for _ in range(20)] + [f.raw_from_int(0), f.raw_from_int(-2)]
    first = f.brackets(values)
    assert first[0] == SIGN_BITS
    if f.degree > 1:
        x = f.raw_add(f.raw_from_int(-floor_scaled_generator(f, 70)),
                      f.reduce([0, 2 ** 70]))
        assert f.sign_raw(x) == 1
    second = f.brackets(values)
    assert second[0] > SIGN_BITS or f.degree == 1
    for b, pairs in (first, second):
        for v, (lo, hi) in zip(values, pairs):
            scaled = tuple(a << b for a in v)
            assert f.sign_raw(f.raw_sub(scaled, f.raw_from_int(lo))) >= 0
            assert f.sign_raw(f.raw_sub(scaled, f.raw_from_int(hi))) <= 0
            assert isinstance(lo, int) and isinstance(hi, int)
        # an integer is a point: its bracket is exact
        assert pairs[-1] == (-2 << b, -2 << b)


def test_cos_values():
    f = FieldSpec(6)
    assert cos_pi_over(f, 2) == 0
    assert cos_pi_over(f, 3) == Fraction(1, 2)
    assert cos_pi_over(f, 6) * 2 == generator(f)
    with pytest.raises(FieldError):
        cos_pi_over(f, 4)


def test_sign_golden_ratio():
    # 2cos(pi/5) is the golden ratio, just above 1
    f = FieldSpec(5)
    assert (generator(f) - 1).sign() == 1
    assert (generator(f) - 2).sign() == -1


def test_chebyshev_identity():
    # 2cos(m * pi/m) = -2, so applying the angle-multiplication
    # recurrence m times to the generator must land exactly on -2
    for m in range(2, 13):
        f = FieldSpec(m)
        assert f.two_cos_pi_over_raw(1) == f.raw_from_int(-2)
        # the table read backwards: 2cos(pi/d), d | m, is the rotation by
        # pi/d, of order 2d, and c^2 - 2 = 2cos(2 pi/m) one of order m
        for d in range(1, m + 1):
            if m % d == 0:
                assert f.rotation_order(f.two_cos_pi_over_raw(d)) == 2 * d
        c = f.reduce([0, 1])
        assert f.rotation_order(f.raw_sub(f.raw_mul(c, c),
                                          f.raw_from_int(2))) == m
        assert f.rotation_order(f.raw_from_int(2)) is None
        assert f.rotation_order(f.raw_from_int(3)) is None


def test_exact_zero_and_ring_axioms():
    f = FieldSpec(10)
    rng = random.Random(7)

    def rand_elem():
        return element(f, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(f.degree)])

    for _ in range(50):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x - x).is_zero()
        assert (x + y) - y == x
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_sign_respects_arithmetic():
    # multiplicativity is exact; sums are cross-checked against
    # high-precision evaluation on a subsample
    f = FieldSpec(12)
    rng = random.Random(11)
    c = 2 * sympy.cos(sympy.pi / 12)

    def rand_elem():
        return element(f, [rng.randint(-6, 6) for _ in range(f.degree)])

    pairs = [(rand_elem(), rand_elem()) for _ in range(1000)]
    for x, y in pairs:
        assert (x * y).sign() == x.sign() * y.sign()
    for x, y in pairs[:150]:
        s = x + y
        expr = sum(sympy.Rational(q) * c ** i
                   for i, q in enumerate(s.coeffs))
        val = expr.evalf(60)
        if abs(val) > 1e-40:
            assert s.sign() == (1 if val > 0 else -1)
        else:
            assert s.sign() == 0


def test_comparisons():
    f = FieldSpec(5)
    g = generator(f)  # golden ratio, about 1.618
    assert rational(f, Fraction(3, 2)) < g < rational(f, Fraction(17, 10))
    assert g * g == g + 1  # defining identity of the golden ratio


def test_stats_counter_counts_and_never_falls_back():
    SIGN_STATS.reset()
    f = FieldSpec(7)
    (generator(f) - 1).sign()
    (generator(f) * generator(f) - 2).sign()
    assert SIGN_STATS.decisions == 2
    assert SIGN_STATS.float_fallbacks == 0


def test_degree_one_field_is_rational():
    f = FieldSpec(2)
    assert f.degree == 1
    assert generator(f) == 0
    assert (rational(f, Fraction(-3, 7))).sign() == -1
