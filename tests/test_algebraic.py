import random
from fractions import Fraction

import pytest
import sympy

from coxlab.algebraic import (FIELD_ORDER_CAP, SIGN_STATS, FieldSpec,
                              cyclotomic, field_for, minpoly_two_cos)
from coxlab.errors import BudgetError, FieldError
from coxlab.matrices import INFINITY, CoxeterMatrix

from oracles import (count_roots, cos_pi_over, cyclotomic_by_division,
                     element, generator, isolate_largest_root, rational,
                     sturm_chain)


def test_field_for_examples():
    assert field_for(CoxeterMatrix.triangle(2, 3, INFINITY)).N == 6
    assert field_for(CoxeterMatrix([[1, 2, 2], [2, 1, 2], [2, 2, 1]])).N == 2
    assert field_for(CoxeterMatrix.triangle(2, 5, 5)).N == 10
    assert field_for(CoxeterMatrix([[1]])).N == 2


def test_field_cap():
    with pytest.raises(BudgetError):
        field_for(CoxeterMatrix.triangle(7, 11, 13))


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


def test_degree_is_half_totient():
    for n in (2, 3, 4, 5, 6, 7, 10, 12, 30, 42):
        f = FieldSpec(n)
        assert f.degree == max(1, int(sympy.totient(2 * n)) // 2)


def test_isolating_interval_brackets_generator():
    for n in (4, 5, 6, 7, 12, 30):
        f = FieldSpec(n)
        lo, hi = f.isolating_interval
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
        lo, hi = f.isolating_interval
        assert count_roots(chain, lo, hi) == 1, n
        assert count_roots(chain, hi, Fraction(3)) == 0, n
        if n in (4, 5, 7, 12, 30, 64, 210):
            slo, shi = isolate_largest_root(mp)
            assert count_roots(chain, max(lo, slo), min(hi, shi)) == 1, n


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
        # the table read backwards: 2cos(pi/d) is V_{m/d}, and
        # c^2 - 2 = 2cos(2 pi/m) is V_2
        for d in range(1, m + 1):
            if m % d == 0:
                assert f.two_cos_index(f.two_cos_pi_over_raw(d)) == m // d
        c = f.reduce([0, 1])
        assert f.two_cos_index(f.raw_sub(f.raw_mul(c, c),
                                         f.raw_from_int(2))) == 2
        assert f.two_cos_index(f.raw_from_int(3)) is None


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
