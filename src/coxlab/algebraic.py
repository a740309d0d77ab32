"""Exact arithmetic in the real cyclotomic field Q(c), c = 2*cos(pi/N).

Every Coxeter matrix determines one such field, the least that holds
its bilinear form: N is the lcm of its finite orders m >= 4, as orders
2 and 3 give the rational entries 0 and -1 (``field_for``).  Every
quantity the word machinery needs -- bilinear form entries, root
coordinates -- lives in it.  Elements are polynomials in c
reduced modulo the minimal polynomial of c; the minimal polynomial is
derived from the cyclotomic polynomial of order 2N.  A sign is decided
in integers: each field tables integers L_k <= 2^b c^k <= U_k for the
powers below its degree, and sum a_k c^k has the sign of the integer
bounds sum a_k L_k and sum a_k U_k (each a_k taking the end that its
sign makes low, or high) once they agree; until they do, b doubles.  The
bracket of c comes from integer bisection on the sign of the minimal
polynomial, started from the closed-form isolating interval
(2 - (63/(20N))^2, 2), which holds c alone because the roots are the
values 2cos(k*pi/N) (Collins and Loos, "Real zeros of polynomials", in
Computer Algebra, 1983; Basu, Pollack and Roy, Algorithms in Real
Algebraic Geometry, ch. 10).  There is no floating point anywhere in
the decision path, and ``SIGN_STATS`` counts every decision so a run can
prove it stayed exact.  The values 2cos(j*pi/N), j = 0..N, are tabled
once per field: they give the bilinear form's entries and, read
backwards by ``rotation_order``, the orders of products of reflections.

``brackets`` hands out the same integer bounds lo <= 2^b v <= hi of
values, for a caller that combines them itself: ``order_of_product``
brackets its form values from memoised root brackets and settles most
infinite orders on them alone, with no exact product.  A bound read off
any table holds at every later precision, so such a decision is as
exact as a sign.

Coefficients are Python ints, and the monic integer minimal polynomial
keeps them integer through reduction.  Rational coefficients work too:
reduction and the ring operations take them as they come.  A sign
decision (``sign_raw``) and ``brackets`` take integer coefficients, as
every root of a group has (its form is doubled); a caller with rational
coefficients scales them to integers first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import BudgetError, ConsistencyError, FieldError

FIELD_ORDER_CAP = 210
SIGN_BITS = 64  # precision of the first table of power brackets
# the rotation orders of the rational values 2cos(2*pi/k), k = 3, 4, 6
_RATIONAL_ORDERS = {-1: 3, 0: 4, 1: 6}


@dataclass
class SignStats:
    """Instrumentation for exactness audits (see ``reset``)."""

    decisions: int = 0
    refinements: int = 0
    float_fallbacks: int = 0  # no fallback path exists; must stay 0

    def reset(self):
        self.decisions = 0
        self.refinements = 0
        self.float_fallbacks = 0


SIGN_STATS = SignStats()


# ---------------------------------------------------------------------------
# dense polynomial helpers; coefficient lists ascending


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def _psub(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                   for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def cyclotomic(n):
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    Moebius product: Phi_n = prod over d | n of (x^d - 1)^mu(n/d).  The
    factors with mu = 1 are multiplied out first; then each division by
    an x^d - 1 with mu = -1 is exact and runs as the recurrence
    q_k = q_{k-d} - p_k read off p = q*(x^d - 1), in integers throughout.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    p = [1]
    for d in divisors:
        if _mobius(n // d) == 1:
            out = [0] * d + p  # p*x^d - p
            for k, x in enumerate(p):
                out[k] -= x
            p = out
    for d in divisors:
        if _mobius(n // d) == -1:
            q = [0] * (len(p) - d)
            for k in range(len(q)):
                q[k] = (q[k - d] if k >= d else 0) - p[k]
            if any((q[k - d] if k >= d else 0) != p[k]
                   for k in range(len(q), len(p))):
                raise ConsistencyError("inexact cyclotomic division", (n, d))
            p = q
    return p


def minpoly_two_cos(N):
    """Minimal polynomial of 2*cos(pi/N) over Q, monic with int coefficients.

    For N >= 2 the value is zeta + 1/zeta for zeta a primitive 2N-th root
    of unity; the polynomial comes from halving the palindromic cyclotomic
    polynomial of order 2N via x^k + x^-k = P_k(x + 1/x).
    """
    if N < 1:
        raise FieldError("N must be positive")
    if N == 1:
        return [2, 1]  # c = -2
    phi = cyclotomic(2 * N)
    d = (len(phi) - 1) // 2
    # P_k recurrence: P_0 = 2, P_1 = y, P_k = y*P_{k-1} - P_{k-2}
    pk_prev, pk = [2], [0, 1]
    out = [phi[d]]
    for k in range(1, d + 1):
        out = _padd(out, _pmul([phi[d + k]], pk))
        if k < d:
            pk_prev, pk = pk, _psub(_pmul([0, 1], pk), pk_prev)
    return [int(x) for x in out]


def _euler_phi(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            out *= p - 1
            m //= p
            while m % p == 0:
                out *= p
                m //= p
        p += 1
    if m > 1:
        out *= m - 1
    return out


def _bracket(coeffs, lows, highs):
    """Integers lo <= 2^b sum a_k c^k <= hi for integer coefficients a_k
    and L_k <= 2^b c^k <= U_k: each a_k takes the end that its sign makes
    low, or high."""
    lo = hi = 0
    for a, low, high in zip(coeffs, lows, highs):
        if a > 0:
            lo += a * low
            hi += a * high
        elif a < 0:
            lo += a * high
            hi += a * low
    return lo, hi


# ---------------------------------------------------------------------------


class FieldSpec:
    """The session field Q(c), c = 2*cos(pi/N).

    Immutable after construction apart from the table of power brackets,
    which the first sign decision or ``brackets`` call builds and a refinement replaces as one
    tuple, never mutated.  Any valid table gives the same signs, so a
    thread that races a refinement reads an old valid table or a new one,
    and no lock is needed.

    The minimal polynomial.  ``minpoly_two_cos(N)`` is monic, has c as a
    root, and has degree phi(2N)/2, checked here.  That is the degree of
    c over Q: for zeta = exp(i*pi/N), Q(zeta) has degree phi(2N), and it
    is Q(c)(zeta) with zeta a root of x^2 - c*x + 1, of degree 2 as zeta
    is not real.  So the polynomial is the minimal polynomial of c: it is
    irreducible, hence square-free, and no nonzero reduced element
    vanishes at c.

    The isolating interval.  For degree >= 2 (N >= 4) it is closed-form:
    (2 - (63/(20N))^2, 2).  It holds c, since cos x >= 1 - x^2/2 gives
    c >= 2 - (pi/N)^2, and pi < 63/20.  It holds no other root: the
    conjugates of c are 2cos(k*pi/N) with k coprime to 2N, so the next
    largest has k = 3, and cos x <= 1 - x^2/2 + x^4/24 with
    3.14 < pi < 63/20 puts 2cos(3*pi/N) below 2 - 47/N^2, under the
    interval for every N >= 4.

    Signs.  c is the largest root of the monic minimal polynomial mp, and
    a simple one, so mp < 0 between the next root and c and mp > 0 above
    c; a rational point is never c.  The bracket of c at b bits bisects
    the integers m from floor(2^b lo) to 2^(b+1), lo the interval's lower
    end, on the sign of 2^(b*d) mp(m/2^b) = sum a_k m^k 2^(b(d-k)); the
    floor loses less than 2^-b <= 37/N^2, so every point stays above the
    other roots, and the bisection ends with integers l < c*2^b < l + 1.
    Since c > lo > 1, the powers c^k lie between (l/2^b)^k and
    ((l+1)/2^b)^k, and the table rounds those down and up to integers
    L_k and U_k over 2^b.  A nonzero element has a nonzero value, and its
    bounds straddle 2^b times that value by at most sum |a_k| (U_k - L_k),
    which stays bounded as b doubles: so refinement ends.

    The values V_j = 2cos(j*pi/N), j = 0..N, are tabled once by the
    Chebyshev recurrence V_{j+1} = c*V_j - V_{j-1}; they are pairwise
    distinct, so ``rotation_order`` reads j back off a value.
    """

    __slots__ = ("N", "minpoly", "degree", "_minpoly_terms", "_powers",
                 "_two_cos", "_two_cos_index")

    def __init__(self, N):
        if N < 2:
            raise FieldError("field order N must be at least 2")
        self.N = N
        mp = minpoly_two_cos(N)
        expected = max(1, _euler_phi(2 * N) // 2)
        if len(mp) - 1 != expected:
            raise ConsistencyError("minimal polynomial degree mismatch",
                                   (N, mp))
        self.minpoly = tuple(mp)
        self.degree = len(mp) - 1
        # (k, a_k) for the nonzero lower coefficients: what ``reduce``
        # subtracts for each top coefficient it clears
        self._minpoly_terms = tuple((k, a) for k, a in enumerate(mp[:-1])
                                    if a)
        self._powers = None  # (b, L, U), built by the first sign decision
        # multiplying by c shifts the coefficients up one place
        table = [self.raw_from_int(2), self.reduce([0, 1])]
        for _ in range(N - 1):
            table.append(self.raw_sub(self.reduce((0,) + table[-1]),
                                      table[-2]))
        self._two_cos = tuple(table)
        self._two_cos_index = {v: j for j, v in enumerate(table)}

    def __repr__(self):
        return f"FieldSpec(N={self.N}, degree={self.degree})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.N == self.N

    def __hash__(self):
        return hash(("FieldSpec", self.N))

    # -- raw coefficient-tuple operations (hot path; ints stay ints) -------

    def reduce(self, coeffs):
        """Reduce an ascending coefficient list mod the minimal polynomial."""
        d = self.degree
        c = list(coeffs)
        terms = self._minpoly_terms
        for i in range(len(c) - 1, d - 1, -1):
            top = c.pop()
            if top:
                base = i - d
                for k, a in terms:
                    c[base + k] -= top * a
        if len(c) < d:
            c.extend([0] * (d - len(c)))
        return tuple(c)

    def raw_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def raw_sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def raw_neg(self, a):
        return tuple(-x for x in a)

    def raw_mul(self, a, b):
        return self.raw_dot((a,), (b,))

    def raw_dot(self, a, b):
        """Sum of a_i * b_i: the products are convolved into one unreduced
        polynomial, reduced once, as reduction is linear."""
        d = self.degree
        if d == 1:
            return (sum(x[0] * y[0] for x, y in zip(a, b)),)
        out = [0] * (2 * d - 1)
        for x, y in zip(a, b):
            for j, yj in enumerate(y):
                if yj:
                    for i, xi in enumerate(x):
                        if xi:
                            out[i + j] += xi * yj
        return self.reduce(out)

    def raw_from_int(self, k):
        return tuple([k] + [0] * (self.degree - 1))

    def raw_is_zero(self, a):
        return all(x == 0 for x in a)

    def sign_raw(self, coeffs):
        """Exact sign of the value, with integer coefficients, at the real
        embedding c; in {-1, 0, +1}."""
        SIGN_STATS.decisions += 1
        if all(x == 0 for x in coeffs):
            return 0
        if self.degree == 1:
            # the element is rational: evaluate at c = -minpoly[0]
            v = coeffs[0]
            return 1 if v > 0 else -1
        table = self._table()
        while True:
            b, lows, highs = table
            lo, hi = _bracket(coeffs, lows, highs)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            SIGN_STATS.refinements += 1
            table = self._powers = self._power_table(
                2 * b, lows[1] << b, highs[1] << b)

    def brackets(self, values):
        """(b, ((lo, hi), ...)): for each raw value v with integer
        coefficients, integers lo <= 2^b v(c) <= hi, all read off the
        current table of power brackets.

        The bounds hold at any b, so brackets taken before a refinement
        stay valid after it.
        """
        b, lows, highs = self._table()
        return b, tuple(_bracket(v, lows, highs) for v in values)

    def _table(self):
        """The current (b, L, U), built at SIGN_BITS when there is none."""
        table = self._powers
        if table is None:
            # floor of 2^b times the interval's lower end 2 - (63/(20N))^2
            n2 = 400 * self.N * self.N
            table = self._powers = self._power_table(
                SIGN_BITS, ((2 * n2 - 3969) << SIGN_BITS) // n2,
                2 << SIGN_BITS)
        return table

    def _power_table(self, b, lo, hi):
        """(b, L, U) with L_k <= 2^b c^k <= U_k for k < degree, from
        integers lo < hi with mp(lo/2^b) < 0 < mp(hi/2^b)."""
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if self._minpoly_scaled(mid, b) > 0:
                hi = mid
            else:
                lo = mid
        lows, highs = [1 << b], [1 << b]
        for k in range(1, self.degree):
            shift = b * (k - 1)
            lows.append(lo ** k >> shift)
            highs.append(-((-hi ** k) >> shift))
        return b, tuple(lows), tuple(highs)

    def _minpoly_scaled(self, m, b):
        """2^(b*d) mp(m/2^b) by Horner in integers; never 0."""
        acc, scale = 0, 1
        for a in reversed(self.minpoly):
            acc = acc * m + a * scale
            scale <<= b
        return acc

    def two_cos_pi_over_raw(self, m):
        """2*cos(pi/m) as a raw tuple: the constants -2, 0, 1 for m = 1, 2,
        3, and V_{N/m} otherwise, which requires m | N."""
        if 1 <= m <= 3:
            return self.raw_from_int((-2, 0, 1)[m - 1])
        if self.N % m != 0:
            raise FieldError(f"order {m} does not divide field order {self.N}")
        return self._two_cos[self.N // m]

    def rotation_order(self, v):
        """The order k of a plane rotation r with 2cos(angle of r) the raw
        value v, when v names one: 2N/gcd(j, 2N) for v = V_j with j >= 1,
        and 3, 4, 6 for v = -1, 0, 1 (rational values that the table
        lacks when 3 or 4 does not divide 2N); None otherwise, as for
        v = 2 (j = 0), v > 2 and every other value.

        Every finite order is read.  Let r = s_a s_b for two reflections
        of a group whose doubled form has its entries in this field, with
        C = C(a, b) and C^2 < 4.  Then r rotates the plane of a and b by
        2*psi, with v = C^2 - 2 = 2cos(2*psi), and fixes its orthogonal
        complement.  When r has finite order k, 2*psi = 2*pi*t/k with
        gcd(t, k) = 1, so v is a conjugate of 2cos(2*pi/k) and generates
        the real subfield Q(zeta_k)+.  C lies in this field, Q(zeta_2N)+,
        so v does too, and Q(zeta_k)+ lies in Q(zeta_2N).  A subfield of a
        cyclotomic field lies in Q(zeta_M) iff its conductor divides M
        (Washington, Introduction to Cyclotomic Fields, GTM 83, ch. 2).
        Let k' be k, or k/2 when k = 2 mod 4, so that Q(zeta_k) =
        Q(zeta_k') and 2 divides k' only as 4 or more.  The characters of
        Q(zeta_k')+ are the even Dirichlet characters mod k', and a
        primitive one is a product of primitive characters mod the prime
        powers of k'.  Each prime power but 3 and 4 has primitive
        characters of both parities, and 3 and 4 have only odd ones, whose
        product mod 12 is even.  So an even primitive character mod k'
        exists, and the conductor of Q(zeta_k)+ is k', unless k' is 1, 3
        or 4 (k is 1, 2, 3, 4 or 6), where the field is Q and v is one of
        2, -2, -1, 0, 1.  Otherwise k' divides 2N, and so does k, as an
        odd k' = k/2 that divides 2N divides N.  Then v = 2cos(2*pi*t/k) =
        V_j with j = 2Nt/k, reduced into 0..N by the symmetry j -> 2N - j,
        and gcd(j, 2N) = 2N/k as gcd(t, k) = 1: the order read is k.  The
        orders 2 (v = -2 = V_N) and, when the table holds them, 3, 4, 6
        read the same off the table as off the constants.  Raw tuples are
        canonical, so both lookups are exact.
        """
        j = self._two_cos_index.get(v)
        if j is None and not any(v[1:]):
            return _RATIONAL_ORDERS.get(v[0])
        return 2 * self.N // gcd(j, 2 * self.N) if j else None


def field_for(matrix):
    """Field spec for a Coxeter matrix: N = lcm of its finite orders
    m >= 4, and N = 2, the rationals, when there are none.

    Every such m divides N, so each form entry -2cos(pi/m) lies in the
    field, and the orders 2 and 3 give the rational entries 0 and -1.  N
    may be odd; ``rotation_order`` reads the orders of products, which
    need not divide N, off the field's table and its rational values.
    """
    n = 1
    for m in matrix.finite_orders():
        if m >= 4:
            n = lcm(n, m)
            if n > FIELD_ORDER_CAP:
                raise BudgetError(
                    f"field order {n} exceeds cap {FIELD_ORDER_CAP}")
    return FieldSpec(max(n, 2))
