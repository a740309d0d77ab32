"""Exact arithmetic in the real cyclotomic field Q(c), c = 2*cos(pi/N).

Every Coxeter matrix determines one such field (N = lcm of its finite
orders), and every quantity the word machinery needs -- bilinear form
entries, root coordinates -- lives in it.  Elements are polynomials in c
reduced modulo the minimal polynomial of c; the minimal polynomial is
derived from the cyclotomic polynomial of order 2N.  Sign determination
is by bisection refinement of a rational isolating interval for c with
exact interval evaluation; the interval (2 - (63/(20N))^2, 2) is
closed-form, because the roots are the values 2cos(k*pi/N).  There is
no floating point anywhere in the decision path, and ``SIGN_STATS``
counts every decision so a run can prove it stayed exact.  The values
2cos(j*pi/N), j = 0..N, are tabled once per field: they give the
bilinear form's entries and, read backwards, the orders of products of
reflections.

Coefficients are Python ints where possible and ``Fraction`` otherwise;
the two mix freely (equal values hash equal), and the monic integer
minimal polynomial keeps integer inputs integer through reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BudgetError, ConsistencyError, FieldError

FIELD_ORDER_CAP = 210


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
# dense polynomial helpers; coefficient lists ascending, int/Fraction entries


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


def _peval(c, x):
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def _pderiv(c):
    return _ptrim([i * c[i] for i in range(1, len(c))])


def _pdivmod(a, b):
    """Quotient and remainder over the rationals; b nonzero."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and _ptrim(a):
        a = _ptrim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = a[-1] / lead
        q[shift] = factor
        for i in range(len(b)):
            a[shift + i] -= factor * b[i]
        a = a[:-1]
    return _ptrim(q), _ptrim(a)


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


def _interval_eval(coeffs, lo, hi):
    """Exact range bound of the polynomial over [lo, hi] (Horner)."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p1, p2, p3, p4 = vlo * lo, vlo * hi, vhi * lo, vhi * hi
        vlo = min(p1, p2, p3, p4) + c
        vhi = max(p1, p2, p3, p4) + c
    return vlo, vhi


# ---------------------------------------------------------------------------


class FieldSpec:
    """The session field Q(c), c = 2*cos(pi/N).

    Immutable after construction apart from monotone narrowing of the
    isolating interval, which is semantically transparent (any valid
    isolating interval gives the same signs).

    For degree >= 2 (N >= 4) the isolating interval is closed-form:
    (2 - (63/(20N))^2, 2).  It holds c, since cos x >= 1 - x^2/2 gives
    c >= 2 - (pi/N)^2, and pi < 63/20.  It holds no other root: the
    conjugates of c are 2cos(k*pi/N) with k coprime to 2N, so the next
    largest has k = 3, and cos x <= 1 - x^2/2 + x^4/24 with
    3.14 < pi < 63/20 puts 2cos(3*pi/N) below 2 - 47/N^2, under the
    interval for every N >= 4.

    The values V_j = 2cos(j*pi/N), j = 0..N, are tabled once by the
    Chebyshev recurrence V_{j+1} = c*V_j - V_{j-1}; they are pairwise
    distinct, so ``two_cos_index`` reads j back off a value.
    """

    __slots__ = ("N", "minpoly", "degree", "_lo", "_hi", "_two_cos",
                 "_two_cos_index")

    def __init__(self, N):
        if N < 2:
            raise FieldError("field order N must be at least 2")
        self.N = N
        mp = minpoly_two_cos(N)
        expected = max(1, _euler_phi(2 * N) // 2)
        if len(mp) - 1 != expected:
            raise ConsistencyError("minimal polynomial degree mismatch",
                                   (N, mp))
        # square-free check: gcd(mp, mp') must be constant
        if len(mp) > 2:
            g = _poly_gcd(mp, _pderiv(mp))
            if len(g) > 1:
                raise ConsistencyError("minimal polynomial not square-free",
                                       (N, mp))
        self.minpoly = tuple(mp)
        self.degree = len(mp) - 1
        if self.degree == 1:
            self._lo = self._hi = None
        else:
            self._lo, self._hi = 2 - Fraction(63, 20 * N) ** 2, Fraction(2)
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

    @property
    def isolating_interval(self):
        if self.degree == 1:
            c = -self.minpoly[0]
            return (Fraction(c) - 1, Fraction(c) + 1)
        return (self._lo, self._hi)

    # -- raw coefficient-tuple operations (hot path; ints stay ints) -------

    def reduce(self, coeffs):
        """Reduce an ascending coefficient list mod the minimal polynomial."""
        d = self.degree
        c = list(coeffs)
        mp = self.minpoly
        for i in range(len(c) - 1, d - 1, -1):
            top = c[i]
            if top != 0:
                for k in range(d):
                    c[i - d + k] -= top * mp[k]
            c.pop()
        while len(c) < d:
            c.append(0)
        return tuple(c)

    def raw_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def raw_sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def raw_neg(self, a):
        return tuple(-x for x in a)

    def raw_mul(self, a, b):
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self.reduce(out)

    def raw_from_int(self, k):
        return tuple([k] + [0] * (self.degree - 1))

    def raw_is_zero(self, a):
        return all(x == 0 for x in a)

    def sign_raw(self, coeffs):
        """Exact sign of the value at the real embedding c; in {-1, 0, +1}."""
        SIGN_STATS.decisions += 1
        if all(x == 0 for x in coeffs):
            return 0
        if self.degree == 1:
            # the element is rational: evaluate at c = -minpoly[0]
            v = coeffs[0]
            return 1 if v > 0 else -1
        lo, hi = self._lo, self._hi
        mp = self.minpoly
        sign_lo = 1 if _peval(list(mp), lo) > 0 else -1
        while True:
            vlo, vhi = _interval_eval(coeffs, lo, hi)
            if vlo > 0:
                break
            if vhi < 0:
                break
            SIGN_STATS.refinements += 1
            mid = (lo + hi) / 2
            vm = _peval(list(mp), mid)
            # mid is never a root: mp is irreducible of degree >= 2
            if (1 if vm > 0 else -1) != sign_lo:
                hi = mid
            else:
                lo = mid
        # Unlocked: a racing thread may see one old and one new endpoint,
        # but every lo and hi ever stored brackets the root inside the
        # first isolating interval, so any pair it reads still isolates it.
        self._lo, self._hi = lo, hi
        return 1 if vlo > 0 else -1

    def two_cos_pi_over_raw(self, m):
        """2*cos(pi/m) as a raw tuple, V_{N/m}; requires m | N."""
        if m < 1 or self.N % m != 0:
            raise FieldError(f"order {m} does not divide field order {self.N}")
        return self._two_cos[self.N // m]

    def two_cos_index(self, t):
        """The j in 0..N with 2*cos(j*pi/N) equal to the raw value t, or
        None when t is no such value."""
        return self._two_cos_index.get(t)


def _poly_gcd(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while _ptrim(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _ptrim(a)


def field_for(matrix):
    """Field spec for a Coxeter matrix: N = lcm of its finite orders.

    Every finite order m then divides N, so each 2*cos(pi/m) lies in the
    field.  A matrix with no off-diagonal finite order (or rank one)
    gets N = 2, i.e. the rationals.
    """
    n = 2
    for m in matrix.finite_orders():
        n = lcm(n, m)
        if n > FIELD_ORDER_CAP:
            raise BudgetError(f"field order {n} exceeds cap {FIELD_ORDER_CAP}")
    return FieldSpec(n)
