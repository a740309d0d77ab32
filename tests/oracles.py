"""Cross-check oracles for the tests, written against the public API.

``interval`` and ``hull_fixpoint`` are the geodesic-closure definition
of convexity: a chamber set is convex when it contains every chamber on
every geodesic between two of its members.  ``coset_index_23inf`` is a
Todd-Coxeter coset enumeration over the presentation of the (2,3,oo)
triangle group.  ``AlgebraicReal`` is field arithmetic with operators,
and ``matrix_of`` is the reflection representation built on it from the
Coxeter matrix alone, with no root tracking.  The subgroup
enumeration and the per-pair facet intersection are the first
implementations of membership and of the Andreev check; the side count
and the rank-2 cycle walk are the first implementations of facet walls
and angle sites, and ``facet_panels_by_scan`` and
``angle_sites_by_residue`` the full scans of every chamber that the
census's inherited boundary panels and angle sites replaced;
``census_record_by_residue`` is a census line built on the latter, and
``angle_sites_by_arc_walk`` the arc walk from every chamber that the
residue counts replaced.
``contains_reflection`` decides membership by
conjugation descent, and ``fundamental_polytope_by_membership`` stops
the search from the base chamber at every wall whose reflection it
accepts: the first implementation of the fundamental domain.
``element_count``, ``has_finite_index_standard`` and
``index_two_by_commutation`` are closed-form and enumerative facts the
tests check the library against.  ``facet_side`` reads the side of a
facet wall a polytope lies on off one of its chambers, and
``facet_chambers`` counts the chambers with a panel on it.
``check_stacan`` re-derives the glued pair's preconditions from scratch,
``stacan_pairs_all_bases`` anchors every chamber of every census member,
and ``search_equal_rank_by_descent`` runs the canonical-generator descent
on each Coxeter polytope's facet walls: the first implementations of the
two verify searches.  ``sturm_chain``, ``count_roots`` and
``isolate_largest_root`` are the first implementation of the field's
isolating interval, built on the rational polynomial helpers here, and
``order_by_powers`` is the first implementation of ``order_of_product``.
``census_by_full_hulls`` is the first implementation of the census
growth, one full hull per boundary panel, and ``residue_base_by_descent``
the first implementation of the least-chamber walk of a rank-2 residue,
with no memo;
``residue_by_coset`` lists a rank-2 residue whole.
``census_by_mask_seen`` is the census before children were keyed by
their inversion union, each searched when queued and deduplicated by
chamber mask, with ``facet_panels_inherited`` the first-panel merge it
ran per queued child.
``cyclotomic_by_division`` is the first implementation of the cyclotomic
polynomials, and ``TrackingReduction`` the first implementation of word
reduction and of ``panel_root``, walking a tracked root through the word
in field arithmetic.  ``as_reflection_by_descent``, ``ball_by_seen_set``
and ``enumerate_reflections_by_word`` are the first implementations of
``as_reflection``, ``ball`` and ``enumerate_reflections``: a conjugation
descent to a generator, a set of the elements found, and walls built
from conjugates keyed by their words.  ``canonical_by_descents`` is
the first ShortLex reduction of a reduced word, stripping its smallest
left descent again and again; ``mult_gen_by_canonical``,
``normal_form_by_canonical`` and ``ball_by_canonical`` are products,
word reduction and ``ball`` built on it, as they were before the
ShortLex automaton and the one-walk product.  ``automaton_state`` is
the state of a normal form in the automaton that ``ball`` walks, grown
along the word's prefixes.  ``shortlex_by_matrix_bfs`` finds ShortLex
forms by a BFS that tells elements apart by ``doubled_matrix``, the
representation of ``matrix_of`` in integer coordinates.
``elementary_table_signed`` builds the elementary roots from their
definition by signed comparisons, as the library's table must not.
``raw_dot_per_product`` and ``raw_mul_per_product`` are the first
field dot product and product: each product is reduced, over every
coefficient of the minimal polynomial (``reduce_by_full_minpoly``),
before the sum is taken.
``sign_by_interval_horner`` is the first implementation of the sign
decision: it bisects ``isolating_interval`` with exact rational interval
Horner bounds, and ``floor_scaled_generator`` reads floor(2^B c) off the
same bisection.  ``form_by_rows`` and ``order_by_form_rows`` form the
doubled form value afresh for each pair of walls, as ``order_of_product``
did before it memoised C r per root.  ``facets_intersect`` asks the
library's residue root masks whether one pair of walls meets, and
``angle_fraction`` is a helper that no library code calls.
``stacan_pairs_by_scan`` is the glued-pair search before its partner
index: every acute facet scans the whole census, and each translate is
formed by ``multiply``; ``stacan_entry_by_scan`` is the stacan suite's
report entry built from it, and ``glued_unions_wide`` the same scan
with the partners obtuse along the wall kept, whose unions need not be
convex.  ``meeting_by_conjugates`` and
``check_andreev_by_conjugates`` are the Andreev check before it read
residue root masks: every facet wall conjugated by every chamber up
front, and two walls meeting when the union of two conjugates' supports
is spherical.
``inversion_set_by_prefixes`` is the first implementation of
``inversion_set``: a frozenset grown along the prefixes of the normal
form, with no chamber ids.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, lcm

from coxlab.algebraic import _pmul, _ptrim
from coxlab.davis import (AngleSite, _facet_panels, _grow_order, _mask_of,
                          _members, _polytope, _residue_counts,
                          _residue_roots, angle_sites, convex_hull,
                          enumerate_convex_polytopes, is_convex,
                          is_coxeter_polytope, polytope_of, region, side)
from coxlab.errors import (BudgetError, ConsistencyError, FieldError,
                           InputError, PreconditionError)
from coxlab.matrices import INFINITY, components, is_finite
from coxlab.subgroups import (ReflectionSubgroup, canonical_generators,
                              comm_condition, induced_matrix)
from coxlab.words import CROSS, DEFAULT_ELEMENT_CAP, EXIT, Element, Wall


def interval(group, u):
    """All elements on geodesics from the identity to u: the v with
    l(v) + l(v^-1 u) = l(u), grown one letter at a time."""
    def on_geodesic(v):
        return len(v) + len(group.multiply(group.inverse(v), u)) == len(u)

    out = {group.identity()}
    stack = [group.identity()]
    while stack:
        v = stack.pop()
        for s in range(group.rank):
            x = group.step(v, s)
            if len(x) > len(v) and x not in out and on_geodesic(x):
                out.add(x)
                stack.append(x)
    return frozenset(out)


def hull_fixpoint(group, chambers):
    """Convex hull as the fixpoint of adding, for every pair g, x, the
    chambers g v with v on a geodesic from the identity to g^-1 x."""
    h = set(chambers)
    changed = True
    while changed:
        changed = False
        members = sorted(h, key=lambda e: e.sort_key)
        for g, x in combinations(members, 2):
            u = group.multiply(group.inverse(g), x)
            for v in interval(group, u):
                y = group.multiply(g, v)
                if y not in h:
                    h.add(y)
                    changed = True
    return frozenset(h)


def census_fixpoint(group, max_chambers):
    """Chamber sets of the census grown with ``hull_fixpoint``: every
    convex set containing the identity with at most ``max_chambers``
    chambers, as a set of frozensets."""
    start = frozenset({group.identity()})
    seen = {start}
    queue = [start]
    for chambers in queue:
        if len(chambers) >= max_chambers:
            continue
        for g in chambers:
            for s in range(group.rank):
                x = group.step(g, s)
                if x in chambers:
                    continue
                grown = hull_fixpoint(group, chambers | {x})
                if len(grown) <= max_chambers and grown not in seen:
                    seen.add(grown)
                    queue.append(grown)
    return seen


def census_by_full_hulls(group, max_chambers, parents=None):
    """The census as a list of polytopes, each member grown by the full
    hull of itself and one outside neighbour x, for every boundary panel
    in (sorted chamber, s) order; a hull past the budget is skipped.  The
    dict ``parents``, if given, maps each member's chambers but the base
    chamber's to those of the member that first grew it."""
    start = convex_hull(group, [group.identity()])
    seen = {start.chambers}
    queue = [start]
    for p in queue:
        if len(p.chambers) >= max_chambers:
            continue
        for g in p.sorted_chambers():
            for s in range(group.rank):
                x = group.step(g, s)
                if x in p.chambers:
                    continue
                try:
                    grown = convex_hull(group, p.chambers | {x},
                                        max_chambers)
                except BudgetError:
                    continue
                if grown.chambers not in seen:
                    seen.add(grown.chambers)
                    queue.append(grown)
                    if parents is not None:
                        parents[grown.chambers] = p.chambers
    return queue


def facet_panels_inherited(group, chambers, new, inherited, crossed):
    """The census child's first-panel map as it was built when queued:
    ``inherited``, the map of the old chambers ``chambers & ~new``, less
    its entry for the root ``crossed``, with the boundary panels of the
    mask ``new`` merged in, the least (chamber key, s) kept per root."""
    panels = dict(inherited)
    del panels[crossed]
    for i in _members(new):
        key = group.chamber_key(i)
        for s, (j, rid) in enumerate(group.adjacent(i)):
            if not chambers >> j & 1:
                have = panels.get(rid)
                if have is None or (key, s) < have[:2]:
                    panels[rid] = (key, s, i)
    return panels


def census_by_mask_seen(group, max_chambers):
    """The census as it was before children were keyed by their inversion
    union: every child searched when its parent is yielded, duplicates
    dropped by chamber mask, and a queued child holding its own mask,
    first panels (``facet_panels_inherited``) and new chambers; N_P is
    grown from the inversion sets of the new chambers when a child is
    dequeued."""
    if max_chambers < 1:
        raise InputError("chamber budget must be >= 1")
    start = 1 << group.chamber_id(group.identity())
    seen = {start}
    queue = deque([(start, _facet_panels(group, start), start, None, 0)])
    while queue:
        mask, panels, new, inherited, inside = queue.popleft()
        counts = _residue_counts(group, mask, new, inherited)
        yield _polytope(group, mask, panels=panels, counts=counts)
        if mask.bit_count() >= max_chambers:
            continue
        for i in _members(new):
            inside |= group.inversion_mask(i)
        for rid, (_, s, i) in _grow_order(panels):
            x = group.adjacent(i)[s][0]
            grown = region(group, mask | 1 << x, inside, max_chambers,
                           queue=[x])
            if grown is not None and grown not in seen:
                seen.add(grown)
                new = grown & ~mask
                queue.append((grown, facet_panels_inherited(
                    group, grown, new, panels, rid), new, counts, inside))


def residue_base_by_descent(group, g, s, t):
    """Least chamber of g's {s, t} residue for a finite pair, by right
    descents in {s, t}, at most m of them, with no memo."""
    m = group.matrix.order(s, t)
    for _ in range(m + 1):
        for a in (s, t):
            x = group.step(g, a)
            if len(x) < len(g):
                g = x
                break
        else:
            return g
    raise ConsistencyError("rank-2 residue has no least chamber",
                           (g.display(), s, t))


def inversion_set_by_prefixes(group, g):
    """Root ids of the walls separating g from the base chamber, grown
    along its normal form by N(w a) = N(w) | {panel_root(w, a)}."""
    n = frozenset()
    for j, a in enumerate(g.word):
        n = n | {group.panel_root(Element(g.word[:j]), a)}
    return n


def residue_by_coset(group, g, s, t):
    """The 2m chambers g w of g's {s, t} residue for a finite pair: w runs
    over the alternating words in s and t of length at most m."""
    m = group.matrix.order(s, t)
    out = set()
    for a, b in ((s, t), (t, s)):
        x = g
        for k in range(m + 1):
            out.add(x)
            x = group.step(x, a if k % 2 == 0 else b)
    return out


def element_count(group, cap=DEFAULT_ELEMENT_CAP):
    """Group order if it is at most ``cap``, else None."""
    try:
        return len(group.ball(None, cap))
    except BudgetError:
        return None


def has_finite_index_standard(matrix, subset):
    """Whether the standard subgroup on ``subset`` has finite index.

    True exactly when every infinite component of the diagram is
    contained in the subset: finite components contribute a finite
    factor to the index, while an infinite indecomposable component
    admits no proper finite-index standard subgroup.
    """
    t = set(subset)
    if not t <= set(range(matrix.rank)):
        raise InputError("subset contains indices outside the generator set")
    for comp in components(matrix):
        if not comp.finite and not set(comp.vertices) <= t:
            return False
    return True


def coset_index_23inf(walls):
    """Index of the subgroup generated by the walls' reflections in
    <a, b, c | a^2, b^2, c^2, (ab)^2, (bc)^3>, the (2,3,oo) triangle
    group, by Todd-Coxeter coset enumeration."""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group
    f, a, b, c = free_group("a b c")
    fp = FpGroup(f, [a ** 2, b ** 2, c ** 2, (a * b) ** 2, (b * c) ** 3])
    sym = {0: a, 1: b, 2: c}
    gens = []
    for wall in walls:
        prod = fp.identity
        for i in wall.reflection.word:
            prod = prod * sym[i]
        gens.append(prod)
    table = fp.coset_enumeration(gens)
    table.compress()
    return table.n


# ---------------------------------------------------------------------------
# elements of the field Q(c), c = 2cos(pi/N), with exact operators


def raw_scale(a, q):
    return tuple(x * q for x in a)


def reduce_by_full_minpoly(f, coeffs):
    """Reduction mod the minimal polynomial over all of its coefficients."""
    d = f.degree
    c = list(coeffs)
    mp = f.minpoly
    for i in range(len(c) - 1, d - 1, -1):
        top = c[i]
        if top != 0:
            for k in range(d):
                c[i - d + k] -= top * mp[k]
        c.pop()
    while len(c) < d:
        c.append(0)
    return tuple(c)


def raw_mul_per_product(f, a, b):
    """One product, convolved and reduced."""
    d = f.degree
    if d == 1:
        return (a[0] * b[0],)
    out = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return reduce_by_full_minpoly(f, out)


def raw_dot_per_product(f, a, b):
    """Sum of a_i * b_i over the i with b_i nonzero, each product reduced
    before it is added."""
    out = f.raw_from_int(0)
    for x, y in zip(a, b):
        if not f.raw_is_zero(y):
            out = f.raw_add(out, raw_mul_per_product(f, x, y))
    return out


def element(f, coeffs):
    return AlgebraicReal(f, f.reduce(list(coeffs)))


def zero(f):
    return AlgebraicReal(f, f.raw_from_int(0))


def one(f):
    return AlgebraicReal(f, f.raw_from_int(1))


def rational(f, q):
    q = Fraction(q)
    if q.denominator == 1:
        return AlgebraicReal(f, f.raw_from_int(int(q)))
    return AlgebraicReal(f, tuple([q] + [0] * (f.degree - 1)))


def generator(f):
    """The element c = 2*cos(pi/N) itself."""
    return AlgebraicReal(f, f.reduce([0, 1]))


def cos_pi_over(f, m):
    """cos(pi/m) as a field element; requires m | N."""
    return AlgebraicReal(f, raw_scale(f.two_cos_pi_over_raw(m),
                                      Fraction(1, 2)))


class AlgebraicReal:
    """An element of the session field, reduced mod the minimal polynomial."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs  # fixed-length tuple, already reduced

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldError("elements from different fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rational(self.field, other)
        self._check(other)
        return AlgebraicReal(self.field,
                             self.field.raw_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rational(self.field, other)
        self._check(other)
        return AlgebraicReal(self.field,
                             self.field.raw_sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgebraicReal(self.field, self.field.raw_neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicReal(self.field, raw_scale(self.coeffs, other))
        self._check(other)
        return AlgebraicReal(self.field,
                             self.field.raw_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rational(self.field, other)
        if not isinstance(other, AlgebraicReal):
            return NotImplemented
        return self.field == other.field and all(
            x == y for x, y in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.field.N, tuple(Fraction(x) for x in self.coeffs)))

    def is_zero(self):
        return self.field.raw_is_zero(self.coeffs)

    def sign(self):
        # sign_raw takes integer coefficients: clear the denominators
        den = lcm(*(Fraction(x).denominator for x in self.coeffs))
        return self.field.sign_raw(tuple(int(x * den) for x in self.coeffs))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __repr__(self):
        terms = []
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            if i == 0:
                terms.append(str(x))
            elif i == 1:
                terms.append(f"{x}*c")
            else:
                terms.append(f"{x}*c^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} | c=2cos(pi/{self.field.N})>"


# ---------------------------------------------------------------------------
# rational polynomial helpers and the first sign decision


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


def _poly_gcd(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while _ptrim(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _ptrim(a)


def _interval_eval(coeffs, lo, hi):
    """Exact range bound of the polynomial over [lo, hi] (Horner)."""
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p1, p2, p3, p4 = vlo * lo, vlo * hi, vhi * lo, vhi * hi
        vlo = min(p1, p2, p3, p4) + c
        vhi = max(p1, p2, p3, p4) + c
    return vlo, vhi


def isolating_interval(f):
    """A rational interval holding c and no other root of the minimal
    polynomial: (2 - (63/(20N))^2, 2) for degree >= 2 (the proof is in
    ``FieldSpec``'s docstring), and around the rational c otherwise."""
    if f.degree == 1:
        c = -f.minpoly[0]
        return (Fraction(c) - 1, Fraction(c) + 1)
    return (2 - Fraction(63, 20 * f.N) ** 2, Fraction(2))


def floor_scaled_generator(f, bits):
    """floor(2^bits * c), by bisecting the isolating interval on the sign
    of the minimal polynomial until both ends scale into one unit step."""
    lo, hi = isolating_interval(f)
    mp = list(f.minpoly)
    sign_lo = 1 if _peval(mp, lo) > 0 else -1
    scale = 2 ** bits
    while ceil(hi * scale) - floor(lo * scale) > 1:
        mid = (lo + hi) / 2
        if (1 if _peval(mp, mid) > 0 else -1) != sign_lo:
            hi = mid
        else:
            lo = mid
    return floor(lo * scale)


def sign_by_interval_horner(f, coeffs, _narrowed={}):
    """Sign of the value at c: bisect the isolating interval until the
    interval Horner bound excludes 0.  The narrowed interval is kept per
    field order, as the field once kept it; it counts no decision."""
    if all(x == 0 for x in coeffs):
        return 0
    if f.degree == 1:
        return 1 if coeffs[0] > 0 else -1
    lo, hi = _narrowed.get(f.N) or isolating_interval(f)
    mp = list(f.minpoly)
    sign_lo = 1 if _peval(mp, lo) > 0 else -1
    while True:
        vlo, vhi = _interval_eval(coeffs, lo, hi)
        if vlo > 0 or vhi < 0:
            break
        mid = (lo + hi) / 2
        # mid is never a root: mp is irreducible of degree >= 2
        if (1 if _peval(mp, mid) > 0 else -1) != sign_lo:
            hi = mid
        else:
            lo = mid
    _narrowed[f.N] = (lo, hi)
    return 1 if vlo > 0 else -1


# ---------------------------------------------------------------------------
# Sturm chains: root counts and the largest root of a polynomial


def sturm_chain(p):
    chain = [[Fraction(x) for x in p], [Fraction(x) for x in _pderiv(p)]]
    while _ptrim(chain[-1]) and len(_ptrim(chain[-1])) > 1:
        _, r = _pdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _sign_variations(chain, x):
    signs = []
    for poly in chain:
        v = _peval(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, a, b):
    """Distinct real roots in (a, b] of the chain's polynomial."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def isolate_largest_root(p):
    """Rational interval (lo, hi) around the largest real root of p, by
    bisection of (-3, 3) on Sturm root counts; it contains exactly one
    root and p changes sign at its endpoints."""
    chain = sturm_chain(p)
    lo, hi = Fraction(-3), Fraction(3)
    while count_roots(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    while _peval(p, lo) == 0:
        lo -= Fraction(1, 64)
    while _peval(p, hi) == 0:
        hi += Fraction(1, 64)
    return lo, hi


def cyclotomic_by_division(n, _memo={1: [-1, 1]}):
    """The n-th cyclotomic polynomial as x^n - 1 divided by the product
    of the cyclotomic polynomials of the proper divisors of n; the
    divisor is monic, so the long division stays in integers."""
    if n in _memo:
        return list(_memo[n])
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _pmul(den, cyclotomic_by_division(d))
    rem = [-1] + [0] * (n - 1) + [1]
    q = [0] * (n + 2 - len(den))
    for shift in range(len(q) - 1, -1, -1):
        top = rem[shift + len(den) - 1]
        q[shift] = top
        for i, b in enumerate(den):
            rem[shift + i] -= top * b
    if any(rem):
        raise ConsistencyError("inexact cyclotomic division", n)
    _memo[n] = q
    return list(q)


# ---------------------------------------------------------------------------
# the reflection representation, from the Coxeter matrix alone


def tits_form(group):
    """The bilinear form B: B_ii = 1, B_ij = -cos(pi/m), -1 at infinity."""
    f = group.field
    m = group.matrix

    def entry(i, j):
        if i == j:
            return one(f)
        if m.order(i, j) == INFINITY:
            return -one(f)
        return -cos_pi_over(f, m.order(i, j))

    return tuple(tuple(entry(i, j) for j in range(group.rank))
                 for i in range(group.rank))


def matmul(group, a, b):
    n = group.rank
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                           start=zero(group.field))
                       for j in range(n))
                 for i in range(n))


def generator_matrix(group, i, b=None):
    """s_i(x) = x - 2 B(e_i, x) e_i, as the matrix with columns s_i(e_j);
    ``b`` is ``tits_form(group)``, built when not given."""
    f = group.field
    if b is None:
        b = tits_form(group)
    n = group.rank
    return tuple(tuple((one(f) if r == c else zero(f))
                       - (b[i][c] * 2 if r == i else zero(f))
                       for c in range(n))
                 for r in range(n))


def matrix_of(group, g):
    """Matrix of g in the reflection representation, columns g(e_j)."""
    n = group.rank
    f = group.field
    out = tuple(tuple(one(f) if r == c else zero(f) for c in range(n))
                for r in range(n))
    b = tits_form(group)
    gens = {a: generator_matrix(group, a, b) for a in set(g.word)}
    for a in g.word:
        out = matmul(group, out, gens[a])
    return out


def doubled_matrix(group, word, cols=None):
    """The matrix of ``word`` in the reflection representation, as
    ``matrix_of`` builds it, but as a tuple of columns w(e_j) of raw
    coordinates; with ``cols``, that matrix times the word's.  Right
    multiplication by s_t sends column j to
    col_j - C(e_t, e_j) col_t in the doubled form C = 2B, read off the
    Coxeter matrix alone.  The entries are integer polynomials in the
    field generator, so a product is far cheaper than ``matmul``."""
    f = group.field
    n = group.rank
    m = group.matrix

    def form(i, j):
        if i == j:
            return f.raw_from_int(2)
        if m.order(i, j) == INFINITY:
            return f.raw_from_int(-2)
        return f.raw_neg(f.two_cos_pi_over_raw(m.order(i, j)))

    c = [[form(i, j) for j in range(n)] for i in range(n)]
    if cols is None:
        cols = tuple(tuple(f.raw_from_int(int(i == j)) for i in range(n))
                     for j in range(n))
    for t in word:
        ct = cols[t]
        cols = tuple(col if f.raw_is_zero(c[t][j]) else
                     tuple(f.raw_sub(x, f.raw_mul(c[t][j], y))
                           for x, y in zip(col, ct))
                     for j, col in enumerate(cols))
    return cols


def shortlex_by_matrix_bfs(group, radius):
    """ShortLex representatives by matrix-identified free-monoid BFS, as
    a map from ``doubled_matrix`` to word in discovery order.

    Independent of the word machinery: elements are told apart only by
    their exact representation matrices, and the first word reaching an
    element in ShortLex discovery order is its normal form.
    """
    ident = doubled_matrix(group, ())
    seen = {ident: ()}
    frontier = [((), ident)]
    for _ in range(radius):
        nxt = []
        for word, cols in frontier:
            for t in range(group.rank):
                key = doubled_matrix(group, (t,), cols)
                if key not in seen:
                    seen[key] = word + (t,)
                    nxt.append((word + (t,), key))
        frontier = nxt
    return seen


def root_of(group, wall):
    """The root w(e_s) of a wall with witness (w, s), as a coordinate
    tuple in the simple-root basis; the wall's positive root is +/- it."""
    w, s = wall.witness
    m = matrix_of(group, w)
    return tuple(row[s] for row in m)


def bilinear(group, x, y):
    b = tits_form(group)
    n = group.rank
    return sum((x[i] * b[i][j] * y[j] for i in range(n) for j in range(n)),
               start=zero(group.field))


def form_by_rows(group, t, u):
    """The doubled form value C(root_t, root_u) as a raw tuple, forming
    row i of C times root_u afresh for each pair."""
    f = group.field
    rt = group._root_list[group.panel_root(*t.witness)]
    ru = group._root_list[group.panel_root(*u.witness)]
    c = f.raw_from_int(0)
    for i in range(group.rank):
        if not f.raw_is_zero(rt[i]):
            c = f.raw_add(c, f.raw_mul(rt[i], group._form_row(i, ru)))
    return c


def order_by_form_rows(group, t, u):
    """Order of t u with the form value of ``form_by_rows``:
    ``order_of_product`` before it memoised C r, and with the order read
    by ``order_by_chebyshev`` rather than the field's table."""
    f = group.field
    c = form_by_rows(group, t, u)
    c2 = f.raw_mul(c, c)
    if f.sign_raw(f.raw_sub(c2, f.raw_from_int(4))) >= 0:
        return INFINITY
    return order_by_chebyshev(f, f.raw_sub(c2, f.raw_from_int(2)),
                              (t.reflection.display(),
                               u.reflection.display()))


def order_by_chebyshev(f, v, context=None):
    """The order of a rotation r with 2cos(angle of r) the raw value v:
    the least k >= 1 with U_k = 2cos(k * angle) = 2, by the recurrence
    U_0 = 2, U_1 = v, U_{k+1} = v U_k - U_{k-1}, in exact field
    arithmetic.  ConsistencyError past k = 2N, which bounds every
    finite order the field can hold: a divisor of 2N, or 3, 4 or 6 with
    N >= 4; in the rationals (N = 2) only 2 and 3 occur, as no rational
    C has C^2 - 2 = 0 or 1.  Reads no table of the field."""
    two = f.raw_from_int(2)
    prev, cur = two, v
    for k in range(1, 2 * f.N + 1):
        if cur == two:
            return k
        prev, cur = cur, f.raw_sub(f.raw_mul(v, cur), prev)
    raise ConsistencyError("bounded form value names no rotation order",
                           context)


def order_by_powers(group, t, u):
    """Order of t u: INFINITY when the doubled form value C of the walls'
    roots has C^2 >= 4, else the least k with (t u)^k the identity, found
    by multiplying normal forms up to a cap of
    2 * (largest finite order) * rank * 8.  The form is doubled, as in
    the library, so its entries and the roots' coordinates stay integer
    polynomials; ``bilinear`` works over Fraction and is far slower."""
    f = group.field
    m = group.matrix
    rt, ru = (group._root_list[group.panel_root(*w.witness)] for w in (t, u))
    c = zero(f)
    for i in range(group.rank):
        for j in range(group.rank):
            if i == j:
                cij = f.raw_from_int(2)
            elif m.order(i, j) == INFINITY:
                cij = f.raw_from_int(-2)
            else:
                cij = f.raw_neg(f.two_cos_pi_over_raw(m.order(i, j)))
            c = c + AlgebraicReal(f, cij) * AlgebraicReal(f, rt[i]) \
                * AlgebraicReal(f, ru[j])
    if c * c >= 4:
        return INFINITY
    cap = 2 * max(m.finite_orders(), default=2) * group.rank * 8
    p = group.multiply(t.reflection, u.reflection)
    q, k = p, 1
    while q != group.identity():
        q = group.multiply(q, p)
        k += 1
        if k > cap:
            raise ConsistencyError("bounded form value but no finite order",
                                   (t.reflection.display(),
                                    u.reflection.display()))
    return k


class TrackingReduction:
    """ShortLex reduction with alpha_t walked back through the word as an
    interned root of ``group``: a crossing is the walk meeting the simple
    root of a letter.  ``panel_root`` reads a panel's root off the same
    walk, as ``CoxeterGroup.panel_root`` did before the table walk found
    its crossings."""

    def __init__(self, group):
        self.group = group
        self._canon = {(): ()}
        self._mult = {}

    def track(self, word, t):
        """Walk alpha_t back through the reduced ``word``: (j, None) when
        it crosses at letter j, so word * s_t deletes that letter, else
        (None, id of word(alpha_t)), a positive root."""
        simple = self.group._simple
        x = simple[t]
        for j in range(len(word) - 1, -1, -1):
            a = word[j]
            if x == simple[a]:
                return j, None
            x = self.group._reflect_id(x, a)
        return None, x

    def panel_root(self, word, s):
        """The group's id of the positive root of the panel (word, s)."""
        j, x = self.track(word, s)
        return x if j is None else self.panel_root(word[:j], word[j])

    def canonical(self, word):
        """ShortLex form of a reduced word: strip smallest left descents."""
        hit = self._canon.get(word)
        if hit is None:
            rev = word[::-1]
            for i in range(self.group.rank):
                j, _ = self.track(rev, i)
                if j is not None:
                    k = len(word) - 1 - j
                    hit = (i,) + self.canonical(word[:k] + word[k + 1:])
                    break
            else:
                raise ConsistencyError("reduced word has no left descent",
                                       word)
            self._canon[word] = hit
        return hit

    def mult_gen(self, word, t):
        """Normal form of (element of canonical ``word``) * s_t."""
        key = (word, t)
        hit = self._mult.get(key)
        if hit is None:
            j, _ = self.track(word, t)
            hit = self.canonical(word + (t,) if j is None
                                 else word[:j] + word[j + 1:])
            self._mult[key] = hit
        return hit

    def normal_form(self, word):
        out = ()
        for t in word:
            out = self.mult_gen(out, t)
        return out


def as_reflection_by_descent(group, g):
    """The wall of g if g is a reflection, else None, by conjugation
    descent: a reflection of length > 1 has a generator conjugation that
    shortens it by 2, and descending to a generator certifies it and
    yields the witness."""
    if len(g) % 2 == 0:
        return None
    cur = g
    conjs = []
    while len(cur) > 1:
        for i in range(group.rank):
            cand = group.step(group.multiply(group.generator(i), cur), i)
            if len(cand) < len(cur):
                conjs.append(i)
                cur = cand
                break
        else:
            return None
    return Wall(g, (group.normal_form(conjs), cur.word[0]))


def ball_by_seen_set(group, radius, cap=DEFAULT_ELEMENT_CAP):
    """``CoxeterGroup.ball`` keeping a set of the elements found and
    sorting each level."""
    level = [()]
    seen = {()}
    words = [()]
    while level and (radius is None or len(level[0]) < radius):
        nxt = []
        for w in level:
            for t in range(group.rank):
                h = group.step(Element(w), t).word
                if len(h) > len(w) and h not in seen:
                    seen.add(h)
                    if len(seen) > cap:
                        raise BudgetError(
                            f"element enumeration exceeded cap {cap}")
                    nxt.append(h)
        nxt.sort()
        words.extend(nxt)
        level = nxt
    return [Element(w) for w in words]


def canonical_by_descents(group, word):
    """ShortLex form of a reduced word: strip its smallest left descent,
    again and again.  s_i is a left descent of the word iff it is a right
    descent of the reversed word, and the crossing letter is the one to
    delete."""
    out = []
    while word:
        rev = word[::-1]
        for i in range(group.rank):
            j = group._crossing(rev, i)
            if j is not None:
                k = len(word) - 1 - j
                out.append(i)
                word = word[:k] + word[k + 1:]
                break
        else:
            raise ConsistencyError("reduced nonempty word has no left descent",
                                   word)
    return tuple(out)


def mult_gen_by_canonical(group, word, t):
    """Normal form of (element of canonical ``word``) * s_t with no
    automaton: the product, shortened at the crossing letter if there is
    one, is canonicalised by stripping smallest left descents."""
    j = group._crossing(word, t)
    return canonical_by_descents(group, word + (t,) if j is None
                                 else word[:j] + word[j + 1:])


def automaton_state(group, word):
    """The ShortLex automaton state of a normal form: the empty state
    stepped along the word by ``group._row``."""
    state = frozenset()
    for a in word:
        letters, children = group._row(state)
        state = children[letters.index((a,))]
    return state


def normal_form_by_canonical(group, word):
    out = ()
    for t in word:
        out = mult_gen_by_canonical(group, out, t)
    return out


def ball_by_canonical(group, radius, cap=DEFAULT_ELEMENT_CAP):
    """``CoxeterGroup.ball`` by the canonicalising child rule: the normal
    form h of w*t is a child of w exactly when it is longer and ends in
    t, as ShortLex forms are prefix-closed."""
    level = [()]
    words = [()]
    while level and (radius is None or len(level[0]) < radius):
        nxt = []
        for w in level:
            for t in range(group.rank):
                h = mult_gen_by_canonical(group, w, t)
                if len(h) > len(w) and h[-1] == t:
                    nxt.append(h)
                    if len(words) + len(nxt) > cap:
                        raise BudgetError(
                            f"element enumeration exceeded cap {cap}")
        words.extend(nxt)
        level = nxt
    return [Element(w) for w in words]


def enumerate_reflections_by_word(group, max_length):
    """The reflections w s w^-1 of length <= max_length over the panels
    (w, s) of the ball of radius (max_length - 1) // 2, keyed by normal
    form, each a new ``Wall`` witnessed by the first panel that formed
    it."""
    out = {}
    for w in ball_by_seen_set(group, (max_length - 1) // 2):
        for s in range(group.rank):
            word = group.multiply(group.step(w, s), group.inverse(w)).word
            if len(word) <= max_length and word not in out:
                out[word] = Wall(Element(word), (w, s))
    return sorted(out.values(), key=lambda x: x.sort_key)


def library_elementary_table(group):
    """The group's elementary-root table as a map on root coordinates:
    (y, s) -> "cross", "exit" or the coordinates of s(y)."""
    roots = group._small_roots
    return {(y, s): ("cross" if k == CROSS else "exit" if k == EXIT
                     else roots[k])
            for y, row in zip(roots, group._small_table)
            for s, k in enumerate(row)}


def elementary_table_signed(group):
    """The elementary roots as the least set holding the simple roots and
    s(y) for each member y with -1 < B(alpha_s, y) < 0, the signs decided
    through ``AlgebraicReal``; returned as ``library_elementary_table``
    returns the library's, with "cross" at y = alpha_s.  The form is
    doubled, C = 2B, so coordinates stay integer polynomials."""
    f = group.field
    n = group.rank
    c = [[AlgebraicReal(f, tuple(int(x) for x in (e * 2).coeffs))
          for e in row] for row in tits_form(group)]
    simple = [tuple(f.raw_from_int(int(i == j)) for j in range(n))
              for i in range(n)]
    memo = {}

    def form(s, y):  # C(alpha_s, y)
        if (s, y) not in memo:
            memo[s, y] = sum((c[s][j] * AlgebraicReal(f, y[j])
                              for j in range(n)), start=zero(f))
        return memo[s, y]

    def reflect(y, s):
        return y[:s] + (f.raw_sub(y[s], form(s, y).coeffs),) + y[s + 1:]

    roots = list(simple)
    known = set(roots)
    for y in roots:
        for s in range(n):
            if -2 < form(s, y) < 0:
                z = reflect(y, s)
                if z not in known:
                    known.add(z)
                    roots.append(z)
    table = {}
    for y in roots:
        for s in range(n):
            z = reflect(y, s)
            table[y, s] = ("cross" if y == simple[s]
                           else z if z in known else "exit")
    return table


# ---------------------------------------------------------------------------
# subgroup membership: conjugation descent and enumeration


def contains_reflection(group, gens, r):
    """Membership of a reflection in the subgroup of a canonical set,
    by conjugation descent through the generators."""
    genwords = {t.reflection.word for t in gens}
    cur = r
    while True:
        if cur.reflection.word in genwords:
            return True
        for t in sorted(gens, key=lambda w: w.sort_key):
            cand = group.conjugate_wall(t, cur)
            if len(cand.reflection.word) < len(cur.reflection.word):
                cur = cand
                break
        else:
            return False


def fundamental_polytope_by_membership(group, gens, max_chambers):
    """Chambers the base chamber reaches without crossing a mirror of
    the subgroup of the canonical set ``gens``, each panel's wall tested
    with ``contains_reflection``.  Returns (polytope, index); raises
    BudgetError past ``max_chambers``."""
    mirror = {}
    region = {group.identity()}
    queue = [group.identity()]
    for g in queue:
        for s in range(group.rank):
            x = group.step(g, s)
            if x in region:
                continue
            rid = group.panel_root(g, s)
            if rid not in mirror:
                mirror[rid] = contains_reflection(group, gens,
                                                  group.wall_between(g, s))
            if not mirror[rid]:
                region.add(x)
                queue.append(x)
        if len(region) > max_chambers:
            raise BudgetError(f"fundamental domain exceeds {max_chambers} "
                              "chambers")
    if not is_convex(group, region):
        raise ConsistencyError("fundamental domain is not convex",
                               sorted(c.display() for c in region))
    return convex_hull(group, region), len(region)


def subgroup_reflections_bounded(group, gens, length_bound, cap=20_000):
    """Words of the reflections w t w^-1 of the subgroup, over a BFS of
    subgroup words pruned at the given length."""
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for t in gens:
                v = group.multiply(w, t.reflection)
                if v not in seen and len(v) <= length_bound:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > cap:
                        raise BudgetError("subgroup enumeration cap hit")
        frontier = nxt
    refs = set()
    for w in seen:
        for t in gens:
            r = group.multiply(group.multiply(w, t.reflection),
                               group.inverse(w))
            if len(r) <= length_bound:
                refs.add(r.word)
    return refs


def contains_reflection_enumerative(group, gens, r, slack=0, cap=20_000):
    bound = len(r.reflection.word) + slack
    return r.reflection.word in subgroup_reflections_bounded(
        group, gens, bound, cap)


def contains_reflection_checked(group, gens, r, slack=0):
    """Run both implementations; disagreement is an error."""
    fast = contains_reflection(group, gens, r)
    slow = contains_reflection_enumerative(group, gens, r, slack)
    if fast != slow:
        raise ConsistencyError(
            "membership descent disagrees with enumeration",
            {"gens": [t.reflection.display() for t in gens],
             "r": r.reflection.display(), "descent": fast, "oracle": slow})
    return fast


# ---------------------------------------------------------------------------
# the Andreev check, one facet pair at a time


def facets_intersect_per_pair(group, polytope, a, b):
    """Some chamber g of the polytope conjugates both reflections into one
    finite standard subgroup."""
    for g in polytope.sorted_chambers():
        ginv = group.inverse(g)
        ra = group.multiply(group.multiply(ginv, a.reflection), g)
        rb = group.multiply(group.multiply(ginv, b.reflection), g)
        support = sorted(set(ra.word) | set(rb.word))
        if is_finite(group.matrix.restrict(support)):
            return True
    return False


def facets_intersect(group, polytope, a, b):
    """Whether the two facet walls meet inside the closure of the
    polytope, by the library's residue root masks: some maximal spherical
    residue meeting it is crossed by both."""
    both = 1 << group.wall_root(a) | 1 << group.wall_root(b)
    return any(r & both == both for r in _residue_roots(
        group, _mask_of(group, polytope)))


def meeting_by_conjugates(group, polytope, walls):
    """The meeting test on conjugates: every wall conjugated by every
    chamber up front, and a pair meeting when, for some chamber, the
    union of its two conjugates' supports is spherical."""
    conj = [(group.inverse(g), g) for g in polytope.sorted_chambers()]
    supports = {w: [frozenset(group.multiply(
                        group.multiply(ginv, w.reflection), g).word)
                    for ginv, g in conj]
                for w in walls}
    finite = {}

    def meet(a, b):
        for x, y in zip(supports[a], supports[b]):
            union = x | y
            if union not in finite:
                finite[union] = is_finite(group.matrix.restrict(union))
            if finite[union]:
                return True
        return False
    return meet


def check_andreev_by_conjugates(group, polytope):
    """``check_andreev`` on conjugates: the meeting test on every facet
    pair, then the order of the disjoint ones."""
    violations = []
    walls = polytope.facet_walls
    meet = meeting_by_conjugates(group, polytope, walls)
    for a, b in combinations(walls, 2):
        if not meet(a, b) and group.order_of_product(a, b) != INFINITY:
            violations.append((a, b))
    return violations


def andreev_per_pair(group, polytope):
    """Facet-wall pairs disjoint along the polytope whose walls meet."""
    return [(a, b) for a, b in combinations(polytope.facet_walls, 2)
            if group.order_of_product(a, b) != INFINITY
            and not facets_intersect_per_pair(group, polytope, a, b)]


# ---------------------------------------------------------------------------
# facets and angle sites, the first implementations


def angle_fraction(site):
    """A site's angle as a multiple of pi."""
    return Fraction(site.j, site.m)


def facet_walls_by_count(group, chambers):
    """Walls of boundary panels with every chamber on one side, the side
    counted over all the chambers."""
    inversions = [group.inversion_set(g) for g in chambers]
    seen = set()
    out = []
    for g in sorted(chambers, key=lambda e: e.sort_key):
        for s in range(group.rank):
            rid = group.panel_root(g, s)
            if rid in seen or group.step(g, s) in chambers:
                continue
            seen.add(rid)
            across = sum(rid in n for n in inversions)
            if across in (0, len(inversions)):
                out.append((group.wall_between(g, s),
                            -1 if across else 1))
    return tuple(sorted(out, key=lambda p: p[0].sort_key))


def angle_sites_cycle_walk(group, polytope):
    """Walk the whole 2m-cycle of every rank-2 residue from every chamber,
    keep one walk per residue, and read the arc and its two bounding
    panels off the cycle order."""
    sites = []
    seen = set()
    chambers = polytope.chambers
    for g in polytope.sorted_chambers():
        for s, t in combinations(range(group.rank), 2):
            m = group.matrix.order(s, t)
            if m == INFINITY:
                continue
            cyc = [g]
            letters = []
            cur = g
            for k in range(2 * m - 1):
                a = s if k % 2 == 0 else t
                cur = group.step(cur, a)
                cyc.append(cur)
                letters.append(a)
            letters.append(t)
            if group.step(cyc[-1], letters[-1]) != cyc[0]:
                raise ConsistencyError("rank-2 residue does not close",
                                       (g.display(), s, t))
            base = min(cyc, key=lambda e: e.sort_key)
            key = (base.word, s, t)
            if key in seen:
                continue
            seen.add(key)
            n = 2 * m
            inside = [k for k in range(n) if cyc[k] in chambers]
            j = len(inside)
            if j == n:
                sites.append(AngleSite(base, (s, t), m, j, ()))
                continue
            inset = set(inside)
            starts = [k for k in inside if (k - 1) % n not in inset]
            if len(starts) != 1:
                raise ConsistencyError(
                    "arc of a convex polytope is not contiguous",
                    (key, inside))
            start = starts[0]
            w_in = group.wall_between(cyc[(start - 1) % n],
                                      letters[(start - 1) % n])
            end = (start + j - 1) % n
            w_out = group.wall_between(cyc[end], letters[end])
            bounds = (w_in,) if w_in == w_out else tuple(
                sorted((w_in, w_out), key=lambda w: w.sort_key))
            sites.append(AngleSite(base, (s, t), m, j, bounds))
    sites.sort(key=lambda z: (z.pair, z.base.sort_key))
    return tuple(sites)


def facet_panels_by_scan(group, chambers):
    """The first boundary panel (g, s), g in ``chambers`` and g s outside,
    on each facet wall, keyed by panel root: every chamber's panels are
    met in (sorted chamber, s) order, and the walls keep that order."""
    panels = {}
    for g in sorted(chambers, key=lambda e: e.sort_key):
        for s in range(group.rank):
            if group.step(g, s) not in chambers:
                panels.setdefault(group.panel_root(g, s), (g, s))
    return panels


def angle_sites_by_residue(group, chambers):
    """Group every chamber by its residue's least chamber; the panels
    leaving the set give the arc's bounding walls, and a contiguous arc
    has 2 of them."""
    sites = []
    for s, t in combinations(range(group.rank), 2):
        m = group.matrix.order(s, t)
        if m == INFINITY:
            continue
        residues = {}
        for g in chambers:
            residues.setdefault(residue_base_by_descent(group, g, s, t),
                                []).append(g)
        for base, arc in residues.items():
            exits = [(g, a) for g in arc for a in (s, t)
                     if group.step(g, a) not in chambers]
            if len(exits) != (0 if len(arc) == 2 * m else 2):
                raise ConsistencyError(
                    "arc of a convex polytope is not contiguous",
                    ((base.word, s, t), sorted(g.word for g in arc)))
            walls = {group.wall_between(g, a) for g, a in exits}
            sites.append(AngleSite(base, (s, t), m, len(arc), tuple(
                sorted(walls, key=lambda w: w.sort_key))))
    sites.sort(key=lambda z: (z.pair, z.base.sort_key))
    return tuple(sites)


def angle_sites_by_arc_walk(group, chambers):
    """The arc walk ``angle_sites`` ran before it counted residues: for
    each finite pair, walk each chamber not yet reached out through s and
    t inside the set, refuse a second walk in one residue, and require
    the arcs of each pair to cover the set once; the panels leaving the
    set give the arc's bounding walls."""
    ids = [group.chamber_id(g) for g in chambers]
    mask = sum(1 << i for i in ids)
    sites = []
    for s, t in combinations(range(group.rank), 2):
        m = group.matrix.order(s, t)
        if m == INFINITY:
            continue
        bases, done, covered = set(), set(), 0
        for g in ids:
            if g in done:
                continue
            base = residue_base_by_descent(group, group.chamber(g), s, t)
            if base in bases:
                raise ConsistencyError(
                    "arc of a convex polytope is not contiguous",
                    ((base.word, s, t), group.chamber(g).word))
            bases.add(base)
            done.add(g)
            arc, exits = [g], set()
            for x in arc:
                row = group.adjacent(x)
                for a in (s, t):
                    y = row[a][0]
                    if not mask >> y & 1:
                        exits.add(group.panel_wall(x, a))
                    elif y not in done:
                        done.add(y)
                        arc.append(y)
            covered += len(arc)
            sites.append(AngleSite(base, (s, t), m, len(arc), tuple(
                sorted(exits, key=lambda w: w.sort_key))))
        if covered != len(ids):
            raise ConsistencyError(
                "arc of a convex polytope is not contiguous",
                sorted(g.word for g in chambers))
    sites.sort(key=lambda z: (z.pair, z.base.sort_key))
    return tuple(sites)


def census_record_by_residue(group, chambers):
    """A census line built from ``angle_sites_by_residue`` and the side
    count's facet walls."""
    sites = angle_sites_by_residue(group, chambers)
    boundary = [z for z in sites if not z.interior]
    return {
        "chambers": [g.display()
                     for g in sorted(chambers, key=lambda e: e.sort_key)],
        "facets": len(facet_walls_by_count(group, chambers)),
        "coxeter": all(z.m % z.j == 0 for z in boundary),
        "acute": all(2 * z.j <= z.m for z in boundary),
        "angles": [{"m": z.m, "j": z.j} for z in sites],
    }


# ---------------------------------------------------------------------------
# the verify searches, first implementations


def index_two_by_commutation(group):
    """The explicit index-2 generating set available when some generator
    commutes with all but one other and the remaining order is even or
    infinite: keep the rest of S and replace s0 by s0 s' s0."""
    matrix = group.matrix
    s0 = comm_condition(matrix)["condition1"]
    if s0 is None:
        return None
    others = [s for s in range(matrix.rank) if s != s0]
    s_prime = next(s for s in others if matrix.order(s0, s) != 2)
    m = matrix.order(s0, s_prime)
    if m != INFINITY and m % 2 != 0:
        return None
    walls = [group.generator_wall(s) for s in others]
    walls.append(group.conjugate_wall(group.generator_wall(s0),
                                      group.generator_wall(s_prime)))
    return tuple(sorted(walls, key=lambda w: w.sort_key))


def search_equal_rank_by_descent(group, max_chambers, census=None):
    """Equal-rank classes from the canonical-generator descent run on
    each Coxeter polytope's facet walls."""
    found = {}
    if census is None:
        census = enumerate_convex_polytopes(group, max_chambers)
    for p in census:
        if len(p.chambers) > max_chambers:
            continue
        if not is_coxeter_polytope(group, p):
            continue
        gens = canonical_generators(group, p.facet_walls)
        if len(gens) != group.rank:
            continue
        induced = induced_matrix(group, gens)
        key = (len(p.chambers), induced.signature())
        if key not in found:
            found[key] = ReflectionSubgroup(gens, induced, p,
                                            len(p.chambers))
    return sorted(found.values(),
                  key=lambda r: (r.index, r.induced.signature()))


def facet_side(group, polytope, wall):
    """The side of a facet wall the polytope lies on: any chamber's."""
    return side(group, wall, next(iter(polytope.chambers)))


def facet_chambers(group, polytope, wall):
    """Chambers of the polytope having a panel on the wall."""
    rid = group.panel_root(*wall.witness)
    return frozenset(g for g in polytope.chambers
                     if any(group.panel_root(g, s) == rid
                            for s in range(group.rank)))


def acute_along(group, polytope, wall):
    """Every angle of the polytope at the wall is at most pi/2."""
    return all(2 * z.j <= z.m for z in angle_sites(group, polytope)
               if not z.interior and wall in z.boundary_walls)


def check_stacan(group, p1, p2):
    """Whether the union of two polytopes glued along a common facet is
    convex; the preconditions (disjoint, shared facet with matching
    panels, acute angles along it) are checked and reported distinctly.
    """
    if p1.chambers & p2.chambers:
        raise PreconditionError("polytopes share chambers")
    shared = None
    f1 = {w.reflection.word: w for w in p1.facet_walls}
    f2 = {w.reflection.word: w for w in p2.facet_walls}
    for word in sorted(set(f1) & set(f2)):
        w = f1[word]
        if facet_side(group, p1, w) == -facet_side(group, p2, w):
            mirrored = frozenset(group.multiply(w.reflection, g)
                                 for g in facet_chambers(group, p1, w))
            if mirrored == facet_chambers(group, p2, w):
                shared = w
                break
    if shared is None:
        raise PreconditionError("no common facet wall with matching panels")
    if not acute_along(group, p1, shared) or \
            not acute_along(group, p2, shared):
        raise PreconditionError("angles along the shared facet not acute")
    return is_convex(group, p1.chambers | p2.chambers)


def stacan_pairs_all_bases(group, max_total_chambers, census=None):
    """Glued pairs with P2 over the translates anchor b^-1 C, for every
    census member C and every chamber b of it, each translate tried once
    per (P1, chamber set)."""
    if census is None:
        census = enumerate_convex_polytopes(group, max_total_chambers - 1)
    census = [p for p in census
              if len(p.chambers) <= max_total_chambers - 1]
    seen = set()
    for p1 in census:
        room = max_total_chambers - len(p1.chambers)
        for wall in p1.facet_walls:
            if not acute_along(group, p1, wall):
                continue
            sd = facet_side(group, p1, wall)
            mirrored = frozenset(group.multiply(wall.reflection, g)
                                 for g in facet_chambers(group, p1, wall))
            anchor = min(mirrored, key=lambda e: e.sort_key)
            for c in census:
                if len(c.chambers) > room:
                    continue
                for base in c.sorted_chambers():
                    shift = group.multiply(anchor, group.inverse(base))
                    chambers = frozenset(group.multiply(shift, x)
                                         for x in c.chambers)
                    key = (p1.chambers, chambers)
                    if key in seen:
                        continue
                    seen.add(key)
                    if chambers & p1.chambers:
                        continue
                    if not mirrored <= chambers:
                        continue
                    if any(side(group, wall, g) == sd for g in chambers):
                        continue
                    p2 = convex_hull(group, chambers)
                    if facet_chambers(group, p2, wall) != mirrored:
                        continue
                    if not acute_along(group, p2, wall):
                        continue
                    yield p1, p2, wall


def _census_by_scan(group, max_total_chambers, census):
    """The census members with room for a partner."""
    if census is None:
        census = enumerate_convex_polytopes(group, max_total_chambers - 1)
    return [p for p in census if len(p.chambers) <= max_total_chambers - 1]


def _acute_panels_by_scan(group, max_total_chambers, census):
    """(P1, room, W, g, s) for each facet wall W along which a member P1
    of the census is acute, in census and wall order, with (g, s) P1's
    one panel on W and room the chambers left for a partner."""
    for p1 in census:
        room = max_total_chambers - len(p1.chambers)
        for wall in p1.facet_walls:
            if not acute_along(group, p1, wall):
                continue
            rid = group.panel_root(*wall.witness)
            panels = [(g, s) for g in p1.sorted_chambers()
                      for s in range(group.rank)
                      if group.panel_root(g, s) == rid]
            if len(panels) != 1:
                raise ConsistencyError(
                    "acute facet of a convex polytope is not one chamber",
                    sorted((g.word, s) for g, s in panels))
            [(g, s)] = panels
            yield p1, room, wall, g, s


def stacan_pairs_by_scan(group, max_total_chambers, census=None):
    """``stacan_pairs`` before the partner index: for each acute facet of
    each P1 the whole census is scanned, acuteness read off the sites by
    wall equality, and each translate formed by ``multiply``."""
    census = _census_by_scan(group, max_total_chambers, census)
    for p1, room, wall, g, s in _acute_panels_by_scan(
            group, max_total_chambers, census):
        anchor = group.step(g, s)
        across = group.generator(s)
        base_wall = group.generator_wall(s)
        for c in census:
            if len(c.chambers) > room or across in c.chambers:
                continue
            if not acute_along(group, c, base_wall):
                continue
            chambers = frozenset(group.multiply(anchor, x)
                                 for x in c.chambers)
            yield p1, polytope_of(group, chambers), wall


def glued_unions_wide(group, max_total_chambers, census=None):
    """The pairs of ``stacan_pairs_by_scan`` and those whose partner is
    obtuse along the wall: (P1, (g, s), C, P1 | g s C) for each acute
    facet of each P1, with (g, s) its one panel, and every census member
    C that fits the room and does not hold s, the translate formed by
    ``multiply``."""
    census = _census_by_scan(group, max_total_chambers, census)
    for p1, room, _, g, s in _acute_panels_by_scan(
            group, max_total_chambers, census):
        anchor = group.step(g, s)
        across = group.generator(s)
        for c in census:
            if len(c.chambers) > room or across in c.chambers:
                continue
            yield p1, (g, s), c, p1.chambers | frozenset(
                group.multiply(anchor, x) for x in c.chambers)


def stacan_entry_by_scan(group, max_chambers, census, convex=is_convex):
    """The stacan suite's report entry as it was built from
    ``stacan_pairs_by_scan``, each union tested by ``convex`` on its
    chambers."""
    pairs, bad = 0, []
    for p1, p2, wall in stacan_pairs_by_scan(group, max_chambers, census):
        pairs += 1
        if not convex(group, p1.chambers | p2.chambers):
            bad.append({
                "p1": [c.display() for c in p1.sorted_chambers()],
                "p2": [c.display() for c in p2.sorted_chambers()],
                "wall": wall.reflection.display(),
            })
    if bad:
        return {"name": "stacan", "status": "fail",
                "detail": f"{len(bad)} non-convex unions over {pairs} "
                          "glued pairs",
                "counterexample": bad[:3]}
    return {"name": "stacan", "status": "bounded-pass",
            "detail": f"all {pairs} glued-pair unions convex"}
