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
and angle sites.  ``element_count``, ``has_finite_index_standard`` and
``index_two_by_commutation`` are closed-form and enumerative facts the
tests check the library against.  ``check_stacan`` re-derives the glued
pair's preconditions from scratch, ``stacan_pairs_all_bases`` anchors
every chamber of every census member, and ``search_equal_rank_by_descent``
runs the canonical-generator descent on each Coxeter polytope's facet
walls: the first implementations of the two verify searches.
"""

from fractions import Fraction
from itertools import combinations

from coxlab.davis import (AngleSite, angle_sites, convex_hull,
                          enumerate_convex_polytopes, is_convex,
                          is_coxeter_polytope, side)
from coxlab.errors import (BudgetError, ConsistencyError, FieldError,
                           InputError, PreconditionError)
from coxlab.matrices import INFINITY, components, is_finite
from coxlab.subgroups import (ReflectionSubgroup, canonical_generators,
                              comm_condition, contains_reflection,
                              induced_matrix)
from coxlab.words import DEFAULT_ELEMENT_CAP


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
        return self.field.sign_raw(self.coeffs)

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


def generator_matrix(group, i):
    """s_i(x) = x - 2 B(e_i, x) e_i, as the matrix with columns s_i(e_j)."""
    f = group.field
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
    for a in g.word:
        out = matmul(group, out, generator_matrix(group, a))
    return out


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


# ---------------------------------------------------------------------------
# subgroup membership by enumeration


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


def andreev_per_pair(group, polytope):
    """Facet-wall pairs disjoint along the polytope whose walls meet."""
    walls = [w for w, _ in polytope.facet_walls]
    return [(a, b) for a, b in combinations(walls, 2)
            if group.order_of_product(a, b) != INFINITY
            and not facets_intersect_per_pair(group, polytope, a, b)]


# ---------------------------------------------------------------------------
# facets and angle sites, the first implementations


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
        walls = tuple(w for w, _ in p.facet_walls)
        gens = canonical_generators(group, walls)
        if len(gens) != group.rank:
            continue
        induced = induced_matrix(group, gens)
        key = (len(p.chambers), induced.signature())
        if key not in found:
            found[key] = ReflectionSubgroup(gens, induced, p,
                                            len(p.chambers))
    return sorted(found.values(),
                  key=lambda r: (r.index, r.induced.signature()))


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
    f1 = {w.reflection.word: (w, sd) for w, sd in p1.facet_walls}
    f2 = {w.reflection.word: (w, sd) for w, sd in p2.facet_walls}
    for word in sorted(set(f1) & set(f2)):
        w, sd1 = f1[word]
        _, sd2 = f2[word]
        if sd1 == -sd2:
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
        for wall, sd in p1.facet_walls:
            if not acute_along(group, p1, wall):
                continue
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
