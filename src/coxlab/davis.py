"""Chamber-level model of the Davis complex.

Chambers are group elements; the base chamber is the identity.  A wall
splits the chamber set in two; a chamber is across it exactly when the
wall is in the chamber's inversion set.  A convex chamber set is an
intersection of roots, so one wall-crossing search finds convex hulls
and fundamental domains.  A convex polytope carries its minimal facet
walls, its codimension-2 angle sites (rank-2 residues it meets), and the
angle predicates built from them.  The census enumerates every convex
chamber set containing the base chamber up to a chamber budget: each one
arises from a smaller one by adjoining an adjacent chamber and closing
up, so the growth search is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import (BudgetError, ConsistencyError, InputError,
                     PreconditionError)
from .matrices import INFINITY, is_finite, is_indecomposable
from .words import Element

DEFAULT_HULL_CAP = 4096


def side(group, wall, chamber):
    """+1 on the base-chamber side of the wall, -1 across it."""
    return -1 if wall.rid in group.inversion_set(chamber) else 1


# ---------------------------------------------------------------------------
# chamber regions: convex hulls and fundamental domains


def _region(group, start, crosses, limit):
    """Chambers reachable from ``start`` through the panels (g, s) with
    ``crosses(g, s)``, or None once there are more than ``limit``."""
    region = {start}
    queue = [start]
    for g in queue:
        for s in range(group.rank):
            x = group.step(g, s)
            if x not in region and crosses(g, s):
                region.add(x)
                queue.append(x)
        if len(region) > limit:
            return None
    return frozenset(region)


def _hull_limited(group, chambers, limit):
    """Convex hull, or None once it exceeds ``limit`` chambers: what the
    least input chamber c0 reaches across walls separating it from some
    input chamber, as a convex set is an intersection of roots."""
    c0 = min(chambers, key=lambda e: e.sort_key)
    n0 = group.inversion_set(c0)
    walls = set()
    for c in chambers:
        walls |= group.inversion_set(c) ^ n0
    return _region(group, c0,
                   lambda g, s: group.panel_root(g, s) in walls, limit)


@dataclass(frozen=True)
class ChamberPolytope:
    chambers: frozenset       # of Element
    facet_walls: tuple        # of (Wall, side) pairs
    convex: bool
    # angle sites, filled by the first angle_sites call
    _sites: tuple = field(default=None, init=False, compare=False,
                          repr=False)

    @property
    def facet_count(self):
        return len(self.facet_walls)

    def sorted_chambers(self):
        return sorted(self.chambers, key=lambda e: e.sort_key)

    def __repr__(self):
        words = [c.display() or "e" for c in self.sorted_chambers()]
        return f"ChamberPolytope({words}, facets={self.facet_count})"


def _facet_walls(group, chambers):
    """Walls of boundary panels with every chamber on one side."""
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


def _polytope_of(group, chambers):
    return ChamberPolytope(frozenset(chambers),
                           _facet_walls(group, chambers), True)


def convex_hull(group, chambers, max_chambers=DEFAULT_HULL_CAP):
    """Smallest convex chamber set containing the input."""
    seed = frozenset(chambers)
    if not seed:
        raise InputError("hull of an empty chamber set")
    h = _hull_limited(group, seed, max_chambers)
    if h is None:
        raise BudgetError(f"hull exceeded {max_chambers} chambers")
    return _polytope_of(group, h)


def is_convex(group, chambers):
    seed = frozenset(chambers)
    return not seed or _hull_limited(group, seed, len(seed)) == seed


def as_polytope(group, chambers):
    if not is_convex(group, chambers):
        raise InputError("chamber set is not convex")
    return _polytope_of(group, chambers)


# ---------------------------------------------------------------------------
# angle sites


@dataclass(frozen=True)
class AngleSite:
    """A rank-2 spherical residue meeting the polytope.

    The residue is a 2m-cycle of chambers; the polytope meets it in a
    contiguous arc of j chambers, giving dihedral angle j*pi/m.  An arc
    filling the whole cycle (j = 2m) is an interior codimension-2 face
    and carries no angle.
    """

    base: Element             # least chamber of the residue
    pair: tuple               # generator pair (s, t), s < t
    m: int
    j: int
    arc: tuple                # chambers of the polytope, in cycle order
    boundary_walls: tuple     # distinct walls bounding the arc; () if interior

    @property
    def interior(self):
        return self.j == 2 * self.m

    @property
    def angle_fraction(self):
        """Angle as a multiple of pi."""
        return Fraction(self.j, self.m)


def angle_sites(group, polytope):
    """One site per rank-2 spherical residue meeting the polytope, as a
    tuple.  Computed on the first call and cached on the polytope, which
    belongs to the group that built it."""
    sites = polytope._sites
    if sites is None:
        sites = _angle_sites(group, polytope)
        object.__setattr__(polytope, "_sites", sites)
    return sites


def _angle_sites(group, polytope):
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
                sites.append(AngleSite(base, (s, t), m, j, tuple(cyc), ()))
                continue
            inset = set(inside)
            starts = [k for k in inside if (k - 1) % n not in inset]
            if len(starts) != 1:
                raise ConsistencyError(
                    "arc of a convex polytope is not contiguous",
                    (key, inside))
            start = starts[0]
            arc = tuple(cyc[(start + r) % n] for r in range(j))
            w_in = group.wall_between(cyc[(start - 1) % n],
                                      letters[(start - 1) % n])
            end = (start + j - 1) % n
            w_out = group.wall_between(cyc[end], letters[end])
            bounds = (w_in,) if w_in == w_out else tuple(
                sorted((w_in, w_out), key=lambda w: w.sort_key))
            sites.append(AngleSite(base, (s, t), m, j, arc, bounds))
    sites.sort(key=lambda z: (z.pair, z.base.sort_key))
    return tuple(sites)


def _coxeter_angles(sites):
    return all(z.m % z.j == 0 for z in sites if not z.interior)


def _acute_angles(sites):
    return all(2 * z.j <= z.m for z in sites if not z.interior)


def is_coxeter_polytope(group, polytope):
    """All boundary angles are integer submultiples of pi (j | m)."""
    return _coxeter_angles(angle_sites(group, polytope))


def is_acute_angled(group, polytope):
    """All boundary angles are at most pi/2 (2j <= m)."""
    return _acute_angles(angle_sites(group, polytope))


def decomposed_angles(group, polytope):
    """Boundary sites whose angle is split by a wall through the face."""
    return [z for z in angle_sites(group, polytope)
            if not z.interior and z.j >= 2]


# ---------------------------------------------------------------------------
# wall and facet intersection


def walls_intersect(group, a, b):
    """Two walls meet iff their reflections generate a finite dihedral."""
    return group.order_of_product(a, b) != INFINITY


def facets_intersect(group, polytope, a, b):
    """Whether the two facet walls meet inside the closure of the polytope.

    True when some chamber g of the polytope conjugates both reflections
    into one finite standard subgroup: the wall intersection then meets
    the closure of g.
    """
    for g in polytope.sorted_chambers():
        ginv = group.inverse(g)
        ra = group.multiply(group.multiply(ginv, a.reflection), g)
        rb = group.multiply(group.multiply(ginv, b.reflection), g)
        support = sorted(set(ra.word) | set(rb.word))
        if is_finite(group.matrix.restrict(support)):
            return True
    return False


def check_andreev(group, polytope):
    """Facet-wall pairs that are disjoint along the polytope but whose
    walls still intersect.

    The emptiness guarantee holds for acute-angled polytopes; the check
    itself runs on any convex polytope.
    """
    if not polytope.convex:
        raise PreconditionError("polytope must be convex")
    violations = []
    walls = [w for w, _ in polytope.facet_walls]
    for a, b in combinations(walls, 2):
        if not facets_intersect(group, polytope, a, b) and \
                walls_intersect(group, a, b):
            violations.append((a, b))
    return violations


# ---------------------------------------------------------------------------
# gluing two polytopes along a facet


def _facet_chambers(group, polytope, wall):
    """Chambers of the polytope having a panel on the wall."""
    return frozenset(g for g in polytope.chambers
                     if any(group.panel_root(g, s) == wall.rid
                            for s in range(group.rank)))


def _acute_along(sites, wall):
    return _acute_angles([z for z in sites if wall in z.boundary_walls])


def check_stacan(group, p1, p2):
    """Whether the union of two polytopes glued along a common facet is
    convex; the preconditions (disjoint, shared facet with matching
    panels, acute angles along it) are checked and reported distinctly.
    """
    if not (p1.convex and p2.convex):
        raise PreconditionError("both polytopes must be convex")
    if p1.chambers & p2.chambers:
        raise PreconditionError("polytopes share chambers")
    shared = None
    f1 = {w.reflection.word: (w, sd) for w, sd in p1.facet_walls}
    f2 = {w.reflection.word: (w, sd) for w, sd in p2.facet_walls}
    for word in sorted(set(f1) & set(f2)):
        w, sd1 = f1[word]
        _, sd2 = f2[word]
        if sd1 == -sd2:
            panels1 = _facet_chambers(group, p1, w)
            mirrored = frozenset(group.multiply(w.reflection, g)
                                 for g in panels1)
            if mirrored == _facet_chambers(group, p2, w):
                shared = w
                break
    if shared is None:
        raise PreconditionError("no common facet wall with matching panels")
    if not _acute_along(angle_sites(group, p1), shared) or \
            not _acute_along(angle_sites(group, p2), shared):
        raise PreconditionError("angles along the shared facet not acute")
    union = p1.chambers | p2.chambers
    return is_convex(group, union)


def stacan_pairs(group, max_total_chambers, census=None):
    """All precondition-satisfying glued pairs with a bounded union size.

    The first polytope runs over the census; the second over all
    translates of census members anchored to the mirror image of the
    shared facet.  Every qualifying pair arises this way.
    """
    if census is None:
        census = enumerate_convex_polytopes(group, max_total_chambers - 1)
    census = [p for p in census
              if len(p.chambers) <= max_total_chambers - 1]
    seen = set()
    for p1 in census:
        room = max_total_chambers - len(p1.chambers)
        for wall, sd in p1.facet_walls:
            panels1 = _facet_chambers(group, p1, wall)
            if not _acute_along(angle_sites(group, p1), wall):
                continue
            mirrored = frozenset(group.multiply(wall.reflection, g)
                                 for g in panels1)
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
                    p2 = _polytope_of(group, chambers)
                    if _facet_chambers(group, p2, wall) != mirrored:
                        continue
                    if dict(p2.facet_walls).get(wall) != -sd:
                        continue
                    if not _acute_along(angle_sites(group, p2), wall):
                        continue
                    yield p1, p2, wall


# ---------------------------------------------------------------------------
# census


def enumerate_convex_polytopes(group, max_chambers):
    """All convex chamber sets containing the base chamber, at most
    ``max_chambers`` chambers, deduplicated as sets."""
    if max_chambers < 1:
        raise InputError("chamber budget must be >= 1")
    start = frozenset({group.identity()})
    seen = {start}
    queue = [start]
    for chambers in queue:
        yield _polytope_of(group, chambers)
        if len(chambers) >= max_chambers:
            continue
        for g in sorted(chambers, key=lambda e: e.sort_key):
            for s in range(group.rank):
                x = group.step(g, s)
                if x in chambers:
                    continue
                grown = _hull_limited(group, chambers | {x}, max_chambers)
                if grown is not None and grown not in seen:
                    seen.add(grown)
                    queue.append(grown)


def verify_facet_bound(group, max_chambers, census=None):
    """Census check: every convex polytope has at least rank-many facets.

    Meaningful for infinite indecomposable systems; the report flags
    applicability and returns the minimum facet count found.  A
    precomputed census (of the same budget) may be passed to avoid
    re-enumeration.
    """
    applicable = (not is_finite(group.matrix)
                  and is_indecomposable(group.matrix))
    count = 0
    min_facets = None
    violations = []
    if census is None:
        census = enumerate_convex_polytopes(group, max_chambers)
    for p in census:
        if len(p.chambers) > max_chambers:
            continue
        count += 1
        k = p.facet_count
        if min_facets is None or k < min_facets:
            min_facets = k
        if k < group.rank:
            violations.append([c.display() for c in p.sorted_chambers()])
    return {
        "applicable": applicable,
        "rank": group.rank,
        "max_chambers": max_chambers,
        "polytopes": count,
        "min_facets": min_facets,
        "bound_ok": not violations,
        "violations": violations,
    }


def census_record(group, polytope):
    """JSON-ready census line for one polytope."""
    sites = angle_sites(group, polytope)
    return {
        "chambers": [c.display() for c in polytope.sorted_chambers()],
        "facets": polytope.facet_count,
        "coxeter": _coxeter_angles(sites),
        "acute": _acute_angles(sites),
        "angles": [{"m": z.m, "j": z.j} for z in sites],
    }
