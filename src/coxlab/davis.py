"""Chamber-level model of the Davis complex.

Chambers are group elements; the base chamber is the identity.  A wall
splits the chamber set in two; a chamber is across it exactly when the
wall is in the chamber's inversion set.  A convex chamber set is an
intersection of roots, so one wall-crossing search, ``region``, finds
convex hulls and fundamental domains.  A convex polytope carries its
facet walls and its codimension-2 angle sites (rank-2 residues it
meets), both read off its boundary panels, and the angle predicates
built from the sites; a site's arc is walked out from a chamber of the
residue, named by the group's memoised ``residue_base``.  The census
enumerates every convex chamber set containing the base chamber up to a
chamber budget: each one arises from a smaller one by adjoining an
adjacent chamber and closing up, so the growth search is exhaustive.
The closure depends only on the facet wall crossed, and its new chambers
are what the adjoined chamber reaches across the walls of the smaller
set, so each member runs one search per facet wall, over new chambers
only.  A child's records grow from its parent's over its new chambers
alone: its first boundary panels are the parent's, less those on the
wall crossed, merged with the new chambers' panels, and its angle sites
are the parent's whose residue misses the new chambers, plus those
walked afresh from the new chambers (on the first ``angle_sites``
call).  Any other polytope is the case with no parent, every chamber
new.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .errors import BudgetError, ConsistencyError, InputError
from .matrices import INFINITY, is_finite, is_infinite_indecomposable
from .words import Element

DEFAULT_HULL_CAP = 4096


def side(group, wall, chamber):
    """+1 on the base-chamber side of the wall, -1 across it."""
    rid = group.panel_root(*wall.witness)
    return -1 if rid in group.inversion_set(chamber) else 1


# ---------------------------------------------------------------------------
# chamber regions: convex hulls and fundamental domains


def region(group, start, crosses, limit, queue=None):
    """The ``start`` chambers and what the chambers of ``queue`` (all of
    ``start`` by default) reach through the panels (g, s) with
    ``crosses(g, s)``, or None once there are more than ``limit``.

    The one chamber search: a convex hull crosses the walls separating
    its input chambers, a fundamental domain every wall but its
    generators', and a census child the walls of its parent.
    """
    found = set(start)
    if len(found) > limit:
        return None
    queue = list(found if queue is None else queue)
    for g in queue:
        for s in range(group.rank):
            x = group.step(g, s)
            if x not in found and crosses(g, s):
                found.add(x)
                queue.append(x)
        if len(found) > limit:
            return None
    return frozenset(found)


def _hull_limited(group, chambers, limit):
    """Convex hull, or None once it exceeds ``limit`` chambers: what the
    least input chamber c0 reaches across walls separating it from some
    input chamber, as a convex set is an intersection of roots."""
    c0 = min(chambers, key=lambda e: e.sort_key)
    n0 = group.inversion_set(c0)
    walls = set()
    for c in chambers:
        walls |= group.inversion_set(c) ^ n0
    return region(group, {c0},
                  lambda g, s: group.panel_root(g, s) in walls, limit)


@dataclass(frozen=True)
class ChamberPolytope:
    chambers: frozenset       # of Element
    facet_walls: tuple        # of Wall, sorted
    # angle sites, filled by the first angle_sites call
    _sites: tuple = field(default=None, init=False, compare=False,
                          repr=False)
    # (parent, new chambers) of a census child until its sites are filled
    _origin: tuple = field(default=None, init=False, compare=False,
                           repr=False)

    @property
    def facet_count(self):
        return len(self.facet_walls)

    def sorted_chambers(self):
        return sorted(self.chambers, key=lambda e: e.sort_key)

    def __repr__(self):
        words = [c.display() or "e" for c in self.sorted_chambers()]
        return f"ChamberPolytope({words}, facets={self.facet_count})"


def _panel_key(panel):
    g, s = panel
    return g.sort_key, s


def _facet_panels(group, chambers, new, inherited=None):
    """The first boundary panel (g, s), g in ``chambers`` and g s outside,
    on each facet wall, keyed by panel root and ordered by (chamber sort
    key, s).

    ``inherited`` is this map for the old chambers, ``chambers - new``
    (none by default, with ``new`` all the chambers).  Its panels into
    ``new`` are dropped and the boundary panels of ``new`` merged in, the
    least per root kept.  A census child's old chambers are its parent P,
    whose panels into the new chambers are all of P's on one wall (see
    ``enumerate_convex_polytopes``), so the rest are still first.
    """
    panels = {rid: panel for rid, panel in (inherited or {}).items()
              if group.step(*panel) not in new}
    for g in new:
        for s in range(group.rank):
            if group.step(g, s) not in chambers:
                rid = group.panel_root(g, s)
                have = panels.get(rid)
                if have is None or _panel_key((g, s)) < _panel_key(have):
                    panels[rid] = (g, s)
    return dict(sorted(panels.items(), key=lambda item: _panel_key(item[1])))


def _facet_walls(group, panels):
    """The walls of ``_facet_panels``, sorted."""
    return tuple(sorted((group.wall_between(g, s)
                         for g, s in panels.values()),
                        key=lambda w: w.sort_key))


def polytope_of(group, chambers):
    """The polytope of a convex chamber set (a frozenset of Element), with
    its facet walls read off its boundary panels; convexity is not
    checked."""
    return ChamberPolytope(chambers, _facet_walls(
        group, _facet_panels(group, chambers, chambers)))


def convex_hull(group, chambers, max_chambers=DEFAULT_HULL_CAP):
    """Smallest convex chamber set containing the input."""
    seed = frozenset(chambers)
    if not seed:
        raise InputError("hull of an empty chamber set")
    h = _hull_limited(group, seed, max_chambers)
    if h is None:
        raise BudgetError(f"hull exceeded {max_chambers} chambers")
    return polytope_of(group, h)


def is_convex(group, chambers):
    seed = frozenset(chambers)
    return not seed or _hull_limited(group, seed, len(seed)) == seed


# ---------------------------------------------------------------------------
# angle sites


@dataclass(frozen=True)
class AngleSite:
    """A rank-2 spherical residue meeting the polytope.

    The {s, t} residue of a chamber is a 2m-cycle of chambers; a convex
    polytope meets it in a contiguous arc of j chambers, giving dihedral
    angle j*pi/m.  A site records the residue's least chamber, the pair,
    m, j, and the walls of the panels by which the arc leaves the
    polytope: two of them, or one when j = m.  An arc filling the whole
    cycle (j = 2m) is an interior codimension-2 face: it has no exit
    walls and carries no angle.
    """

    base: Element             # least chamber of the residue
    pair: tuple               # generator pair (s, t), s < t
    m: int
    j: int
    boundary_walls: tuple     # distinct exit walls, sorted; () if interior

    @property
    def interior(self):
        return self.j == 2 * self.m


def angle_sites(group, polytope):
    """One site per rank-2 spherical residue meeting the polytope, as a
    tuple sorted by (pair, base).  Computed on the first call and cached
    on the polytope; the sites are values, equal whichever group of the
    matrix computes them.

    A census child derives its sites from its parent's (computed first,
    if they are not yet): a site whose residue misses the child's new
    chambers keeps its arc and exits, so only the residues of the new
    chambers are walked.  The child then drops its parent.
    """
    pending, p = [], polytope
    while p._sites is None:
        origin = p._origin
        pending.append((p, origin))
        if origin is None:
            break
        p = origin[0]
    for p, origin in reversed(pending):
        if origin is None:
            sites = _angle_sites(group, p.chambers, p.chambers)
        else:
            parent, new = origin
            sites = _angle_sites(group, p.chambers, new, parent._sites)
        object.__setattr__(p, "_sites", sites)
        object.__setattr__(p, "_origin", None)
    return polytope._sites


def _angle_sites(group, chambers, new, inherited=()):
    """The sites of ``inherited`` (those of the old chambers,
    ``chambers - new``; none by default, with ``new`` all the chambers)
    whose residue misses ``new``, and a fresh site for each residue of a
    new chamber.  The residue meets the convex set in one arc, walked out
    from that chamber through s and t; the panels leaving the set give
    the arc's bounding walls.  The arcs of a pair cover the set once."""
    fresh = []
    walked = set()
    for s, t in combinations(range(group.rank), 2):
        m = group.matrix.order(s, t)
        if m == INFINITY:
            continue
        arcs = {}
        for g in new:
            base = group.residue_base(g, s, t)
            if base in arcs:
                if g not in arcs[base]:
                    raise ConsistencyError(
                        "arc of a convex polytope is not contiguous",
                        ((base.word, s, t), g.word))
                continue
            arc, walls = {g}, set()
            todo = [g]
            for x in todo:
                for a in (s, t):
                    y = group.step(x, a)
                    if y not in chambers:
                        walls.add(group.wall_between(x, a))
                    elif y not in arc:
                        arc.add(y)
                        todo.append(y)
            arcs[base] = arc
            fresh.append(AngleSite(base, (s, t), m, len(arc), tuple(
                sorted(walls, key=lambda w: w.sort_key))))
        walked.update(((s, t), base) for base in arcs)
    sites = [z for z in inherited if (z.pair, z.base) not in walked] + fresh
    covered = {}
    for z in sites:
        covered[z.pair] = covered.get(z.pair, 0) + z.j
    if any(j != len(chambers) for j in covered.values()):
        raise ConsistencyError("arc of a convex polytope is not contiguous",
                               sorted(g.word for g in chambers))
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


# ---------------------------------------------------------------------------
# wall and facet intersection


def _meeting(group, polytope, walls):
    """Whether two of the walls meet inside the closure of the polytope.

    They do when some chamber g of the polytope conjugates both
    reflections into one finite standard subgroup: the wall intersection
    then meets the closure of g.  Each conjugate g^-1 r g is computed once
    per wall and chamber, and each support's finiteness once.
    """
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


def check_andreev(group, polytope):
    """Facet-wall pairs that are disjoint along the polytope but whose
    walls still intersect.

    The emptiness guarantee holds for acute-angled polytopes; the check
    itself runs on any convex polytope.
    """
    violations = []
    walls = polytope.facet_walls
    meet = _meeting(group, polytope, walls)
    for a, b in combinations(walls, 2):
        if not meet(a, b) and group.order_of_product(a, b) != INFINITY:
            violations.append((a, b))
    return violations


# ---------------------------------------------------------------------------
# gluing two polytopes along a facet


def _acute_along(sites, wall):
    return _acute_angles([z for z in sites if wall in z.boundary_walls])


def stacan_pairs(group, max_total_chambers, census=None):
    """All precondition-satisfying glued pairs with a bounded union size.

    The first polytope P1 runs over the census.  Where P1 is acute along
    a facet wall W, one chamber g of P1 has a panel (g, s) on W: two
    would, as a facet is connected through rank-2 residues, share a
    residue, a j = m site bounded by W alone.  A glued P2 contains
    ``anchor`` = g s, so anchor^-1 P2 is a census member C, and
    P2 = anchor C: one translate per member, so every qualifying pair
    arises exactly once.  anchor^-1 W is the wall of s, so P2 lies
    across W iff C does not contain s (a convex C containing e and
    crossing that wall contains s), and P2 is acute along W iff C is
    acute along the wall of s: C's cached sites decide.
    """
    if census is None:
        census = enumerate_convex_polytopes(group, max_total_chambers - 1)
    census = [p for p in census
              if len(p.chambers) <= max_total_chambers - 1]
    for p1 in census:
        room = max_total_chambers - len(p1.chambers)
        for wall in p1.facet_walls:
            if not _acute_along(angle_sites(group, p1), wall):
                continue
            rid = group.panel_root(*wall.witness)
            panels = [(g, s) for g in p1.chambers for s in range(group.rank)
                      if group.panel_root(g, s) == rid]
            if len(panels) != 1:
                raise ConsistencyError(
                    "acute facet of a convex polytope is not one chamber",
                    sorted((g.word, s) for g, s in panels))
            [(g, s)] = panels
            anchor = group.step(g, s)
            across = group.generator(s)
            base_wall = group.generator_wall(s)
            for c in census:
                if len(c.chambers) > room or across in c.chambers:
                    continue
                if not _acute_along(angle_sites(group, c), base_wall):
                    continue
                chambers = frozenset(group.multiply(anchor, x)
                                     for x in c.chambers)
                yield p1, polytope_of(group, chambers), wall


# ---------------------------------------------------------------------------
# census


def enumerate_convex_polytopes(group, max_chambers):
    """All convex chamber sets containing the base chamber, at most
    ``max_chambers`` chambers, deduplicated as sets.

    Each member P grows by one facet wall at a time.  Let N_P be the union
    of the inversion sets N(c), c in P, and let (g, s) be a boundary panel
    of P with root r and x = g s outside P.

    - P is the hull of itself, so it is closed under crossing any panel
      whose wall is in N_P.  So r is not in N_P, and x is longer than g,
      else r would be in N(g), inside N_P.  Hence N(x) = N(g) | {r}, and
      H = hull(P | {x}) is what e reaches across N_P | {r}.
    - A root holding P but not x has its wall between g and x, so it is
      r's.  So P is H on e's side of r, and the new chambers H - P are H
      on the far side: a convex set, which holds x.
    - A minimal gallery between two new chambers stays among them and
      crosses walls of N_P | {r} other than r.  So the new chambers are
      what x reaches across N_P, and the child depends on the wall r
      alone: one search per facet wall, stepping only the new chambers.

    A child H = P | F, F its new chambers, keeps most of P's records.

    - Boundary panels: every panel of P on r leads into F, and no other
      panel of P does, as P is H on e's side of r.  So the boundary of H
      is that of P less its panels on r, plus the panels of F leaving H.
      P's first panel on each other wall stays first among H's, and the
      first panels of H are P's without r, merged with F's by least
      (chamber sort key, s): computed when the child is queued.
    - Angle sites: a rank-2 residue that misses F meets H in the arc it
      meets P in, and its exits leave H as they left P.  So only the
      residues of F's chambers are walked again; ``angle_sites`` does so
      on the first call, from the parent's sites.

    Children are queued in the order their walls are first met in
    (sorted chamber, s) order; a later panel on the same wall would give
    the same child.
    """
    if max_chambers < 1:
        raise InputError("chamber budget must be >= 1")
    start = frozenset({group.identity()})
    seen = {start}
    queue = deque([(start, _facet_panels(group, start, start), None)])
    while queue:
        chambers, panels, origin = queue.popleft()
        polytope = ChamberPolytope(chambers, _facet_walls(group, panels))
        object.__setattr__(polytope, "_origin", origin)
        yield polytope
        if len(chambers) >= max_chambers:
            continue
        inside = set()
        for c in chambers:
            inside |= group.inversion_set(c)
        for panel in panels.values():
            x = group.step(*panel)
            grown = region(group, chambers | {x},
                           lambda g, s: group.panel_root(g, s) in inside,
                           max_chambers, queue=[x])
            if grown is not None and grown not in seen:
                seen.add(grown)
                new = grown - chambers
                queue.append((grown, _facet_panels(group, grown, new, panels),
                              (polytope, new)))


def verify_facet_bound(group, max_chambers, census=None):
    """Census check: every convex polytope has at least rank-many facets.

    Meaningful for infinite indecomposable systems; the report flags
    applicability and returns the minimum facet count found.  A
    precomputed census (of the same budget) may be passed to avoid
    re-enumeration.
    """
    applicable = is_infinite_indecomposable(group.matrix)
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
