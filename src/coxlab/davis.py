"""Chamber-level model of the Davis complex.

Chambers are group elements; the base chamber is the identity.  A wall
splits the chamber set in two; a chamber is across it exactly when the
wall is in the chamber's inversion set.  A convex chamber set is an
intersection of roots, so one wall-crossing search, ``region``, finds
convex hulls and fundamental domains.  A convex polytope carries its
facet walls, read off its boundary panels, and its codimension-2 angle
sites (rank-2 residues it meets) as counts: a map from residue (finite
pair, least chamber, as the group's ``residues`` names it) to the
number j of its chambers there, as each chamber lies in one residue
per pair.  The counts are its only record of its sites: the angle
predicates and census lines read them, and ``angle_sites`` builds the
site values from them on each call, walking each arc out from one of
its chambers for its exit walls.  No other reader walks an arc: the
counts are checked to be one arc per residue by the cycle edges each
new chamber adds (``_residue_counts``), and the stacan search reads a
site's exit panels off the residues of the boundary panels' chambers.
The census
enumerates every convex chamber set containing the base chamber up to a
chamber budget: each one arises from a smaller one by adjoining an
adjacent chamber and closing up, so the growth search is exhaustive.
The closure depends only on the facet wall crossed, and its new chambers
are what the adjoined chamber reaches across the walls of the smaller
set.  A convex set H holding the base chamber e is exactly the chambers
y with N(y) inside N_H, the union of the inversion sets of its chambers
(a wall bounding H that separated e from y would be in N(y) but not in
N_H), so N_H names H, and a child's N is its parent's with the wall
crossed, known before its search.  The census keys its children so and
searches each distinct child once, when it is dequeued, in one walk
over its new chambers.  A child's records grow from its parent's over
its new chambers alone: its first boundary panels are the parent's,
less those on the wall crossed, merged with the new chambers' panels
as the walk steps them, and its site counts are the parent's plus one
per new chamber and finite pair, counted before the child is yielded,
as the parent was yielded before it.  Any other polytope is the case
with no parent, every chamber new, and counts its sites on first read.
A polytope builds only what is read: its facet count is the number of
its first panels, and its chambers and facet walls are built on first
read.  A census line
(``census_line``) reads no wall and no chamber set, so the census and
its lines build no wall and number no reflection as a chamber.
Polytopes and sites are immutable values (``words.Value``).

All of this runs on the group's chamber ids: a chamber set is an int
bitmask with bit i for chamber id i, a root set a bitmask of root ids,
and each step reads the chamber's adjacency row.  An id orders nothing:
queues, panels, walls, sites and records are ordered by ShortLex keys,
so the output does not depend on the order in which chambers were
numbered.  A polytope keeps its mask beside the group that numbered it,
and its chambers as a frozenset of Element once read; only that group
reads the mask, and any other group of the matrix converts from the
chambers.
A convex chamber set is gallery-connected, so the stacan search
translates one by walking it along the adjacency rows and replaying each
step from the image of its start.  A glued union holds the base chamber
in its partner's frame, where it is convex iff no wall of its boundary
panels is in its inversion union: the search reads each census member
once, in one scan of its boundary panels, into its chamber mask, N, B
and obtuse roots, tests each union on four masks, and walks a partner
only to yield or display it.
Two walls meet in the closure of a chamber g exactly when the supports
of their roots moved by g^-1 span a spherical set, so the Andreev check
asks that of the group (``meet_at``) per chamber of the polytope and
finite-order facet pair: it forms no group product, walks no residue,
and builds facet walls only to display a pair it reports.  With no
finite label in the matrix, no two walls meet, and it reads nothing.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import attrgetter, itemgetter
from types import MappingProxyType

from .errors import BudgetError, ConsistencyError, InputError
from .matrices import INFINITY, is_infinite_indecomposable
from .words import Value

DEFAULT_HULL_CAP = 4096
_wall_key = attrgetter("sort_key")
# the counts of a polytope of a group with no finite pair
_NO_COUNTS = MappingProxyType({})
_JSON_BOOL = {False: "false", True: "true"}
# the site table: (m, j) -> (angle text, j | m, 2j <= m), see ``_angle``
_ANGLES = {}


def side(group, wall, chamber):
    """+1 on the base-chamber side of the wall, -1 across it."""
    n = group.inversion_mask(group.chamber_id(chamber))
    return -1 if n >> group.wall_root(wall) & 1 else 1


# ---------------------------------------------------------------------------
# chamber masks and regions: convex hulls and fundamental domains


def _members(mask):
    """The chamber ids of a mask, in no meaningful order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(group, chambers):
    mask = 0
    for g in chambers:
        mask |= 1 << group.chamber_id(g)
    return mask


def chambers_of(group, mask):
    """The chambers of a mask of ``group``'s ids, as a frozenset of
    Element."""
    return frozenset(map(group.chamber, _members(mask)))


def region(group, start, walls, limit, queue=None, panels=None):
    """The chamber mask ``start`` and what the ids of ``queue`` (every
    chamber of ``start`` by default) reach through the panels whose root
    id is in the root mask ``walls``, as a chamber mask, or None once
    there are more than ``limit`` chambers.  The result is a set, so the
    order of the search does not matter.

    The one chamber search: a convex hull crosses the walls separating
    its input chambers, a census child the walls of its parent, and a
    fundamental domain every wall but its generators' (``walls`` is then
    ``~cut``, a negative int with every other root's bit set).

    ``panels``, if given, is a first-panel map (``_facet_panels``) into
    which the search merges the boundary panels of the chambers it steps,
    keeping the least (chamber key, s) per root: each panel (i, s) whose
    root is not in ``walls`` and whose chamber i s is not in the mask
    when i is stepped.  Those are the boundary panels of the result R
    when no chamber joins the mask after a panel into it is counted.
    With ``walls`` 0 nothing joins (``_facet_panels``).  For a census
    child R, ``walls`` is N_R, the union of the inversion sets of R's
    chambers, and R is {y : N(y) in N_R}: R is convex and holds e, so a
    y outside R is outside some root holding R and e, whose wall is then
    in N(y) but in no N(c), c in R (the lemma of
    ``enumerate_convex_polytopes``).  A panel (i, s), i in R, on a wall
    outside N_R has that wall in N(i s), so i s never joins.  So a child
    builds its first panels in the one walk over its new chambers.
    """
    size = start.bit_count()
    if size > limit:
        return None
    queue = list(_members(start) if queue is None else queue)
    key = None
    for i in queue:
        if panels is not None:
            key = group.chamber_key(i)
        for s, (j, r) in enumerate(group.adjacent(i)):
            if start >> j & 1:
                continue
            if walls >> r & 1:
                start |= 1 << j
                size += 1
                queue.append(j)
            elif key is not None:
                # (key, s) names the panel, so i breaks no tie
                have = panels.get(r)
                if have is None or (key, s, i) < have:
                    panels[r] = (key, s, i)
        if size > limit:
            return None
    return start


def _hull_limited(group, mask, limit):
    """Convex hull of a chamber mask, or None once it exceeds ``limit``
    chambers: what the least input chamber c0 reaches across walls
    separating it from some input chamber, as a convex set is an
    intersection of roots."""
    ids = list(_members(mask))
    c0 = min(ids, key=group.chamber_key)
    n0 = group.inversion_mask(c0)
    walls = 0
    for i in ids:
        walls |= group.inversion_mask(i) ^ n0
    return region(group, 1 << c0, walls, limit)


class ChamberPolytope(Value):
    """A convex chamber set (a frozenset of Element) and its facet walls,
    sorted.

    A value: equal and hashed by its chambers and facet walls, immutable,
    and copied or pickled as those two alone.  A polytope the library
    builds keeps instead its chamber mask beside the group that numbered
    it, and its first boundary panel per facet wall (``_facet_panels``,
    in no order; the census orders them only to grow the member):
    ``facet_count`` reads the panels, ``chambers`` is built from the mask
    and ``facet_walls`` from the panels on first read, and the panels are
    then released.  The library builds one in a single call, with its
    panels, counts and numbering.  Racing threads build equal values.
    """

    __slots__ = ("_chambers", "_walls", "_panels", "_counts", "_numbered")

    def __init__(self, chambers, facet_walls, panels=None, counts=None,
                 numbered=(None, 0)):
        fill = object.__setattr__
        fill(self, "_chambers", chambers)
        fill(self, "_walls", facet_walls)
        # root id -> (chamber key, s, chamber id) until the walls are
        # built, in no meaningful order
        fill(self, "_panels", panels)
        # angle sites as counts in the numbering group's ids: a census
        # member's from birth, another's filled on first read
        # (``_site_counts``)
        fill(self, "_counts", counts)
        # (group, chamber mask) of the group whose ids built the polytope
        fill(self, "_numbered", numbered)

    @property
    def chambers(self):
        chambers = self._chambers
        if chambers is None:
            chambers = chambers_of(*self._numbered)
            object.__setattr__(self, "_chambers", chambers)
        return chambers

    @property
    def facet_walls(self):
        walls = self._walls
        if walls is None:
            panels = self._panels
            if panels is None:  # another thread built them
                return self._walls
            walls = _walls(self._numbered[0],
                           ((i, s) for _, s, i in panels.values()))
            object.__setattr__(self, "_walls", walls)
            object.__setattr__(self, "_panels", None)
        return walls

    @property
    def facet_count(self):
        panels = self._panels
        return len(self.facet_walls) if panels is None else len(panels)

    def _args(self):
        # a copy is the value: no caches, no numbering group to carry
        return (self.chambers, self.facet_walls)

    def sorted_chambers(self):
        return sorted(self.chambers, key=lambda e: e.sort_key)

    def __repr__(self):
        words = [c.display() or "e" for c in self.sorted_chambers()]
        return f"ChamberPolytope({words}, facets={self.facet_count})"


def _mask_of(group, polytope):
    """The polytope's chamber mask in ``group``'s ids: the one it was
    built with if ``group`` numbered it, else read off its chambers."""
    owner, mask = polytope._numbered
    return mask if owner is group else _mask(group, polytope.chambers)


def _facet_panels(group, mask):
    """The first boundary panel (i, s), i in the chamber mask and i s
    outside, on each facet wall: a map from panel root to (chamber key of
    i, s, i), in no meaningful order (``_grow_order`` sorts it by
    (chamber key, s)).  A census child merges its new chambers' panels
    into its parent's instead (``enumerate_convex_polytopes``)."""
    panels = {}
    region(group, mask, 0, mask.bit_count(), panels=panels)
    return panels


def _grow_order(panels):
    """The (root, panel) items of a ``_facet_panels`` map by (chamber key,
    s): the order in which a census member's walls are first met."""
    return sorted(panels.items(), key=itemgetter(1))


def _walls(group, panels):
    """The walls of the panels (chamber id, letter), each found by its
    root id, sorted."""
    return tuple(sorted((group.panel_wall(i, s) for i, s in panels),
                        key=_wall_key))


def _polytope(group, mask, chambers=None, panels=None, counts=None):
    """The polytope of a convex chamber mask; its boundary panels are read
    off the mask unless given, and its chambers, and its site counts
    unless given, on first read."""
    if panels is None:
        panels = _facet_panels(group, mask)
    return ChamberPolytope(chambers, None, panels, counts, (group, mask))


def polytope_of(group, chambers):
    """The polytope of a convex chamber set (a frozenset of Element), with
    its facet walls read off its boundary panels; convexity is not
    checked."""
    return _polytope(group, _mask(group, chambers), chambers)


def convex_hull(group, chambers, max_chambers=DEFAULT_HULL_CAP):
    """Smallest convex chamber set containing the input."""
    seed = frozenset(chambers)
    if not seed:
        raise InputError("hull of an empty chamber set")
    h = _hull_limited(group, _mask(group, seed), max_chambers)
    if h is None:
        raise BudgetError(f"hull exceeded {max_chambers} chambers")
    return _polytope(group, h)


def is_convex(group, chambers):
    seed = frozenset(chambers)
    return not seed or is_convex_mask(group, _mask(group, seed))


def is_convex_mask(group, mask):
    """Whether a nonempty chamber mask of ``group``'s ids is convex: its
    hull, limited to its own size, is itself."""
    return _hull_limited(group, mask, mask.bit_count()) == mask


def fundamental_polytope(group, gens, max_chambers):
    """Chambers on the base side of every wall of the canonical set
    ``gens`` (``canonical_generators`` output, or a Coxeter polytope's
    facet walls): the fundamental domain, as every positive root of the
    subgroup is a nonnegative combination of the canonical roots (Dyer
    1990, Deodhar 1989).  It is an intersection of roots, so the search
    from the base chamber reaches it whole.  Returns (polytope, index)
    within the budget; raises BudgetError otherwise.
    """
    if max_chambers < 1:
        raise InputError("chamber budget must be >= 1")
    cut = 0
    for t in gens:
        cut |= 1 << group.wall_root(t)
    found = region(group, 1 << group.chamber_id(group.identity()), ~cut,
                   max_chambers)
    if found is None:
        raise BudgetError(f"fundamental domain exceeds {max_chambers} "
                          "chambers")
    if not is_convex_mask(group, found):
        raise ConsistencyError("fundamental domain is not convex", sorted(
            map(group.chamber_display, _members(found))))
    return _polytope(group, found), found.bit_count()


# ---------------------------------------------------------------------------
# angle sites


class AngleSite(Value):
    """A rank-2 spherical residue meeting the polytope.

    The {s, t} residue of a chamber is a 2m-cycle of chambers; a convex
    polytope meets it in a contiguous arc of j chambers, giving dihedral
    angle j*pi/m.  A site records the residue's least chamber, the pair,
    m, j, and the walls of the panels by which the arc leaves the
    polytope: two of them, or one when j = m.  An arc filling the whole
    cycle (j = 2m) is an interior codimension-2 face: it has no exit
    walls and carries no angle.

    A plain value over those five, like ``ChamberPolytope`` over its own.
    """

    __slots__ = ("base", "pair", "m", "j", "boundary_walls")

    def __init__(self, base, pair, m, j, boundary_walls):
        fill = object.__setattr__
        fill(self, "base", base)        # least chamber of the residue
        fill(self, "pair", pair)        # generator pair (s, t), s < t
        fill(self, "m", m)
        fill(self, "j", j)
        # distinct exit walls, sorted; () if interior
        fill(self, "boundary_walls", boundary_walls)

    @property
    def interior(self):
        return self.j == 2 * self.m

    def _args(self):
        return (self.base, self.pair, self.m, self.j, self.boundary_walls)

    def __repr__(self):
        return (f"AngleSite(base={self.base!r}, pair={self.pair!r}, "
                f"m={self.m!r}, j={self.j!r}, "
                f"boundary_walls={self.boundary_walls!r})")


def _arc(group, chambers, start, s, t):
    """The arc of the chamber mask ``chambers`` in the {s, t} residue of
    the chamber id ``start``, walked out from it through s and t: its
    chamber ids, and a map from root id to (chamber id, letter) of the
    panels by which it leaves the mask."""
    arc, seen, exits = [start], {start}, {}
    for x in arc:
        row = group.adjacent(x)
        for a in (s, t):
            y, rid = row[a]
            if not chambers >> y & 1:
                exits[rid] = (x, a)
            elif y not in seen:
                seen.add(y)
                arc.append(y)
    return arc, exits


def _residue_counts(group, chambers, new, inherited):
    """The angle sites of the chamber mask ``chambers`` as counts: a map
    from residue (k, base id) of ``group.residues`` to the number j of
    chambers the set holds in it.  ``inherited`` is this map for the old
    chambers, ``chambers & ~new`` (none when ``new`` is all the
    chambers); each new chamber adds 1 to each of its residues.  The keys
    are the very tuples ``group.residues`` returns.

    The check: the set must meet each residue in one arc, or
    ConsistencyError is raised, naming the residue and the last new
    chamber in it.  An {s, t} residue of order m is a cycle of 2m
    chambers, each joined to its s- and t-neighbours.  A proper subset of
    j of them is a union of a arcs, paths that span j - a of the cycle's
    edges; the whole cycle (j = 2m) spans 2m edges, and is an interior
    site.  So with e the edges the set spans in a residue, j - e is its
    number of arcs, or 0 when it holds the whole cycle, and the residue
    passes iff j - e is at most 1: j = 1 and j = 2m pass, and any other
    j passes iff e = j - 1.  Each new chamber adds 1 to j, and to e those
    of its s- and t-neighbours already in the set: the old chambers and
    the new ones before it, so an edge between two new chambers is
    counted once.  A residue the new chambers miss holds the chambers it
    held in the old set, whose map passed this check, by induction from
    a map with every chamber new.  A residue they touch is not whole in
    the old set, so its j_old old chambers, if any, are one arc spanning
    j_old - 1 edges: its j - e starts at 1, or at 0 when j_old is 0, and
    no arc is walked.  A group with no finite pair has no site to count:
    the map is ``_NO_COUNTS``.
    """
    pairs = group.finite_pairs
    if not pairs:
        return _NO_COUNTS
    counts = dict(inherited) if inherited is not None else {}
    # residue -> j - e: the arcs the set meets it in, or 0 once whole
    arcs = {}
    inside = chambers & ~new
    for i in _members(new):
        row = group.adjacent(i)
        for key, (s, t, _) in zip(group.residues(i), pairs):
            j = counts.get(key, 0)
            counts[key] = j + 1
            arcs[key] = (arcs.get(key, j > 0) + 1 - (inside >> row[s][0] & 1)
                         - (inside >> row[t][0] & 1))
        inside |= 1 << i
    for key, a in arcs.items():
        if a > 1:
            s, t, _ = pairs[key[0]]
            last = max(i for i in _members(new) if key in group.residues(i))
            raise ConsistencyError(
                "arc of a convex polytope is not contiguous",
                ((group.chamber(key[1]).word, s, t),
                 group.chamber(last).word))
    return counts


def _site_counts(group, polytope):
    """The polytope's ``_residue_counts`` map in ``group``'s ids.  A census
    member has it from birth (``enumerate_convex_polytopes``); any other
    polytope of the group that numbered it counts every chamber on the
    first call and keeps the map.  Another group of the matrix counts
    every chamber and keeps nothing."""
    owner, mask = polytope._numbered
    if owner is not group:
        mask = _mask_of(group, polytope)
        return _residue_counts(group, mask, mask, None)
    counts = polytope._counts
    if counts is None:
        counts = _residue_counts(group, mask, mask, None)
        object.__setattr__(polytope, "_counts", counts)
    return counts


def _exits(group, polytope, keys):
    """The exit panels of the polytope's arc in each residue of ``keys``
    (a list of keys of its counts map in ``group``'s ids), in their order:
    a map from root id to (chamber id, letter).  Each arc is walked from
    its base when the polytope holds it, as a convex set holding the base
    chamber does (the base lies on a minimal gallery from e to each
    chamber of the residue), and otherwise from the first member met in
    it."""
    mask = _mask_of(group, polytope)
    starts = {key: key[1] for key in keys if mask >> key[1] & 1}
    if len(starts) < len(keys):
        for i in _members(mask):
            for key in group.residues(i):
                starts.setdefault(key, i)
    pairs = group.finite_pairs
    for key in keys:
        s, t, _ = pairs[key[0]]
        yield _arc(group, mask, starts[key], s, t)[1]


def _site_items(group, counts):
    """The sites of a counts map in site order, by pair, then by the
    ShortLex key of the residue's least chamber: each as the tuple (k,
    that key, m, j, base id), which sorts in that order with no key
    function, as (k, key) names one residue."""
    key, pairs = group.chamber_key, group.finite_pairs
    return sorted([(k, key(base), pairs[k][2], j, base)
                   for (k, base), j in counts.items()])


def _angle(m, j):
    """The site table's entry for a site of j chambers in a residue of
    label m: its angle text in a census line, whether the angle j*pi/m is
    an integer submultiple of pi (j | m), and whether it is at most pi/2
    (2j <= m).  An interior site (j = 2m) carries no angle and passes
    both.  Racing threads compute equal entries."""
    angle = _ANGLES.get((m, j))
    if angle is None:
        interior = j == 2 * m
        angle = _ANGLES[m, j] = (f'{{"j": {j}, "m": {m}}}',
                                 interior or m % j == 0,
                                 interior or 2 * j <= m)
    return angle


def angle_sites(group, polytope):
    """One site per rank-2 spherical residue meeting the polytope, as a
    tuple sorted by (pair, base): built on each call from the polytope's
    counts, each arc walked out from one of its chambers for its exit
    walls.  The sites are values, equal whichever group of the matrix
    computes them.
    """
    items = _site_items(group, _site_counts(group, polytope))
    exits = _exits(group, polytope, [(k, base) for k, _, _, _, base in items])
    pairs = group.finite_pairs
    return tuple(
        AngleSite(group.chamber(base), pairs[k][:2], m, j,
                  _walls(group, panels.values()))
        for (k, _, m, j, base), panels in zip(items, exits))


def angle_flags(group, polytope):
    """(coxeter, acute) of the polytope, read off the site table: whether
    every boundary angle is an integer submultiple of pi, and whether
    every one is at most pi/2."""
    pairs = group.finite_pairs
    coxeter = acute = True
    for (k, _), j in _site_counts(group, polytope).items():
        _, c, a = _angle(pairs[k][2], j)
        coxeter = coxeter and c
        acute = acute and a
    return coxeter, acute


def is_coxeter_polytope(group, polytope):
    """All boundary angles are integer submultiples of pi (j | m)."""
    return angle_flags(group, polytope)[0]


def is_acute_angled(group, polytope):
    """All boundary angles are at most pi/2 (2j <= m)."""
    return angle_flags(group, polytope)[1]


# ---------------------------------------------------------------------------
# wall and facet intersection


def check_andreev(group, polytope):
    """Facet-wall pairs that are disjoint along the polytope but whose
    walls still intersect, in ``combinations(facet_walls, 2)`` order.

    The emptiness guarantee holds for acute-angled polytopes; the check
    itself runs on any convex polytope P, on the root ids of its facets:
    the keys of its first panels, or of a scan of its boundary panels
    when those are released or another group numbered P.  Walls whose
    product has infinite order never meet.  A pair of finite order is
    reported when no chamber of P has ``meet_at`` true for its roots,
    which is exactly when its walls do not meet in the closure of P:

    (i) Walls a and b meet in the closure of the chamber g iff the
    supports of g^-1 alpha_a and g^-1 alpha_b span a spherical set.  The
    map g^-1 takes the closure of g to that of the base chamber C and the
    walls to those of the reflections in beta_a = g^-1 alpha_a and
    beta_b, and the reflection in a root beta lies in a standard
    subgroup W_T iff supp(beta) is inside T.  If the walls meet at a
    point x of the closure of C, the stabiliser of x is a finite
    standard subgroup W_T (Davis, *The Geometry and Topology of Coxeter
    Groups*, 2008) holding both reflections, so both supports lie in the
    spherical T and so does their union U.  Conversely, for each
    spherical U the closure of C has a point whose stabiliser is W_U,
    the face of type U, and when U is spherical both reflections lie in
    W_U and fix that point, which is then on both walls.

    (ii) With no finite entry in the matrix (``group.finite_pairs``
    empty), no pair has finite order, and the check returns [] before it
    reads a panel.  Two distinct reflections whose product has finite
    order m generate a finite dihedral group of order 2m >= 4.  A finite
    group of isometries of the CAT(0) Davis complex fixes a point of it
    (Bruhat-Tits), and the stabiliser of a point is a conjugate of a
    spherical standard subgroup W_T (Davis).  W_T is finite, so T is
    spherical, and with no finite m no T of two letters is: |T| <= 1 and
    |W_T| <= 2 < 4.

    Facet walls are built only to display a reported pair.
    """
    if not group.finite_pairs:
        return []
    mask, panels = _mask_of(group, polytope), polytope._panels
    if polytope._numbered[0] is not group or panels is None:
        panels = _facet_panels(group, mask)
    finite = [(a, b) for a, b in combinations(panels, 2)
              if group.order_of_roots(a, b) != INFINITY]
    for i in _members(mask):
        finite = [(a, b) for a, b in finite if not group.meet_at(i, a, b)]
        if not finite:
            return []
    finite = {1 << a | 1 << b for a, b in finite}
    rid = group.wall_root
    return [(a, b) for a, b in combinations(polytope.facet_walls, 2)
            if (1 << rid(a) | 1 << rid(b)) in finite]


# ---------------------------------------------------------------------------
# gluing two polytopes along a facet


def _boundary_roots(group, polytope, mask, holding):
    """(B, obtuse) of the polytope, whose chamber mask in ``group``'s ids
    is ``mask``, read in one scan of its boundary panels: the root ids B
    of the walls of its boundary panels, and those of the walls bounding
    a site with 2j > m.  The polytope is acute along the other walls of
    B.  ``holding[s]`` lists the finite pairs k that hold the letter s.

    A site's arc is the polytope's chambers in its residue, so its exit
    panels are the boundary panels (i, a) with i in the residue and a in
    its pair.  So a boundary panel (i, s) is an exit panel of a site with
    2j > m iff, for some pair k holding s, i's residue of k
    (``group.residues(i)[k]``) is such a site, read off the site table:
    no arc is walked.  An acute facet wall has one panel
    (``stacan_pairs``): ConsistencyError, with the panels of the first
    met, if one has two."""
    counts = _site_counts(group, polytope)
    pairs = group.finite_pairs
    wide = {key for key, j in counts.items()
            if not _angle(pairs[key[0]][2], j)[2]}
    boundary = twice = obtuse = 0
    for i in _members(mask):
        sites = group.residues(i) if wide else ()
        for s, (j, r) in enumerate(group.adjacent(i)):
            if mask >> j & 1:
                continue
            if boundary >> r & 1:
                twice |= 1 << r
            boundary |= 1 << r
            if sites and not obtuse >> r & 1:
                for k in holding[s]:
                    if sites[k] in wide:
                        obtuse |= 1 << r
                        break
    twice &= ~obtuse
    if twice:
        on = [(r, i, s) for i in _members(mask)
              for s, (j, r) in enumerate(group.adjacent(i))
              if not mask >> j & 1 and twice >> r & 1]
        raise ConsistencyError(
            "acute facet of a convex polytope is not one chamber",
            sorted((group.chamber(i).word, s) for r, i, s in on
                   if r == on[0][0]))
    return boundary, obtuse


def translate(group, mask, target, source=None):
    """(h P, N, B) of a gallery-connected chamber mask P, for the h
    taking its chamber id ``source`` (the base chamber by default) to the
    chamber id ``target``: the chamber mask h P, the root ids N of the
    walls separating one of its chambers from the base chamber (the union
    of their inversion masks), and the root ids B of the walls of its
    boundary panels.  P is walked from ``source`` along the adjacency
    rows, and each step x -> x s replayed as h x -> h x s, as right steps
    commute with left translation: no product is formed.  The boundary
    panels of h P are the (h x, s) of those (x, s) of P."""
    if source is None:
        source = group.chamber_id(group.identity())
    image, walk = {source: target}, [source]
    out = inversions = boundary = 0
    for i in walk:
        x = image[i]
        out |= 1 << x
        inversions |= group.inversion_mask(x)
        row = group.adjacent(x)
        for s, (j, _) in enumerate(group.adjacent(i)):
            if not mask >> j & 1:
                boundary |= 1 << row[s][1]
            elif j not in image:
                image[j] = row[s][0]
                walk.append(j)
    return out, inversions, boundary


def union_is_convex(n1, b1, n2, b2, root):
    """Whether the union of two chamber sets glued across the wall of the
    root id ``root`` is convex, from their masks (n1, b1) and (n2, b2),
    the N and B of ``translate``: no wall of N1 | N2 is a wall of B1 | B2
    but that one (see ``glued_unions``)."""
    return not (n1 | n2) & (b1 | b2) & ~(1 << root)


def glued_unions(group, max_total_chambers, census=None):
    """``stacan_pairs`` as (P1, W, P1's chamber mask, anchor, C, convex)
    in ``group``'s ids, with anchor the chamber id g s of P1's panel
    (g, s) on W, C the census member's chamber mask, so that P2 is
    anchor C (the mask of ``translate(group, C, anchor)``), and ``convex``
    whether P1 | P2 is convex.  No P2 is walked and no hull is taken.

    The census is read once, each member in one scan of its boundary
    panels for B_C and its obtuse roots (``_boundary_roots``), and, for a
    member that may be a partner, N_C, the union of its chambers'
    inversion masks: per generator s and room r, the list of the members
    of at most r chambers that may be glued across the wall of s, in
    census order, each as its (C, N_C, B_C).  P1's acute facets are read
    off its first panels (``_facet_panels`` when those are released or
    another group numbered it), P1 is walked into the frame of its
    partners once per acute facet with a partner, and each pair is then
    tested on four masks, by the two facts below.

    Lemma (Abramenko & Brown, *Buildings*, GTM 248, 2008, ch. 3).  A
    chamber set U holding e is convex iff no wall of a boundary panel of
    U is in N_U, the union of the N(x), x in U.  If U is convex, it is an
    intersection of roots; a root holding U but not the outer chamber of
    a boundary panel has the panel's wall, so U lies on one side of it,
    e's, and no N(x) holds it.  Conversely, U then lies on e's side of
    every such wall, in the intersection V of those roots.  A chamber z of
    V outside U ends a minimal gallery from e, which leaves U by a
    boundary panel and crosses its wall H once; so H is in N(z), and z is
    not on e's side of H, which is absurd.  So U = V, a convex set.

    Reduction.  Let Q = anchor^-1 P1, which holds anchor^-1 g = s; left
    translation maps walls to walls, so P1 | P2 is convex iff Q | C is.
    P1 lies on one side of W, so Q lies on s's side of the wall of s, and
    C on e's: a chamber of C across it would have a reduced word that
    starts with s, and C, convex and holding e, would hold s.  So Q and C
    are disjoint, U = Q | C holds e, and N_U = N_Q | N_C.  A panel
    between Q and C crosses the wall of s; every other boundary panel of
    Q or C leaves U, so B_Q | B_C is B_U and at most alpha_s, the root
    of the wall of s.  Both are acute along that wall, so each has one
    panel on it (see ``stacan_pairs``): Q's is (s, e) and C's (e, s), the
    panel between them, and no boundary panel of U lies on the wall of s.
    So B_U is B_Q | B_C without alpha_s, and U is convex iff
    (N_Q | N_C) & (B_Q | B_C) & ~bit(alpha_s) is 0.  The last term is
    needed: alpha_s is in N_Q, as s is in Q, and in B_C, by (e, s).

    Q is walked by ``translate`` from the chamber s, along a walk of P1
    from g, as anchor^-1 = s g^-1 takes g to s.
    """
    if census is None:
        census = (enumerate_convex_polytopes(group, max_total_chambers - 1)
                  if max_total_chambers > 1 else ())
    base = group.chamber_id(group.identity())
    gens = group.adjacent(base)
    holding = [[k for k, (a, b, _) in enumerate(group.finite_pairs)
                if s in (a, b)] for s in range(group.rank)]
    fits = [[[] for _ in range(max_total_chambers)] for _ in gens]
    members = []
    for p in census:
        mask = _mask_of(group, p)
        size = mask.bit_count()
        if size >= max_total_chambers:
            continue
        boundary, obtuse = _boundary_roots(group, p, mask, holding)
        members.append((p, mask, obtuse))
        partner = None
        for s, (across, rid) in enumerate(gens):
            if not (mask >> across & 1 or obtuse >> rid & 1):
                if partner is None:
                    inversions = 0
                    for i in _members(mask):
                        inversions |= group.inversion_mask(i)
                    partner = (mask, inversions, boundary)
                for partners in fits[s][size:]:
                    partners.append(partner)
    for p1, mask1, obtuse in members:
        room = max_total_chambers - mask1.bit_count()
        panels = p1._panels
        if p1._numbered[0] is not group or panels is None:
            panels = _facet_panels(group, mask1)
        # only an acute facet with a partner builds its wall
        glued = [(i, s) for rid, (_, s, i) in panels.items()
                 if not obtuse >> rid & 1 and fits[s][room]]
        for wall in _walls(group, glued):
            _, s, i = panels[group.wall_root(wall)]
            anchor = group.adjacent(i)[s][0]
            across, root = gens[s]
            _, n_q, b_q = translate(group, mask1, across, i)
            for mask, n_c, b_c in fits[s][room]:
                yield (p1, wall, mask1, anchor, mask,
                       union_is_convex(n_q, b_q, n_c, b_c, root))


def glued_translates(group, max_total_chambers, census=None):
    """``stacan_pairs`` as (P1, W, P1's chamber mask, P2's chamber mask)
    in ``group``'s ids: the pairs of ``glued_unions``, each P2 walked
    from its anchor (``translate``)."""
    for p1, wall, mask1, anchor, mask, _ in glued_unions(
            group, max_total_chambers, census):
        yield p1, wall, mask1, translate(group, mask, anchor)[0]


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
    acute along the wall of s.  C is convex, so gallery-connected, and
    holds e: ``glued_translates`` walks P2 from the anchor along a walk
    of C from e.
    """
    for p1, wall, _, mask in glued_translates(group, max_total_chambers,
                                              census):
        yield p1, _polytope(group, mask), wall


# ---------------------------------------------------------------------------
# census


def enumerate_convex_polytopes(group, max_chambers):
    """All convex chamber sets containing the base chamber, at most
    ``max_chambers`` chambers, deduplicated as sets.

    For a chamber set H let N_H be the union of the inversion sets N(c),
    c in H.  Lemma (Abramenko & Brown, *Buildings*, GTM 248, 2008, ch. 3):
    a convex H holding e is {y : N(y) in N_H}, so N_H names H.  A y in H
    has N(y) in N_H.  A y outside H is outside some root holding H, as H
    is an intersection of roots; that root holds e, so its wall is in
    N(y), and it holds every chamber of H, so its wall is in no N(c), c
    in H, and not in N_H.

    Each member P grows by one facet wall at a time.  Let (g, s) be a
    boundary panel of P with root r and x = g s outside P.

    - P is the hull of itself, so it is closed under crossing any panel
      whose wall is in N_P.  So r is not in N_P, and x is longer than g,
      else r would be in N(g), inside N_P.  Hence N(x) = N(g) | {r}, and
      H = hull(P | {x}) is what e reaches across N_P | {r}.  So N_H is
      N_P | {r}: H holds P and x, and no chamber across another wall.
    - A root holding P but not x has its wall between g and x, so it is
      r's.  So P is H on e's side of r, and the new chambers H - P are H
      on the far side: a convex set, which holds x.
    - A minimal gallery between two new chambers stays among them and
      crosses walls of N_P | {r} other than r.  So the new chambers are
      what x reaches across N_P, and the child depends on the wall r
      alone: one search per facet wall, stepping only the new chambers.

    So a child is named, before any search, by its key N_P | {r}, the
    root mask N_H: by the lemma two children are one set iff their keys
    are equal.  A key met before, at this member or an earlier one, is
    a child already queued, and it is not searched again, whether it was
    within the budget or past it (``seen`` holds both).  A queued child
    is unbuilt: its parent's (mask, first panels, counts), shared with
    its siblings, r, x and its key.  It is built when dequeued, in one
    ``region`` walk from x across its key with P in the start mask, which
    steps F alone, as a panel of F on r leads into P; a child past the
    budget is dropped then.

    A child H = P | F, F its new chambers, keeps most of P's records.

    - Boundary panels: every panel of P on r leads into F, and no other
      panel of P does, as P is H on e's side of r.  So the boundary of H
      is that of P less its panels on r, plus the panels of F leaving H.
      P's first panel on each other wall stays first among H's, and the
      first panels of H are P's without r, merged with F's by least
      (chamber sort key, s): by ``region`` as it steps F, and sorted only
      if the child grows.
    - N_H is its key: no inversion set is read.
    - Angle sites: each chamber lies in one residue per finite pair, so
      H's site counts are P's plus one per chamber of F and pair, and
      only the residues of F's chambers are checked to be still one arc,
      by the cycle edges F's chambers add (``_residue_counts``).  They
      are counted when the child is built, before it is yielded: P was
      yielded first, with its counts.

    Children are queued in the order their walls are first met in
    (sorted chamber, s) order; a later panel on the same wall would give
    the same child.  So the members come in the order of a census that
    searched each child when queued and kept those within the budget and
    not yet found: the same children, each first met at the same panel.
    A member's first panels are kept in no order and sorted so
    (``_grow_order``) only when it grows: a member at the chamber budget
    is yielded and dropped unsorted.
    """
    if max_chambers < 1:
        raise InputError("chamber budget must be >= 1")
    seen = set()
    # (parent's mask, first panels and counts, wall crossed, x, key): the
    # base chamber is the child of the empty set across no wall, key 0
    queue = deque([((0, {}, None), None,
                    group.chamber_id(group.identity()), 0)])
    while queue:
        (old, panels, counts), rid, x, key = queue.popleft()
        panels = dict(panels)
        panels.pop(rid, None)
        mask = region(group, old | 1 << x, key, max_chambers, queue=[x],
                      panels=panels)
        if mask is None:
            continue
        counts = _residue_counts(group, mask, mask & ~old, counts)
        yield _polytope(group, mask, panels=panels, counts=counts)
        if mask.bit_count() >= max_chambers:
            continue
        parent = (mask, panels, counts)
        for rid, (_, s, i) in _grow_order(panels):
            child = key | 1 << rid
            if child not in seen:
                seen.add(child)
                queue.append((parent, rid, group.adjacent(i)[s][0], child))


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
        if _mask_of(group, p).bit_count() > max_chambers:
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


def census_line(group, polytope):
    """The polytope's census line, with the ``coxeter`` and ``acute``
    flags it holds.  The line is the text ``json.dumps(..., sort_keys=True)``
    gives for the record of its chamber displays in ShortLex order, its
    facet count, the two flags and its angles {"m": m, "j": j} in site
    order, built directly from the counts, read once: the sites are
    sorted once, and one pass reads each one's angle text and flags off
    the site table.  A chamber display is digits and spaces, so it is
    quoted as it is."""
    texts = []
    coxeter = acute = True
    for _, _, m, j, _ in _site_items(group, _site_counts(group, polytope)):
        text, c, a = _angle(m, j)
        texts.append(text)
        coxeter = coxeter and c
        acute = acute and a
    ids = sorted(_members(_mask_of(group, polytope)), key=group.chamber_key)
    line = (f'{{"acute": {_JSON_BOOL[acute]}, "angles": ['
            + ", ".join(texts)
            + '], "chambers": ["'
            + '", "'.join(map(group.chamber_display, ids))
            + f'"], "coxeter": {_JSON_BOOL[coxeter]}, '
            f'"facets": {polytope.facet_count}}}')
    return line, coxeter, acute
