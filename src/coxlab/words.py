"""The word problem: ShortLex normal forms on a table of elementary roots.

An element is identified with its ShortLex normal form (the
lexicographically least geodesic word).  Reduction uses the exchange
condition read off the natural reflection representation: multiplying a
reduced word by a generator shortens it exactly when the simple root,
walked back through the word, crosses to the simple root of a letter,
and that letter is the one to delete.  Each group tables, once, the
finitely many elementary roots and their images under the generators;
a walk that leaves them never crosses, so reduction walks small integers
in that table and does no field arithmetic.  The table is built in the
session field, where the bilinear form is stored doubled (entries
-2cos(pi/m)) to keep every coordinate an integer polynomial in the
field generator.

ShortLex forms are the words of a finite automaton (Brink and Howlett):
the state of a normal form is a set of elementary roots, a letter s may
follow it exactly when alpha_s is not in the set, and the next state is
read off the same table.  ``ball`` walks the automaton, with its
transitions memoised per state as they are first needed.  A product
w * s_t is one walk of alpha_t back through w in the table, which
deletes a letter, inserts one, or appends t, and never re-reduces the
word (``_mult_gen``).

Chambers of the chamber complex are exactly these elements; a wall is
a reflection t = w s w^-1 with its witness (w, s).  Each group reads the
wall's positive root off the same table walk: it is the root of the
longer panel named by the crossing letter when ws is shorter than w,
and otherwise w(e_s), tracked exactly and interned, so every interned
root is positive and the word layer decides no signs.  ``wall_between``
keeps one wall per root and builds every wall the group hands out:
generators, conjugates, enumerated reflections, and ``as_reflection``,
which reads the middle panel of a normal form.  The only sign decision
left is the test in ``order_of_product`` of whether two walls meet,
taken on memoised integer brackets of the two roots when those settle
it, and on the exact form value otherwise.  When the walls meet, the
field's ``rotation_order`` reads the order of their product off that
value, with no power of the product formed.

A group numbers each normal form as it first hands it out, and keeps
per chamber id one record: the word's one ``Element`` (``ball`` builds
its own, as a walk that visits each element once gains nothing from a
table), ShortLex key, inversion set as a root mask, display, row, and
the least chamber of its residue for each pair of finite order.
"""

from __future__ import annotations

import threading

from .algebraic import SIGN_STATS, field_for
from .errors import BudgetError, ConsistencyError, InputError
from .matrices import INFINITY, is_finite

DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_REFLECTION_LENGTH = 12

# entries of the elementary-root table beside the index of s(y) in E
CROSS = -1  # y is the simple root of s
EXIT = -2   # s(y) is not elementary


class Value:
    """An immutable value.  A subclass fills its slots once, through
    ``object.__setattr__``, and defines ``_args()``: the arguments it is
    rebuilt from, so copies and pickles carry them alone, and what
    equality and the hash compare (a subclass may answer those faster)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), self._args())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._args() == other._args()

    def __hash__(self):
        return hash(self._args())


class Element(Value):
    """A group element in ShortLex normal form (0-based generator indices).

    Immutable, equal by word, with its hash computed once.  A group hands
    out one object per word (the one its chamber record holds); an
    element built directly still compares and hashes equal to it.  The
    group builds its elements with ``_new_element``, which skips
    ``__init__``.
    """

    __slots__ = ("word", "_hash")

    def __init__(self, word):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_hash", hash(word))

    def _args(self):
        return (self.word,)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Element):
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.word)

    @property
    def length(self):
        return len(self.word)

    @property
    def sort_key(self):
        return (len(self.word), self.word)

    def display(self):
        return " ".join(str(i + 1) for i in self.word)

    def __repr__(self):
        return f"<{self.display() or 'e'}>"


_set_word = Element.word.__set__
_set_hash = Element._hash.__set__


def _new_element(word, _new=object.__new__):
    """``Element(word)`` at less cost: the slots are filled through their
    descriptors, which bypass ``Value.__setattr__`` as
    ``object.__setattr__`` does, on an object that ``__init__`` never
    sees.  The one way the group builds an element."""
    e = _new(Element)
    _set_word(e, word)
    _set_hash(e, hash(word))
    return e


class Wall(Value):
    """A reflection together with a conjugation witness.

    Two walls are equal iff their reflections are equal.  The wall's
    positive root is +/- w(e_s) for its witness (w, s); a group reads its
    own id of that root with ``wall_root(wall)``, from the witness when
    the wall is not one it handed out, so a wall is a value that any
    group of the same matrix accepts.  Immutable like
    ``Element``, with its hash and sort key computed once: a group keeps
    one wall per root and hands the same object to every caller.
    """

    __slots__ = ("reflection", "witness", "sort_key", "_hash")

    def __init__(self, reflection, witness):
        object.__setattr__(self, "reflection", reflection)
        # (w, s) with reflection == w s w^-1
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "sort_key", reflection.sort_key)
        object.__setattr__(self, "_hash", hash(("Wall", reflection)))

    def _args(self):
        return (self.reflection, self.witness)

    def __eq__(self, other):
        return isinstance(other, Wall) and other.reflection == self.reflection

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Wall({self.reflection.display() or 'e'})"


def word_from_text(text, rank):
    """Parse '1 3 1' (1-based, whitespace separated) into a word tuple."""
    parts = text.split()
    out = []
    for p in parts:
        try:
            i = int(p)
        except ValueError:
            raise InputError(f"bad generator index {p!r}") from None
        if not 1 <= i <= rank:
            raise InputError(f"generator index {i} out of range 1..{rank}")
        out.append(i - 1)
    return tuple(out)


class CoxeterGroup:
    """Word, root and wall machinery for one Coxeter matrix."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.rank = matrix.rank
        self.field = field_for(matrix)
        f = self.field
        # doubled form C = 2B: integer coordinates throughout
        c = []
        for i in range(self.rank):
            row = []
            for j in range(self.rank):
                m = matrix.order(i, j)
                if i == j:
                    row.append(f.raw_from_int(2))
                elif m == INFINITY:
                    row.append(f.raw_from_int(-2))
                else:
                    row.append(f.raw_neg(f.two_cos_pi_over_raw(m)))
            c.append(tuple(row))
        self._c = tuple(c)
        # interned root vectors: tuple-of-coeff-tuples -> small id.  The
        # lock is taken only when a root is new, and the table is read
        # again inside it, so each root gets one id however threads race;
        # the other memos store values that racing threads compute alike.
        self._root_list = []
        self._root_index = {}
        self._intern_lock = threading.Lock()
        zero, one = f.raw_from_int(0), f.raw_from_int(1)
        self._simple = tuple(
            self._intern(tuple(one if j == i else zero
                               for j in range(self.rank)))
            for i in range(self.rank))
        self._small_roots, self._small_table = self._elementary_roots()
        self._reflect_cache = {}
        self._form_memo = {}
        self._panel_memo = {}
        self._wall_memo = {}
        self._wall_roots = {}
        self._order_memo = {}
        # integer brackets per root id, of its coordinates and of its form
        # row, and of the form's entries, as first asked: see
        # ``order_of_product``
        self._coord_brackets = {}
        self._row_brackets = {}
        self._entry_brackets = None
        self._row_memo = {}
        # chamber ids: word -> id, and per id the record [element, ShortLex
        # key, then as first asked: inversion-set root mask, display,
        # adjacency row, residues]
        self._ids = {}
        self._chambers = []
        # (s, t, m) per pair s < t of finite order m: the pairs that
        # ``residues`` names, by index
        self.finite_pairs = tuple(
            (s, t, matrix.order(s, t)) for s in range(self.rank)
            for t in range(s + 1, self.rank)
            if matrix.order(s, t) != INFINITY)

    # -- roots (interned) ---------------------------------------------------

    def _intern(self, coords):
        rid = self._root_index.get(coords)
        if rid is None:
            with self._intern_lock:
                rid = self._root_index.get(coords)
                if rid is None:
                    rid = len(self._root_list)
                    self._root_list.append(coords)
                    self._root_index[coords] = rid
        return rid

    def _form_row(self, i, coords):
        """C(e_i, x) for the coordinates of x: row i of the doubled form."""
        return self.field.raw_dot(self._c[i], coords)

    def _form_rows(self, rid):
        """C(e_i, r) for every i, r the root of ``rid``: memoised, so a form
        value C(x, r) costs ``rank`` multiplications."""
        hit = self._form_memo.get(rid)
        if hit is None:
            coords = self._root_list[rid]
            hit = self._form_memo[rid] = tuple(
                self._form_row(i, coords) for i in range(self.rank))
        return hit

    def _reflect_id(self, rid, i):
        key = (rid, i)
        hit = self._reflect_cache.get(key)
        if hit is None:
            coords = self._root_list[rid]
            new = list(coords)
            new[i] = self.field.raw_sub(coords[i], self._form_row(i, coords))
            hit = self._intern(tuple(new))
            self._reflect_cache[key] = hit
        return hit

    def _elementary_roots(self):
        """The elementary roots E, simple roots first, and the table that
        maps (index of y in E, s) to CROSS when y = alpha_s, to EXIT when
        s(y) is not in E, and otherwise to the index of s(y).

        A positive root is elementary when it dominates no other positive
        root, where x dominates g when w(x) < 0 forces w(g) < 0 for every
        w.  E is finite and holds the simple roots (Brink and Howlett,
        Math. Ann. 296 (1993); Bjorner-Brenti, GTM 231, 4.7).

        Early exit.  Let x = u(alpha_t) > 0 with u^-1(alpha_s) > 0, as
        when alpha_t walks back through a reduced word, u is the suffix
        walked and s the next letter, so s u is reduced.  If x is not in
        E, neither is s(x), which is positive as x != alpha_s: x
        dominates some positive g != x.  When g != alpha_s, s(g) > 0 and
        s(x) dominates s(g) != s(x).  When g = alpha_s, w = s_t u^-1 has
        w(x) = -alpha_t, so w(alpha_s) < 0 while u^-1(alpha_s) > 0; then
        u^-1(alpha_s) = alpha_t, and x = alpha_s would be in E.  So a walk
        that leaves E stays outside it, meets no simple root, and crosses
        nowhere.

        Construction, with no sign decided.  E is the least set holding
        the simple roots and s(y) for each y in E with -1 < B(alpha_s, y)
        < 0, and it holds s(y) for y in E whenever s lowers depth; s(y)
        has depth dp(y) - 1, dp(y) or dp(y) + 1 as B(alpha_s, y) is > 0,
        0 or < 0, and 0 exactly when s(y) = y (same references).  So a
        search in order of discovery meets E depth by depth, and at y of
        depth d knows all of E of depth d - 1.  For y != alpha_s and
        z = s(y): z = y, or z already known, puts z in E; otherwise z is
        no root of E of depth d - 1, so B(alpha_s, y) < 0, and z is in E
        iff B > -1, that is iff |B| < 1.  That holds iff <s, s_y> is
        finite: by Dyer the two reflections generate a dihedral Coxeter
        group whose canonical roots a, b have B(a, b) = -cos(pi/m) when
        it is finite and B(a, b) <= -1 when not, and the sign of the Gram
        determinant 1 - B^2 of the plane does not depend on the basis.
        In the doubled form C = 2B, a finite pair makes s s_y a rotation
        of finite order of the plane, with C^2 - 2 = 2cos(2*psi) < 2, and
        ``FieldSpec.rotation_order`` reads every such order; an infinite
        pair has C^2 - 2 >= 2, which it reads as None.
        """
        f = self.field
        rank = self.rank
        roots = [self._root_list[a] for a in self._simple]
        index = {y: i for i, y in enumerate(roots)}
        two = f.raw_from_int(2)
        table = []
        for i, y in enumerate(roots):  # grows while read: discovery order
            row = []
            for s in range(rank):
                if i == s:
                    row.append(CROSS)
                    continue
                c = self._form_row(s, y)
                z = y[:s] + (f.raw_sub(y[s], c),) + y[s + 1:]
                k = index.get(z)  # z = y exactly when c = 0
                if k is None:
                    if f.rotation_order(
                            f.raw_sub(f.raw_mul(c, c), two)) is None:
                        row.append(EXIT)
                        continue
                    k = index[z] = len(roots)
                    roots.append(z)
                row.append(k)
            table.append(tuple(row))
        return tuple(roots), tuple(table)

    # -- word reduction -----------------------------------------------------

    def _crossing(self, word, t):
        """Position of the letter that the reduced ``word`` times s_t
        deletes, or None when the product is longer: alpha_t walks back
        through the word in the elementary-root table."""
        table = self._small_table
        x = t
        for j in range(len(word) - 1, -1, -1):
            x = table[x][word[j]]
            if x < 0:
                return j if x == CROSS else None
        return None

    def _mult_gen(self, word, t):
        """Normal form of (element of normal form ``word``) * s_t: one walk
        of alpha_t back through the word in the elementary-root table,
        carrying y_i(alpha_t) for the suffixes y_i = word[i:] (Casselman,
        Electron. J. Combin. 9 (2002) #R25; Brink and Howlett, Math. Ann.
        296 (1993)).  Delete: the walk crosses at letter j, and the
        product is word[:j] + word[j+1:].  Insert: at some position i it
        carries a simple root alpha_x with x < word[i] (E lists the simple
        roots first, so an index x < word[i] is one), and at the leftmost
        such i the product is word[:i] + (x,) + word[i:].  Append:
        neither, and it is word + (t,).  By the early-exit lemma of
        ``_elementary_roots`` no simple root follows an EXIT.

        Proof.  Let w = word, s = s_t, and first ws > w.  u = NF(ws) is
        the reduced word w + (t,) or first differs from it at some i with
        u_i < w_i; then u[i:] = NF(y_i s), which starts with the least
        left descent t' of y_i s.  By the exchange condition t' y_i s
        deletes a letter; not one of y_i, or the lesser w[:i] t' ...
        would spell w.  So t' y_i = y_i s, y_i(alpha_s) = alpha_t' > 0,
        and u = w[:i] t' y_i: i is an insert position.  Each one gives a
        reduced word w[:i] x y_i of ws, lesser the further left, so u is
        the leftmost.  Now let ws < w, so the walk crosses.  u = NF(ws)
        has us > u, so w = NF(us) is u with one letter inserted: u is w
        less one letter, and by the exchange condition the unique
        crossing letter is the one whose deletion gives ws.
        """
        table = self._small_table
        x, at = t, None
        for i in range(len(word) - 1, -1, -1):
            a = word[i]
            x = table[x][a]
            if x < a:
                if x >= 0:
                    at, letter = i, x
                elif x == CROSS:
                    return word[:i] + word[i + 1:]
                else:
                    break
        if at is None:
            return word + (t,)
        return word[:at] + (letter,) + word[at:]

    # -- the ShortLex automaton ---------------------------------------------

    def _row(self, state):
        """The automaton's transitions out of ``state``, as the two tuples
        ``ball`` reads: the one-letter words (s,) of the letters s that
        may follow a normal form w of this state, those whose alpha_s
        (index s in E) is not in it, and the states of the products w s;
        see ``ball``.  One row per state, so each (state, s) transition
        is formed once."""
        hit = self._row_memo.get(state)
        if hit is None:
            table = self._small_table
            letters, children = [], []
            for s in range(self.rank):
                if s in state:
                    continue
                images = {table[y][s] for y in state}
                images.update(table[t][s] for t in range(s))
                images.discard(EXIT)
                images.add(s)
                letters.append((s,))
                children.append(frozenset(images))
            hit = self._row_memo[state] = (tuple(letters), tuple(children))
        return hit

    def _mult_word(self, word, other):
        for t in other:
            word = self._mult_gen(word, t)
        return word

    # -- public element interface -------------------------------------------

    def _element(self, word):
        """The group's one ``Element`` of a normal form."""
        return self._chambers[self._id(word)][0]

    def _letter(self, s):
        if not 0 <= s < self.rank:
            raise InputError(f"generator index {s} out of range")

    def identity(self):
        return self._element(())

    def generator(self, i):
        self._letter(i)
        return self._element((i,))

    def normal_form(self, word):
        w = tuple(word)
        for a in w:
            self._letter(a)
        return self._element(self._mult_word((), w))

    def step(self, g, s):
        """Right multiplication by a generator: the adjacent chamber, read
        off g's adjacency row."""
        self._letter(s)
        return self._chambers[self.adjacent(self.chamber_id(g))[s][0]][0]

    def multiply(self, g, h):
        self.chamber_id(g)
        self.chamber_id(h)
        return self._element(self._mult_word(g.word, h.word))

    def inverse(self, g):
        self.chamber_id(g)
        return self._element(self._mult_word((), g.word[::-1]))

    # -- walls ----------------------------------------------------------------

    def panel_root(self, g, s):
        """This group's id of the positive root of the wall between g and
        g*s; ``wall_root`` reads it off a wall.

        When g*s is longer the root is g(alpha_s).  When it is shorter the
        walk crosses at some letter j of g, and the exchange condition
        gives g s g^-1 = g[:j] a_j g[:j]^-1, the wall of the longer panel
        (g[:j], a_j).  The side is read off lengths, never off a sign.
        """
        self._letter(s)
        self.chamber_id(g)
        return self._panel_root(g.word, s)

    def _panel_root(self, word, s):
        """``panel_root`` keyed on the normal form, building no element."""
        key = (word, s)
        hit = self._panel_memo.get(key)
        if hit is None:
            j = self._crossing(word, s)
            if j is not None:
                hit = self._panel_root(word[:j], word[j])
            else:
                hit = self._simple[s]
                for a in reversed(word):
                    hit = self._reflect_id(hit, a)
            self._panel_memo[key] = hit
        return hit

    def inversion_set(self, g):
        """Root ids of the walls separating g from the base chamber: the
        bits of ``inversion_mask``."""
        mask = self.inversion_mask(self.chamber_id(g))
        return frozenset(r for r in range(mask.bit_length()) if mask >> r & 1)

    def residues(self, i):
        """Chamber id i's rank-2 spherical residues: per finite pair k (an
        index into ``finite_pairs``), the pair (k, id of the residue's
        least chamber).  Filled once per chamber; racing threads compute
        equal tuples."""
        record = self._chambers[i]
        hit = record[5]
        if hit is None:
            hit = record[5] = tuple(
                (k, self.residue_end(i, (s, t)))
                for k, (s, t, _) in enumerate(self.finite_pairs))
        return hit

    def residue_end(self, i, letters, longest=False):
        """Id of the least chamber of chamber id i's residue of the tuple
        ``letters``, reached by right descents in them along adjacency
        rows; with ``longest``, id of its longest chamber, reached by
        right ascents, which only a spherical set of letters has: an
        infinite residue has no top, so InputError for one.  Each step
        moves one length down (up) inside the residue, and the least
        (longest) chamber is the one with no descent (ascent) in it, so
        the walk ends there.  For a pair of order m it takes at most m
        steps, as the residue's longest element has length m:
        ConsistencyError past that."""
        if longest and not is_finite(self.matrix.restrict(letters)):
            raise InputError(f"letters {letters} span an infinite residue")
        chambers = self._chambers
        up = 1 if longest else -1
        m = self.matrix.order(*letters) if len(letters) == 2 else INFINITY
        x, steps = i, 0
        while steps <= m:
            row, length = self.adjacent(x), chambers[x][1][0]
            for a in letters:
                y = row[a][0]
                if chambers[y][1][0] == length + up:
                    x, steps = y, steps + 1
                    break
            else:
                return x
        raise ConsistencyError("rank-2 residue walk passes m steps",
                               (chambers[x][0].display(), letters))

    def generator_wall(self, i):
        return self.wall_between(self.identity(), i)

    def wall_between(self, g, s):
        """The wall crossed by the panel between g and g*s (i.e. g s g^-1).

        One ``Wall`` per root, and every wall the group hands out is made
        here: its witness is the first panel that reached the root, and
        ``wall_root`` reads the root back off the wall.
        """
        rid = self.panel_root(g, s)
        wall = self._wall_memo.get(rid)
        if wall is None:
            word = self._mult_word(self._mult_gen(g.word, s), g.word[::-1])
            wall = self._wall_memo.setdefault(
                rid, Wall(self._element(word), (g, s)))
            self._wall_roots[wall] = rid
        return wall

    def wall_root(self, wall):
        """This group's id of the wall's positive root: read off the map
        that ``wall_between`` fills, and for a wall this group has not
        handed out (one of another group of the matrix), off
        ``panel_root(*wall.witness)``."""
        rid = self._wall_roots.get(wall)
        if rid is None:
            rid = self.panel_root(*wall.witness)
        return rid

    def conjugate_wall(self, t, u):
        """The wall of t u t (conjugate of u's reflection by t's): if
        u = w s w^-1, then t u t = (t w) s (t w)^-1, the wall of the panel
        (t w, s)."""
        w, s = u.witness
        self.chamber_id(t.reflection)
        self.chamber_id(w)
        return self.wall_between(
            self._element(self._mult_word(t.reflection.word, w.word)), s)

    def as_reflection(self, g):
        """The wall of g if g is a reflection, else None.

        A reflection t of length 2k+1 is the wall of the middle panel
        (word[:k], word[k]) of its normal form.  A minimal gallery
        e = c_0, ..., c_{2k+1} = t crosses t's wall once; if it crosses
        between c_{i-1} and c_i, then t c_{i-1} = c_i, so d(t, c_i) =
        d(e, c_{i-1}) = i - 1, while the gallery gives d(c_i, t) =
        2k+1-i; so i = k+1.
        """
        self.chamber_id(g)
        word = g.word
        if len(word) % 2 == 0:
            return None
        k = len(word) // 2
        wall = self.wall_between(self._element(word[:k]), word[k])
        return wall if wall.reflection == g else None

    def order_of_product(self, t, u):
        """Exact order of (t u) for distinct walls t, u; INFINITY when infinite.

        Finite iff |B(root_t, root_u)| < 1, read in the doubled form as
        C^2 < 4 for C = C(root_t, root_u).

        Brackets first.  Per root the group memoises integer brackets
        lo <= 2^k x <= hi of its coordinates and of its form row
        C(e_i, r), read off the field's table of power brackets; their
        interval dot product brackets C at the sum of the two scales.
        A bracket at or beyond +/-2 puts |C| >= 2, so C^2 >= 4 and the
        order is INFINITY.  The bounds are integers that hold for the
        true values, and a later refinement of the table leaves them
        valid, so brackets read at two precisions combine, each product
        at the sum of its factors' scales.  So this decision is exact;
        it counts as one ``SIGN_STATS`` decision, as the exact test
        does.  A bracket that reaches inside (-2, 2) -- a finite order,
        or |C| = 2 exactly for parallel walls with irrational roots --
        leaves the pair to the exact path: C, C^2, the sign of C^2 - 4,
        and the ``rotation_order`` lookup below.  In a degree-1 field,
        where C is one integer product, the exact path runs alone.

        Exact orders.  When C^2 < 4, s_t s_u rotates the plane of the two
        roots by 2*psi, where 2cos(2*psi) = C^2 - 2, and fixes its
        orthogonal complement.  Its order is finite, as |B| < 1 makes the
        dihedral reflection subgroup of the two walls finite (Dyer; see
        ``_elementary_roots``).  The field's ``rotation_order`` reads it
        off C^2 - 2, and its docstring proves that it reads every finite
        order, whether or not it divides N.
        Read off ``order_of_roots`` on the two walls' root ids.
        """
        return self.order_of_roots(self.wall_root(t), self.wall_root(u))

    def order_of_roots(self, a, b):
        """``order_of_product`` of the walls of the distinct root ids a and
        b, with no wall built: memoised per group by the pair of ids, in
        either order."""
        if a == b:
            raise InputError("order_of_product needs distinct walls")
        if a > b:
            a, b = b, a
        hit = self._order_memo.get((a, b))
        if hit is not None:
            return hit
        f = self.field
        if f.degree > 1 and self._surely_infinite(a, b):
            SIGN_STATS.decisions += 1
            self._order_memo[(a, b)] = INFINITY
            return INFINITY
        c = f.raw_dot(self._form_rows(b), self._root_list[a])
        c2 = f.raw_mul(c, c)
        if f.sign_raw(f.raw_sub(c2, f.raw_from_int(4))) >= 0:
            hit = INFINITY
        else:
            hit = f.rotation_order(f.raw_sub(c2, f.raw_from_int(2)))
            if hit is None:
                raise ConsistencyError(
                    "bounded form value names no rotation order",
                    {"matrix": self.matrix.to_json_dict(),
                     "roots": [self._root_list[a], self._root_list[b]]})
        self._order_memo[(a, b)] = hit
        return hit

    def _surely_infinite(self, a, b):
        """Whether integer brackets put C = C(root a, root b) at |C| >= 2:
        with lo <= 2^k C <= hi, lo >= 2^(k+1) or hi <= -2^(k+1) does."""
        ka, coords = self._root_brackets(a)
        kb, rows = self._form_row_brackets(b)
        lo, hi = _interval_dot(coords, rows)
        two = 2 << (ka + kb)
        return lo >= two or hi <= -two

    def _root_brackets(self, rid):
        """(k, brackets of the coordinates at scale 2^k) of a root."""
        hit = self._coord_brackets.get(rid)
        if hit is None:
            hit = self._coord_brackets[rid] = self.field.brackets(
                self._root_list[rid])
        return hit

    def _form_row_brackets(self, rid):
        """(k, brackets of C(e_i, r) for every i at scale 2^k) of a root
        r, from the brackets of its coordinates and of the form's entries,
        which are those of the simple roots' rows."""
        hit = self._row_brackets.get(rid)
        if hit is None:
            kr, coords = self._root_brackets(rid)
            kc, entries = self._form_brackets()
            n = self.rank
            hit = self._row_brackets[rid] = (kr + kc, tuple(
                _interval_dot(entries[i * n:(i + 1) * n], coords)
                for i in range(n)))
        return hit

    def _form_brackets(self):
        """(k, brackets of the form's entries C(e_i, e_j), row by row)."""
        hit = self._entry_brackets
        if hit is None:
            hit = self._entry_brackets = self.field.brackets(
                [x for row in self._c for x in row])
        return hit

    # -- chamber ids ----------------------------------------------------------

    def _id(self, word):
        """The chamber id of a normal form, numbered with its record when
        first asked.  As in ``_intern``, the table is read again under the
        lock, so racing threads get one id and one ``Element`` per word."""
        i = self._ids.get(word)
        if i is None:
            record = [_new_element(word), (len(word), word),
                      None if word else 0, None, None, None]
            with self._intern_lock:
                i = self._ids.get(word)
                if i is None:
                    i = len(self._chambers)
                    self._chambers.append(record)
                    self._ids[word] = i
        return i

    def chamber_id(self, g):
        """A small integer naming the chamber g in this group.  An id
        orders nothing: ``chamber_key`` does, and another group numbers
        the same chambers otherwise.  InputError unless g's word is a
        normal form of this group."""
        i = self._ids.get(g.word)
        if i is None:
            if self.normal_form(g.word) != g:
                raise InputError(f"{g.word} is no normal form of this group")
            i = self._ids[g.word]
        return i

    def chamber(self, i):
        """The interned element of chamber id i."""
        return self._chambers[i][0]

    def chamber_key(self, i):
        """The ShortLex key (length, word) of chamber id i, kept once."""
        return self._chambers[i][1]

    def inversion_mask(self, i):
        """The root ids of the walls separating chamber id i from the base
        chamber, as a bitmask, grown from the record of the longest
        prefix that has one, by N(w a) = N(w) | {panel_root(w, a)}."""
        chambers = self._chambers
        record = chambers[i]
        if record[2] is None:
            word = record[1][1]
            k = len(word) - 1
            while chambers[self._id(word[:k])][2] is None:
                k -= 1
            mask = chambers[self._id(word[:k])][2]
            for j in range(k, len(word)):
                mask |= 1 << self._panel_root(word[:j], word[j])
                chambers[self._id(word[:j + 1])][2] = mask
        return record[2]

    def chamber_display(self, i):
        """``chamber(i).display()``, built once."""
        record = self._chambers[i]
        if record[3] is None:
            record[3] = record[0].display()
        return record[3]

    def adjacent(self, i):
        """Chamber i's row: for each generator s, the pair (id of i s,
        ``panel_root`` of the panel (i, s)).  Filled once per chamber;
        racing threads compute equal rows."""
        record = self._chambers[i]
        row = record[4]
        if row is None:
            word = record[0].word
            row = record[4] = tuple(
                (self._id(self._mult_gen(word, s)), self._panel_root(word, s))
                for s in range(self.rank))
        return row

    def panel_wall(self, i, s):
        """The wall of the panel (chamber i, s), looked up by its root id:
        ``wall_between`` runs only for a root with no wall yet."""
        wall = self._wall_memo.get(self.adjacent(i)[s][1])
        if wall is None:
            wall = self.wall_between(self._chambers[i][0], s)
        return wall

    # -- enumeration ----------------------------------------------------------

    def ball(self, radius, cap=DEFAULT_ELEMENT_CAP):
        """All elements of length <= radius, or the whole group when
        radius is None, level by level with each level sorted; raises
        BudgetError past ``cap`` elements.

        Each normal form w of a level carries its automaton state, in a
        list beside the words, and its children are w + (t,) for the
        letters t that may follow it (``_row``): ShortLex forms are
        prefix-closed, so each element is found once, and a sorted level
        gives a sorted next level.  The cap is checked once per parent,
        as the count only grows: a walk raises iff it would have raised
        at some child.  The elements are built at the end, in one pass of
        ``_new_element``.

        The ShortLex automaton (Brink and Howlett, Math. Ann. 296 (1993);
        Casselman, Electron. J. Combin. 9 (2002) #R25; Bjorner-Brenti,
        GTM 231, 4.8).  For a normal form w = a_1 ... a_n with suffixes
        y_i = a_i ... a_n, let D(w) be the positive roots that w makes
        negative, and L(w) = D(w) | {y_i^-1(alpha_t) : t < a_i}.  The
        state of w is L(w) & E, as indices into E.

        (i) w + (s,) is a normal form iff alpha_s is not in L(w).  It is
        reduced iff w(alpha_s) > 0, that is iff alpha_s is not in D(w).
        A reduced word is ShortLex iff no t < a_i is a left descent of
        its suffix from a_i: a lesser word of the element first differs
        there, with such a t.  The one-letter suffix s has no such t.
        For i <= n, t is no left descent of y_i, as w is a normal form.
        If t is one of the reduced y_i s, the exchange condition deletes
        a letter, and not one of y_i, as t y_i is longer than y_i: so
        t y_i s = y_i, and y_i^-1(alpha_t) = alpha_s, positive as t is
        no left descent of y_i.  Conversely that equation makes t y_i s
        = y_i shorter than y_i s.

        (ii) When s follows w, L(ws) = {alpha_s} | s(L(w)) | {s(alpha_t)
        : t < s}.  D(ws) = {alpha_s} | s(D(w)); s maps y_i^-1(alpha_t)
        to (y_i s)^-1(alpha_t), the root of the suffix y_i s of ws; and
        the last suffix s adds s(alpha_t) for t < s.

        (iii) L(ws) & E needs only L(w) & E.  Each beta in L(w) is
        u(alpha_t) with u^-1(alpha_s) > 0: beta in D(w) is a_n ...
        a_(i+1)(alpha_(a_i)), with u^-1 = y_(i+1), and the others have
        u^-1 = y_i; y_(i+1) s and y_i s are reduced, as suffixes of the
        reduced w s.  So by the early-exit lemma of ``_elementary_roots``
        a beta outside E has s(beta) outside E.  For y in E, s(y) is the
        table entry, which is EXIT when s(y) is not in E and never CROSS,
        as alpha_s is not in the state.  The simple root alpha_s is entry
        s of E, so the states are subsets of the finite E, and ``_row``
        reads each transition off the table with no field arithmetic.
        """
        if radius is not None and radius < 0:
            raise InputError("ball radius must be >= 0")
        if cap < 1:
            raise InputError("element cap must be >= 1")
        words, states = [()], [frozenset()]
        start = 0  # the current level is words[start:]
        while start < len(words) and (radius is None
                                      or len(words[start]) < radius):
            end = len(words)
            for w, state in zip(words[start:end], states[start:end]):
                letters, children = self._row(state)
                for t in letters:
                    words.append(w + t)
                states.extend(children)
                if len(words) > cap:
                    raise BudgetError(
                        f"element enumeration exceeded cap {cap}")
            start = end
        return list(map(_new_element, words))

    def enumerate_reflections(self, max_length=DEFAULT_REFLECTION_LENGTH,
                              cap=DEFAULT_ELEMENT_CAP):
        """All reflections of length <= max_length, as canonical walls.

        Complete for the budget: a reflection of length L has a witness
        of length (L-1)/2, so the walls of the panels of the ball of that
        radius are every one of them.
        """
        if max_length < 1:
            raise InputError("length budget must be >= 1")
        # one ``wall_between`` per root, so only the first panel of each
        # wall is checked, and numbered, as a chamber
        walls = {}
        for w in self.ball((max_length - 1) // 2, cap):
            for s in range(self.rank):
                rid = self._panel_root(w.word, s)
                if rid not in walls:
                    walls[rid] = self.wall_between(w, s)
        return sorted((x for x in walls.values()
                       if len(x.reflection) <= max_length),
                      key=lambda x: x.sort_key)


def _interval_dot(xs, ys):
    """Integers lo <= sum x_i y_i <= hi from brackets (lo, hi) of each x_i
    and y_i: each product lies between the least and the greatest of its
    four corner products, at the product of the two scales."""
    lo = hi = 0
    for (a, b), (c, d) in zip(xs, ys):
        p, q, r, t = a * c, a * d, b * c, b * d
        lo += min(p, q, r, t)
        hi += max(p, q, r, t)
    return lo, hi


def root_span_rank(group, walls):
    """Dimension of the span of the walls' roots (fraction-free elimination)."""
    f = group.field
    rows = [group._root_list[group.wall_root(w)] for w in walls]
    n = group.rank
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, len(rows)):
            if not f.raw_is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            x = rows[r][col]
            if f.raw_is_zero(x):
                continue
            rows[r] = [f.raw_sub(f.raw_mul(p, rows[r][c]),
                                 f.raw_mul(x, rows[rank][c]))
                       for c in range(n)]
        rank += 1
    return rank
