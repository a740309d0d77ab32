"""The word problem: ShortLex normal forms via exact root tracking.

An element is identified with its ShortLex normal form (the
lexicographically least geodesic word).  Reduction uses the exchange
condition read off the natural reflection representation: multiplying a
reduced word by a generator shortens it exactly when the tracked simple
root crosses back to a simple root, and the crossing position is the
letter to delete.  Canonicalization strips the smallest left descent
recursively.  All root arithmetic happens in the session field on
interned coordinate vectors, so the hot path is dictionary lookups; the
bilinear form is stored doubled (entries -2cos(pi/m)) to keep every
coordinate an integer polynomial in the field generator.

Chambers of the chamber complex are exactly these elements; walls are
reflections paired with their positive roots, and a chamber's inversion
set holds the root ids of the walls separating it from the base chamber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import AlgebraicReal, field_for, DEFAULT_N_CAP
from .errors import BudgetError, ConsistencyError, InputError
from .matrices import INFINITY

DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_REFLECTION_LENGTH = 12


@dataclass(frozen=True)
class Element:
    """A group element in ShortLex normal form (0-based generator indices)."""

    word: tuple

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


@dataclass(frozen=True)
class RootVector:
    """Coordinates in the simple-root basis."""

    coords: tuple  # tuple of AlgebraicReal


class Wall:
    """A reflection together with its positive root and a conjugation witness.

    Two walls are equal iff their reflections are equal; the root is
    determined by the reflection (up to the sign we normalize away).
    """

    __slots__ = ("reflection", "root", "witness", "rid")

    def __init__(self, reflection, root, witness, rid):
        self.reflection = reflection
        self.root = root
        self.witness = witness  # (w, s) with reflection == w s w^-1
        self.rid = rid          # interned id of the positive root

    @property
    def sort_key(self):
        return self.reflection.sort_key

    def __eq__(self, other):
        return isinstance(other, Wall) and other.reflection == self.reflection

    def __hash__(self):
        return hash(("Wall", self.reflection))

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

    def __init__(self, matrix, n_cap=DEFAULT_N_CAP, k_cap=None):
        self.matrix = matrix
        self.rank = matrix.rank
        self.field = field_for(matrix, n_cap)
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
        maxfin = max(matrix.finite_orders(), default=2)
        self._k_cap = k_cap if k_cap else 2 * maxfin * self.rank * 8
        # interned root vectors: tuple-of-coeff-tuples -> small id
        self._root_list = []
        self._root_index = {}
        zero, one = f.raw_from_int(0), f.raw_from_int(1)
        self._simple = tuple(
            self._intern(tuple(one if j == i else zero
                               for j in range(self.rank)))
            for i in range(self.rank))
        self._reflect_cache = {}
        self._neg_cache = {}
        self._sign_cache = {}
        self._mult_cache = {}
        self._canon_memo = {(): ()}
        self._panel_memo = {}
        self._wall_memo = {}
        self._inversion_memo = {(): frozenset()}
        self._tits_form = None

    # -- roots (interned) ---------------------------------------------------

    def _intern(self, coords):
        rid = self._root_index.get(coords)
        if rid is None:
            rid = len(self._root_list)
            self._root_list.append(coords)
            self._root_index[coords] = rid
        return rid

    def _reflect_id(self, rid, i):
        key = (rid, i)
        hit = self._reflect_cache.get(key)
        if hit is None:
            f = self.field
            coords = self._root_list[rid]
            ci = self._c[i]
            scalar = f.raw_from_int(0)
            for j in range(self.rank):
                cj = coords[j]
                if not f.raw_is_zero(cj):
                    scalar = f.raw_add(scalar, f.raw_mul(ci[j], cj))
            new = list(coords)
            new[i] = f.raw_sub(coords[i], scalar)
            hit = self._intern(tuple(new))
            self._reflect_cache[key] = hit
        return hit

    def _neg_id(self, rid):
        hit = self._neg_cache.get(rid)
        if hit is None:
            f = self.field
            hit = self._intern(tuple(f.raw_neg(x)
                                     for x in self._root_list[rid]))
            self._neg_cache[rid] = hit
        return hit

    def _root_sign(self, rid):
        """+1 for a positive root, -1 for a negative one.

        Valid because every root is +/- a nonnegative combination of
        simple roots, so the first nonzero coordinate decides.
        """
        hit = self._sign_cache.get(rid)
        if hit is None:
            f = self.field
            for c in self._root_list[rid]:
                if not f.raw_is_zero(c):
                    hit = f.sign_raw(c)
                    break
            else:
                raise ConsistencyError("zero vector is not a root", rid)
            self._sign_cache[rid] = hit
        return hit

    def _apply_word_root(self, word, rid):
        """Image of the root under the element of ``word``."""
        for a in reversed(word):
            rid = self._reflect_id(rid, a)
        return rid

    def _root_vector(self, rid):
        f = self.field
        return RootVector(tuple(AlgebraicReal(f, c)
                                for c in self._root_list[rid]))

    def _rid_of(self, root):
        return self._intern(tuple(x.coeffs for x in root.coords))

    # -- word reduction -----------------------------------------------------

    def _left_exchange(self, word, i):
        """If s_i is a left descent of the (reduced) word, delete the
        crossing letter and return the shorter word; else None."""
        simple = self._simple
        x = simple[i]
        for j, a in enumerate(word):
            if x == simple[a]:
                return word[:j] + word[j + 1:]
            x = self._reflect_id(x, a)
        return None

    def _track_right(self, word, t):
        """Crossing position for right multiplication by s_t, or None."""
        simple = self._simple
        x = simple[t]
        for j in range(len(word) - 1, -1, -1):
            a = word[j]
            if x == simple[a]:
                return j
            x = self._reflect_id(x, a)
        return None

    def _canonical(self, word):
        """ShortLex form of a reduced word: strip smallest left descents."""
        hit = self._canon_memo.get(word)
        if hit is not None:
            return hit
        for i in range(self.rank):
            ex = self._left_exchange(word, i)
            if ex is not None:
                res = (i,) + self._canonical(ex)
                self._canon_memo[word] = res
                return res
        raise ConsistencyError("reduced nonempty word has no left descent",
                               word)

    def _mult_gen(self, word, t):
        """Normal form of (element of canonical ``word``) * s_t."""
        key = (word, t)
        hit = self._mult_cache.get(key)
        if hit is None:
            j = self._track_right(word, t)
            if j is None:
                hit = self._canonical(word + (t,))
            else:
                hit = self._canonical(word[:j] + word[j + 1:])
            self._mult_cache[key] = hit
        return hit

    def _mult_word(self, word, other):
        for t in other:
            word = self._mult_gen(word, t)
        return word

    # -- public element interface -------------------------------------------

    def identity(self):
        return Element(())

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise InputError(f"generator index {i} out of range")
        return Element((i,))

    def normal_form(self, word):
        w = tuple(word)
        for a in w:
            if not 0 <= a < self.rank:
                raise InputError(f"generator index {a} out of range")
        return Element(self._mult_word((), w))

    def step(self, g, s):
        """Right multiplication by a generator: the adjacent chamber."""
        return Element(self._mult_gen(g.word, s))

    def multiply(self, g, h):
        return Element(self._mult_word(g.word, h.word))

    def inverse(self, g):
        return Element(self._canonical(tuple(reversed(g.word))))

    def length(self, g):
        return len(g.word)

    # -- geometry of roots ----------------------------------------------------

    def tits_form(self):
        """The bilinear form B: B_ii = 1, B_ij = -cos(pi/m_ij), -1 at infinity."""
        if self._tits_form is None:
            f = self.field
            half = Fraction(1, 2)
            self._tits_form = tuple(
                tuple(AlgebraicReal(f, f.raw_scale(self._c[i][j], half))
                      for j in range(self.rank))
                for i in range(self.rank))
        return self._tits_form

    def simple_root(self, i):
        return self._root_vector(self._simple[i])

    def reflect(self, x, i):
        """Simple reflection on a root vector: x - 2B(e_i, x) e_i."""
        return self._root_vector(self._reflect_id(self._rid_of(x), i))

    def apply(self, g, x):
        return self._root_vector(self._apply_word_root(g.word,
                                                       self._rid_of(x)))

    def bilinear(self, x, y):
        """B(x, y), exact."""
        f = self.field
        acc = f.raw_from_int(0)
        xr = [v.coeffs for v in x.coords]
        yr = [v.coeffs for v in y.coords]
        for i in range(self.rank):
            if f.raw_is_zero(xr[i]):
                continue
            for j in range(self.rank):
                if f.raw_is_zero(yr[j]):
                    continue
                acc = f.raw_add(acc, f.raw_mul(self._c[i][j],
                                               f.raw_mul(xr[i], yr[j])))
        return AlgebraicReal(f, f.raw_scale(acc, Fraction(1, 2)))

    def root_is_positive(self, x):
        return self._root_sign(self._rid_of(x)) > 0

    # -- walls ----------------------------------------------------------------

    def _positive_id(self, rid):
        return rid if self._root_sign(rid) > 0 else self._neg_id(rid)

    def _make_wall(self, refl_word, rid, witness):
        rid = self._positive_id(rid)
        return Wall(Element(refl_word), self._root_vector(rid), witness, rid)

    def panel_root(self, g, s):
        """Root id (the ``rid``) of the wall between g and g*s."""
        key = (g.word, s)
        hit = self._panel_memo.get(key)
        if hit is None:
            hit = self._positive_id(
                self._apply_word_root(g.word, self._simple[s]))
            self._panel_memo[key] = hit
        return hit

    def inversion_set(self, g):
        """Root ids of the walls separating g from the base chamber, grown
        along the normal form by N(w a) = N(w) | {panel_root(w, a)}: each
        prefix of a normal form is one, and its next letter lengthens it.
        """
        word = g.word
        memo = self._inversion_memo
        k = len(word)
        while word[:k] not in memo:
            k -= 1
        n = memo[word[:k]]
        for j in range(k, len(word)):
            n = n | {self.panel_root(Element(word[:j]), word[j])}
            memo[word[:j + 1]] = n
        return n

    def generator_wall(self, i):
        return self._make_wall((i,), self._simple[i], (self.identity(), i))

    def wall_between(self, g, s):
        """The wall crossed by the panel between g and g*s (i.e. g s g^-1).

        One ``Wall`` per root: its witness is the first panel asked for.
        """
        rid = self.panel_root(g, s)
        wall = self._wall_memo.get(rid)
        if wall is None:
            w = g.word
            out = self._mult_gen(w, s)
            for a in reversed(w):
                out = self._mult_gen(out, a)
            wall = self._make_wall(out, rid, (g, s))
            self._wall_memo[rid] = wall
        return wall

    def conjugate_wall(self, t, u):
        """The wall of t u t (conjugate of u's reflection by t's)."""
        f = self.field
        tw, uw = t.reflection.word, u.reflection.word
        out = self._mult_word((), tw + uw + tw)
        rt = [x.coeffs for x in t.root.coords]
        ru = [x.coeffs for x in u.root.coords]
        scalar = f.raw_from_int(0)
        for i in range(self.rank):
            if f.raw_is_zero(rt[i]):
                continue
            for j in range(self.rank):
                if not f.raw_is_zero(ru[j]):
                    scalar = f.raw_add(scalar, f.raw_mul(self._c[i][j],
                                                         f.raw_mul(rt[i],
                                                                   ru[j])))
        new = tuple(f.raw_sub(ru[k], f.raw_mul(scalar, rt[k]))
                    for k in range(self.rank))
        rid = self._intern(new)
        witness = (self.multiply(t.reflection, u.witness[0]), u.witness[1])
        return self._make_wall(out, rid, witness)

    def as_reflection(self, g):
        """The wall of g if g is a reflection, else None.

        Conjugation descent: a reflection of length > 1 always admits a
        generator conjugation dropping the length by 2; descending to a
        generator certifies the reflection and yields the witness.
        """
        if len(g.word) % 2 == 0:
            return None
        cur = g.word
        conjs = []
        while len(cur) > 1:
            for i in range(self.rank):
                cand = self._mult_word(self._mult_gen((), i), cur + (i,))
                if len(cand) < len(cur):
                    conjs.append(i)
                    cur = cand
                    break
            else:
                return None
        s = cur[0]
        w = self.normal_form(conjs)
        rid = self._apply_word_root(w.word, self._simple[s])
        return self._make_wall(g.word, rid, (w, s))

    def order_of_product(self, t, u):
        """Exact order of (t u) for distinct walls t, u; INFINITY when infinite.

        Finite iff |B(root_t, root_u)| < 1; the finite order is then found
        by iterating normal forms (capped, with a consistency dump if the
        cap is ever hit -- it never should be).
        """
        if t.reflection == u.reflection:
            raise InputError("order_of_product needs distinct walls")
        f = self.field
        rt = [x.coeffs for x in t.root.coords]
        ru = [x.coeffs for x in u.root.coords]
        c = f.raw_from_int(0)
        for i in range(self.rank):
            if f.raw_is_zero(rt[i]):
                continue
            for j in range(self.rank):
                if not f.raw_is_zero(ru[j]):
                    c = f.raw_add(c, f.raw_mul(self._c[i][j],
                                               f.raw_mul(rt[i], ru[j])))
        disc = f.raw_sub(f.raw_mul(c, c), f.raw_from_int(4))
        if f.sign_raw(disc) >= 0:
            return INFINITY
        p = self._mult_word(t.reflection.word, u.reflection.word)
        q = p
        k = 1
        while q:
            q = self._mult_word(q, p)
            k += 1
            if k > self._k_cap:
                raise ConsistencyError(
                    "bounded form value but no finite order found",
                    {"matrix": self.matrix.to_json_dict(),
                     "t": t.reflection.display(),
                     "u": u.reflection.display(),
                     "cap": self._k_cap})
        return k

    # -- enumeration ----------------------------------------------------------

    def _bfs_words(self, max_length, cap):
        """Canonical words by length, each level sorted; raises on cap."""
        level = [()]
        seen = {()}
        yield ()
        while level:
            if max_length is not None and len(level[0]) >= max_length:
                return
            nxt = []
            for w in level:
                for t in range(self.rank):
                    h = self._mult_gen(w, t)
                    if len(h) > len(w) and h not in seen:
                        seen.add(h)
                        if len(seen) > cap:
                            raise BudgetError(
                                f"element enumeration exceeded cap {cap}")
                        nxt.append(h)
            nxt.sort()
            yield from nxt
            level = nxt

    def elements(self, max_length=None, cap=DEFAULT_ELEMENT_CAP):
        for w in self._bfs_words(max_length, cap):
            yield Element(w)

    def ball(self, radius, cap=DEFAULT_ELEMENT_CAP):
        """All elements of length <= radius (complete; raises on cap)."""
        return [Element(w) for w in self._bfs_words(radius, cap)]

    def element_count(self, cap=DEFAULT_ELEMENT_CAP):
        """Group order if it is <= cap, else None."""
        try:
            return sum(1 for _ in self._bfs_words(None, cap))
        except BudgetError:
            return None

    def enumerate_reflections(self, max_length=DEFAULT_REFLECTION_LENGTH,
                              cap=DEFAULT_ELEMENT_CAP):
        """All reflections of length <= max_length, as canonical walls.

        Complete for the budget: a reflection of length L has a witness
        of length (L-1)/2, so conjugating generators over the ball of
        that radius reaches every one of them.
        """
        if max_length < 1:
            raise InputError("length budget must be >= 1")
        out = {}
        for w in self.ball((max_length - 1) // 2, cap):
            for s in range(self.rank):
                word = self._mult_word(self._mult_gen(w.word, s),
                                       tuple(reversed(w.word)))
                if len(word) <= max_length and word not in out:
                    rid = self._apply_word_root(w.word, self._simple[s])
                    out[word] = self._make_wall(word, rid, (w, s))
        return sorted(out.values(), key=lambda x: x.sort_key)

    # -- matrices (exact Tits representation; test oracle support) ------------

    def matrix_of(self, g):
        """Matrix of g in the reflection representation, columns g(e_j)."""
        f = self.field
        cols = [self._root_list[self._apply_word_root(g.word, self._simple[j])]
                for j in range(self.rank)]
        return tuple(tuple(AlgebraicReal(f, cols[j][i])
                           for j in range(self.rank))
                     for i in range(self.rank))


def root_span_rank(group, walls):
    """Dimension of the span of the walls' roots (fraction-free elimination)."""
    f = group.field
    rows = [[x.coeffs for x in w.root.coords] for w in walls]
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
