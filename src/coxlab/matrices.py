"""Coxeter matrices, diagram components, finite-type recognition, nerves.

The matrix is the single source of truth for a Coxeter system.  Orders
are ints >= 1 with ``INFINITY`` (``math.inf``) as a first-class value;
files encode infinity as 0.  Finiteness is decided by matching each
diagram component against the classification of finite types (A, B, D,
E6/E7/E8, F4, H3/H4, I2(m)) -- pure pattern matching on the labelled
graph, no numerics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import inf

from .errors import BudgetError, InputError

INFINITY = inf


def format_order(m):
    """An order as text: "oo" for ``INFINITY``."""
    return "oo" if m == INFINITY else str(m)


# parsers reject larger ranks before allocating the n x n matrix
MAX_RANK = 256
_NERVE_RANK_CAP = 16


def _encode(m):
    return 0 if m == INFINITY else int(m)


def _decode(raw, where):
    if type(raw) is not int or raw < 0:
        raise InputError(f"order at {where} must be a positive integer or 0")
    return INFINITY if raw == 0 else raw


def _check_rank(n, where=""):
    if type(n) is not int or n < 1:
        raise InputError(f"{where}rank must be a positive integer")
    if n > MAX_RANK:
        raise InputError(f"{where}rank {n} exceeds the cap {MAX_RANK}")


class CoxeterMatrix:
    """Symmetric matrix of pairwise orders m_ij, with m_ii = 1."""

    __slots__ = ("rank", "orders", "labels")

    def __init__(self, orders, labels=None):
        rows = [list(r) for r in orders]
        n = len(rows)
        if n < 1:
            raise InputError("rank must be at least 1")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InputError(f"row {i + 1} has length {len(row)}, expected {n}")
        for i in range(n):
            if type(rows[i][i]) is not int or rows[i][i] != 1:
                raise InputError(f"diagonal entry ({i + 1},{i + 1}) must be 1")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError(
                        f"matrix not symmetric at ({i + 1},{j + 1})")
                m = rows[i][j]
                if m != INFINITY and (not isinstance(m, int) or m < 2):
                    raise InputError(
                        f"order at ({i + 1},{j + 1}) must be >= 2 or infinity")
        if isinstance(labels, str):
            raise InputError("labels must be a sequence of names, not a string")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError("labels length does not match rank")
        else:
            labels = tuple(f"s{i + 1}" for i in range(n))
        self.rank = n
        self.orders = tuple(tuple(r) for r in rows)
        self.labels = labels

    @classmethod
    def triangle(cls, m12, m23, m13):
        """Rank-3 matrix of a triangle group with the given pair orders."""
        return cls([[1, m12, m13], [m12, 1, m23], [m13, m23, 1]])

    @classmethod
    def dihedral(cls, m):
        return cls([[1, m], [m, 1]])

    def order(self, i, j):
        return self.orders[i][j]

    def finite_orders(self):
        """Sorted distinct finite off-diagonal orders."""
        out = set()
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = self.orders[i][j]
                if m != INFINITY:
                    out.add(m)
        return sorted(out)

    def restrict(self, subset):
        idx = sorted(subset)
        if not idx:
            raise InputError("cannot restrict to the empty set")
        return CoxeterMatrix(
            [[self.orders[i][j] for j in idx] for i in idx],
            labels=[self.labels[i] for i in idx])

    def signature(self):
        """Sorted multiset of off-diagonal orders (infinity last)."""
        pairs = [self.orders[i][j] for i in range(self.rank)
                 for j in range(i + 1, self.rank)]
        return tuple(sorted(pairs, key=lambda m: (m == INFINITY, m)))

    def to_json_dict(self):
        return {"rank": self.rank,
                "m": [[_encode(m) for m in row] for row in self.orders],
                "labels": list(self.labels)}

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and other.orders == self.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"CoxeterMatrix({[list(r) for r in self.orders]!r})"


def _from_json_dict(data):
    if not isinstance(data, dict) or "rank" not in data or "m" not in data:
        raise InputError("matrix JSON needs 'rank' and 'm' fields")
    n = data["rank"]
    _check_rank(n)
    raw = data["m"]
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise InputError("'m' must be a list of rows")
    if len(raw) != n:
        raise InputError(f"'m' has {len(raw)} rows, expected {n}")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError("'labels' must be a list")
    rows = [[_decode(x, f"({i + 1},{j + 1})") for j, x in enumerate(r)]
            for i, r in enumerate(raw)]
    return CoxeterMatrix(rows, labels=labels)


def _from_lines(text):
    rows = None
    n = 0
    listed = {}  # pair -> (order, line number) of its first line
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if rows is None:
            if len(parts) != 2 or parts[0] != "rank":
                raise InputError(f"line {lineno}: expected header 'rank n'")
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad rank {parts[1]!r}")
            _check_rank(n, f"line {lineno}: ")
            # off-diagonal pairs default to 2 unless listed
            rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
            continue
        if len(parts) != 3:
            raise InputError(f"line {lineno}: expected 'i j m'")
        try:
            i, j, m = (int(x) for x in parts)
        except ValueError:
            raise InputError(f"line {lineno}: entries must be integers")
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise InputError(f"line {lineno}: bad pair ({i},{j})")
        m = _decode(m, f"line {lineno}")
        first, first_line = listed.setdefault((min(i, j), max(i, j)),
                                              (m, lineno))
        if first != m:
            raise InputError(f"line {lineno}: pair ({i},{j}) conflicts with "
                             f"line {first_line}")
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = m
    if rows is None:
        raise InputError("empty matrix document")
    return CoxeterMatrix(rows)


def parse_matrix(text):
    """Parse a matrix document: JSON object or 'rank n' line format."""
    stripped = text.lstrip()
    if not stripped:
        raise InputError("empty matrix document")
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise InputError(f"bad JSON: {e}") from None
        return _from_json_dict(data)
    return _from_lines(text)


# ---------------------------------------------------------------------------
# diagram components and the finite classification


@dataclass(frozen=True)
class DiagramComponent:
    vertices: tuple
    kind: str  # finite-type tag, or "infinite"

    @property
    def finite(self):
        return self.kind != "infinite"


def components(matrix):
    """Connected components of the diagram (edges where m_ij >= 3)."""
    n = matrix.rank
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp, stack = [], [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if not seen[w] and v != w and matrix.orders[v][w] >= 3:
                    seen[w] = True
                    stack.append(w)
        comp = tuple(sorted(comp))
        out.append(DiagramComponent(comp, _component_kind(matrix, comp)))
    return out


def is_indecomposable(matrix):
    return len(components(matrix)) == 1


def is_infinite_indecomposable(matrix):
    comps = components(matrix)
    return len(comps) == 1 and not comps[0].finite


def _component_kind(matrix, verts):
    n = len(verts)
    if n == 1:
        return "A1"
    edges = [(a, b, matrix.orders[a][b])
             for a, b in combinations(verts, 2) if matrix.orders[a][b] >= 3]
    if n == 2:
        m = edges[0][2]
        if m == INFINITY:
            return "infinite"
        if m == 3:
            return "A2"
        if m == 4:
            return "B2"
        return f"I2({m})"
    if len(edges) != n - 1:
        return "infinite"  # a connected graph with a cycle
    deg = {v: 0 for v in verts}
    adj = {v: [] for v in verts}
    for a, b, m in edges:
        deg[a] += 1
        deg[b] += 1
        adj[a].append((b, m))
        adj[b].append((a, m))
    if max(deg.values()) >= 4:
        return "infinite"
    branch = [v for v in verts if deg[v] == 3]
    if len(branch) >= 2:
        return "infinite"
    if branch:
        if any(m != 3 for _, _, m in edges):
            return "infinite"
        arms = sorted(_arm_lengths(adj, branch[0]))
        if arms[0] == 1 and arms[1] == 1:
            return f"D{n}"
        if arms == [1, 2, 2]:
            return "E6"
        if arms == [1, 2, 3]:
            return "E7"
        if arms == [1, 2, 4]:
            return "E8"
        return "infinite"
    # path: read edge labels end to end
    label_seq = _path_labels(adj, deg)
    special = [(p, m) for p, m in enumerate(label_seq) if m != 3]
    if not special:
        return f"A{n}"
    if len(special) > 1:
        return "infinite"
    pos, m = special[0]
    at_end = pos in (0, n - 2)
    if m == 4:
        if at_end:
            return f"B{n}"
        if n == 4:
            return "F4"
        return "infinite"
    if m == 5 and at_end:
        if n == 3:
            return "H3"
        if n == 4:
            return "H4"
    return "infinite"


def _arm_lengths(adj, center):
    out = []
    for start, _ in adj[center]:
        length, prev, cur = 1, center, start
        while True:
            nxt = [w for w, _ in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        out.append(length)
    return out


def _path_labels(adj, deg):
    ends = [v for v, d in deg.items() if d == 1]
    prev, cur = None, min(ends)
    labels = []
    while True:
        step = [(w, m) for w, m in adj[cur] if w != prev]
        if not step:
            break
        nxt, m = step[0]
        labels.append(m)
        prev, cur = cur, nxt
    return labels


def is_finite(matrix):
    """Whether the group is finite (every component of finite type)."""
    return all(c.finite for c in components(matrix))


# ---------------------------------------------------------------------------
# nerve


class Nerve:
    """Simplicial complex of the nonempty spherical subsets of S."""

    __slots__ = ("vertices", "simplices")

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        self.simplices = frozenset(frozenset(t) for t in simplices)

    def edges(self):
        return sorted(tuple(sorted(t)) for t in self.simplices if len(t) == 2)

    def f_vector(self):
        top = max((len(t) for t in self.simplices), default=0)
        return tuple(sum(1 for t in self.simplices if len(t) == k)
                     for k in range(1, top + 1))

    def __contains__(self, subset):
        return frozenset(subset) in self.simplices

    def __eq__(self, other):
        return (isinstance(other, Nerve) and other.vertices == self.vertices
                and other.simplices == self.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        return f"Nerve({len(self.vertices)} vertices, f={self.f_vector()})"


def spherical_subsets(matrix):
    """The nonempty subsets T of S whose standard subgroup is finite, as
    sorted tuples, by size and then lexicographically.  A subset of a
    spherical set is spherical, so each one grows from its least letters
    by one greater letter: only extensions of spherical sets are tested.
    There may be 2^rank - 2 of them (affine type A), so BudgetError past
    rank 16."""
    if matrix.rank > _NERVE_RANK_CAP:
        raise BudgetError(f"nerve enumeration capped at rank {_NERVE_RANK_CAP}")
    level = [(s,) for s in range(matrix.rank)]
    found = []
    while level:
        found += level
        level = [t + (a,) for t in level
                 for a in range(t[-1] + 1, matrix.rank)
                 if is_finite(matrix.restrict(t + (a,)))]
    return found


def nerve(matrix):
    """All nonempty subsets T of S whose standard subgroup is finite."""
    return Nerve(range(matrix.rank), spherical_subsets(matrix))
