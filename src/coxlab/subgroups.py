"""Reflection subgroups: canonical generators, induced Coxeter matrices,
and the rank/nerve/commutation checks.

The canonical generating set of a reflection subgroup is computed by
conjugation descent: while some pair allows t1 t2 t1 shorter than t2,
replace t2.  The fundamental polytope (``davis.fundamental_polytope``)
is what the base chamber reaches without crossing a canonical wall; its
chamber count is the subgroup index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .davis import (ChamberPolytope, enumerate_convex_polytopes,
                    fundamental_polytope, is_coxeter_polytope)
from .errors import (BudgetError, ConsistencyError, InputError,
                     PreconditionError)
from .matrices import (INFINITY, CoxeterMatrix, format_order,
                       is_infinite_indecomposable, nerve)
from .words import root_span_rank

_NERVE_PERM_CAP = 8


@dataclass
class ReflectionSubgroup:
    generators: tuple            # canonical Walls, sorted
    induced: CoxeterMatrix       # orders of pairwise products
    polytope: ChamberPolytope    # fundamental polytope, or None past budget
    index: int                   # chamber count, or None past budget

    def generator_words(self):
        return [w.reflection.display() for w in self.generators]

    def __repr__(self):
        sig = ",".join(map(format_order, self.induced.signature()))
        return f"ReflectionSubgroup(index={self.index}, signature=({sig}))"


def canonical_generators(group, walls):
    """Descent fixpoint: no pair t1, t2 with t1 t2 t1 shorter than t2.

    Generates the same subgroup as the input set.
    """
    walls = list(walls)
    if not walls:
        raise InputError("need at least one reflection")
    gens = {w.reflection.word: w for w in walls}
    guard = sum(len(k) for k in gens) + 8 * len(gens) + 8
    changed = True
    while changed:
        changed = False
        items = sorted(gens.values(), key=lambda w: w.sort_key)
        for t1 in items:
            for t2 in items:
                if t1 == t2:
                    continue
                conj = group.conjugate_wall(t1, t2)
                if len(conj.reflection.word) < len(t2.reflection.word):
                    del gens[t2.reflection.word]
                    gens[conj.reflection.word] = conj
                    changed = True
                    break
            if changed:
                break
        guard -= 1
        if guard < 0:
            raise ConsistencyError("canonical descent failed to terminate",
                                   [w.reflection.display() for w in walls])
    return tuple(sorted(gens.values(), key=lambda w: w.sort_key))


def induced_matrix(group, gens):
    """Coxeter matrix of the canonical set: pairwise product orders."""
    n = len(gens)
    rows = [[1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        m = group.order_of_product(gens[i], gens[j])
        rows[i][j] = rows[j][i] = m
    return CoxeterMatrix(rows,
                         labels=[t.reflection.display() for t in gens])


def analyze(group, walls, max_chambers):
    """Canonicalize a generating set and assemble the full subgroup record."""
    gens = canonical_generators(group, walls)
    induced = induced_matrix(group, gens)
    try:
        poly, index = fundamental_polytope(group, gens, max_chambers)
    except BudgetError:
        poly, index = None, None
    return ReflectionSubgroup(gens, induced, poly, index)


def verify_rank_theorem(group, sub):
    """Rank bound checks for one analyzed subgroup.

    For an infinite indecomposable system and a finite index: the
    canonical set has at least rank-many reflections, the fundamental
    polytope at least rank-many facets, and the canonical roots span the
    whole space.
    """
    if not is_infinite_indecomposable(group.matrix):
        return {"applicable": False, "status": "skipped-precondition"}
    if sub.index is None:
        return {"applicable": True, "status": "budget", "index": None}
    gens, poly = sub.generators, sub.polytope
    span = root_span_rank(group, gens)
    rank = group.rank
    out = {
        "applicable": True,
        "index": sub.index,
        "generators": len(gens),
        "rank_ok": len(gens) >= rank,
        "facets": poly.facet_count,
        "facet_ok": poly.facet_count >= rank,
        "span": span,
        "span_ok": span == rank,
    }
    out["status"] = ("pass" if out["rank_ok"] and out["facet_ok"]
                     and out["span_ok"] else "violation")
    return out


def nerve_deletion_check(group, gens, induced=None):
    """Search for a vertex bijection embedding the subgroup nerve into the
    group nerve (simplices map to simplices).  Returns (found, witness)."""
    n = group.rank
    if len(gens) != n:
        raise PreconditionError("nerve deletion check needs equal ranks")
    if n > _NERVE_PERM_CAP:
        raise BudgetError(f"bijection search capped at rank {_NERVE_PERM_CAP}")
    sub = nerve(induced if induced is not None
                else induced_matrix(group, gens))
    big = nerve(group.matrix)
    for perm in permutations(range(n)):
        if all(frozenset(perm[i] for i in t) in big.simplices
               for t in sub.simplices):
            return True, perm
    return False, None


def comm_condition(matrix):
    """Which of the two commutation patterns some generator satisfies:
    (1) commuting with all but exactly one other generator, or
    (2) finite product order with every other generator."""
    n = matrix.rank
    cond1 = None
    cond2 = None
    for s0 in range(n):
        others = [s for s in range(n) if s != s0]
        noncomm = [s for s in others if matrix.order(s0, s) != 2]
        if cond1 is None and len(noncomm) == 1:
            cond1 = s0
        if cond2 is None and all(matrix.order(s0, s) != INFINITY
                                 for s in others):
            cond2 = s0
    if cond1 is not None and cond2 is not None:
        label = "both"
    elif cond1 is not None:
        label = "holds_via_1"
    elif cond2 is not None:
        label = "holds_via_2"
    else:
        label = "none"
    return {"condition1": cond1, "condition2": cond2, "label": label}


def search_equal_rank_subgroups(group, max_chambers, census=None):
    """Scan the polytope census for Coxeter polytopes with exactly
    rank-many facets.

    A convex polytope whose angles are all pi/k is the fundamental
    domain of the group its facet reflections generate, so its facet
    walls are that group's canonical generators, already sorted, and its
    chamber count is the index.  Results are one representative per
    (index, induced signature) class; completeness holds only up to the
    chamber budget.  A precomputed census may be passed to avoid
    re-enumeration.
    """
    found = {}
    if census is None:
        census = enumerate_convex_polytopes(group, max_chambers)
    for p in census:
        # the cheap tests first: a census member builds its chamber set
        # and walls only when read
        if p.facet_count != group.rank or not is_coxeter_polytope(group, p):
            continue
        index = len(p.chambers)
        if index > max_chambers:
            continue
        gens = p.facet_walls
        induced = induced_matrix(group, gens)
        key = (index, induced.signature())
        if key not in found:
            found[key] = ReflectionSubgroup(gens, induced, p, index)
    return sorted(found.values(),
                  key=lambda r: (r.index, r.induced.signature()))


def subgroup_report(group, sub, theorems=None, nerve_deletion=None):
    """JSON-ready record for one subgroup."""
    return {
        "generators": sub.generator_words(),
        "induced_m": sub.induced.to_json_dict()["m"],
        "index": sub.index if sub.index is not None else ">budget",
        "polytope": ([c.display() for c in sub.polytope.sorted_chambers()]
                     if sub.polytope is not None else None),
        "nerve_deletion": nerve_deletion,
        "theorems": theorems,
    }
