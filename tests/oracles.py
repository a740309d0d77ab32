"""Cross-check oracles for the tests, written against the public API.

``interval`` and ``hull_fixpoint`` are the geodesic-closure definition
of convexity: a chamber set is convex when it contains every chamber on
every geodesic between two of its members.  ``coset_index_23inf`` is a
Todd-Coxeter coset enumeration over the presentation of the (2,3,oo)
triangle group.
"""

from itertools import combinations


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
