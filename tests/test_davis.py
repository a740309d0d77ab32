import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from coxlab.davis import (_angle, angle_sites, census_line, check_andreev,
                          convex_hull, enumerate_convex_polytopes,
                          is_acute_angled, is_convex, is_coxeter_polytope,
                          side, stacan_pairs, verify_facet_bound)
from coxlab.errors import InputError, PreconditionError
from coxlab.matrices import INFINITY
from coxlab.words import CoxeterGroup, root_span_rank

from conftest import CYCLE4, MATRICES
from oracles import (acute_along, andreev_per_pair, angle_fraction,
                     angle_sites_cycle_walk, census_fixpoint, check_stacan,
                     facet_chambers, facet_side, facet_walls_by_count,
                     facets_intersect, facets_intersect_per_pair,
                     hull_fixpoint, interval, stacan_pairs_all_bases)


@pytest.fixture(scope="module")
def t23inf():
    return CoxeterGroup(MATRICES["t23inf"])


@pytest.fixture(scope="module")
def a1aff():
    return CoxeterGroup(MATRICES["a1aff"])


@pytest.fixture(scope="module")
def a2aff():
    return CoxeterGroup(MATRICES["a2aff"])


def test_side_examples(t23inf, a1aff):
    e = t23inf.identity()
    w1 = t23inf.generator_wall(0)
    assert side(t23inf, w1, e) == 1
    assert side(t23inf, w1, t23inf.generator(0)) == -1
    t = a1aff.as_reflection(a1aff.normal_form([0, 1, 0]))
    assert side(a1aff, t, a1aff.generator(0)) == 1
    assert side(a1aff, t, a1aff.normal_form([0, 1])) == -1


def test_side_flip_and_length_criterion(t23inf):
    rng = random.Random(9)
    walls = t23inf.enumerate_reflections(5)
    for _ in range(60):
        t = rng.choice(walls)
        g = t23inf.normal_form([rng.randrange(3)
                                for _ in range(rng.randrange(8))])
        s = side(t23inf, t, g)
        tg = t23inf.multiply(t.reflection, g)
        assert side(t23inf, t, tg) == -s
        assert (s == 1) == (tg.length > g.length)


def test_hull_of_single_chamber(t23inf):
    p = convex_hull(t23inf, [t23inf.identity()])
    assert p.chambers == frozenset({t23inf.identity()})
    assert [w.reflection.word for w in p.facet_walls] == \
        [(0,), (1,), (2,)]
    assert all(facet_side(t23inf, p, w) == 1 for w in p.facet_walls)


def test_hull_interval_example(a1aff):
    p = convex_hull(a1aff, [a1aff.identity(), a1aff.normal_form([0, 1])])
    assert {c.word for c in p.chambers} == {(), (0,), (0, 1)}


def test_hull_idempotent_and_monotone(t23inf):
    rng = random.Random(1)
    ball = t23inf.ball(4)
    for _ in range(20):
        seed = {rng.choice(ball) for _ in range(3)}
        p = convex_hull(t23inf, seed)
        assert seed <= p.chambers
        again = convex_hull(t23inf, p.chambers)
        assert again.chambers == p.chambers
    with pytest.raises(InputError):
        convex_hull(t23inf, [])


def _member_oracle(group, chambers, x):
    """x is in the hull iff every wall separating x from a fixed base
    chamber has some input chamber on x's side."""
    base = sorted(chambers, key=lambda e: e.sort_key)[0]
    u = group.multiply(group.inverse(base), x)
    g = base
    for s in u.word:
        wall = group.wall_between(g, s)
        sx = side(group, wall, x)
        if all(side(group, wall, c) != sx for c in chambers):
            return False
        g = group.step(g, s)
    return True


def test_hull_matches_separation_oracle():
    for name in ("t23inf", "a2aff"):
        group = CoxeterGroup(MATRICES[name])
        ball2 = group.ball(2)
        ball3 = group.ball(3)
        rng = random.Random(17)
        seeds = [set(c) for c in combinations(ball2[:7], 2)]
        seeds += [{rng.choice(ball2) for _ in range(3)} for _ in range(10)]
        for seed in seeds:
            seed.add(group.identity())
            hull = convex_hull(group, seed).chambers
            for x in ball3:
                assert (x in hull) == _member_oracle(group, seed, x), \
                    (name, sorted(c.display() for c in seed), x.display())


def test_facet_minimality(t23inf):
    # dropping any facet wall admits its panel neighbor, which satisfies
    # every other facet constraint
    for p in enumerate_convex_polytopes(t23inf, 4):
        for w in p.facet_walls:
            neighbor = None
            for g in p.sorted_chambers():
                for s in range(t23inf.rank):
                    x = t23inf.step(g, s)
                    if x not in p.chambers and \
                            t23inf.wall_between(g, s) == w:
                        neighbor = x
                        break
                if neighbor:
                    break
            assert neighbor is not None
            for w2 in p.facet_walls:
                if w2 != w:
                    assert side(t23inf, w2, neighbor) == \
                        facet_side(t23inf, p, w2)


def test_no_facet_wall_separates(t23inf):
    for p in enumerate_convex_polytopes(t23inf, 5):
        for w in p.facet_walls:
            assert len({side(t23inf, w, c) for c in p.chambers}) == 1


def test_angle_sites_single_chamber(a2aff):
    p = convex_hull(a2aff, [a2aff.identity()])
    sites = angle_sites(a2aff, p)
    assert len(sites) == 3
    assert all(z.j == 1 and z.m == 3 for z in sites)
    assert all(angle_fraction(z) == Fraction(1, 3) for z in sites)
    assert all(len(z.boundary_walls) == 2 for z in sites)


def test_angle_sites_two_chambers(a2aff):
    p = convex_hull(a2aff, [a2aff.identity(), a2aff.generator(0)])
    sites = {z.pair: z for z in angle_sites(a2aff, p)}
    z = sites[(0, 1)]
    assert z.m == 3 and z.j == 2
    assert not is_coxeter_polytope(a2aff, p)  # 2 does not divide 3
    assert z in [y for y in angle_sites(a2aff, p)
                 if not y.interior and y.j >= 2]


def test_angle_site_interior(a2aff):
    # the full rank-2 residue of a finite pair: 6 chambers, one interior site
    cyc = [a2aff.identity()]
    cur = a2aff.identity()
    for k in range(5):
        cur = a2aff.step(cur, 0 if k % 2 == 0 else 1)
        cyc.append(cur)
    p = convex_hull(a2aff, cyc)
    assert len(p.chambers) == 6
    inner = [z for z in angle_sites(a2aff, p) if z.pair == (0, 1)]
    assert len(inner) == 1 and inner[0].interior
    assert inner[0].boundary_walls == ()


def test_angle_sites_equal_on_every_call():
    # a census polytope of a group that has also run the stacan search
    # returns equal sites on every call, equal to the sites of an equal
    # polytope built on a fresh group, and reading them takes no part in
    # polytope equality or hashing
    matrices = [MATRICES[n] for n in ("t23inf", "t255", "univ3")]
    for m in matrices + [CYCLE4]:
        group = CoxeterGroup(m)
        census = list(enumerate_convex_polytopes(group, 5))
        for _ in stacan_pairs(group, 5, census=census):
            pass
        fresh = CoxeterGroup(m)
        for p in census:
            sites = angle_sites(group, p)
            assert isinstance(sites, tuple)
            assert all(m.order(*z.pair) == z.m for z in sites)
            assert angle_sites(group, p) == sites
            q = convex_hull(fresh, p.chambers)
            assert q == p and hash(q) == hash(p)
            assert angle_sites(fresh, q) == sites, (m, p)
            assert q == p and hash(q) == hash(p)
            assert json.loads(census_line(group, p)[0])["angles"] == \
                [{"m": z.m, "j": z.j} for z in sites]


def test_sites_and_facets_match_oracles():
    # sites walked out along each residue and facets read off boundary
    # panels against the cycle walk and the side count they replaced: the
    # K=6 census, with interior sites from the finite groups, and the
    # glued translates of the stacan search, which leave out the base
    # chamber
    interior = 0
    for m in [MATRICES[n] for n in ("t23inf", "t255", "univ3", "a2aff",
                                    "a3", "h3")] + [CYCLE4]:
        group = CoxeterGroup(m)
        census = list(enumerate_convex_polytopes(group, 6))
        p2s = [p2 for _, p2, _ in stacan_pairs(group, 5, census=census)]
        assert p2s and all(group.identity() not in p.chambers for p in p2s)
        for p in census + p2s:
            sites = angle_sites(group, p)
            assert sites == angle_sites_cycle_walk(group, p), (m, p)
            expect = facet_walls_by_count(group, p.chambers)
            assert [w.reflection for w in p.facet_walls] == \
                [w.reflection for w, _ in expect], (m, p)
            assert all(side(group, w, c) == sd for w, sd in expect
                       for c in p.chambers), (m, p)
            interior += sum(z.interior for z in sites)
    assert interior > 0


def test_coxeter_polytope_example(t23inf):
    p = convex_hull(t23inf, [t23inf.identity(), t23inf.generator(0)])
    assert [w.reflection.word for w in p.facet_walls] == \
        [(1,), (2,), (0, 2, 0)]
    sites = {(z.pair, z.j, z.m) for z in angle_sites(t23inf, p)}
    assert ((0, 1), 2, 2) in sites          # flat angle on the s2 wall
    assert is_coxeter_polytope(t23inf, p)
    assert not is_acute_angled(t23inf, p)


def test_single_chamber_predicates(t23inf):
    p = convex_hull(t23inf, [t23inf.identity()])
    assert is_coxeter_polytope(t23inf, p)
    assert is_acute_angled(t23inf, p)
    assert [z for z in angle_sites(t23inf, p)
            if not z.interior and z.j >= 2] == []


@pytest.mark.parametrize("m", sorted(
    set(range(2, 13)) | {d for d in range(1, 211) if 210 % d == 0} - {1}))
def test_site_table_matches_the_definitions(m):
    # angle j*pi/m: Coxeter when it is pi/n for an integer n, acute when at
    # most pi/2; an interior site (j = 2m) carries no angle and passes both
    for j in range(1, 2 * m + 1):
        text, coxeter, acute = _angle(m, j)
        assert text == json.dumps({"m": m, "j": j}, sort_keys=True)
        interior = Fraction(j, m) == 2
        assert coxeter == (interior or (1 / Fraction(j, m)).denominator == 1)
        assert acute == (interior or Fraction(j, m) <= Fraction(1, 2))
        assert _angle(m, j) is _angle(m, j)


def test_walls_and_facets_intersect(t23inf, a1aff):
    w1, w2, w3 = (t23inf.generator_wall(i) for i in range(3))
    assert t23inf.order_of_product(w1, w3) == INFINITY
    assert t23inf.order_of_product(w1, w2) == 2
    p = convex_hull(t23inf, [t23inf.identity()])
    assert facets_intersect(t23inf, p, w1, w2)
    assert facets_intersect(t23inf, p, w2, w3)
    assert not facets_intersect(t23inf, p, w1, w3)
    # parallel walls in the infinite dihedral group
    t = a1aff.as_reflection(a1aff.normal_form([1, 0, 1]))
    assert a1aff.order_of_product(a1aff.generator_wall(0), t) == INFINITY


def test_andreev_examples(t23inf):
    p = convex_hull(t23inf, [t23inf.identity()])
    assert check_andreev(t23inf, p) == []
    p2 = convex_hull(t23inf, [t23inf.identity(), t23inf.generator(0)])
    assert check_andreev(t23inf, p2) == []


def test_stacan_adjacent_chambers(a2aff):
    p1 = convex_hull(a2aff, [a2aff.identity()])
    p2 = convex_hull(a2aff, [a2aff.generator(0)])
    assert check_stacan(a2aff, p1, p2) is True


def test_stacan_preconditions(a2aff, t23inf):
    p1 = convex_hull(a2aff, [a2aff.identity()])
    with pytest.raises(PreconditionError):
        check_stacan(a2aff, p1, p1)  # shared chambers
    far = convex_hull(a2aff, [a2aff.normal_form([0, 1])])
    with pytest.raises(PreconditionError):
        check_stacan(a2aff, p1, far)  # no common facet
    # angle pi > pi/2 along the shared wall: precondition must trip
    p = convex_hull(t23inf, [t23inf.identity(), t23inf.generator(0)])
    q = convex_hull(
        t23inf, [t23inf.generator(1),
                 t23inf.normal_form([1, 0])])
    with pytest.raises(PreconditionError):
        check_stacan(t23inf, p, q)


def test_stacan_pairs_small_census(a2aff):
    count = 0
    for p1, p2, wall in stacan_pairs(a2aff, 4):
        count += 1
        assert check_stacan(a2aff, p1, p2) is True
    assert count > 0


def test_census_k1(t23inf):
    polys = list(enumerate_convex_polytopes(t23inf, 1))
    assert len(polys) == 1
    assert polys[0].facet_count == t23inf.rank


def test_census_facet_bound_small(t23inf):
    for p in enumerate_convex_polytopes(t23inf, 4):
        assert p.facet_count >= 3


def test_census_decomposable_two_facets():
    group = CoxeterGroup(MATRICES["remark"])
    found = None
    for p in enumerate_convex_polytopes(group, 2):
        if len(p.chambers) == 2 and p.facet_count == 2:
            found = p
    assert found is not None
    assert {c.word for c in found.chambers} == {(), (2,)}
    assert is_coxeter_polytope(group, found)
    report = verify_facet_bound(group, 2)
    assert not report["applicable"]
    assert report["min_facets"] == 2


def test_census_members_are_convex_and_contain_identity(a2aff):
    for p in enumerate_convex_polytopes(a2aff, 5):
        assert a2aff.identity() in p.chambers
        assert is_convex(a2aff, p.chambers)


def test_census_deterministic(t23inf):
    a = [census_line(t23inf, p)
         for p in enumerate_convex_polytopes(t23inf, 4)]
    b = [census_line(t23inf, p)
         for p in enumerate_convex_polytopes(t23inf, 4)]
    assert a == b


def test_verify_facet_bound_affine(a2aff):
    report = verify_facet_bound(a2aff, 6)
    assert report["applicable"]
    assert report["bound_ok"]
    assert report["min_facets"] == 3


def test_census_affine_line_exact(a1aff):
    # convex sets containing e in the infinite dihedral line are the
    # integer intervals through 0: sum over sizes 1..K of size, each
    # bounded by exactly two walls
    polys = list(enumerate_convex_polytopes(a1aff, 6))
    assert len(polys) == 21
    assert all(p.facet_count == 2 for p in polys)


def test_stacan_pairs_complete_against_bruteforce(a2aff, t23inf):
    # every qualifying glued pair must be produced by the anchored
    # translate enumeration: brute-force over all translates of census
    # members placed anywhere in a ball and filtered through the same
    # precondition checks
    from coxlab.davis import polytope_of
    total = 4
    for group in (a2aff, t23inf):
        got = {(p1.chambers, p2.chambers)
               for p1, p2, _ in stacan_pairs(group, total)}
        census = list(enumerate_convex_polytopes(group, total - 1))
        brute = set()
        for p1 in census:
            for c in census:
                if len(p1.chambers) + len(c.chambers) > total:
                    continue
                for g in group.ball(5):
                    chambers = frozenset(group.multiply(g, x)
                                         for x in c.chambers)
                    if chambers & p1.chambers:
                        continue
                    p2 = polytope_of(group, chambers)
                    try:
                        assert check_stacan(group, p1, p2) is True
                    except PreconditionError:
                        continue
                    brute.add((p1.chambers, p2.chambers))
        assert got == brute and brute, group.matrix


def test_stacan_pairs_match_all_bases_oracle():
    # one translate per census member yields the same (p1, p2, wall)
    # triples as anchoring every chamber of every member, each once
    for m in [MATRICES[n] for n in ("t23inf", "t255", "univ3", "a2aff")] \
            + [CYCLE4]:
        group = CoxeterGroup(m)
        census = list(enumerate_convex_polytopes(group, 4))
        got = [(p1.chambers, p2.chambers, wall.reflection)
               for p1, p2, wall in stacan_pairs(group, 5, census=census)]
        expect = {(p1.chambers, p2.chambers, wall.reflection)
                  for p1, p2, wall in stacan_pairs_all_bases(
                      group, 5, census=census)}
        assert len(got) == len(set(got)), m
        assert set(got) == expect and expect, m


def test_acute_facet_is_one_chamber(lab):
    # the lemma stacan_pairs rests on: a convex polytope acute along a
    # facet wall has exactly one chamber with a panel on it; facets of
    # more chambers occur, at non-acute walls only (none in univ3, which
    # has no finite rank-2 residue)
    cases = [(lab.group(n), lab.census(n, 7))
             for n in ("t23inf", "t244", "t255", "t236")]
    cases.append((lab.group("univ3"), lab.census("univ3", 6)))
    cycle4 = CoxeterGroup(CYCLE4)
    cases.append((cycle4, list(enumerate_convex_polytopes(cycle4, 6))))
    wide = 0
    for group, census in cases:
        acute = 0
        for p in census:
            for w in p.facet_walls:
                n = len(facet_chambers(group, p, w))
                if acute_along(group, p, w):
                    assert n == 1, (group.matrix, p, w)
                    acute += 1
                else:
                    wide += n > 1
        assert acute > 0, group.matrix
    assert wide > 0


def test_rank_four_census_smoke():
    # affine A3 (a 4-cycle of order-3 edges): infinite, indecomposable,
    # facet bound must read 4
    group = CoxeterGroup(CYCLE4)
    report = verify_facet_bound(group, 4)
    assert report["applicable"]
    assert report["bound_ok"] and report["min_facets"] == 4


def test_census_finite_dihedral_exact():
    # convex sets of the order-6 dihedral group containing e: the arcs
    # of 1, 2, 3 consecutive chambers (1 + 2 + 3 of them) plus the full
    # cycle; a half cycle is bounded by a single wall, the full cycle
    # by none
    group = CoxeterGroup(MATRICES["i23"])
    polys = list(enumerate_convex_polytopes(group, 6))
    assert len(polys) == 7
    by_size = {}
    for p in polys:
        by_size.setdefault(len(p.chambers), []).append(p.facet_count)
    assert by_size == {1: [2], 2: [2, 2], 3: [1, 1, 1], 6: [0]}


def test_interval_matches_bruteforce():
    for name in ("t23inf", "a2aff"):
        group = CoxeterGroup(MATRICES[name])
        ball = group.ball(5)
        rng = random.Random(23)
        for u in rng.sample(ball, 10):
            got = interval(group, u)
            expect = {
                v for v in ball
                if v.length + group.multiply(group.inverse(v), u).length
                == u.length
            }
            assert got == expect, (name, u.display())


def test_polytope_equals_halfspace_intersection():
    # within a ball comfortably containing each polytope, membership is
    # exactly "on the polytope side of every facet wall"
    for name in ("t23inf", "a2aff"):
        group = CoxeterGroup(MATRICES[name])
        ball = group.ball(6)
        for p in enumerate_convex_polytopes(group, 4):
            for x in ball:
                satisfies = all(side(group, w, x) == facet_side(group, p, w)
                                for w in p.facet_walls)
                assert satisfies == (x in p.chambers), \
                    (name, p, x.display())


def test_hull_budget_error(a1aff):
    from coxlab.errors import BudgetError
    far = a1aff.normal_form([0, 1] * 5)
    with pytest.raises(BudgetError):
        convex_hull(a1aff, [a1aff.identity(), far], max_chambers=3)


def test_as_polytope_rejects_nonconvex(a2aff):
    # two chambers of a rank-2 residue at gallery distance 2
    bad = [a2aff.identity(), a2aff.normal_form([0, 1])]
    assert not is_convex(a2aff, bad)
    assert convex_hull(a2aff, bad).chambers > frozenset(bad)


def test_hull_and_census_match_fixpoint_oracle():
    # the inversion-set search against the geodesic-closure fixpoint it
    # replaced: the whole census, then hulls of random seeds, some of
    # which leave out the base chamber
    matrices = [MATRICES[n] for n in ("t23inf", "a2aff", "t255", "univ3")]
    for k, m in enumerate(matrices + [CYCLE4]):
        group = CoxeterGroup(m)
        census = {p.chambers for p in enumerate_convex_polytopes(group, 5)}
        assert census == census_fixpoint(group, 5), m
        rng = random.Random(100 + k)
        ball = group.ball(3)
        seeds = [{rng.choice(ball) for _ in range(rng.randrange(1, 4))}
                 for _ in range(12)]
        seeds += [set(rng.sample(ball[1:], 2)) for _ in range(4)]
        assert any(group.identity() not in seed for seed in seeds)
        for seed in seeds:
            expect = hull_fixpoint(group, seed)
            assert convex_hull(group, seed).chambers == expect, \
                (m, sorted(c.display() for c in seed))
            assert is_convex(group, seed) == (expect == seed)


def test_check_andreev_matches_per_pair_oracle():
    # the residue root masks against the first, per-pair implementation
    # on conjugates, on every census polytope, acute or not
    matrices = [MATRICES[n] for n in ("t23inf", "t255", "univ3")]
    violations = 0
    for m in matrices + [CYCLE4]:
        group = CoxeterGroup(m)
        for p in enumerate_convex_polytopes(group, 6):
            got = check_andreev(group, p)
            assert got == andreev_per_pair(group, p), (m, p)
            violations += len(got)
            if len(p.chambers) == 6 and m.rank == 4:
                for a, b in combinations(p.facet_walls, 2):
                    assert facets_intersect(group, p, a, b) == \
                        facets_intersect_per_pair(group, p, a, b)
    assert violations > 0


def _stacan_outcome(group, p1, p2):
    try:
        return check_stacan(group, p1, p2)
    except PreconditionError as e:
        return str(e)


def test_walls_are_values_across_groups():
    # a wall built in one group is a value: another group of the same
    # matrix, warmed in another order so that its root ids differ, reads
    # the same sides, root, orders, conjugates, span and glued-pair
    # outcome from it as from its own wall of that panel
    for k, m in enumerate([MATRICES[n] for n in ("t23inf", "t255", "univ3")]
                          + [CYCLE4]):
        a, b = CoxeterGroup(m), CoxeterGroup(m)
        census = list(enumerate_convex_polytopes(a, 4))
        rng = random.Random(k)
        for _ in range(40):
            b.normal_form([rng.randrange(m.rank) for _ in range(9)])
        ball = a.ball(3)
        gens = [b.generator_wall(i) for i in range(m.rank)]
        for g in ball:
            for s in range(m.rank):
                wa, wb = a.wall_between(g, s), b.wall_between(g, s)
                assert wa == wb
                rid = b.panel_root(g, s)
                assert b.panel_root(*wa.witness) == rid
                assert b.panel_root(*wb.witness) == rid
                assert [side(b, wa, c) for c in ball] == \
                    [side(b, wb, c) for c in ball], (m, g, s)
                for u in gens:
                    if u != wa:
                        assert b.order_of_product(wa, u) == \
                            b.order_of_product(wb, u)
                    for x, y in ((b.conjugate_wall(wa, u),
                                  b.conjugate_wall(wb, u)),
                                 (b.conjugate_wall(u, wa),
                                  b.conjugate_wall(u, wb))):
                        assert x == y
                        assert b.panel_root(*x.witness) == \
                            b.panel_root(*y.witness)
                assert root_span_rank(b, [wa] + gens[1:]) == \
                    root_span_rank(b, [wb] + gens[1:])
        pairs = 0
        for p1, p2, _ in stacan_pairs(a, 5, census=census):
            q1, q2 = convex_hull(b, p1.chambers), convex_hull(b, p2.chambers)
            assert _stacan_outcome(b, p1, p2) == \
                _stacan_outcome(b, q1, q2) == check_stacan(a, p1, p2)
            pairs += 1
        assert pairs > 0, m
