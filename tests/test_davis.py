import random
from fractions import Fraction
from itertools import combinations

import pytest

from coxlab.davis import (angle_sites, as_polytope, census_record,
                          check_andreev, check_stacan, convex_hull,
                          decomposed_angles, enumerate_convex_polytopes,
                          facets_intersect, is_acute_angled, is_convex,
                          is_coxeter_polytope, side, stacan_pairs,
                          verify_facet_bound, walls_intersect)
from coxlab.errors import InputError, PreconditionError
from coxlab.matrices import INFINITY
from coxlab.words import CoxeterGroup

from conftest import MATRICES
from oracles import census_fixpoint, hull_fixpoint, interval


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
    assert [w.reflection.word for w, _ in p.facet_walls] == \
        [(0,), (1,), (2,)]
    assert all(sd == 1 for _, sd in p.facet_walls)


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
        for w, sd in p.facet_walls:
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
            for w2, sd2 in p.facet_walls:
                if w2 != w:
                    assert side(t23inf, w2, neighbor) == sd2


def test_no_facet_wall_separates(t23inf):
    for p in enumerate_convex_polytopes(t23inf, 5):
        for w, sd in p.facet_walls:
            assert {side(t23inf, w, c) for c in p.chambers} == {sd}


def test_angle_sites_single_chamber(a2aff):
    p = convex_hull(a2aff, [a2aff.identity()])
    sites = angle_sites(a2aff, p)
    assert len(sites) == 3
    assert all(z.j == 1 and z.m == 3 for z in sites)
    assert all(z.angle_fraction == Fraction(1, 3) for z in sites)
    assert all(len(z.boundary_walls) == 2 for z in sites)


def test_angle_sites_two_chambers(a2aff):
    p = convex_hull(a2aff, [a2aff.identity(), a2aff.generator(0)])
    sites = {z.pair: z for z in angle_sites(a2aff, p)}
    z = sites[(0, 1)]
    assert z.m == 3 and z.j == 2
    assert not is_coxeter_polytope(a2aff, p)  # 2 does not divide 3
    assert z in decomposed_angles(a2aff, p)


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


def test_angle_sites_cached_per_polytope():
    # a polytope computes its sites once: a census polytope of a group that
    # has also run the stacan search returns the same tuple on every call,
    # equal to the sites of an equal polytope built on a fresh group, and
    # the cache takes no part in polytope equality or hashing
    from coxlab.matrices import CoxeterMatrix
    cycle4 = CoxeterMatrix([[1, 3, 2, 3], [3, 1, 3, 2],
                            [2, 3, 1, 3], [3, 2, 3, 1]])
    matrices = [MATRICES[n] for n in ("t23inf", "t255", "univ3")]
    for m in matrices + [cycle4]:
        group = CoxeterGroup(m)
        census = list(enumerate_convex_polytopes(group, 5))
        for _ in stacan_pairs(group, 5, census=census):
            pass
        fresh = CoxeterGroup(m)
        for p in census:
            sites = angle_sites(group, p)
            assert isinstance(sites, tuple)
            assert all(m.order(*z.pair) == z.m for z in sites)
            assert angle_sites(group, p) is sites
            q = as_polytope(fresh, p.chambers)
            assert q == p and hash(q) == hash(p)
            assert angle_sites(fresh, q) == sites, (m, p)
            assert q == p and hash(q) == hash(p)
            assert census_record(group, p)["angles"] == \
                [{"m": z.m, "j": z.j} for z in sites]


def test_coxeter_polytope_example(t23inf):
    p = convex_hull(t23inf, [t23inf.identity(), t23inf.generator(0)])
    assert [w.reflection.word for w, _ in p.facet_walls] == \
        [(1,), (2,), (0, 2, 0)]
    sites = {(z.pair, z.j, z.m) for z in angle_sites(t23inf, p)}
    assert ((0, 1), 2, 2) in sites          # flat angle on the s2 wall
    assert is_coxeter_polytope(t23inf, p)
    assert not is_acute_angled(t23inf, p)


def test_single_chamber_predicates(t23inf):
    p = convex_hull(t23inf, [t23inf.identity()])
    assert is_coxeter_polytope(t23inf, p)
    assert is_acute_angled(t23inf, p)
    assert decomposed_angles(t23inf, p) == []


def test_walls_and_facets_intersect(t23inf, a1aff):
    w1, w2, w3 = (t23inf.generator_wall(i) for i in range(3))
    assert not walls_intersect(t23inf, w1, w3)
    assert walls_intersect(t23inf, w1, w2)
    p = convex_hull(t23inf, [t23inf.identity()])
    assert facets_intersect(t23inf, p, w1, w2)
    assert facets_intersect(t23inf, p, w2, w3)
    assert not facets_intersect(t23inf, p, w1, w3)
    # parallel walls in the infinite dihedral group
    t = a1aff.as_reflection(a1aff.normal_form([1, 0, 1]))
    assert not walls_intersect(a1aff, a1aff.generator_wall(0), t)


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
    a = [census_record(t23inf, p)
         for p in enumerate_convex_polytopes(t23inf, 4)]
    b = [census_record(t23inf, p)
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


def test_stacan_pairs_complete_against_bruteforce(a2aff):
    # every qualifying glued pair must be produced by the anchored
    # translate enumeration: brute-force over all translates of census
    # members placed anywhere in a ball and filtered through the same
    # precondition checks
    from coxlab.davis import _polytope_of
    total = 4
    got = {(p1.chambers, p2.chambers)
           for p1, p2, _ in stacan_pairs(a2aff, total)}
    census = list(enumerate_convex_polytopes(a2aff, total - 1))
    brute = set()
    for p1 in census:
        for c in census:
            if len(p1.chambers) + len(c.chambers) > total:
                continue
            for g in a2aff.ball(5):
                chambers = frozenset(a2aff.multiply(g, x)
                                     for x in c.chambers)
                if chambers & p1.chambers:
                    continue
                p2 = _polytope_of(a2aff, chambers)
                try:
                    assert check_stacan(a2aff, p1, p2) is True
                except PreconditionError:
                    continue
                brute.add((p1.chambers, p2.chambers))
    assert got == brute and brute


def test_rank_four_census_smoke():
    # affine A3 (a 4-cycle of order-3 edges): infinite, indecomposable,
    # facet bound must read 4
    from coxlab.matrices import CoxeterMatrix
    m = CoxeterMatrix([[1, 3, 2, 3], [3, 1, 3, 2],
                       [2, 3, 1, 3], [3, 2, 3, 1]])
    group = CoxeterGroup(m)
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
                satisfies = all(side(group, w, x) == sd
                                for w, sd in p.facet_walls)
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
    with pytest.raises(InputError):
        as_polytope(a2aff, bad)


def test_hull_and_census_match_fixpoint_oracle():
    # the inversion-set search against the geodesic-closure fixpoint it
    # replaced: the whole census, then hulls of random seeds, some of
    # which leave out the base chamber
    from coxlab.matrices import CoxeterMatrix
    cycle4 = CoxeterMatrix([[1, 3, 2, 3], [3, 1, 3, 2],
                            [2, 3, 1, 3], [3, 2, 3, 1]])
    matrices = [MATRICES[n] for n in ("t23inf", "a2aff", "t255", "univ3")]
    for k, m in enumerate(matrices + [cycle4]):
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
