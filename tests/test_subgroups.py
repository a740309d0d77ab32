import random

import pytest

from coxlab.davis import enumerate_convex_polytopes, is_coxeter_polytope
from coxlab.errors import BudgetError, InputError, PreconditionError
from coxlab.matrices import INFINITY, nerve
from coxlab.subgroups import (analyze, canonical_generators, comm_condition,
                              fundamental_polytope, induced_matrix,
                              nerve_deletion_check,
                              search_equal_rank_subgroups, subgroup_report,
                              verify_rank_theorem)
from coxlab.words import CoxeterGroup, root_span_rank

from conftest import CYCLE4, MATRICES
from oracles import (contains_reflection, contains_reflection_checked,
                     contains_reflection_enumerative, coset_index_23inf,
                     fundamental_polytope_by_membership,
                     index_two_by_commutation, search_equal_rank_by_descent,
                     subgroup_reflections_bounded)


@pytest.fixture(scope="module")
def t23inf():
    return CoxeterGroup(MATRICES["t23inf"])


@pytest.fixture(scope="module")
def a1aff():
    return CoxeterGroup(MATRICES["a1aff"])


def _wall(group, word):
    w = group.as_reflection(group.normal_form(word))
    assert w is not None
    return w


def _index2_gens(group):
    return [_wall(group, (1,)), _wall(group, (2,)), _wall(group, (0, 2, 0))]


def test_canonical_descent_collapses(a1aff):
    walls = [_wall(a1aff, (0,)), _wall(a1aff, (1,)),
             _wall(a1aff, (0, 1, 0))]
    gens = canonical_generators(a1aff, walls)
    assert [g.reflection.word for g in gens] == [(0,), (1,)]


def test_canonical_descent_fixed_point(a1aff, t23inf):
    walls = [_wall(a1aff, (0,)), _wall(a1aff, (1, 0, 1))]
    gens = canonical_generators(a1aff, walls)
    assert [g.reflection.word for g in gens] == [(0,), (1, 0, 1)]
    gens = canonical_generators(t23inf, [_wall(t23inf, (0,))])
    assert [g.reflection.word for g in gens] == [(0,)]
    with pytest.raises(InputError):
        canonical_generators(t23inf, [])


def test_contains_reflection_examples(t23inf):
    gens = _index2_gens(t23inf)
    # s1 s2 s1 collapses to s2 (the orders commute), which is a generator
    assert t23inf.normal_form((0, 1, 0)).word == (1,)
    assert contains_reflection(t23inf, gens, _wall(t23inf, (1,)))
    assert not contains_reflection(t23inf, gens, _wall(t23inf, (0,)))
    assert contains_reflection(t23inf, gens, _wall(t23inf, (0,)),) is False
    single = canonical_generators(t23inf, [_wall(t23inf, (0,))])
    assert contains_reflection(t23inf, single, _wall(t23inf, (0,)))


def test_descent_preserves_subgroup(t23inf, a1aff):
    # mutual membership: the canonical set and the input set generate
    # the same subgroup
    cases = [
        (t23inf, [(1, 2, 1), (2,), (0, 2, 0)]),
        (t23inf, [(1,), (2,), (0, 2, 0)]),
        (a1aff, [(0,), (1,), (0, 1, 0)]),
    ]
    for group, words in cases:
        walls = [_wall(group, w) for w in words]
        gens = canonical_generators(group, walls)
        for w in walls:
            assert contains_reflection_checked(group, gens, w, slack=4)
        # reverse direction against the raw input set: the descent
        # method needs a canonical set, so only the enumerative side
        # applies here
        for g in gens:
            assert contains_reflection_enumerative(group, tuple(walls), g,
                                                   slack=6)


def test_contains_reflection_dual_route(t23inf, a1aff):
    gens = _index2_gens(t23inf)
    for w in t23inf.enumerate_reflections(5):
        contains_reflection_checked(t23inf, gens, w, slack=2)
    gens2 = canonical_generators(
        a1aff, [_wall(a1aff, (0,)), _wall(a1aff, (1, 0, 1))])
    for w in a1aff.enumerate_reflections(7):
        contains_reflection_checked(a1aff, gens2, w, slack=2)


def test_fundamental_polytope_index_two(t23inf):
    gens = canonical_generators(t23inf, _index2_gens(t23inf))
    poly, index = fundamental_polytope(t23inf, gens, 10)
    assert index == 2
    assert {c.word for c in poly.chambers} == {(), (0,)}
    m = induced_matrix(t23inf, gens)
    assert m.signature() == (3, 3, INFINITY)
    assert is_coxeter_polytope(t23inf, poly)
    # facet walls of the domain are exactly the canonical generators
    assert {w.reflection.word for w in poly.facet_walls} == \
        {g.reflection.word for g in gens}


def test_fundamental_polytope_trivial_and_budget(t23inf, a1aff):
    gens = canonical_generators(
        t23inf, [_wall(t23inf, (i,)) for i in range(3)])
    poly, index = fundamental_polytope(t23inf, gens, 4)
    assert index == 1 and len(poly.chambers) == 1
    with pytest.raises(BudgetError):
        fundamental_polytope(
            a1aff, canonical_generators(a1aff, [_wall(a1aff, (0,))]), 8)


def test_analyze_budget_is_reported(a1aff):
    sub = analyze(a1aff, [_wall(a1aff, (0,))], 8)
    assert sub.index is None and sub.polytope is None
    rep = subgroup_report(a1aff, sub)
    assert rep["index"] == ">budget"


def test_fundamental_polytope_matches_membership_oracle(lab):
    # the domain cut out by the canonical walls is the domain the
    # mirror-blocked search finds, and analyze canonicalizes raw input
    rng = random.Random(9)
    cases = []
    groups = [lab.group(n) for n in ("t237", "t23inf", "univ3", "a2aff")]
    for group in groups + [CoxeterGroup(CYCLE4)]:
        refl = group.enumerate_reflections(7)
        for budget in (12, 24):
            cases += [(group, rng.sample(refl, 3), budget) for _ in range(6)]
    for name in ("t23inf", "t244"):
        group = lab.group(name)
        for sub in search_equal_rank_subgroups(group, 6,
                                               census=lab.census(name, 6)):
            cases.append((group, list(sub.generators), 12))
    finite = 0
    for group, walls, budget in cases:
        sub = analyze(group, walls, budget)
        gens = canonical_generators(group, walls)
        try:
            poly, index = fundamental_polytope_by_membership(group, gens,
                                                             budget)
        except BudgetError:
            assert sub.index is None and sub.polytope is None, walls
            continue
        finite += 1
        assert sub.index == index, walls
        assert sub.polytope.chambers == poly.chambers, walls
        assert sub.polytope.facet_walls == poly.facet_walls, walls
    assert 0 < finite < len(cases)


def test_affine_line_index_two(a1aff):
    gens = canonical_generators(
        a1aff, [_wall(a1aff, (0,)), _wall(a1aff, (1, 0, 1))])
    poly, index = fundamental_polytope(a1aff, gens, 10)
    assert index == 2
    assert {c.word for c in poly.chambers} == {(), (1,)}
    assert induced_matrix(a1aff, gens).signature() == (INFINITY,)


def test_induced_matrix_restriction(t23inf):
    gens = canonical_generators(
        t23inf, [_wall(t23inf, (0,)), _wall(t23inf, (1,))])
    m = induced_matrix(t23inf, gens)
    assert m.orders == ((1, 2), (2, 1))


def test_verify_rank_theorem_pass_and_skip(t23inf, a1aff):
    rep = verify_rank_theorem(t23inf, analyze(t23inf, _index2_gens(t23inf),
                                              10))
    assert rep["status"] == "pass"
    assert rep["generators"] == 3 and rep["span"] == 3
    group = CoxeterGroup(MATRICES["remark"])
    rep = verify_rank_theorem(
        group, analyze(group, [_wall(group, (0,)), _wall(group, (1,))], 10))
    assert rep == {"applicable": False, "status": "skipped-precondition"}
    rep = verify_rank_theorem(a1aff, analyze(a1aff, [_wall(a1aff, (0,))], 8))
    assert rep == {"applicable": True, "status": "budget", "index": None}


def test_nerve_deletion_examples(t23inf):
    gens = canonical_generators(t23inf, _index2_gens(t23inf))
    ok, witness = nerve_deletion_check(t23inf, gens)
    assert ok and witness is not None
    with pytest.raises(PreconditionError):
        nerve_deletion_check(t23inf, gens[:2])


def test_comm_condition_cases():
    assert comm_condition(MATRICES["t23inf"])["label"] == "both"
    assert comm_condition(MATRICES["univ3"])["label"] == "none"
    assert comm_condition(MATRICES["t255"])["label"] == "both"
    assert comm_condition(MATRICES["a2aff"])["label"] == "holds_via_2"
    assert comm_condition(MATRICES["a1aff"])["label"] == "holds_via_1"
    cc = comm_condition(MATRICES["t23inf"])
    assert cc["condition1"] == 0 and cc["condition2"] == 1


def test_index_two_by_commutation():
    for name in ("t23inf", "a1aff", "t244", "t236", "remark"):
        group = CoxeterGroup(MATRICES[name])
        walls = index_two_by_commutation(group)
        assert walls is not None, name
        gens = canonical_generators(group, walls)
        assert {w.reflection.word for w in gens} == \
            {w.reflection.word for w in walls}
        poly, index = fundamental_polytope(group, gens, 8)
        assert index == 2, name
    # odd exponent on the non-commuting pair: construction unavailable
    assert index_two_by_commutation(CoxeterGroup(MATRICES["t255"])) is None
    assert index_two_by_commutation(CoxeterGroup(MATRICES["h3"])) is None


def test_search_budget_one(t23inf):
    subs = search_equal_rank_subgroups(t23inf, 1)
    assert len(subs) == 1 and subs[0].index == 1


def test_search_equal_rank_ground_truth(t23inf, lab):
    # Every class this census finds, with its index re-verified by an
    # independent Todd-Coxeter coset enumeration over the presentation.
    subs = search_equal_rank_subgroups(t23inf, 6,
                                       census=lab.census("t23inf", 6))
    got = [(s.index, s.induced.signature()) for s in subs]
    assert got == [
        (1, (2, 3, INFINITY)),
        (2, (3, 3, INFINITY)),
        (3, (2, INFINITY, INFINITY)),
        (4, (3, INFINITY, INFINITY)),
        (6, (INFINITY, INFINITY, INFINITY)),
    ]
    for sub in subs:
        assert coset_index_23inf(sub.generators) == sub.index, sub


def test_search_finds_fundamental_domains(t23inf, lab):
    for sub in search_equal_rank_subgroups(t23inf, 6,
                                           census=lab.census("t23inf", 6)):
        poly, index = fundamental_polytope(t23inf, sub.generators, 10)
        assert index == sub.index
        assert poly.chambers == sub.polytope.chambers
        assert {w.reflection.word for w in poly.facet_walls} == \
            {g.reflection.word for g in sub.generators}
        assert is_coxeter_polytope(t23inf, poly)


def test_search_equal_rank_matches_descent(lab):
    # reading the generators off the facet walls finds the classes the
    # canonical-generator descent found, and on every Coxeter polytope
    # of the census the descent leaves the facet walls as they are
    def summary(subs):
        return [(s.index, s.induced.signature(), s.generator_words(),
                 s.polytope.chambers) for s in subs]

    cycle4 = CoxeterGroup(CYCLE4)
    cases = [(lab.group(n), lab.census(n, 6))
             for n in ("t23inf", "a2aff", "t244", "t236", "t237", "univ3",
                       "remark")]
    cases.append((cycle4, list(enumerate_convex_polytopes(cycle4, 6))))
    checked = 0
    for group, census in cases:
        m = group.matrix
        assert summary(search_equal_rank_subgroups(group, 6, census)) == \
            summary(search_equal_rank_by_descent(group, 6, census)), m
        for p in census:
            walls = p.facet_walls
            if walls and is_coxeter_polytope(group, p):
                assert canonical_generators(group, walls) == walls, (m, p)
                checked += 1
    assert checked > 0


def test_index_multiplicativity_chain(t23inf, lab):
    # 6 = 3 * 2 along a chain: the index-3 subgroup H (signature
    # (2,oo,oo)) has an index-2 equal-rank subgroup of its own; pushing
    # it through the embedding gives an index-6 subgroup of the big
    # group whose generators all lie in H.
    subs = {s.index: s for s in search_equal_rank_subgroups(
        t23inf, 6, census=lab.census("t23inf", 6))}
    h = subs[3]
    inner_group = CoxeterGroup(h.induced)
    inner = {s.index: s
             for s in search_equal_rank_subgroups(inner_group, 2)}
    assert 2 in inner
    assert inner[2].induced.signature() == (INFINITY, INFINITY, INFINITY)
    embed = [w.reflection.word for w in h.generators]
    pushed = []
    for wall in inner[2].generators:
        word = []
        for letter in wall.reflection.word:
            word.extend(embed[letter])
        pushed.append(_wall(t23inf, tuple(word)))
    sub = analyze(t23inf, pushed, 12)
    assert sub.index == 6
    assert sub.induced.signature() == (INFINITY, INFINITY, INFINITY)
    for wall in sub.generators:
        assert contains_reflection_checked(t23inf, h.generators, wall,
                                           slack=4)


def test_affine_equal_rank_structure(lab):
    # classical affine self-similarity: the (2,4,4) triangle tiles
    # itself under sqrt(2)-scalings (indices 2, 4, 8); the equilateral
    # triangle is two (2,3,6) triangles, and (2,3,6) rescales by
    # sqrt(3) and 2; the equilateral doubles at index 4
    def found(name):
        group = lab.group(name)
        subs = search_equal_rank_subgroups(group, 8,
                                           census=lab.census(name, 8))
        return [(s.index, s.induced.signature()) for s in subs]

    oo = INFINITY
    assert found("t244") == [(1, (2, 4, 4)), (2, (2, 4, 4)),
                             (4, (2, 4, 4)), (8, (2, 4, 4))]
    assert found("t236") == [(1, (2, 3, 6)), (2, (3, 3, 3)),
                             (3, (2, 3, 6)), (4, (2, 3, 6)),
                             (6, (3, 3, 3)), (8, (3, 3, 3))]
    assert found("a2aff") == [(1, (3, 3, 3)), (4, (3, 3, 3))]
    assert found("a1aff") == [(k, (oo,)) for k in range(1, 9)]


def test_full_group_generating_sets_span(t23inf):
    # a wall set whose reflection closure reaches every generator
    # generates the whole group, so its roots must span everything
    candidates = [
        [_wall(t23inf, (0,)), _wall(t23inf, (1,)), _wall(t23inf, (2,))],
        [_wall(t23inf, (0,)), _wall(t23inf, (1,)),
         _wall(t23inf, (1, 2, 1))],
    ]
    for walls in candidates:
        refs = subgroup_reflections_bounded(t23inf, walls, 6)
        assert root_span_rank(t23inf, walls) <= t23inf.rank
        if all((i,) in refs for i in range(t23inf.rank)):
            assert root_span_rank(t23inf, walls) == t23inf.rank


def test_subgroup_report_shape(t23inf):
    sub = analyze(t23inf, _index2_gens(t23inf), 10)
    rep = subgroup_report(t23inf, sub, theorems={"status": "pass"},
                          nerve_deletion=True)
    assert set(rep) == {"generators", "induced_m", "index", "polytope",
                        "nerve_deletion", "theorems"}
    assert rep["index"] == 2
    assert rep["induced_m"][0][0] == 1
