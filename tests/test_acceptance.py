"""Acceptance suite: one test per criterion, in order, each printing a
pass/fail line.  Censuses are shared through the session-scoped lab
fixture; every expected value here is either structural, derived by an
independent oracle in this file, or frozen after cross-verification
(coset enumeration for subgroup indices).

Criterion 1 asserts the complete list of proper equal-rank subgroup
classes of the (2,3,oo) triangle group at chamber budget 6: exactly
four, with indices 2, 3, 4, 6 and signatures (3,3,oo), (2,oo,oo),
(3,oo,oo), (oo,oo,oo).  Two oracles back it inside test_c01: a
Todd-Coxeter coset enumeration re-derives each index from the
presentation, and the exact Gauss-Bonnet area ratio over triangles with
angles pi/m, m in {2, 3, oo}, re-derives the whole list and shows that
budget 6 already covers the largest index.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from coxlab.algebraic import SIGN_STATS
from coxlab.davis import (check_andreev, is_acute_angled,
                          is_coxeter_polytope, stacan_pairs,
                          verify_facet_bound)
from coxlab.matrices import INFINITY, nerve
from coxlab.subgroups import (analyze, canonical_generators, comm_condition,
                              fundamental_polytope, nerve_deletion_check,
                              search_equal_rank_subgroups,
                              verify_rank_theorem)
from coxlab.words import root_span_rank

from conftest import MATRICES
from oracles import check_stacan, coset_index_23inf, element_count

OO = INFINITY


def _line(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}{' -- ' + detail if detail else ''}")
    return ok


def _gauss_bonnet_classes():
    """Signature -> index for every hyperbolic triangle whose angles are
    pi/m with m in {2, 3, oo}: the possible fundamental triangles of an
    equal-rank subgroup of (2,3,oo), whose corners sit at vertices of the
    (2,3,oo) tessellation.  The index is the exact area ratio
    (pi - sum pi/m) / (pi/6) = 6 * (1 - sum 1/m), with 1/oo = 0."""
    classes = {}
    for sig in combinations_with_replacement((2, 3, OO), 3):
        defect = 1 - sum(Fraction(0) if m == OO else Fraction(1, m)
                         for m in sig)
        if defect > 0:
            classes[sig] = 6 * defect
    return classes


def test_c01_equal_rank_search_as_specified(lab):
    budget = 6
    t0 = time.monotonic()
    group = lab.group("t23inf")
    subs = search_equal_rank_subgroups(group, budget,
                                       census=lab.census("t23inf", budget))
    proper = [s for s in subs if s.index > 1]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0

    # the complete list of proper classes, each with its signature and
    # nerve edge count
    expected = [(2, (3, 3, OO), 2), (3, (2, OO, OO), 1),
                (4, (3, OO, OO), 1), (6, (OO, OO, OO), 0)]
    found = [(s.index, s.induced.signature()) for s in proper]
    assert found == [(idx, sig) for idx, sig, _ in expected]
    for sub, (_, _, edges) in zip(proper, expected):
        assert len(nerve(sub.induced).edges()) == edges

    # independent re-verification of every found index by coset
    # enumeration over the presentation
    for sub in proper:
        assert coset_index_23inf(sub.generators) == sub.index

    # independent of the census: Gauss-Bonnet gives every possible class
    # and its index, and the largest index fits the budget, so the search
    # at this budget is complete
    areas = _gauss_bonnet_classes()
    for sub in proper:
        assert sub.index == areas[sub.induced.signature()]
    assert found == sorted((idx, sig) for sig, idx in areas.items()
                           if idx > 1)
    assert max(areas.values()) <= budget

    _line(f"c01 equal-rank search on (2,3,oo), budget {budget}", True,
          f"proper classes found: {[idx for idx, _ in found]}")


def test_c02_decomposable_counterexample(lab):
    group = lab.group("remark")
    gens = canonical_generators(
        group, [group.generator_wall(0), group.generator_wall(1)])
    poly, index = fundamental_polytope(group, gens, 8)
    assert index == 2
    assert len(gens) == 2 < group.rank
    report = verify_rank_theorem(group, analyze(group, gens, 8))
    assert report == {"applicable": False, "status": "skipped-precondition"}
    _line("c02 decomposable matrix: index-2 subgroup of rank 2 < 3, "
          "rank suite skips", True)
    assert True


CENSUS_MATRICES = ("t23inf", "a2aff", "t244", "t236", "t237")


def test_c03_facet_bound_censuses(lab):
    t0 = time.monotonic()
    mins = {}
    for name in CENSUS_MATRICES:
        group = lab.group(name)
        report = verify_facet_bound(group, 8, census=lab.census(name, 8))
        assert report["applicable"], name
        assert report["bound_ok"], (name, report)
        mins[name] = report["min_facets"]
    elapsed = time.monotonic() - t0
    ok = all(v == 3 for v in mins.values()) and elapsed < 600.0
    _line("c03 facet bound over five censuses (K=8)", ok,
          f"min facets {mins}, {elapsed:.1f}s")
    assert ok


def test_c04_rank_bound_for_discovered_subgroups(lab):
    # every Coxeter polytope in every census is the fundamental domain
    # of a finite-index reflection subgroup: its canonical generators
    # must number at least rank and their roots must span everything
    checked = 0
    for name in CENSUS_MATRICES + ("a1aff",):
        group = lab.group(name)
        for p in lab.census(name, 6):
            if not is_coxeter_polytope(group, p):
                continue
            gens = canonical_generators(group, p.facet_walls)
            assert len(gens) >= group.rank, (name, p)
            assert root_span_rank(group, gens) == group.rank, (name, p)
            checked += 1
    _line("c04 rank bound and root span for discovered subgroups", True,
          f"{checked} fundamental domains checked")
    assert checked > 0


def test_c05_andreev_over_acute_census(lab):
    total = 0
    violations = 0
    for name in CENSUS_MATRICES:
        group = lab.group(name)
        for p in lab.census(name, 8):
            if not is_acute_angled(group, p):
                continue
            total += 1
            violations += len(check_andreev(group, p))
    ok = violations == 0 and total > 0
    _line("c05 disjoint facets have disjoint walls (acute census)", ok,
          f"{total} acute polytopes, {violations} violations")
    assert ok


def test_c06_glued_unions_convex(lab):
    counts = {}
    for name in ("t244", "a2aff"):
        group = lab.group(name)
        n = 0
        for p1, p2, wall in stacan_pairs(group, 6):
            assert check_stacan(group, p1, p2) is True, (name, p1, p2)
            n += 1
        counts[name] = n
    ok = all(n > 0 for n in counts.values())
    _line("c06 unions of glued acute-facet pairs are convex", ok,
          f"pairs checked {counts}")
    assert ok


def test_c07_nerve_deletion_for_equal_rank_subgroups(lab):
    checked = 0
    for name in ("t23inf", "a1aff", "a2aff"):
        group = lab.group(name)
        subs = search_equal_rank_subgroups(group, 6,
                                           census=lab.census(name, 6))
        assert any(s.index > 1 for s in subs), name
        for sub in subs:
            ok, witness = nerve_deletion_check(group, sub.generators,
                                               sub.induced)
            assert ok and witness is not None, (name, sub)
            checked += 1
    _line("c07 nerve deletion holds for every equal-rank subgroup", True,
          f"{checked} subgroups checked")


def test_c08_commutation_conditions(lab):
    # a satisfied condition wherever a proper equal-rank subgroup exists
    witnessed = {}
    for name in ("t23inf", "a1aff", "a2aff", "t244", "t236"):
        group = lab.group(name)
        subs = search_equal_rank_subgroups(group, 6,
                                           census=lab.census(name, 6))
        if any(s.index > 1 for s in subs):
            label = comm_condition(group.matrix)["label"]
            assert label != "none", name
            witnessed[name] = label
    assert witnessed

    assert comm_condition(MATRICES["univ3"])["label"] == "none"
    univ = lab.group("univ3")
    subs = search_equal_rank_subgroups(univ, 6,
                                       census=lab.census("univ3", 6))
    assert all(s.index == 1 for s in subs)

    # (2,5,5): both conditions hold, yet the bounded search finds no
    # proper equal-rank subgroup (necessary, not sufficient)
    assert comm_condition(MATRICES["t255"])["label"] == "both"
    t255 = lab.group("t255")
    subs = search_equal_rank_subgroups(t255, 8,
                                       census=lab.census("t255", 8))
    assert all(s.index == 1 for s in subs)
    _line("c08 commutation conditions necessary, not sufficient", True,
          f"witnessed {witnessed}; (2,5,5) both yet none found (budget 8)")


def test_c09_word_problem_oracle(lab):
    counts = {}
    for name, expected in (("i23", 6), ("a3", 24), ("h3", 120)):
        counts[name] = element_count(lab.group(name), cap=1000)
        assert counts[name] == expected
    rng = random.Random(20260808)
    fuzzed = 0
    for name in ("i23", "a3", "h3", "t23inf", "a2aff", "t255"):
        group = lab.group(name)
        m = group.matrix
        relators = [
            [i, j] * m.order(i, j)
            for i, j in combinations(range(m.rank), 2)
            if m.order(i, j) != INFINITY
        ]
        relators += [[i, i] for i in range(m.rank)]
        for rel in relators:
            assert group.normal_form(rel) == group.identity(), (name, rel)
        for _ in range(1000):
            word = [rng.randrange(m.rank) for _ in range(rng.randrange(11))]
            rel = relators[rng.randrange(len(relators))]
            pos = rng.randint(0, len(word))
            spliced = word[:pos] + rel + word[pos:]
            assert group.normal_form(spliced) == group.normal_form(word)
            fuzzed += 1
    _line("c09 word-problem oracle", True,
          f"orders {counts}; {fuzzed} relator insertions absorbed")


def test_c10_exactness_audit():
    # runs last: audits every sign decision taken during the whole
    # pytest session (the counters are global)
    ok = SIGN_STATS.float_fallbacks == 0 and SIGN_STATS.decisions > 0
    _line("c10 exact arithmetic audit", ok,
          f"{SIGN_STATS.decisions} sign decisions, "
          f"{SIGN_STATS.refinements} interval refinements, "
          f"{SIGN_STATS.float_fallbacks} float fallbacks")
    assert ok
