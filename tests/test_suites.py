"""The stacan, andreev and facet-bound suites against the
implementations they replaced, kept in ``oracles``, and on the data they
decide: the same glued pairs in the same order and byte-identical report
entries from the partner index and the mask test of union convexity, the
mask test flag for flag against the hull on unions that are not convex
too, the same violations from the Andreev check on residue root masks as
from conjugates, no group product formed by it, nor a wall built but to
display a violation, and no order asked on a matrix with no finite
label; and the facet-bound suite's failure on a decomposable matrix."""

import json
import time
from itertools import combinations

import pytest

from coxlab import cli, davis
from coxlab.davis import (_mask_of, check_andreev, enumerate_convex_polytopes,
                          glued_translates, is_acute_angled, is_convex,
                          stacan_pairs, translate, union_is_convex)
from coxlab.matrices import INFINITY, CoxeterMatrix
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES, MATRICES
from oracles import (check_andreev_by_conjugates, glued_unions_wide,
                     stacan_entry_by_scan, stacan_pairs_by_scan)

# the verify workload's matrices at its budgets
CASES = [("t23oo", 7), ("t255", 7), ("t237", 7), ("t333", 7), ("cycle4", 6),
         ("tooo", 5)]
# and the one with rank-3 spherical residues of three types (H3,
# I2(5)xA1, A1xI2(7)), which the rank-2 residues alone do not decide
ANDREEV_CASES = CASES + [("n210", 5)]


def _census(name, k):
    group = CoxeterGroup(BENCH_MATRICES[name])
    return group, list(enumerate_convex_polytopes(group, k))


@pytest.mark.parametrize("name,k", CASES)
def test_stacan_matches_scan_oracle(name, k, monkeypatch):
    group, census = _census(name, k)
    got = [(p1.chambers, p2, wall)
           for p1, p2, wall in stacan_pairs(group, k, census=census)]
    expect = [(p1.chambers, p2, wall)
              for p1, p2, wall in stacan_pairs_by_scan(group, k, census)]
    assert got == expect and got
    run = cli._VerifyRun(group, k, census)
    # every union is convex, so a second pass with the suite's mask test
    # refusing every union compares the counterexamples too
    for convex in (is_convex, lambda *_: False):
        if convex is not is_convex:
            monkeypatch.setattr(davis, "union_is_convex", lambda *_: False)
        report = cli.VerificationReport("stacan", "", {})
        cli.suite_stacan(run, report)
        entry = stacan_entry_by_scan(group, k, census, convex)
        assert json.dumps(report.checks, sort_keys=True) == \
            json.dumps([entry], sort_keys=True)
        assert entry["status"] == ("bounded-pass" if convex is is_convex
                                   else "fail")


@pytest.mark.parametrize("name,k", CASES)
def test_union_mask_test_matches_hull_where_unions_are_not_convex(name, k):
    # every (P1, acute facet) with every member C that fits and does not
    # hold s, C obtuse along the wall of s too: the mask test of the
    # suite, on P1 walked into C's frame, against the hull of the union
    # (``is_convex``, which compares the union's mask with its hull).
    # The test is exact there as well: if a chamber x != e of C has a
    # panel on the wall of s, the gallery s y, y on a minimal gallery from
    # e to x, leaves P1's frame Q | C on a wall other than s's that
    # separates e from x, so a second wall is in both masks.
    group, census = _census(name, k)
    base = group.chamber_id(group.identity())
    flags = []
    for p1, (g, s), c, union in glued_unions_wide(group, k, census):
        across, root = group.adjacent(base)[s]
        _, n_q, b_q = translate(group, _mask_of(group, p1), across,
                                group.chamber_id(g))
        _, n_c, b_c = translate(group, _mask_of(group, c), base)
        convex = is_convex(group, union)
        assert union_is_convex(n_q, b_q, n_c, b_c, root) == convex, \
            (p1, g, s, c)
        flags.append(convex)
    assert True in flags
    # the matrices with a finite label have partners obtuse along a wall
    # of s, whose unions are not convex
    assert (False in flags) == bool(group.finite_pairs)


def test_stacan_budget_one_yields_nothing():
    # no pair fits in one chamber, with or without a census passed
    group, census = _census("t23oo", 3)
    for k in (1, 0):
        assert list(stacan_pairs(group, k)) == []
        assert list(stacan_pairs(group, k, census=census)) == []
        assert list(glued_translates(group, k)) == []


@pytest.mark.parametrize("name,k", ANDREEV_CASES)
def test_check_andreev_matches_conjugates_oracle(name, k):
    # every census member, acute or not
    group, census = _census(name, k)
    violations = 0
    for p in census:
        got = check_andreev(group, p)
        assert got == check_andreev_by_conjugates(group, p), (name, p)
        violations += len(got)
    # the obtuse members of the groups with no infinite label break the
    # guarantee, which is made for acute ones only
    assert (violations > 0) == (name in ("t255", "t237", "t333", "n210"))


def _affine_a(n):
    """The affine matrix of rank n: a cycle of n letters labelled 3."""
    return CoxeterMatrix([[1 if i == j else 3 if (i - j) % n in (1, n - 1)
                           else 2 for j in range(n)] for i in range(n)])


def test_andreev_at_high_rank_ends_quickly_or_reports_its_budget():
    # affine A~12 has 2^13 - 2 spherical subsets but 13 maximal ones, each
    # told by its one-letter extensions, so the base chamber, whose facet
    # pairs all have finite order, is checked in well under a second (a
    # scan of all pairs of spherical sets takes tens of seconds); past
    # rank 16 the spherical sets are not enumerated, and the suite reports
    # its budget
    start = time.perf_counter()
    checks = cli.run_verify(_affine_a(13), "andreev", 1).checks
    assert time.perf_counter() - start < 5
    assert [c["status"] for c in checks] == ["bounded-pass"]
    checks = cli.run_verify(_affine_a(17), "andreev", 1).checks
    assert [(c["status"], c["detail"]) for c in checks] == [
        ("budget", "nerve enumeration capped at rank 16")]


def _count_products(monkeypatch, group):
    calls = []
    for name in ("multiply", "inverse"):
        def counted(*args, _name=name, _method=getattr(group, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(group, name, counted)
    return calls


def test_andreev_forms_no_product_and_builds_walls_for_violations_only(
        monkeypatch):
    # the meeting test reads residue root masks on chamber ids: no group
    # product is formed on either census; in (oo,oo,oo) every product of
    # two walls has infinite order and no wall is built, and in (2,5,5)
    # the acute members report nothing and build no wall either, while
    # the obtuse ones build walls to display their violations
    group, census = _census("tooo", 5)
    calls = _count_products(monkeypatch, group)
    assert all(check_andreev(group, p) == [] for p in census)
    assert calls == [] and group._wall_memo == {}
    group, census = _census("t255", 5)
    calls = _count_products(monkeypatch, group)
    acute = [p for p in census if is_acute_angled(group, p)]
    assert acute and all(check_andreev(group, p) == [] for p in acute)
    assert group._wall_memo == {}
    assert sum(len(check_andreev(group, p)) for p in census) > 0
    assert calls == [] and group._wall_memo


# the matrices of the tests and of the benchmark with no finite label
ALL_INFINITE = sorted(
    name for name, matrix in {**MATRICES, **BENCH_MATRICES}.items()
    if all(matrix.order(a, b) == INFINITY
           for a, b in combinations(range(matrix.rank), 2)))


def test_all_infinite_matrices_are_the_ones_covered():
    assert ALL_INFINITE == ["a1aff", "tooo", "univ3"]


@pytest.mark.parametrize("name", ALL_INFINITE)
def test_no_wall_pair_has_finite_order_without_a_finite_label(name):
    # the lemma of ``check_andreev`` (iii): no two distinct walls of a
    # matrix with no finite label have a product of finite order, so the
    # check asks no order at all, on any census member
    matrix = {**MATRICES, **BENCH_MATRICES}[name]
    group = CoxeterGroup(matrix)
    roots = [group.wall_root(w) for w in group.enumerate_reflections(9)]
    assert len(roots) > 2 * matrix.rank
    assert all(group.order_of_roots(a, b) == INFINITY
               for a, b in combinations(roots, 2))
    group = CoxeterGroup(matrix)
    asked = []
    order_of_roots = group.order_of_roots
    group.order_of_roots = lambda *ids: asked.append(ids) or \
        order_of_roots(*ids)
    census = list(enumerate_convex_polytopes(group, 6))
    assert len(census) > 6
    assert all(check_andreev(group, p) == [] for p in census)
    assert asked == []


# {e, s3} has the facet walls of s1 and s2 alone, as s3 commutes with
# both, and so does {e, s3} grown across the wall of s1 or of s2
PINNED_FACET_BOUND = {
    "name": "facet-bound", "status": "fail",
    "detail": "13 polytopes, min facets 2 (rank 3)",
    "counterexample": [["", "3"], ["", "1", "3", "1 3"],
                       ["", "2", "3", "2 3"]]}


def test_facet_bound_fails_on_a_decomposable_matrix():
    # (oo) x A1 has polytopes of two facets against rank 3: run_verify
    # skips a decomposable matrix, so the suite is driven directly
    group = CoxeterGroup(MATRICES["remark"])
    run = cli._VerifyRun(group, 4, cli.census_list(group, 4))
    report = cli.VerificationReport("facet-bound", "", {})
    cli.suite_facet_bound(run, report)
    assert report.checks == [PINNED_FACET_BOUND]
    assert report.exit_code == 1
