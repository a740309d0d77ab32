"""The stacan and andreev suites against the implementations they
replaced, kept in ``oracles``: the same glued pairs in the same order and
byte-identical report entries from the partner index and the prefix-walk
translates, the same violations from the Andreev check on residue root
masks as from conjugates, and no group product formed by it, nor a wall
built but to display a violation."""

import json
import time

import pytest

from coxlab import cli, davis
from coxlab.davis import (check_andreev, enumerate_convex_polytopes,
                          glued_translates, is_acute_angled, is_convex,
                          stacan_pairs)
from coxlab.matrices import CoxeterMatrix
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES
from oracles import (check_andreev_by_conjugates, stacan_entry_by_scan,
                     stacan_pairs_by_scan)

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
    # every union is convex, so a second pass with every union refused
    # compares the counterexamples too
    for convex in (is_convex, lambda *_: False):
        if convex is not is_convex:
            monkeypatch.setattr(davis, "is_convex_mask", lambda *_: False)
        report = cli.VerificationReport("stacan", "", {})
        cli.suite_stacan(run, report)
        entry = stacan_entry_by_scan(group, k, census, convex)
        assert json.dumps(report.checks, sort_keys=True) == \
            json.dumps([entry], sort_keys=True)
        assert entry["status"] == ("bounded-pass" if convex is is_convex
                                   else "fail")


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
