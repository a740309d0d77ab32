"""The stacan and andreev suites against the implementations they
replaced, kept in ``oracles``: the same glued pairs in the same order and
byte-identical report entries from the partner index and the prefix-walk
translates, the same violations from the order-first Andreev check, and
no conjugate formed where every product of two walls has infinite
order."""

import json
import sys

import pytest

from coxlab import cli, davis
from coxlab.davis import (check_andreev, enumerate_convex_polytopes,
                          glued_translates, is_convex, stacan_pairs)
from coxlab.words import CoxeterGroup

from conftest import BENCH_MATRICES
from oracles import (check_andreev_by_conjugates, stacan_entry_by_scan,
                     stacan_pairs_by_scan)

# the verify workload's matrices at its budgets
CASES = [("t23oo", 7), ("t255", 7), ("t237", 7), ("t333", 7), ("cycle4", 6),
         ("tooo", 5)]


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


@pytest.mark.parametrize("name,k", CASES)
def test_check_andreev_matches_conjugates_oracle(name, k):
    # every census member, acute or not
    group, census = _census(name, k)
    violations = 0
    for p in census:
        got = check_andreev(group, p)
        assert got == check_andreev_by_conjugates(group, p), (name, p)
        violations += len(got)
    # the obtuse members of the triangles with no infinite label break
    # the guarantee, which is made for acute ones only
    assert (violations > 0) == (name in ("t255", "t237", "t333"))


def _count_multiply(monkeypatch, group):
    callers = []
    multiply = group.multiply

    def counted(g, h):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return multiply(g, h)

    monkeypatch.setattr(group, "multiply", counted)
    return callers


def test_andreev_forms_no_conjugate_where_orders_are_infinite(monkeypatch):
    # in (oo,oo,oo) every product of two walls has infinite order, so the
    # order decides every pair and no wall is conjugated; in (2,5,5) the
    # meeting test runs, and the wrapper sees its conjugates
    group, census = _census("tooo", 5)
    callers = _count_multiply(monkeypatch, group)
    assert all(check_andreev(group, p) == [] for p in census)
    assert callers == []
    group, census = _census("t255", 5)
    callers = _count_multiply(monkeypatch, group)
    for p in census:
        check_andreev(group, p)
    assert callers and set(callers) == {"meet"}
