"""Command-line front end: classification, censuses, subgroup analysis,
and the bounded verification suites.

Exit codes: 0 all checks pass, 1 any check fails, 2 a budget ran out
before meaningful coverage, 3 bad input.  COXLAB_BUDGET overrides the
default element cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

from . import davis, subgroups
from .errors import BudgetError, CoxlabError, InputError
from .matrices import (INFINITY, components, is_finite, is_indecomposable,
                       nerve, parse_matrix)
from .words import DEFAULT_ELEMENT_CAP, CoxeterGroup, word_from_text

DEFAULT_MAX_CHAMBERS = 8

SUITES = ("facet-bound", "andreev", "stacan", "nerve-deletion", "comm", "all")


def element_cap():
    raw = os.environ.get("COXLAB_BUDGET")
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"COXLAB_BUDGET must be an integer, got {raw!r}")


def matrix_digest(matrix):
    return hashlib.sha256(matrix.to_json().encode()).hexdigest()[:12]


def _fmt_order(m):
    return "oo" if m == INFINITY else str(m)


@dataclass
class VerificationReport:
    suite: str
    matrix_digest: str
    budgets: dict
    checks: list = field(default_factory=list)

    def add(self, name, status, detail=None, counterexample=None):
        entry = {"name": name, "status": status}
        if detail is not None:
            entry["detail"] = detail
        if counterexample is not None:
            entry["counterexample"] = counterexample
        self.checks.append(entry)

    @property
    def exit_code(self):
        statuses = [c["status"] for c in self.checks]
        if any(s == "fail" for s in statuses):
            return 1
        covered = any(s in ("pass", "bounded-pass") for s in statuses)
        if any(s == "budget" for s in statuses) and not covered:
            return 2
        return 0

    def to_json_dict(self):
        return {"suite": self.suite, "matrix_digest": self.matrix_digest,
                "budgets": self.budgets, "checks": self.checks}

    @classmethod
    def from_json_dict(cls, data):
        return cls(data["suite"], data["matrix_digest"], data["budgets"],
                   data["checks"])

    def lines(self):
        out = [f"suite {self.suite} on matrix {self.matrix_digest} "
               f"(budgets {self.budgets})"]
        for c in self.checks:
            line = f"  [{c['status']:>12}] {c['name']}"
            if "detail" in c:
                line += f" -- {c['detail']}"
            out.append(line)
        return out


# ---------------------------------------------------------------------------
# verification suites


def _suites_applicable(matrix):
    return not is_finite(matrix) and is_indecomposable(matrix)


def census_list(group, max_chambers, cap=None):
    """Materialized census with a node-count guard (COXLAB_BUDGET)."""
    cap = element_cap() if cap is None else cap
    out = []
    for p in davis.enumerate_convex_polytopes(group, max_chambers):
        out.append(p)
        if len(out) > cap:
            raise BudgetError(
                f"census exceeded {cap} polytopes (raise COXLAB_BUDGET)")
    return out


class _VerifyRun:
    """The group and budget of one ``run_verify`` call, and the census and
    equal-rank search its suites share: each is computed on first use,
    at most once per call."""

    def __init__(self, group, max_chambers):
        self.group = group
        self.max_chambers = max_chambers

    @cached_property
    def census(self):
        return census_list(self.group, self.max_chambers)

    @cached_property
    def equal_rank(self):
        return subgroups.search_equal_rank_subgroups(
            self.group, self.max_chambers, census=self.census)


def suite_facet_bound(run, report):
    if not _suites_applicable(run.group.matrix):
        report.add("facet-bound", "skipped",
                   "needs an infinite indecomposable system")
        return
    res = davis.verify_facet_bound(run.group, run.max_chambers,
                                   census=run.census)
    detail = (f"{res['polytopes']} polytopes, min facets {res['min_facets']}"
              f" (rank {res['rank']})")
    if res["bound_ok"]:
        report.add("facet-bound", "bounded-pass", detail)
    else:
        report.add("facet-bound", "fail", detail,
                   counterexample=res["violations"][:3])


def suite_andreev(run, report):
    if not _suites_applicable(run.group.matrix):
        report.add("andreev", "skipped",
                   "needs an infinite indecomposable system")
        return
    group = run.group
    checked = 0
    bad = []
    for p in run.census:
        if not davis.is_acute_angled(group, p):
            continue
        checked += 1
        for a, b in davis.check_andreev(group, p):
            bad.append({
                "chambers": [c.display() for c in p.sorted_chambers()],
                "walls": [a.reflection.display(), b.reflection.display()],
            })
    if bad:
        report.add("andreev", "fail",
                   f"{len(bad)} violations over {checked} acute polytopes",
                   counterexample=bad[:3])
    else:
        report.add("andreev", "bounded-pass",
                   f"0 violations over {checked} acute polytopes")


def suite_stacan(run, report):
    if not _suites_applicable(run.group.matrix):
        report.add("stacan", "skipped",
                   "needs an infinite indecomposable system")
        return
    group = run.group
    pairs = 0
    bad = []
    for p1, p2, wall in davis.stacan_pairs(group, run.max_chambers,
                                           census=run.census):
        pairs += 1
        if not davis.check_stacan(group, p1, p2):
            bad.append({
                "p1": [c.display() for c in p1.sorted_chambers()],
                "p2": [c.display() for c in p2.sorted_chambers()],
                "wall": wall.reflection.display(),
            })
    if bad:
        report.add("stacan", "fail",
                   f"{len(bad)} non-convex unions over {pairs} glued pairs",
                   counterexample=bad[:3])
    else:
        report.add("stacan", "bounded-pass",
                   f"all {pairs} glued-pair unions convex")


def suite_nerve_deletion(run, report):
    if not _suites_applicable(run.group.matrix):
        report.add("nerve-deletion", "skipped",
                   "needs an infinite indecomposable system")
        return
    bad = []
    found = []
    for sub in run.equal_rank:
        ok, witness = subgroups.nerve_deletion_check(run.group,
                                                     sub.generators,
                                                     sub.induced)
        found.append({
            "index": sub.index,
            "signature": [_fmt_order(m) for m in sub.induced.signature()],
            "nerve_deletion": ok,
        })
        if not ok:
            bad.append(found[-1])
    detail = "equal-rank subgroups found: " + json.dumps(found)
    if bad:
        report.add("nerve-deletion", "fail", detail, counterexample=bad)
    else:
        report.add("nerve-deletion", "bounded-pass", detail)


def suite_comm(run, report):
    if not _suites_applicable(run.group.matrix):
        report.add("comm", "skipped",
                   "needs an infinite indecomposable system")
        return
    cc = subgroups.comm_condition(run.group.matrix)
    proper = [s for s in run.equal_rank if s.index and s.index > 1]
    detail = (f"condition label {cc['label']}; "
              f"{len(proper)} proper equal-rank subgroups within budget")
    if proper and cc["label"] == "none":
        report.add("comm", "fail", detail,
                   counterexample=[s.generator_words() for s in proper])
    else:
        report.add("comm", "bounded-pass", detail)


_SUITE_FUNCS = {
    "facet-bound": suite_facet_bound,
    "andreev": suite_andreev,
    "stacan": suite_stacan,
    "nerve-deletion": suite_nerve_deletion,
    "comm": suite_comm,
}


def run_verify(matrix, suite, max_chambers):
    report = VerificationReport(
        suite, matrix_digest(matrix),
        {"max_chambers": max_chambers, "element_cap": element_cap()})
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    run = _VerifyRun(CoxeterGroup(matrix), max_chambers)
    for name in names:
        try:
            _SUITE_FUNCS[name](run, report)
        except BudgetError as e:
            report.add(name, "budget", str(e))
    return report


# ---------------------------------------------------------------------------
# commands


def _load_matrix(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def cmd_classify(args):
    matrix = _load_matrix(args.file)
    comps = components(matrix)
    nv = nerve(matrix)
    data = {
        "rank": matrix.rank,
        "finite": is_finite(matrix),
        "indecomposable": len(comps) == 1,
        "components": [{
            "generators": [matrix.labels[i] for i in c.vertices],
            "kind": c.kind,
        } for c in comps],
        "nerve": {"vertices": len(nv.vertices),
                  "edges": len(nv.edges()),
                  "f_vector": list(nv.f_vector())},
    }
    if args.json:
        print(json.dumps(data, sort_keys=True))
        return 0
    word = "finite" if data["finite"] else "infinite"
    shape = ("indecomposable" if data["indecomposable"] else "decomposable")
    print(f"{word}, {shape}")
    for c in data["components"]:
        print(f"  component {{{', '.join(c['generators'])}}}: {c['kind']}")
    print(f"nerve: {data['nerve']['vertices']} vertices, "
          f"{data['nerve']['edges']} edges; f-vector "
          f"{tuple(data['nerve']['f_vector'])}")
    return 0


def cmd_nerve(args):
    matrix = _load_matrix(args.file)
    nv = nerve(matrix)
    data = {
        "vertices": [matrix.labels[i] for i in nv.vertices],
        "f_vector": list(nv.f_vector()),
        "simplices": [sorted(matrix.labels[i] for i in t)
                      for t in sorted(nv.simplices,
                                      key=lambda t: (len(t), sorted(t)))],
    }
    if args.json:
        print(json.dumps(data, sort_keys=True))
        return 0
    print(f"nerve on {len(data['vertices'])} vertices, "
          f"f-vector {tuple(data['f_vector'])}")
    for t in data["simplices"]:
        print("  {" + ", ".join(t) + "}")
    return 0


def cmd_subgroup(args):
    matrix = _load_matrix(args.file)
    group = CoxeterGroup(matrix)
    walls = []
    for chunk in args.reflections.split(";"):
        word = word_from_text(chunk, matrix.rank)
        g = group.normal_form(word)
        wall = group.as_reflection(g)
        if wall is None:
            raise InputError(f"word {chunk.strip()!r} is not a reflection")
        walls.append(wall)
    sub = subgroups.analyze(group, walls, args.budget)
    theorems = None
    nd = None
    if sub.index is not None:
        theorems = subgroups.verify_rank_theorem(group, sub.generators,
                                                 args.budget)
        if len(sub.generators) == matrix.rank:
            nd = subgroups.nerve_deletion_check(group, sub.generators,
                                                sub.induced)[0]
    data = subgroups.subgroup_report(group, sub, theorems, nd)
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        sig = ",".join(_fmt_order(m) for m in sub.induced.signature())
        print(f"canonical generators: {'; '.join(data['generators'])}")
        print(f"induced signature: ({sig})")
        print(f"index: {data['index']}")
        if data["polytope"] is not None:
            print("fundamental polytope chambers: "
                  + ", ".join(w or "e" for w in data["polytope"]))
        if theorems is not None:
            print(f"rank checks: {theorems.get('status')}")
        if nd is not None:
            print(f"nerve deletion: {nd}")
    if sub.index is None:
        return 2
    if theorems is not None and theorems.get("status") == "violation":
        return 1
    return 0


def cmd_polytopes(args):
    matrix = _load_matrix(args.file)
    group = CoxeterGroup(matrix)
    records = [davis.census_record(group, p)
               for p in census_list(group, args.max_chambers)]
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    summary = {
        "polytopes": len(records),
        "coxeter": sum(1 for r in records if r["coxeter"]),
        "acute": sum(1 for r in records if r["acute"]),
        "min_facets": min(r["facets"] for r in records),
        "max_chambers": args.max_chambers,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"{summary['polytopes']} convex polytopes up to "
              f"{args.max_chambers} chambers; {summary['coxeter']} Coxeter, "
              f"{summary['acute']} acute-angled; min facets "
              f"{summary['min_facets']}")
        if args.emit:
            print(f"wrote census to {args.emit}")
    return 0


def cmd_verify(args):
    matrix = _load_matrix(args.file)
    report = run_verify(matrix, args.suite, args.max_chambers)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return report.exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxlab",
        description="Exact chamber-level computations for Coxeter systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="finiteness, components, nerve")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("nerve", help="print the nerve")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("subgroup", help="analyze a reflection subgroup")
    p.add_argument("file")
    p.add_argument("--reflections", required=True,
                   help="semicolon-separated words, e.g. '2;3;1 3 1'")
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_CHAMBERS,
                   help="max chambers for the fundamental domain")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("polytopes", help="census of convex chamber polytopes")
    p.add_argument("file")
    p.add_argument("--max-chambers", type=int, default=DEFAULT_MAX_CHAMBERS)
    p.add_argument("--emit", help="write JSON-lines census to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_polytopes)

    p = sub.add_parser("verify", help="run a bounded verification suite")
    p.add_argument("file")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--max-chambers", type=int, default=DEFAULT_MAX_CHAMBERS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 2
    except CoxlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
