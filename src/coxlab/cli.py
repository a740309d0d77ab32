"""Command-line front end: classification, censuses, subgroup analysis,
and the bounded verification suites.

Exit codes: 0 all checks pass, 1 any check fails, 2 a budget ran out
before meaningful coverage, 3 bad input (a usage error too).
COXLAB_BUDGET overrides the default element cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property

from . import davis, subgroups
from .errors import BudgetError, CoxlabError, InputError
from .matrices import (components, format_order, is_finite,
                       is_infinite_indecomposable, nerve, parse_matrix)
from .words import DEFAULT_ELEMENT_CAP, CoxeterGroup, word_from_text

DEFAULT_MAX_CHAMBERS = 8


def element_cap():
    raw = os.environ.get("COXLAB_BUDGET")
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"COXLAB_BUDGET must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError(f"COXLAB_BUDGET must be >= 1, got {cap}")
    return cap


def matrix_digest(matrix):
    return hashlib.sha256(matrix.to_json().encode()).hexdigest()[:12]


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


def capped_census(group, max_chambers):
    """The census, as it is enumerated, with a node-count guard
    (COXLAB_BUDGET): BudgetError in place of the member past the cap."""
    cap = element_cap()
    count = 0
    for p in davis.enumerate_convex_polytopes(group, max_chambers):
        count += 1
        if count > cap:
            raise BudgetError(
                f"census exceeded {cap} polytopes (raise COXLAB_BUDGET)")
        yield p


def census_list(group, max_chambers):
    """Materialized census with the node-count guard of
    ``capped_census``."""
    return list(capped_census(group, max_chambers))


class _VerifyRun:
    """The group, budget and census of one ``run_verify`` call, and the
    equal-rank search its suites share, computed on first use, at most
    once per call."""

    def __init__(self, group, max_chambers, census):
        self.group = group
        self.max_chambers = max_chambers
        self.census = census

    @cached_property
    def equal_rank(self):
        return subgroups.search_equal_rank_subgroups(
            self.group, self.max_chambers, census=self.census)


def suite_facet_bound(run, report):
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
    group = run.group
    pairs = 0
    bad = []
    for p1, wall, _, anchor, mask, convex in davis.glued_unions(
            group, run.max_chambers, census=run.census):
        pairs += 1
        if not convex:
            p2 = sorted(davis.chambers_of(
                group, davis.translate(group, mask, anchor)[0]),
                key=lambda e: e.sort_key)
            bad.append({
                "p1": [c.display() for c in p1.sorted_chambers()],
                "p2": [c.display() for c in p2],
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
    bad = []
    found = []
    for sub in run.equal_rank:
        ok, witness = subgroups.nerve_deletion_check(run.group,
                                                     sub.generators,
                                                     sub.induced)
        found.append({
            "index": sub.index,
            "signature": list(map(format_order, sub.induced.signature())),
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

SUITES = (*_SUITE_FUNCS, "all")


def run_verify(matrix, suite, max_chambers):
    report = VerificationReport(
        suite, matrix_digest(matrix),
        {"max_chambers": max_chambers, "element_cap": element_cap()})
    names = list(_SUITE_FUNCS) if suite == "all" else [suite]
    if max_chambers < 1:
        raise InputError("chamber budget must be >= 1")
    if not is_infinite_indecomposable(matrix):
        for name in names:
            report.add(name, "skipped",
                       "needs an infinite indecomposable system")
        return report
    group = CoxeterGroup(matrix)
    # every suite reads the census: a spent budget is spent once
    try:
        census = census_list(group, max_chambers)
    except BudgetError as e:
        for name in names:
            report.add(name, "budget", str(e))
        return report
    run = _VerifyRun(group, max_chambers, census)
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
    except (OSError, UnicodeDecodeError) as e:
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
        theorems = subgroups.verify_rank_theorem(group, sub)
        if len(sub.generators) == matrix.rank:
            nd = subgroups.nerve_deletion_check(group, sub.generators,
                                                sub.induced)[0]
    data = subgroups.subgroup_report(group, sub, theorems, nd)
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        sig = ",".join(map(format_order, sub.induced.signature()))
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


@contextmanager
def _emitting(path):
    """A text file for the census lines.  With a path, a new file beside
    it under a unique name, made with the mode ``open(path, "w")`` gives,
    renamed onto the path on success and removed on any exception, so
    the path holds the whole census or what it held before; with none
    or an empty one, None: no line is to be formatted."""
    if not path:
        yield None
        return
    head, tail = os.path.split(path)
    # O_EXCL: a clash of the random names fails rather than clobbers
    temp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException as e:
        os.unlink(temp)
        if isinstance(e, OSError):
            raise InputError(
                f"cannot write {path}: {e.strerror}") from None
        raise


def cmd_polytopes(args):
    matrix = _load_matrix(args.file)
    group = CoxeterGroup(matrix)
    count = coxeter = acute = 0
    min_facets = None
    with _emitting(args.emit) as fh:
        for p in capped_census(group, args.max_chambers):
            count += 1
            if fh is None:
                is_coxeter, is_acute = davis.angle_flags(group, p)
            else:
                line, is_coxeter, is_acute = davis.census_line(group, p)
                fh.write(line + "\n")
            coxeter += is_coxeter
            acute += is_acute
            facets = p.facet_count
            if min_facets is None or facets < min_facets:
                min_facets = facets
    summary = {
        "polytopes": count,
        "coxeter": coxeter,
        "acute": acute,
        "min_facets": min_facets,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input, exit 3: 2 is a spent budget
        self.print_usage(sys.stderr)
        raise InputError(message)


@cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
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
