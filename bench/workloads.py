"""The three benchmark workloads, their inputs and their correctness gate.

Each workload has four steps.  ``inputs(seed, refs)`` makes the inputs;
``prepare(inputs)`` does the untimed set-up of one repetition (fresh
``CoxeterGroup``s, so no memo is carried over); ``run(state)`` is the
timed part and returns the raw outputs (it calls ``pause()`` between
operations, where the harness samples the machine's speed outside the
timed work); ``check(state, outputs, refs)``
compares them with the recorded references and returns the operation
counts and the work counts.  An operation is one matrix for ``census`` and
``verify`` and one query for ``walls``.  It fails when it raises anything
other than a documented budget outcome, when its output differs from the
reference, or when ``SIGN_STATS.float_fallbacks`` is not 0 after it.

``census`` and ``verify`` go through ``cli.main`` exactly as the
``coxlab polytopes --emit`` and ``coxlab verify --suite all --json``
commands do, so their timed part includes the command's own matrix parse
and group construction (a few milliseconds, under 1% of ``run_s``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

import coxlab
from coxlab import SIGN_STATS, cli, subgroups

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

# (matrix file stem, chamber budget K).  The ROADMAP set at budgets scaled
# so one repetition takes a few seconds.
CENSUS_OPS = [("t23oo", 8), ("t255", 8), ("t237", 8), ("t333", 8),
              ("tooo", 7), ("cycle4", 7)]
VERIFY_OPS = [("t23oo", 7), ("t255", 7), ("t237", 7), ("t333", 7),
              ("cycle4", 6), ("tooo", 5)]

# walls: degree-12 field of (2,3,7) and degree-48 field of an N=210 matrix
WALLS_SMALL, WALLS_BIG = "t237", "n210"
BALL_RADIUS = 36
REFLECTION_LENGTH = 25
ORDER_PAIRS = 2000
SUBGROUP_TRIPLES = 30
SUBGROUP_BUDGET = 48
NF_WORDS = 60
NF_LENGTH = 40
# References are recorded for this many walls seeds; a seed is reduced
# modulo it, so every run is checked against a recorded reference.
WALLS_SEEDS = 100


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_path(stem):
    return INPUTS / f"{stem}.json"


def load_matrix(stem):
    return coxlab.parse_matrix(matrix_path(stem).read_text())


def op_key(stem, k):
    return f"{stem}@{k}"


def _fmt_order(m):
    return "oo" if m == coxlab.INFINITY else str(m)


def run_cli(argv):
    """``cli.main(argv)`` with stdout captured; (exit code, stdout, error)."""
    buf = io.StringIO()
    code, error = None, None
    SIGN_STATS.reset()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as e:  # any escape from the CLI is a failed operation
        error = f"{type(e).__name__}: {e}"
    return {"code": code, "stdout": buf.getvalue(), "error": error,
            "fallbacks": SIGN_STATS.float_fallbacks,
            "decisions": SIGN_STATS.decisions,
            "refinements": SIGN_STATS.refinements}


def _sign_counts(outputs):
    return {"sign_decisions": sum(o["decisions"] for o in outputs),
            "sign_refinements": sum(o["refinements"] for o in outputs),
            "float_fallbacks": sum(o["fallbacks"] for o in outputs)}


def _op_ok(out, ref_code):
    return (out["error"] is None and out["fallbacks"] == 0
            and out["code"] == ref_code)


class Census:
    name = "census"
    matrices = sorted({stem for stem, _ in CENSUS_OPS})

    def inputs(self, seed, refs):
        return CENSUS_OPS

    def prepare(self, ops):
        OUT.mkdir(exist_ok=True)
        return [(stem, k, OUT / f"census-{stem}-{k}.jsonl")
                for stem, k in ops]

    def run(self, state, pause=lambda: None):
        outputs = []
        for i, (stem, k, emit) in enumerate(state):
            if i:
                pause()
            outputs.append(run_cli(["polytopes", str(matrix_path(stem)),
                                    "--max-chambers", str(k),
                                    "--emit", str(emit), "--json"]))
        return outputs

    def observe(self, state, outputs):
        """Reference-shaped record of each operation's output."""
        obs = {}
        for (stem, k, emit), out in zip(state, outputs):
            rec = {"exit_code": out["code"]}
            if out["error"] is None and out["code"] == 0:
                summary = json.loads(out["stdout"])
                rec["polytopes"] = summary["polytopes"]
                rec["acute"] = summary["acute"]
                rec["jsonl_sha256"] = sha(emit.read_text())
            obs[op_key(stem, k)] = rec
        return obs

    def check(self, state, outputs, refs):
        failed = 0
        counts = {"polytopes": 0, "acute_polytopes": 0}
        obs = self.observe(state, outputs)
        for (key, rec), out in zip(obs.items(), outputs):
            ref = refs[self.name][key]
            if not (_op_ok(out, ref["exit_code"]) and rec == ref):
                failed += 1
            counts["polytopes"] += rec.get("polytopes", 0)
            counts["acute_polytopes"] += rec.get("acute", 0)
        counts.update(_sign_counts(outputs))
        return len(outputs), failed, counts

    def work(self, refs):
        """Fixed work count of one repetition: census polytopes."""
        return sum(refs[self.name][op_key(s, k)]["polytopes"]
                   for s, k in CENSUS_OPS)


_VERIFY_PATTERNS = {
    "polytopes": ("facet-bound", re.compile(r"^(\d+) polytopes")),
    "acute_polytopes": ("andreev", re.compile(r"over (\d+) acute")),
    "stacan_pairs": ("stacan", re.compile(r"(\d+) glued")),
}


def verify_counts(report):
    """Work counts read off a verification report's check details."""
    checks = {c["name"]: c.get("detail", "") for c in report["checks"]}
    out = {}
    for name, (check, pattern) in _VERIFY_PATTERNS.items():
        m = pattern.search(checks.get(check, ""))
        out[name] = int(m.group(1)) if m else 0
    found = checks.get("nerve-deletion", "").partition(": ")[2]
    classes = json.loads(found) if found.startswith("[") else []
    out["classes"] = len(classes)
    out["finite_index"] = sum(1 for c in classes if c["index"] is not None)
    return out


class Verify:
    name = "verify"
    matrices = sorted({stem for stem, _ in VERIFY_OPS})

    def inputs(self, seed, refs):
        return VERIFY_OPS

    def prepare(self, ops):
        return list(ops)

    def run(self, state, pause=lambda: None):
        outputs = []
        for i, (stem, k) in enumerate(state):
            if i:
                pause()
            outputs.append(run_cli(["verify", str(matrix_path(stem)),
                                    "--suite", "all",
                                    "--max-chambers", str(k), "--json"]))
        return outputs

    def observe(self, state, outputs):
        obs = {}
        for (stem, k), out in zip(state, outputs):
            rec = {"exit_code": out["code"]}
            if out["error"] is None:
                rec["report_sha256"] = sha(out["stdout"])
                rec.update(verify_counts(json.loads(out["stdout"])))
            obs[op_key(stem, k)] = rec
        return obs

    def check(self, state, outputs, refs):
        failed = 0
        counts = {}
        obs = self.observe(state, outputs)
        for (key, rec), out in zip(obs.items(), outputs):
            ref = refs[self.name][key]
            if not (_op_ok(out, ref["exit_code"]) and rec == ref):
                failed += 1
            for name in ("polytopes", "acute_polytopes", "stacan_pairs",
                         "classes", "finite_index"):
                counts[name] = counts.get(name, 0) + rec.get(name, 0)
        counts.update(_sign_counts(outputs))
        return len(outputs), failed, counts

    def work(self, refs):
        """Fixed work count: census polytopes examined by the suites."""
        return sum(refs[self.name][op_key(s, k)]["polytopes"]
                   for s, k in VERIFY_OPS)


class Walls:
    """Field arithmetic and root tracking, from cold groups, seeded queries."""

    name = "walls"
    matrices = [WALLS_SMALL, WALLS_BIG]
    sections = ("ball", "reflections", "orders", "subgroups", "normal_forms")

    def inputs(self, seed, refs):
        """Seeded queries; pairs and triples index into the reflection
        list, whose recorded length is in the references."""
        rng = random.Random(seed % WALLS_SEEDS)
        n = refs["walls"]["reflections"]
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(ORDER_PAIRS)]
        triples = [tuple(rng.sample(range(n), 3))
                   for _ in range(SUBGROUP_TRIPLES)]
        words = []
        for _ in range(NF_WORDS):
            w = [rng.randrange(4)]
            while len(w) < NF_LENGTH:
                a = rng.randrange(4)
                if a != w[-1]:
                    w.append(a)
            words.append(tuple(w))
        return {"seed": seed % WALLS_SEEDS, "pairs": pairs,
                "triples": triples, "words": words}

    def prepare(self, inputs):
        return {"small": coxlab.CoxeterGroup(load_matrix(WALLS_SMALL)),
                "big": coxlab.CoxeterGroup(load_matrix(WALLS_BIG)),
                **inputs}

    def run(self, state, pause=lambda: None):
        g, big = state["small"], state["big"]
        out = {}

        def section(name, fn):
            if out:
                pause()
            SIGN_STATS.reset()
            try:
                value, error = fn(), None
            except Exception as e:  # a raised query is a failed operation
                value, error = None, f"{type(e).__name__}: {e}"
            out[name] = {"value": value, "error": error,
                         "fallbacks": SIGN_STATS.float_fallbacks,
                         "decisions": SIGN_STATS.decisions,
                         "refinements": SIGN_STATS.refinements}
            return value

        section("ball", lambda: g.ball(BALL_RADIUS))
        refl = section("reflections",
                       lambda: g.enumerate_reflections(REFLECTION_LENGTH))
        section("orders", lambda: [g.order_of_product(refl[i], refl[j])
                                   for i, j in state["pairs"]])
        section("subgroups", lambda: [
            subgroups.analyze(g, [refl[a] for a in t], SUBGROUP_BUDGET)
            for t in state["triples"]])
        section("normal_forms",
                lambda: [big.normal_form(w) for w in state["words"]])
        return out

    def sizes(self, state):
        return {"ball": 1, "reflections": 1, "orders": len(state["pairs"]),
                "subgroups": len(state["triples"]),
                "normal_forms": len(state["words"])}

    def observe(self, state, outputs):
        """Digest of each section's output (None when it raised)."""
        def text(name, value):
            if name in ("ball", "normal_forms"):
                return "\n".join(e.display() for e in value)
            if name == "reflections":
                return "\n".join(w.reflection.display() for w in value)
            if name == "orders":
                return " ".join(_fmt_order(m) for m in value)
            return "\n".join(
                json.dumps([s.generator_words(),
                            [_fmt_order(m) for m in s.induced.signature()],
                            s.index]) for s in value)

        obs = {}
        for name in self.sections:
            out = outputs[name]
            obs[name] = (None if out["error"] is not None
                         else sha(text(name, out["value"])))
        return obs

    def check(self, state, outputs, refs):
        ref = refs[self.name]
        expect = {"ball": ref["ball_sha256"],
                  "reflections": ref["reflections_sha256"],
                  **ref["by_seed"][str(state["seed"])]}
        obs = self.observe(state, outputs)
        sizes = self.sizes(state)
        failed = 0
        for name in self.sections:
            if (obs[name] != expect[name] or outputs[name]["fallbacks"]
                    or outputs[name]["error"] is not None):
                failed += sizes[name]
        value = {k: outputs[k]["value"] or [] for k in self.sections}
        counts = {
            "elements": len(value["ball"]),
            "reflections": len(value["reflections"]),
            "finite_orders": sum(1 for m in value["orders"]
                                 if m != coxlab.INFINITY),
            "finite_index": sum(1 for s in value["subgroups"]
                                if s.index is not None),
        }
        counts.update(_sign_counts(list(outputs.values())))
        return sum(sizes.values()), failed, counts

    def work(self, refs):
        """Fixed work count: elements, wall pairs and subgroup queries."""
        return refs[self.name]["ball_size"] + ORDER_PAIRS + SUBGROUP_TRIPLES


WORKLOADS = {w.name: w for w in (Census(), Verify(), Walls())}


def record_references():
    """Reference outputs of the program as it is now (slow: minutes)."""
    refs = {}
    for wl in (WORKLOADS["census"], WORKLOADS["verify"]):
        state = wl.prepare(wl.inputs(0, refs))
        refs[wl.name] = wl.observe(state, wl.run(state))
    walls = WORKLOADS["walls"]
    state = walls.prepare({"pairs": [], "triples": [], "words": [],
                           "seed": 0})
    out = walls.run(state)
    obs = walls.observe(state, out)
    refs["walls"] = {"ball_sha256": obs["ball"],
                     "ball_size": len(out["ball"]["value"]),
                     "reflections_sha256": obs["reflections"],
                     "reflections": len(out["reflections"]["value"]),
                     "by_seed": {}}
    for seed in range(WALLS_SEEDS):
        state.update(walls.inputs(seed, refs))
        obs = walls.observe(state, walls.run(state))
        refs["walls"]["by_seed"][str(seed)] = {
            k: obs[k] for k in ("orders", "subgroups", "normal_forms")}
    return refs
