"""coxlab benchmark: census, verify and walls workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload walls --seed 7 --seconds 36 --trace 1 \\
        --out bench/out/runs.jsonl
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl
    python3 bench/run.py --record        # rewrite bench/references.json

One process, no threads, a closed loop with one client: repetitions run
back to back until the next one would end after ``--seconds``.  Every
repetition builds fresh groups.  ``--trace 0`` reports the end-to-end
metrics (medians over the repetitions, rescaled by the machine-speed
calibration below); ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# Machine-speed calibration.  The speed of a shared machine drifts by tens
# of percent within minutes, so fixed pure-Python loops (integer
# arithmetic, then tuple-keyed dict updates like coxlab's memos) are timed
# before and after every repetition and set-up probe and between the
# operations of a repetition (outside the timed work), and times are
# reported rescaled to a machine that runs them in CAL_REF_S seconds.
CAL_INT_LOOPS = 600_000
CAL_DICT_LOOPS = 200_000
CAL_REF_S = 0.11
LAYERS = ("algebraic", "words", "davis", "subgroups", "matrices", "cli")

# per-layer metric -> tracer key whose call count it reports
CALL_METRICS = {
    "algebraic.raw_mul.calls": "algebraic.raw_mul",
    "words.step.calls": "words.step",
    "words.multiply.calls": "words.multiply",
    "words.inverse.calls": "words.inverse",
    "words.interval_to.calls": "words.interval_to",
    "words.wall_between.calls": "words.wall_between",
    "words.conjugate_wall.calls": "words.conjugate_wall",
    "words.order_of_product.calls": "words.order_of_product",
    "words.normal_form.calls": "words.normal_form",
    "davis.is_convex.calls": "davis.is_convex",
    "davis.side.calls": "davis.side",
    "davis.angle_sites.calls": "davis.angle_sites",
    "subgroups.canonical_generators.calls": "subgroups.canonical_generators",
    "subgroups.fundamental_polytope.calls": "subgroups.fundamental_polytope",
    "subgroups.search_equal_rank_subgroups.calls":
        "subgroups.search_equal_rank_subgroups",
    "matrices.is_finite.calls": "matrices.is_finite",
}
# per-layer metric -> work count of a repetition
COUNT_METRICS = {
    "algebraic.sign.decisions": "sign_decisions",
    "algebraic.sign.refinements": "sign_refinements",
    "algebraic.float_fallbacks": "float_fallbacks",
    "words.elements": "elements",
    "words.reflections": "reflections",
    "words.finite_orders": "finite_orders",
    "davis.polytopes": "polytopes",
    "davis.acute_polytopes": "acute_polytopes",
    "davis.stacan.pairs": "stacan_pairs",
    "subgroups.classes": "classes",
    "subgroups.finite_index": "finite_index",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_coxlab():
    """Import coxlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "coxlab" / "__init__.py").is_file():
        fail(f"no coxlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coxlab
    if Path(coxlab.__file__).resolve().parent != SRC / "coxlab":
        fail(f"coxlab imported from {coxlab.__file__}, not {SRC}")


def calibration_s():
    """Wall time of the fixed calibration loops."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_INT_LOOPS):
        acc += i * i % 7
    memo = {}
    for i in range(CAL_DICT_LOOPS):
        key = (i % 5003, i % 7)
        memo[key] = memo.get(key, 0) + 1
    return time.perf_counter() - t0


def calibrated(measure, count, stop=lambda done: False):
    """Call ``measure`` up to ``count`` times (or until ``stop``) between
    calibrations; return its results, each with ``speed``: CAL_REF_S over
    the mean of the calibrations before, during (``cals``) and after it."""
    out = []
    cal = calibration_s()
    while len(out) < count and not (out and stop(out)):
        res = measure(len(out))
        after = calibration_s()
        res["speed"] = CAL_REF_S / statistics.fmean(
            [cal, *res.get("cals", ()), after])
        out.append(res)
        cal = after
    return out


def measure_setup(workload):
    """Set-up time in fresh interpreters: import, parse, build groups."""
    from workloads import matrix_path
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC),
           *(str(matrix_path(s)) for s in workload.matrices)]

    def probe(_):
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        return {"wall_s": float(res.stdout.strip().splitlines()[-1])}

    return calibrated(probe, SETUP_PROBES)


def make_tracer():
    from tracer import Tracer
    from coxlab import algebraic, cli, davis, matrices, subgroups, words
    tracer = Tracer()
    tracer.install(
        {"algebraic": algebraic, "words": words, "davis": davis,
         "subgroups": subgroups, "matrices": matrices, "cli": cli},
        classes=[("words", words.CoxeterGroup)],
        methods=[("algebraic", algebraic.FieldSpec, name)
                 for name in ("sign_raw", "raw_mul", "reduce")])
    return tracer


def repetition(workload, inputs, refs, traced):
    """One repetition; ``wall_s`` leaves out the calibrations inside it."""
    state = workload.prepare(inputs)
    cals = []
    tracer = make_tracer() if traced else None
    try:
        t0 = time.perf_counter()
        outputs = workload.run(state, lambda: cals.append(calibration_s()))
        run_s = time.perf_counter() - t0 - sum(cals)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed, counts = workload.check(state, outputs, refs)
    return {"wall_s": run_s, "cals": cals, "attempted": attempted,
            "failed": failed, "counts": counts, "tracer": tracer}


def scaled(res):
    return res["wall_s"] * res["speed"]


def layer_metrics(traced, plain_run_s):
    """Self times are medians over the traced repetitions; counts come
    from the first one, so they repeat exactly for a given seed."""
    tracer, counts = traced[0]["tracer"], traced[0]["counts"]
    layers = tracer.layers()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(
            r["speed"] * r["tracer"].layers().get(layer, {"self_s": 0})[
                "self_s"] for r in traced), "s")
        metrics[f"{layer}.calls"] = (
            layers.get(layer, {"calls": 0})["calls"], "count")
    for name, key in CALL_METRICS.items():
        metrics[name] = (tracer.calls(key), "count")
    for name, key in COUNT_METRICS.items():
        metrics[name] = (counts.get(key, 0), "count")
    polytopes = counts.get("polytopes", 0)
    sites = tracer.calls("davis.angle_sites")
    metrics["davis.angle_sites.per_polytope"] = (
        sites / polytopes if polytopes else 0.0, "ratio")
    gens = tracer.calls("subgroups.canonical_generators")
    metrics["subgroups.finite_index_ratio"] = (
        counts.get("finite_index", 0) / gens if gens else 0.0, "ratio")
    traced_run_s = statistics.median(scaled(r) for r in traced)
    metrics["trace.overhead_frac"] = (traced_run_s / plain_run_s - 1.0,
                                      "ratio")
    return metrics


def run_benchmark(args):
    import_coxlab()
    sys.path.insert(0, str(HERE))
    import workloads
    if not workloads.REFERENCES.is_file():
        fail(f"missing {workloads.REFERENCES}")
    refs = json.loads(workloads.REFERENCES.read_text())
    workload = workloads.WORKLOADS[args.workload]

    setups = [] if args.trace else measure_setup(workload)

    # Repetition i uses the inputs of seed + i, so a run's median spans
    # several seeded input sets.  Stop before a repetition that would end
    # past the deadline, so a run lasts about --seconds; take at least one
    # (plain and traced) anyway.
    deadline = time.perf_counter() + args.seconds

    def rep(i):
        started = time.perf_counter()
        res = repetition(workload, workload.inputs(args.seed + i, refs),
                         refs, traced=bool(args.trace) and i % 2 == 1)
        res["took"] = time.perf_counter() - started
        return res

    def stop(done):
        return (time.perf_counter() + done[-1]["took"] > deadline
                and (not args.trace or len(done) >= 2))

    reps = calibrated(rep, float("inf"), stop)
    plain = [r for r in reps if r["tracer"] is None]
    traced = [r for r in reps if r["tracer"] is not None]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    run_s = statistics.median(scaled(r) for r in plain)
    for r in reps:
        print(f"{workload.name} seed {args.seed}: "
              f"{'traced' if r['tracer'] else 'plain '} wall_s "
              f"{r['wall_s']:.4f} speed {r['speed']:.3f} run_s "
              f"{scaled(r):.4f} failed {r['failed']}/{r['attempted']}")

    if args.trace:
        metrics = layer_metrics(traced, run_s)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": (run_s, "s"),
            "work_per_s": (workload.work(refs) / run_s, "1/s"),
            "setup_s": (statistics.median(scaled(r) for r in setups), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    if args.out:
        record = {
            "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "python": platform.python_version(),
            "machine": platform.machine(), "processor": platform.processor(),
            "setups": setups,
            "reps": [{"wall_s": r["wall_s"], "speed": r["speed"],
                      "traced": r["tracer"] is not None,
                      "counts": r["counts"]} for r in reps],
            "profile": traced[0]["tracer"].profile() if traced else None,
            "result": result,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# compare mode


def load_results(path):
    """{(workload, metric): [values]} from a file of ``--out`` records."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out.setdefault((rec["workload"], name), []).append(
                    (m["value"], m["unit"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old_path, new_path):
    old, new = load_results(old_path), load_results(new_path)
    print(f"base: {old_path}   new: {new_path}")
    print(f"{'workload':9} {'metric':44} {'n':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11}  {'n':>3} {'q1':>11} {'median':>11} {'q3':>11}  ratio")
    for key in sorted(set(old) | set(new)):
        a = [v for v, _ in old.get(key, [])]
        b = [v for v, _ in new.get(key, [])]
        unit = (old.get(key) or new.get(key))[0][1]
        cells = []
        for vals in (a, b):
            if vals:
                q1, q2, q3 = quartiles(vals)
                cells.append(f"{len(vals):>3} {q1:>11.5g} {q2:>11.5g} "
                             f"{q3:>11.5g}")
            else:
                cells.append(f"{0:>3} {'-':>11} {'-':>11} {'-':>11}")
        ratio = "-"
        if a and b and statistics.median(a):
            base = statistics.median(a)
            ratio = (f"{statistics.median(b) / base:.4f} "
                     f"(base {base:.5g} {unit})")
        print(f"{key[0]:9} {key[1]:44} {cells[0]}  {cells[1]}  {ratio}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("census", "verify", "walls"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference outputs")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.record:
        import_coxlab()
        sys.path.insert(0, str(HERE))
        import workloads
        refs = workloads.record_references()
        workloads.REFERENCES.write_text(
            json.dumps(refs, indent=1, sort_keys=True) + "\n")
    elif args.workload:
        run_benchmark(args)
    else:
        parser.error("give --workload, --compare or --record")


if __name__ == "__main__":
    main()
