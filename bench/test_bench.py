"""Tests for the benchmark itself: the tracer and the correctness gate.

Run from the root of a checkout: python3 -m pytest bench
"""

import copy
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _module(name, source, **env):
    mod = types.ModuleType(name)
    mod.__dict__.update(env)
    exec(source, mod.__dict__)
    return mod


def _layers():
    clock = FakeClock()
    lower = _module("fakepkg.lower", """
def leaf():
    clock.now += 2.0

def items(n):
    for i in range(n):
        clock.now += 1.0
        yield i
""", clock=clock)
    # ``from .lower import leaf, items``: the upper layer holds its own names
    upper = _module("fakepkg.upper", """
def nested():
    clock.now += 1.0
    leaf()
    clock.now += 1.0

def consume():
    total = 0
    for x in items(3):
        clock.now += 5.0
        total += x
    return total

TABLE = {"nested": nested}
""", clock=clock, leaf=lower.leaf, items=lower.items)
    return clock, lower, upper


def test_tracer_charges_nested_call_to_each_layer():
    clock, lower, upper = _layers()
    tracer = Tracer(clock=clock)
    tracer.install({"lower": lower, "upper": upper})
    try:
        upper.nested()
        upper.TABLE["nested"]()   # rebound inside a module-level dict too
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    assert layers["upper"] == {"calls": 2, "self_s": 4.0}
    assert layers["lower"] == {"calls": 2, "self_s": 4.0}
    assert tracer.profile()["upper.nested"]["inclusive_s"] == 8.0


def test_tracer_charges_generator_per_step():
    clock, lower, upper = _layers()
    tracer = Tracer(clock=clock)
    tracer.install({"lower": lower, "upper": upper})
    try:
        assert upper.consume() == 3
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    # the generator's three steps cost 1 s each; the consumer's 5 s each
    assert layers["lower"] == {"calls": 1, "self_s": 3.0}
    assert layers["upper"] == {"calls": 1, "self_s": 15.0}


def test_uninstall_restores_originals():
    _, lower, upper = _layers()
    leaf, table_fn = upper.leaf, upper.TABLE["nested"]
    tracer = Tracer()
    tracer.install({"lower": lower, "upper": upper})
    assert upper.leaf is not leaf
    tracer.uninstall()
    assert upper.leaf is leaf and lower.leaf is leaf
    assert upper.TABLE["nested"] is table_fn


def _refs():
    return json.loads(workloads.REFERENCES.read_text())


def test_gate_accepts_reference_and_flags_altered_digest():
    census = workloads.WORKLOADS["census"]
    state = census.prepare([("t333", 8)])
    outputs = census.run(state)
    refs = _refs()
    attempted, failed, counts = census.check(state, outputs, refs)
    assert (attempted, failed) == (1, 0)
    assert counts["polytopes"] == refs["census"]["t333@8"]["polytopes"]

    altered = copy.deepcopy(refs)
    digest = altered["census"]["t333@8"]["jsonl_sha256"]
    altered["census"]["t333@8"]["jsonl_sha256"] = "0" + digest[1:]
    assert census.check(state, outputs, altered)[1] == 1


def test_gate_flags_altered_verify_exit_code():
    verify = workloads.WORKLOADS["verify"]
    state = verify.prepare([("t333", 7)])
    outputs = verify.run(state)
    refs = _refs()
    assert verify.check(state, outputs, refs)[:2] == (1, 0)
    refs["verify"]["t333@7"]["exit_code"] = 1
    assert verify.check(state, outputs, refs)[1] == 1


def test_gate_counts_float_fallbacks_as_failures():
    verify = workloads.WORKLOADS["verify"]
    state = verify.prepare([("t333", 7)])
    outputs = verify.run(state)
    outputs[0]["fallbacks"] = 1
    assert verify.check(state, outputs, _refs())[1] == 1
