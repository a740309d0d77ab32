"""Outside-in tracer: per-layer self time and call counts for coxlab.

The tracer wraps functions from outside the library instead of adding
spans inside it.  ``install`` replaces every public module-level function
of the named modules, every public method of the named classes and any
extra methods asked for, and rebinds each replaced name wherever a module
imported it with ``from .x import y`` (module globals and module-level
dicts such as a dispatch table), so cross-module calls are seen too.
``uninstall`` puts every original back.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made inside it.  Generator
functions are charged per ``next()`` step: the time the consumer spends
between steps belongs to the consumer, not to the generator.  Spans are
aggregated in memory per function (calls, inclusive and self time) and
read out with ``profile`` and ``layers`` when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []          # child-time accumulators of open spans
        self._stats = {}          # key -> [layer, calls, inclusive_s, self_s]
        self._patches = []        # (owner, name, original) to undo

    # -- spans ---------------------------------------------------------------

    def _record(self, key):
        return self._stats.setdefault(key, [key.split(".")[0], 0, 0.0, 0.0])

    def _timed(self, rec, fn, args, kwargs):
        stack = self._stack
        clock = self._clock
        child = [0.0]
        stack.append(child)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            stack.pop()
            rec[2] += dur
            rec[3] += dur - child[0]
            if stack:
                stack[-1][0] += dur

    def wrap(self, fn, key):
        """Traced stand-in for ``fn``; ``key`` is ``<layer>.<name>``."""
        rec = self._record(key)
        timed = self._timed

        if inspect.isgeneratorfunction(fn):
            def steps(it):
                try:
                    while True:
                        try:
                            item = timed(rec, next, (it,), {})
                        except StopIteration:
                            return
                        yield item
                finally:
                    it.close()

            def traced(*args, **kwargs):
                rec[1] += 1
                return steps(timed(rec, fn, args, kwargs))
        else:
            def traced(*args, **kwargs):
                rec[1] += 1
                return timed(rec, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation --------------------------------------------------------

    def install(self, layers, classes=(), methods=()):
        """Wrap and rebind.

        ``layers`` maps a layer name to its module; ``classes`` lists
        ``(layer, cls)`` whose public methods are wrapped; ``methods``
        lists ``(layer, cls, name)`` for chosen (possibly hot) methods.
        """
        originals = {}   # id(original) -> wrapper
        for layer, mod in layers.items():
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = self.wrap(obj, f"{layer}.{name}")
        targets = [(layer, cls, name) for layer, cls in classes
                   for name, obj in vars(cls).items()
                   if not name.startswith("_") and inspect.isfunction(obj)]
        for layer, cls, name in [*targets, *methods]:
            fn = vars(cls)[name]
            self._patch(cls, name, fn, self.wrap(fn, f"{layer}.{name}"))
        for mod in _modules_to_rebind(layers.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._patch(mod, name, obj, originals[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in originals:
                            self._patch(obj, k, v, originals[id(v)])

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        if isinstance(owner, dict):
            owner[name] = wrapper
        else:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- read-out ------------------------------------------------------------

    def profile(self):
        """Per-function aggregate of the spans: calls, inclusive and self s."""
        return {key: {"calls": calls, "inclusive_s": incl, "self_s": own}
                for key, (_, calls, incl, own) in sorted(self._stats.items())
                if calls}

    def layers(self):
        """Per-layer self time and calls."""
        out = {}
        for layer, calls, _, own in self._stats.values():
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += calls
            agg["self_s"] += own
        return out

    def calls(self, key):
        rec = self._stats.get(key)
        return rec[1] if rec else 0


def _modules_to_rebind(mods):
    """The traced modules plus their package, which re-exports names."""
    out = list(mods)
    for mod in mods:
        pkg = sys.modules.get(mod.__name__.rpartition(".")[0])
        if pkg is not None and pkg not in out:
            out.append(pkg)
    return out
