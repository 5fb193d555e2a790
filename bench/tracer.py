"""Per-layer tracing from outside the program.

`Tracer.install()` wraps, in place, every module-level function named in
the `__all__` of each layer module, and the hand-written constructors of
the classes named there (`Big`, `PathView`, `HFSet`).  Each module
namespace of the package that holds one of these functions gets the
wrapper, so calls between modules, and calls inside a module through its
own globals, pass through it.  Nothing under `src/` is edited.

A wrapper is a span: it counts the call and times it.  Spans nest on one
stack; a span's self time is its duration minus the durations of the
spans it opened, and a layer's self time is the sum over its spans.  Time
in private helpers lands in the span of the public function that called
them.  `pair`, `unpair` and `head_kind` run millions of times, so spans
are aggregated per function as they close instead of being kept one by
one; the aggregate is written out once, at the end.

A few wrappers also look at arguments or outcomes, for the metrics that
are not plain call counts: machine runs and the runs that ran out of
fuel, the verdicts of top-level `din` calls, and the components passed
to `seq_encode`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("pairing", "terms", "machine", "universe", "vcodes",
          "realizability", "diagonal", "lworld")

# entry points that run the fuel machine; a run is an outermost call of one
MACHINE_RUNS = ("apply", "apply_raw", "apply_chain", "run_code")

# name, unit, better; the README maps each to the end-to-end metrics it moves
PER_LAYER = [
    ("pairing.self_s", "s", "lower"),
    ("pairing.pair_calls", "count", "lower"),
    ("pairing.unpair_calls", "count", "lower"),
    ("pairing.big_nodes", "count", "lower"),
    ("terms.self_s", "s", "lower"),
    ("terms.head_kind_calls", "count", "lower"),
    ("machine.self_s", "s", "lower"),
    ("machine.runs", "count", "lower"),
    ("machine.out_of_fuel_runs", "count", "lower"),
    ("universe.self_s", "s", "lower"),
    ("universe.din_calls", "count", "lower"),
    ("universe.check_in_U_calls", "count", "lower"),
    ("universe.decided_ratio", "ratio", "higher"),
    ("vcodes.self_s", "s", "lower"),
    ("vcodes.seq_encode_components", "count", "lower"),
    ("realizability.self_s", "s", "lower"),
    ("realizability.check_calls", "count", "lower"),
    ("realizability.find_realiser_calls", "count", "lower"),
    ("diagonal.self_s", "s", "lower"),
    ("diagonal.requirement_checks", "count", "lower"),
    ("diagonal.pathviews_built", "count", "lower"),
    ("lworld.self_s", "s", "lower"),
    ("lworld.hfset_calls", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()    # "layer.function" -> calls
        self.self_s: Counter = Counter()   # "layer.function" -> self seconds
        self.stack: list[list[float]] = []  # open spans: [child seconds]
        self.machine_depth = 0
        self.machine_runs = 0
        self.out_of_fuel_runs = 0
        self._ran_out = False
        self.din_depth = 0
        self.top_din = 0
        self.top_din_decided = 0
        self.seq_components = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, fn, key: str, before=None, after=None):
        """A wrapper timing fn as one span; before(args) may replace the
        arguments, after(result, exc) sees the outcome."""
        calls, self_s, stack, clock = self.calls, self.self_s, self.stack, time.perf_counter

        if before is None and after is None:  # the hot path: no hooks
            def traced(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    calls[key] += 1
                    self_s[key] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
        else:
            def traced(*args, **kwargs):
                if before is not None:
                    args = before(args)
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    dur = clock() - t0
                    stack.pop()
                    calls[key] += 1
                    self_s[key] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                    if after is not None:
                        after(result, exc)
        return functools.update_wrapper(traced, fn)

    # -- hooks for the metrics that are not call counts ------------------------

    def _machine_hooks(self, out_of_fuel_error):
        def before(args):
            self.machine_depth += 1
            if self.machine_depth == 1:
                self.machine_runs += 1
            return args

        def after(result, exc):
            self.machine_depth -= 1
            if isinstance(exc, out_of_fuel_error):
                self._ran_out = True
            if self.machine_depth == 0 and self._ran_out:
                self.out_of_fuel_runs += 1
                self._ran_out = False
        return before, after

    def _din_hooks(self):
        def before(args):
            self.din_depth += 1
            return args

        def after(result, exc):
            self.din_depth -= 1
            if self.din_depth == 0:
                self.top_din += 1
                if result is not None and not result.unknown:
                    self.top_din_decided += 1
        return before, after

    def _seq_encode_before(self, args):
        xs = list(args[0])  # seq_encode takes any iterable; count it once
        self.seq_components += len(xs)
        return (xs,) + args[1:]

    # -- installation -----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the public functions of every layer module of `kleeneset`,
        in the package's namespaces and in those of `extra_modules`."""
        modules = {layer: importlib.import_module(f"kleeneset.{layer}")
                   for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._span(obj, f"{layer}.{name}",
                                                   *self._hooks(layer, name, mod))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_constructor(obj, layer, mod)
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "kleeneset" or n.startswith("kleeneset.")]
        for ns in namespaces + [vars(m) for m in extra_modules]:
            for attr, val in list(ns.items()):
                if id(val) in replaced and getattr(replaced[id(val)], "__wrapped__", None) is val:
                    ns[attr] = replaced[id(val)]

    def _hooks(self, layer: str, name: str, mod):
        if layer == "machine" and name in MACHINE_RUNS:
            return self._machine_hooks(mod.OutOfFuelError)
        if layer == "universe" and name == "din":
            return self._din_hooks()
        if layer == "vcodes" and name == "seq_encode":
            return self._seq_encode_before, None
        return None, None

    def _wrap_constructor(self, cls: type, layer: str, mod) -> None:
        """Trace a class's own hand-written __new__ or __init__."""
        for meth in ("__new__", "__init__"):
            raw = cls.__dict__.get(meth)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if (isinstance(fn, types.FunctionType)
                    and fn.__code__.co_filename == mod.__file__):
                traced = self._span(fn, f"{layer}.{cls.__name__}.{meth}")
                setattr(cls, meth, staticmethod(traced) if meth == "__new__" else traced)

    # -- results ----------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        return out

    def metrics(self) -> dict[str, float]:
        c = self.calls
        m = {f"{layer}.self_s": s for layer, s in self.layer_self_s().items()}
        m.update({
            "pairing.pair_calls": c["pairing.pair"],
            "pairing.unpair_calls": c["pairing.unpair"],
            "pairing.big_nodes": c["pairing.Big.__init__"],
            "terms.head_kind_calls": c["terms.head_kind"],
            "machine.runs": self.machine_runs,
            "machine.out_of_fuel_runs": self.out_of_fuel_runs,
            "universe.din_calls": c["universe.din"],
            "universe.check_in_U_calls": c["universe.check_in_U"],
            # 0 when the workload makes no din call
            "universe.decided_ratio": (self.top_din_decided / self.top_din
                                       if self.top_din else 0.0),
            "vcodes.seq_encode_components": self.seq_components,
            "realizability.check_calls": c["realizability.check"],
            "realizability.find_realiser_calls": c["realizability.find_realiser"],
            "diagonal.requirement_checks": c["diagonal.requirement_satisfied"],
            "diagonal.pathviews_built": c["diagonal.PathView.__init__"],
            "lworld.hfset_calls": c["lworld.HFSet.__new__"],
        })
        return {name: m[name] for name, _, _ in PER_LAYER}

    def write(self, path) -> None:
        """The aggregated spans, one entry per traced function."""
        functions = {key: {"calls": self.calls[key], "self_s": self.self_s[key]}
                     for key in sorted(self.calls)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"layers": self.metrics(),
                                    "functions": functions}, indent=1) + "\n")
