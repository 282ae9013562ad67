"""Span tracing of noncomm's layers from outside the package.

`Tracer.install` wraps the public functions the per-layer metrics name.  A
function is rebound in every `noncomm` module that holds it (scenarios does
`from .measurement import perform`, so patching measurement alone would miss
those calls); `AlgebraElement.__init__`, `State.__init__` and `Flow.at` are
patched on their classes, and each scenario entry point is wrapped in the
SCENARIOS registry.

Each call becomes a span (name, start, end, parent) appended to flat arrays
in memory; self time, counts and ratios are computed from them at the end,
and `write` saves the spans.  Times here are plain wall times, not scaled to
a reference host speed, so the self times add up to the traced wall time.
Argument observations (for the distinct-input and forced-outcome metrics)
are kept only while `observing` is set.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

# (module, attribute, layer name) for plain functions
FUNCTIONS = (
    ("algebra", "spectral_projection", "algebra.spectral_projection"),
    ("algebra", "eigendecompose", "algebra.eigendecompose"),
    # yes_probability calls expectation through the rebound module global
    ("states", "expectation", "states.expectation"),
    ("states", "condition", "states.condition"),
    ("dynamics", "propagator", "dynamics.propagator"),
    ("dynamics", "heisenberg_evolve", "dynamics.heisenberg_evolve"),
    ("dynamics", "schrodinger_state", "dynamics.schrodinger_state"),
    ("dynamics", "koopman_evolve", "dynamics.koopman_evolve"),
    ("measurement", "perform", "measurement.perform"),
    ("measurement", "trial_generator", "measurement.trial_generator"),
    ("measurement", "evolve_schedule", "measurement.evolve_schedule"),
    ("measurement", "run_sequence", "measurement.run_sequence"),
    ("measurement", "tensor", "measurement.composite"),
    ("measurement", "embed_local", "measurement.composite"),
    ("measurement", "partial_trace", "measurement.composite"),
    ("cli", "result_csv", "cli.serialize"),
    ("cli", "result_json", "cli.serialize"),
    ("cli", "trials_csv", "cli.serialize"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, layer name)
METHODS = (
    ("algebra", "AlgebraElement", "__init__", "algebra.element_new"),
    ("states", "State", "__init__", "states.state_new"),
    ("dynamics", "Flow", "at", "dynamics.flow_at"),
)

SCENARIO_LAYER = "scenarios.run"

LAYERS = tuple(dict.fromkeys(
    [name for *_, name in FUNCTIONS] + [name for *_, name in METHODS] + [SCENARIO_LAYER]))

# layers whose distinct_ratio is reported, with the part of the call that
# identifies its input
DISTINCT = {
    "algebra.spectral_projection": lambda args, kw: (
        args[0].matrix.tobytes(), args[1], args[2] if len(args) > 2 else kw.get("cluster_tol")),
    "dynamics.propagator": lambda args, kw: (
        args[0].operator.matrix.tobytes(), args[0].hbar, args[1]),
    "dynamics.flow_at": lambda args, kw: (args[0].step, args[1]),
}


class Tracer:
    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.stack = []
        self.invocation = -1
        self.observing = False
        # layer name -> list of (invocation, args, kwargs) while observing
        self.calls = {name: [] for name in DISTINCT}
        self.performs = 0
        self.forced = 0

    def begin_invocation(self):
        self.invocation += 1

    def wrap(self, layer: str, fn):
        lid = self.layer_ids[layer]
        layers, starts, ends, parents = (self.span_layer, self.span_start,
                                         self.span_end, self.span_parent)
        stack = self.stack
        clock = time.perf_counter_ns
        calls = self.calls.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if calls is not None and self.observing:
                    calls.append((self.invocation, args, kwargs))

        return traced

    def _wrap_perform(self, fn, p_floor: float):
        traced = self.wrap("measurement.perform", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            outcome, post = traced(*args, **kwargs)
            if self.observing:
                self.performs += 1
                # the realized answer had probability >= 1 - P_FLOOR: no draw
                self.forced += outcome.probability >= 1.0 - p_floor
            return outcome, post

        return counted

    def install(self):
        """Patch the imported noncomm package in place; never undone."""
        import noncomm.scenarios
        from noncomm.states import P_FLOOR

        modules = [m for name, m in sys.modules.items()
                   if name == "noncomm" or name.startswith("noncomm.")]
        for mod_name, attr, layer in FUNCTIONS:
            orig = getattr(sys.modules[f"noncomm.{mod_name}"], attr)
            if layer == "measurement.perform":
                wrapped = self._wrap_perform(orig, P_FLOOR)
            else:
                wrapped = self.wrap(layer, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, method, layer in METHODS:
            cls = getattr(sys.modules[f"noncomm.{mod_name}"], cls_name)
            setattr(cls, method, self.wrap(layer, vars(cls)[method]))
        registry = noncomm.scenarios.SCENARIOS
        for name, scen in list(registry.items()):
            registry[name] = dataclasses.replace(scen, fn=self.wrap(SCENARIO_LAYER, scen.fn))

    def spans(self):
        """The spans as numpy arrays: layer id, start ns, end ns, parent index."""
        import numpy as np

        # copies, so the arrays can still grow afterwards
        return (np.array(self.span_layer, dtype=np.uint16),
                np.array(self.span_start, dtype=np.int64),
                np.array(self.span_end, dtype=np.int64),
                np.array(self.span_parent, dtype=np.int64))

    def self_ns(self):
        """Per-layer total self time: span duration minus its children's."""
        import numpy as np

        layer, start, end, parent = self.spans()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        return np.bincount(layer, weights=own, minlength=len(LAYERS))

    def counts(self, end_span: int):
        """Per-layer call counts over the spans before `end_span`."""
        import numpy as np

        return np.bincount(self.spans()[0][:end_span], minlength=len(LAYERS))

    def distinct_ratio(self, layer: str):
        """Distinct inputs per invocation, summed, over observed calls; 0 if none."""
        calls = self.calls[layer]
        if not calls:
            return 0.0
        key = DISTINCT[layer]
        distinct = {(inv, key(args, kw)) for inv, args, kw in calls}
        return len(distinct) / len(calls)

    def write(self, path: str):
        import numpy as np

        layer, start, end, parent = self.spans()
        np.savez(path, layer_names=np.array(LAYERS), layer=layer, start=start,
                 end=end, parent=parent)
