"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``TARGETS`` by a
wrapper that times the call as a span and attributes it to the innermost
open span, its parent.  Per span name it keeps the call count, the total
time and the self time (total minus the time covered by child spans).
Spans of coarse functions are also kept whole as (name, start, end,
parent); the hot ones (``HOT``) are only aggregated, which keeps memory
flat at millions of calls.  ``Tracer.restore`` puts every original back.
Times come from the ``clock`` given to the tracer, in nanoseconds.

``after`` hooks inspect a call's arguments and result once its span has
closed.  Tracing is paused while a hook runs, and the time it takes is
charged to no span, so hooks never add calls or inflate the self time of
the caller.
"""

from __future__ import annotations

import time

# (module, attribute path, span name).  The span name's first part is the
# layer: engine, chart, dual, snc, poly, cli.
TARGETS = (
    ("resolution_engine", "run", "engine.run"),
    ("resolution_engine", "step", "engine.step"),
    ("resolution_engine", "select_center", "engine.select_center"),
    ("resolution_engine", "validate_state", "engine.validate_state"),
    ("resolution_engine", "ResolutionState.dual_bytes", "engine.dual_bytes"),
    ("resolution_engine", "trace_to_obj", "engine.trace_to_obj"),
    ("resolution_engine", "state_from_obj", "engine.state_from_obj"),
    ("resolution_engine", "replay_trace", "engine.replay_trace"),
    ("chart_calculus", "mdeg", "chart.mdeg"),
    ("chart_calculus", "is_resolved", "chart.is_resolved"),
    ("chart_calculus", "children", "chart.children"),
    ("chart_calculus", "local_equation", "chart.local_equation"),
    ("dual_complex", "homology", "dual.homology"),
    ("dual_complex", "smith_invariant_factors", "dual.smith_invariant_factors"),
    ("dual_complex", "boundary_matrix", "dual.boundary_matrix"),
    ("dual_complex", "validate", "dual.validate"),
    ("dual_complex", "remove_open_star", "dual.remove_open_star"),
    ("dual_complex", "canonical_json", "dual.canonical_json"),
    ("snc_model", "dual_complex_of", "snc.dual_complex_of"),
    ("snc_model", "validate_snc", "snc.validate_snc"),
    ("snc_model", "blowup_center", "snc.blowup_center"),
    ("poly_oracle", "verify_rule", "poly.verify_rule"),
    ("poly_oracle", "strict_transform", "poly.strict_transform"),
    ("poly_oracle", "Substitution.apply", "poly.Substitution.apply"),
    ("poly_oracle", "Polynomial.__init__", "poly.Polynomial.init"),
    ("poly_oracle", "Polynomial.__mul__", "poly.Polynomial.mul"),
    ("poly_oracle", "Polynomial.substitute", "poly.Polynomial.substitute"),
    ("cli", "main", "cli.main"),
)

HOT = frozenset({
    "chart.mdeg", "chart.is_resolved", "chart.children", "chart.local_equation",
    "poly.strict_transform", "poly.Substitution.apply", "poly.Polynomial.init",
    "poly.Polynomial.mul", "poly.Polynomial.substitute",
})

# Layers whose busy time is reported; the cli layer has one span, cli.main.
LAYERS = ("engine", "chart", "dual", "snc", "poly")


def _owner(module, path: str):
    """The object holding the attribute at the end of a dotted path."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock  # nanoseconds
        self.stats = {}   # span name -> [calls, total ns, self ns]
        self.spans = []   # (name, start ns, end ns, parent name) of non-hot spans
        self._stack = []  # open spans: [name, start ns, ns covered by children]
        self._paused = [False]
        self._patches = []

    def install(self, modules: dict, after: dict | None = None):
        """Wrap every target; ``modules`` maps short module names to modules."""
        after = after or {}
        for module_name, path, name in TARGETS:
            owner, attr = _owner(modules[module_name], path)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, after.get(name)))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, func, name: str, hook):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = None if name in HOT else self.spans
        clock = self.clock
        paused = self._paused

        def traced(*args, **kwargs):
            if paused[0]:
                return func(*args, **kwargs)
            frame = [name, clock(), 0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if spans is not None:
                    spans.append((name, frame[1], end,
                                  parent[0] if parent is not None else None))
            if hook is not None:
                paused[0] = True
                try:
                    hook(args, result, duration)
                finally:
                    paused[0] = False
                if parent is not None:
                    parent[2] += clock() - end
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = func.__doc__
        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def busy_s(self, layer: str) -> float:
        """Self time summed over the layer's spans: time spent in the layer."""
        return sum(s[2] for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer) / 1e9
