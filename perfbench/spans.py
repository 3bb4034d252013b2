"""Span recording around orbitloop's module boundaries, for the traced run.

The tracer replaces each target function, in every loaded orbitloop module
that holds it, with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The wrappers are installed wherever the
# function object is bound, so `from .x import f` copies are covered too.
SPAN_TARGETS = (
    ("orbitloop._dopri", "propagate_grid", "dopri.propagate_grid"),
    ("orbitloop.cli", "build_scenario", "cli.build_scenario"),
    ("orbitloop.cli", "write_series", "cli.write_series"),
    ("orbitloop.simulate", "run_scenario", "simulate.run_scenario"),
    ("orbitloop.simulate", "compute_metrics", "simulate.compute_metrics"),
    ("orbitloop.simulate", "compare_methods", "simulate.compare_methods"),
    ("orbitloop.synthesis", "lqr_gain", "synthesis.lqr_gain"),
    ("orbitloop.synthesis", "observer_gain", "synthesis.observer_gain"),
    ("orbitloop.synthesis", "hinf_state_feedback",
     "synthesis.hinf_state_feedback"),
    ("orbitloop.synthesis", "solve_care", "synthesis.solve_care"),
    ("orbitloop.synthesis", "solve_hinf_riccati", "synthesis.solve_hinf_riccati"),
    ("orbitloop.dynamics", "lambert_solve", "dynamics.lambert_solve"),
    ("orbitloop.ltisys", "step_response", "ltisys.step_response"),
    ("orbitloop.ltisys", "frequency_response", "ltisys.frequency_response"),
    ("orbitloop.linalg", "solve_lyapunov", "linalg.solve_lyapunov"),
    ("orbitloop.linalg", "expm", "linalg.expm"),
)


class Tracer:
    """Collects spans and counters; `install` wraps the targets and returns
    a callable that restores the original functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_calls(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, count_rhs: bool):
        """Wrap every SPAN_TARGETS function, plus a call counter on the
        kernel's RHS when it runs as Python (`count_rhs`)."""
        hooks = {
            "dopri.propagate_grid": lambda args: self.counts.update(
                {"dopri.output_samples": len(args[1])}),
            "cli.write_series": lambda args: self.counts.update(
                {"cli.write_series_rows": args[0].times.size}),
        }
        replacements = []
        for module, attr, name in SPAN_TARGETS:
            fn = getattr(sys.modules[module], attr)
            replacements.append((fn, self._wrap(name, fn, hooks.get(name))))
        if count_rhs:
            # The Python kernel looks _rhs_impl up in its module at call time.
            fn = sys.modules["orbitloop._dopri"]._rhs_impl
            replacements.append((fn, self._count_calls("dopri.rhs_evals", fn)))

        undo = []
        for module in [m for n, m in sys.modules.items()
                       if n == "orbitloop" or n.startswith("orbitloop.")]:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                for fn, wrapper in replacements:
                    if value is fn:
                        namespace[key] = wrapper
                        undo.append((namespace, key, fn))

        def restore():
            for namespace, key, fn in undo:
                namespace[key] = fn
        return restore

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by its direct children)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out
