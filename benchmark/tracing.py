"""Per-layer tracing of elsched from outside the program.

`Tracer.install()` replaces each traced public function, in every elsched
module that holds it under its name (``experiments`` imports the
analysis and simulator functions by name), with a wrapper that records a
span ``(name, start, end, parent)`` and the layer's counts.
`uninstall()` puts the originals back.  Spans stay in memory until
`write_spans()`.  A span's self time is its duration minus the time its
child spans cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

from elsched import analysis, experiments, generator, model, simulator

MODULES = {
    "analysis": analysis, "experiments": experiments, "generator": generator,
    "model": model, "simulator": simulator,
}


def _analysis_counts(name: str) -> Callable:
    def count(tracer: Tracer, out, args, kwargs) -> None:
        tracer.counts[f"{name}.accepted"] += out.verdict
        tracer.counts[f"{name}.passes"] += out.iterations
    return count


def _trace_counts(tracer: Tracer, out, args, kwargs) -> None:
    tracer.counts["simulator.jobs"] += len(out.jobs)
    tracer.counts["simulator.intervals"] += len(out.intervals)


def _export_counts(tracer: Tracer, out, args, kwargs) -> None:
    tracer.counts["simulator.export_trace.bytes"] += len(out.encode())


def _unrecorded_run(tracer: Tracer, out, args, kwargs) -> None:
    # random_run_feasible returns only a verdict; its jobs are counted
    # after the item, by regenerating the sequence (see Tracer.settle)
    tracer.deferred.append((args, kwargs))


# Traced layers, in report order, with the counts each one feeds.
LAYERS: tuple[tuple[str, Callable | None], ...] = (
    ("generator.synthesize", None),
    ("model.derive_priority_points", None),
    ("analysis.test_fixed", _analysis_counts("analysis.test_fixed")),
    ("analysis.test_variable", _analysis_counts("analysis.test_variable")),
    ("analysis.baseline_susp_obl", _analysis_counts("analysis.baseline_susp_obl")),
    ("analysis.test_tfp", _analysis_counts("analysis.test_tfp")),
    ("simulator.random_run_feasible", _unrecorded_run),
    ("simulator.generate_job_sequence", None),
    ("simulator.simulate_el", _trace_counts),
    ("simulator.simulate_tfp", _trace_counts),
    ("simulator.check_feasibility", None),
    ("simulator.response_times", None),
    ("simulator.export_trace", _export_counts),
    ("simulator.measure_state_times", None),
    ("experiments.acceptance_sweep", None),
    ("experiments.lambda_sweep", None),
    ("experiments.verify_soundness", None),
)

COUNTS = tuple(
    f"analysis.{t}.{c}"
    for t in ("test_fixed", "test_variable", "baseline_susp_obl", "test_tfp")
    for c in ("accepted", "passes")
) + ("simulator.jobs", "simulator.intervals", "simulator.export_trace.bytes")

STATS = (("calls", "count"), ("busy_ms", "ms"), ("self_ms", "ms"), ("p50_us", "us"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.deferred: list[tuple[tuple, dict]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        for name, count in LAYERS:
            module, attr = name.split(".")
            original = getattr(MODULES[module], attr)
            wrapper = self._wrap(name, original, count)
            for mod in MODULES.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def settle(self) -> None:
        """Count the jobs of the unrecorded runs since the last call; run
        with the tracer uninstalled, outside every span."""
        signature = inspect.signature(simulator.random_run_feasible)
        for args, kwargs in self.deferred:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = dict(bound.arguments)
            del params["rel_points"]
            self.counts["simulator.jobs"] += len(simulator.generate_job_sequence(**params).jobs)
        self.deferred.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer `calls`, `busy_ms`, `self_ms` and `p50_us`, then the
        counts; a layer never called reads 0.  Call with no span open."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        durations: dict[str, list[float]] = {name: [] for name, _ in LAYERS}
        self_time: Counter = Counter()
        for (name, start, end, _), child_time in zip(self.spans, covered):
            durations[name].append(end - start)
            self_time[name] += end - start - child_time
        out: dict[str, tuple[float, str]] = {}
        for name, _ in LAYERS:
            d = durations[name]
            values = (len(d), sum(d) * 1e3, self_time[name] * 1e3,
                      statistics.median(d) * 1e6 if d else 0.0)
            for (stat, unit), value in zip(STATS, values):
                out[f"{name}.{stat}"] = (value, unit)
        for name in COUNTS:
            out[name] = (self.counts[name], "bytes" if name.endswith("bytes") else "count")
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: name, start and end in
        microseconds from the first span, parent line number (-1: none)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\t{parent}\n")
