"""Reference costs of elsched's layers and the drift of this machine.

    python3 benchmark/reference.py [--drift-seconds 30] [--out reference.json]

Single-threaded (``EL_SCHED_THREADS=1``), in this process except for the
fresh-process campaign runs.  Prints one line per measurement and, with
``--out``, writes them as JSON.  The README's reference table comes from
this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["EL_SCHED_THREADS"] = "1"

from elsched import analysis, experiments, generator, model, simulator  # noqa: E402

CAMPAIGN = ("from elsched import experiments; "
            "experiments.verify_soundness(sets=100, master_seed=0, sims_per_set=20)")


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _sets(count: int, u: Fraction, factor: Fraction = Fraction(1), period_range=(1, 100)):
    return [
        generator.synthesize(generator.GenSpec(
            n=10, u_total=u, seed=seed, period_range=period_range, deadline_factor=factor))
        for seed in range(count)
    ]


def layer_costs() -> dict[str, float]:
    """Per-call costs in ms, medians unless named otherwise."""
    out: dict[str, float] = {}
    specs = [generator.GenSpec(n=10, u_total=Fraction(1, 2), seed=s) for s in range(200)]
    out["synthesize_ms"] = statistics.median(_timed(generator.synthesize, s) for s in specs) * 1e3
    for name, factor in (("fixed_D=T", Fraction(1)), ("variable_D=1.5T", Fraction(3, 2))):
        test = analysis.test_fixed if name.startswith("fixed") else analysis.test_variable
        times = [
            _timed(test, ts, [t.deadline for t in ts])
            for u in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
            for ts in _sets(40, u, factor)
        ]
        out[f"{name}_median_ms"] = statistics.median(times) * 1e3
        out[f"{name}_max_ms"] = max(times) * 1e3
    cells = [
        _timed(experiments.acceptance_sweep, experiments.SweepConfig(
            master_seed=seed, utilizations=(u,), sets_per_point=10), workers=1)
        for seed in range(3) for u in experiments.utilization_grid(5, 100, 5)
    ]
    out["constrained_cell_10_sets_median_ms"] = statistics.median(cells) * 1e3
    eqdf = [
        _timed(experiments.lambda_sweep, experiments.LambdaSweepConfig(
            master_seed=seed, utilizations=(u,), sets_per_point=10, weights=(-2, -1, 0, 1, 2),
            deadline_factors=(Fraction(3, 2),), test="variable"), workers=1)
        for seed in range(2) for u in experiments.utilization_grid(10, 100, 10)
    ]
    out["eqdf_cell_10_sets_5_weights_median_ms"] = statistics.median(eqdf) * 1e3
    out["eqdf_cell_10_sets_5_weights_max_ms"] = max(eqdf) * 1e3

    ts = _sets(1, Fraction(1, 2), period_range=(20, 100))[0]
    pts = model.derive_priority_points(ts, model.PriorityPolicy.edf())
    horizon = 20 * max(t.period for t in ts)
    kw = dict(release_model="sporadic-jittered", suspension_model="random-phases",
              demand_model="random")
    seqs = [simulator.generate_job_sequence(ts, horizon, s, **kw) for s in range(30)]
    out["jobs_per_sequence"] = statistics.mean(len(q.jobs) for q in seqs)
    out["random_run_feasible_ms"] = statistics.median(
        _timed(simulator.random_run_feasible, ts, pts, horizon, s, **kw) for s in range(30)) * 1e3
    out["generate_job_sequence_ms"] = statistics.median(
        _timed(simulator.generate_job_sequence, ts, horizon, s, **kw) for s in range(30)) * 1e3
    out["simulate_el_ms"] = statistics.median(
        _timed(simulator.simulate_el, ts, pts, q) for q in seqs) * 1e3
    traces = [simulator.simulate_el(ts, pts, q) for q in seqs]
    out["export_trace_ms"] = statistics.median(_timed(simulator.export_trace, t) for t in traces) * 1e3
    width = horizon // 10
    out["state_window_tenth_ms"] = statistics.median(
        _timed(simulator.measure_state_times, t, ts, pts, i % 10, (i * 997) % (horizon - width),
               (i * 997) % (horizon - width) + width)
        for i, t in enumerate(traces)) * 1e3
    return out


def drift(seconds: float) -> dict[str, object]:
    """One-second medians of a fixed pure-Python loop, and a serial
    100-set soundness campaign repeated in one process and in fresh ones."""
    def loop() -> None:
        acc = 0
        for i in range(20_000):
            acc += i * i % 7

    medians = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        second = time.perf_counter() + 1
        samples = []
        while time.perf_counter() < second:
            samples.append(_timed(loop))
        medians.append(statistics.median(samples) * 1e3)
    in_process = [_timed(experiments.verify_soundness, sets=100, master_seed=0, sims_per_set=20)
                  for _ in range(5)]
    fresh = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CAMPAIGN], check=True,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        fresh.append(time.perf_counter() - start)
    return {
        "loop_1s_medians_ms": medians,
        "loop_median_swing": (max(medians) - min(medians)) / statistics.median(medians),
        "campaign_in_process_s": in_process,
        "campaign_fresh_process_s": fresh,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--drift-seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    record = {"python": sys.version.split()[0], "cpus": os.cpu_count()}
    record.update(layer_costs())
    record.update(drift(args.drift_seconds))
    for key, value in record.items():
        print(f"{key}: {value}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
