"""Benchmark of elsched's campaigns, end to end and layer by layer.

    python3 benchmark/run.py --workload constrained --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

Run from the root of a checkout; elsched is imported from its ``src/``.
One workload runs in this process, single-threaded and with no process
pool (``EL_SCHED_THREADS=1``); ``--workload all`` runs each workload in a
fresh child process, one after another.  The timed phase runs whole
passes of items until ``--seconds`` have gone by, checking every output
(pass 0 with the costly re-derivations too).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("constrained", "arbitrary", "soundness", "trace")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
OUT_DIR = ROOT / ".benchmark-out"
MAX_REPORTED = 20


def import_program() -> None:
    """Import elsched from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import elsched
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import elsched from {src}: {exc}") from exc
    if Path(elsched.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"run.py: imported elsched from {elsched.__file__}, not {src}")


class Run:
    """Counts, latencies and problems of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.sets = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def attempt(self, item, full: bool, tracer=None) -> float:
        """Run, time and check one item; return its latency in seconds.
        With a tracer, the item runs traced."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            out = item.run()
            latency = time.perf_counter() - start
        except Exception:
            self.failed += 1
            self.problems.append(f"{item.kind}: {traceback.format_exc()}")
            return 0.0
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.settle()
        problems = item.check(out, full)
        if problems:
            self.failed += 1
            self.problems.extend(f"{item.kind}: {p}" for p in problems)
        self.latencies.append(latency)
        self.sets += item.sets
        return latency


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ["EL_SCHED_THREADS"] = "1"
    import_program()
    import tracing
    import workloads

    # set-up: the import above, building the inputs (certifying the trace
    # pool, traced in a traced run) and one warm-up item
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[name](seed)
    if tracer is not None:
        tracer.uninstall()
    run = Run()
    warm_up = workload.warm_up
    run.problems.extend(f"warm-up: {p}" for p in warm_up.check(warm_up.run(), False))
    setup_s = time.perf_counter() - _T_START

    plain_s = traced_s = 0.0
    begin = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - begin < seconds:
        for i, item in enumerate(workload.make_pass(p)):
            if tracer is None:
                run.attempt(item, p == 0)
                continue
            # the same item untraced and traced, alternating which goes first
            for traced in ((False, True) if (p + i) % 2 == 0 else (True, False)):
                latency = run.attempt(item, p == 0 and not traced, tracer if traced else None)
                if traced:
                    traced_s += latency
                else:
                    plain_s += latency
        p += 1
    if threading.active_count() != 1:
        run.problems.append(f"{threading.active_count()} threads are running")

    if tracer is None:
        lat_ms = sorted(x * 1e3 for x in run.latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "sets_per_s": (run.sets / sum(run.latencies), "1/s"),
            "item_p50_ms": (statistics.median(lat_ms), "ms"),
            "item_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.items"] = (len(run.latencies) // 2, "count")
        metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
        tracer.write_spans(OUT_DIR / f"spans-{name}-{seed}.tsv")

    for problem in run.problems[:MAX_REPORTED]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{name} seed {seed}: {p} passes, {run.attempted} items, {run.failed} failed, "
          f"{len(run.problems)} problems")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in a fresh child process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"run.py: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name}: {json.dumps(result)}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be non-negative")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
