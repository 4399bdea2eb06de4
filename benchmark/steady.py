"""Steadiness of the benchmark: repeated runs, their medians and spreads.

    python3 benchmark/steady.py --runs 10 --first-seed 101 --out steady-a.json
    python3 benchmark/steady.py --compare steady-a.json steady-b.json

Runs ``run.py`` once per seed and workload, one run at a time, with the
run length of BENCHMARK.json.  For every end-to-end metric it records the
ten values, their median and quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median, against the metric's bound.  ``--compare`` reports, for two such
records, how far the second median moved from the first, in the worse
direction, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(workloads: list[str], runs: int, first_seed: int, seconds: int) -> dict:
    spec = _spec()
    record: dict = {"seconds": seconds, "seeds": list(range(first_seed, first_seed + runs)),
                    "workloads": {}}
    for name in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        shares = []
        for seed in record["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(ROOT / spec["command"][1]), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: outputs are not correct")
            shares.append(result["failed"] / result["attempted"])
            for key in values:
                values[key].append(result["metrics"][key]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        entry = {"failed_share": shares, "metrics": {}}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry["metrics"][m["name"]] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"],
            }
        record["workloads"][name] = entry
    return record


def report(record: dict) -> None:
    print(f"{'workload':12} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound/3':>7}")
    for name, entry in record["workloads"].items():
        for key, m in entry["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- wide"
            print(f"{name:12} {key:12} {m['median']:10.4g} {m['q1']:10.4g} {m['q3']:10.4g} "
                  f"{m['spread']:7.3f} {m['bound'] / 3:7.3f}{flag}")


def compare(first: dict, second: dict) -> None:
    better = {m["name"]: m["better"] for m in _spec()["end_to_end"]}
    print(f"{'workload':12} {'metric':12} {'median 1':>10} {'median 2':>10} {'worse by':>8} {'bound':>6}")
    for name, entry in second["workloads"].items():
        for key, m in entry["metrics"].items():
            a = first["workloads"][name]["metrics"][key]["median"]
            b = m["median"]
            worse = (b - a) / a if better[key] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  <-- over bound"
            print(f"{name:12} {key:12} {a:10.4g} {b:10.4g} {worse:8.3f} {m['bound']:6.2f}{flag}")
        if entry["failed_share"] != first["workloads"][name]["failed_share"]:
            print(f"{name}: failed shares differ")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in _spec()["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=_spec()["run_seconds"])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        compare(*(json.loads(p.read_text()) for p in args.compare))
        return 0
    record = collect(args.workloads, args.runs, args.first_seed, args.seconds)
    report(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
