"""Command-line interface.

Subcommands: generate (synthesize task sets), analyze (schedulability
tests; exit code 0 = certified schedulable, 1 = no decision, 2 = input
error), simulate (random job sequence -> trace and response times),
sweep / lambda-sweep (acceptance-ratio campaigns to CSV), verify
(randomized cross-validation campaigns), bench (analysis runtime).

Campaigns that evaluate independent cells honor the EL_SCHED_THREADS
environment variable for their worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import experiments
from .analysis import (
    DEFAULT_CONFIG, TESTS, TestConfig, result_csv_header, result_csv_row, run_test,
)
from .experiments import LambdaSweepConfig, PolicyChoice, SweepConfig
from .generator import BatchEntry, GenSpec, dump_batch, synthesize_counting
from .model import (
    POLICY_KINDS,
    PriorityPolicy,
    TasksetFormatError,
    format_taskset_text,
    load_taskset,
    derive_priority_points,
)
from .simulator import (
    DEMAND_MODELS,
    RELEASE_MODELS,
    SUSPENSION_MODELS,
    export_trace,
    generate_job_sequence,
    check_feasibility,
    response_times,
    simulate_el,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _policy_from_args(args: argparse.Namespace) -> PriorityPolicy:
    points = None
    if args.pp is not None:
        try:
            points = tuple(int(p) for p in args.pp.split(","))
        except ValueError as exc:
            raise TasksetFormatError(f"bad --pp list: {args.pp!r}") from exc
    return PriorityPolicy(args.policy, args.weight, points)


def _test_config(args: argparse.Namespace) -> TestConfig:
    return TestConfig(eta=args.eta, depth=args.depth, max_a=args.max_a)


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICY_KINDS, default="edf",
                   help="priority-point policy (default: edf)")
    p.add_argument("--lambda", dest="weight", type=_fraction, default=None,
                   help="weight for eqdf/saedf priority points")
    p.add_argument("--pp", default=None,
                   help="comma-separated explicit relative priority points")


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=_fraction, default=DEFAULT_CONFIG.eta,
                   help="window grid resolution as a fraction of the deadline "
                        f"(default: {float(DEFAULT_CONFIG.eta):g})")
    p.add_argument("--depth", type=int, default=DEFAULT_CONFIG.depth,
                   help="refinement passes (default: %(default)s)")
    p.add_argument("--max-a", type=int, default=DEFAULT_CONFIG.max_a,
                   help="extra periods the variable-window test may reach back "
                        "(default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="el-sched",
        description="Schedulability analysis and simulation of self-suspending "
                    "tasks under EDF-like (priority-point) scheduling.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize random task sets")
    g.add_argument("--n", type=int, default=10, help="tasks per set (default: 10)")
    g.add_argument("--u", type=_fraction, required=True, help="total utilization")
    g.add_argument("--x", type=_fraction, default=Fraction(1),
                   help="deadline = x * period (default: 1)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=1,
                   help="sets to generate; one writes a task-set file, more "
                        "write JSON lines (default: 1)")
    g.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    a = sub.add_parser("analyze", help="run a schedulability test")
    a.add_argument("taskset", help="task-set file")
    _add_policy_flags(a)
    a.add_argument("--test", choices=TESTS,
                   default="fixed",
                   help="fixed/variable window test or the suspension-oblivious "
                        "baseline (default: fixed)")
    _add_test_flags(a)
    a.add_argument("--id", default=None, help="task-set id for CSV output")
    a.add_argument("--csv", action="store_true",
                   help="emit the result as one CSV row")

    s = sub.add_parser("simulate", help="simulate one random job sequence")
    s.add_argument("taskset", help="task-set file")
    _add_policy_flags(s)
    s.add_argument("--horizon", type=int, default=None,
                   help="ticks to simulate (default: 20 * max period)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--release-model", choices=RELEASE_MODELS,
                   default="sporadic-jittered")
    s.add_argument("--suspension-model", choices=SUSPENSION_MODELS,
                   default="random-phases")
    s.add_argument("--demand-model", choices=DEMAND_MODELS, default="wcet")
    s.add_argument("--trace-out", default=None, help="write the trace text here")

    w = sub.add_parser("sweep", help="acceptance-ratio sweep from a JSON config")
    w.add_argument("--config", required=True, help="JSON sweep configuration")
    w.add_argument("-o", "--outdir", default=".", help="CSV output directory")

    lw = sub.add_parser("lambda-sweep",
                        help="weighted-policy sweep from a JSON config")
    lw.add_argument("--config", required=True, help="JSON sweep configuration")
    lw.add_argument("-o", "--outdir", default=".", help="CSV output directory")

    v = sub.add_parser("verify", help="randomized cross-validation campaigns")
    v.add_argument("campaign", choices=("soundness", "tfp-equivalence",
                                        "fixed-vs-variable", "non-dominance"))
    v.add_argument("--budget", type=int, default=100,
                   help="sets to examine (default: 100)")
    v.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("bench", help="analysis runtime benchmark")
    b.add_argument("--n-list", default="10,50",
                   help="comma-separated set sizes (default: 10,50)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("-o", "--output", default=None, help="CSV path (default: stdout)")

    return ap


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return 2
    if args.count > 1 and not args.output:
        print("error: --count > 1 requires -o", file=sys.stderr)
        return 2
    seeds = ([args.seed] if args.count == 1 else
             [experiments.cell_seed(args.seed, "generate", i) for i in range(args.count)])
    drawn = [synthesize_counting(GenSpec(
        n=args.n, u_total=args.u, seed=seed, deadline_factor=args.x,
    )) for seed in seeds]
    if args.count > 1:
        dump_batch([BatchEntry(id=f"set{i}", seed=seed, u_target=args.u, taskset=ts)
                    for i, (seed, (ts, _)) in enumerate(zip(seeds, drawn))], args.output)
    elif args.output:
        Path(args.output).write_text(format_taskset_text(drawn[0][0]))
    else:
        sys.stdout.write(format_taskset_text(drawn[0][0]))
    total_discards = sum(discards for _, discards in drawn)
    if total_discards:
        print(f"discarded {total_discards} utilization draws "
              f"(single-task utilization above 1)", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    ts = load_taskset(args.taskset)
    policy = _policy_from_args(args)
    pts = derive_priority_points(ts, policy)
    result = run_test(args.test, ts, pts, _test_config(args))
    taskset_id = args.id or Path(args.taskset).stem
    label = policy.label()
    if args.csv:
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(result_csv_header(len(ts)))
        rows.writerow(result_csv_row(taskset_id, label, result))
    else:
        verdict = "schedulable" if result.verdict else "no decision"
        print(f"{taskset_id}: {verdict} ({label}, {args.test} window, "
              f"passes: {result.iterations})")
        for i, (task, bound) in enumerate(zip(ts, result.bounds)):
            print(f"  task {i}: response bound {bound} / deadline {task.deadline}")
    return 0 if result.verdict else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    ts = load_taskset(args.taskset)
    policy = _policy_from_args(args)
    pts = derive_priority_points(ts, policy)
    horizon = args.horizon
    if horizon is None:
        horizon = 20 * max(t.period for t in ts)
    seq = generate_job_sequence(
        ts, horizon, args.seed,
        release_model=args.release_model,
        suspension_model=args.suspension_model,
        demand_model=args.demand_model,
    )
    trace = simulate_el(ts, pts, seq)
    if args.trace_out:
        Path(args.trace_out).write_text(export_trace(trace))
    per_job, per_task, unfinished = response_times(trace)
    feasible = check_feasibility(trace, ts)
    n_jobs = len(per_job) + len(unfinished)   # every job, finished or not
    print(f"{policy.label()}: horizon {horizon}, {n_jobs} jobs, "
          f"feasible: {'yes' if feasible else 'NO'}")
    for tid in range(len(ts)):
        worst = per_task.get(tid)
        shown = "-" if worst is None else str(worst)
        print(f"  task {tid}: worst observed response {shown} "
              f"/ deadline {ts[tid].deadline}")
    if unfinished:
        print(f"  unfinished at horizon: {len(unfinished)} jobs")
    return 0


def _integer(value: object, what: str, lo: int | None = None) -> int:
    """An integral JSON number or numeral, at least lo."""
    f = _fraction(value) if isinstance(value, (int, float, str)) else None
    if f is None or f.denominator != 1 or lo is not None and f < lo:
        floor = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{what} must be an integer{floor}, got {value!r}")
    return int(f)


def _json_list(value: object, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _policy_from_json(obj: object) -> PolicyChoice:
    if not isinstance(obj, dict):
        raise ValueError(f"a policy entry must be an object, got {obj!r}")
    entry = _given(obj, {
        "policy": lambda v: v, "lambda": _fraction, "label": lambda v: v, "test": lambda v: v,
    }, "policy entry")
    policy = PriorityPolicy(entry.get("policy", "edf"), entry.get("lambda"))
    return PolicyChoice(
        entry.get("label", policy.label()), policy, entry.get("test", PolicyChoice.test)
    )


def _utilization_pct(grid: object) -> tuple[Fraction, ...]:
    try:
        return experiments.utilization_grid(grid["lo"], grid["hi"], grid["step"])
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"utilization_pct needs integer lo, hi and step, got {grid!r}"
        ) from exc


def _period_range(value: object) -> tuple:
    periods = _json_list(value, "period_range")
    if len(periods) != 2 or not all(type(p) in (int, float) for p in periods):
        raise ValueError(f"period_range needs two numbers, got {periods!r}")
    return tuple(periods)


def _sweep_name(value: object) -> str:
    # the name goes into the CSV file name (`sweep_csv_path`)
    if not isinstance(value, str) or not value or "/" in value or "\\" in value:
        raise ValueError(
            f"a sweep name must be a non-empty string with no path separator, got {value!r}"
        )
    return value


def _given(obj: dict, readers: dict, what: str) -> dict:
    """Each key of `readers` that `obj` gives, read by its reader.  A key
    no reader reads is refused, so a misspelt field is never ignored."""
    for key in obj:
        if key not in readers:
            raise ValueError(f"unknown {what} field {key!r}; known: {', '.join(readers)}")
    return {key: read(obj[key]) for key, read in readers.items() if key in obj}


def _sweep_config(path: str, own: dict) -> dict:
    """The fields a sweep config file gives, checked: those both sweeps
    share and those the `own` readers read; any other field is refused.
    The sweep's config class fills in every field the file omits."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError("a sweep config must be a JSON object")
    test_readers = {
        "eta": _fraction,
        "depth": lambda v: _integer(v, "depth"),
        "max_a": lambda v: _integer(v, "max_a"),
    }
    fields = _given(obj, {
        "name": _sweep_name,
        "master_seed": lambda v: _integer(v, "master_seed"),
        "utilizations": lambda v: tuple(map(_fraction, _json_list(v, "utilizations"))),
        "sets_per_point": lambda v: _integer(v, "sets_per_point", 1),
        "n": lambda v: _integer(v, "n", 1),
        "deadline_factors": lambda v: tuple(map(_fraction, _json_list(v, "deadline_factors"))),
        "period_range": _period_range,
        "utilization_pct": _utilization_pct,
        **test_readers,
        **own,
    }, "sweep config")
    if "utilization_pct" in fields:
        fields.setdefault("utilizations", fields.pop("utilization_pct"))
    fields["test_config"] = TestConfig(**{k: fields.pop(k) for k in test_readers if k in fields})
    return fields


def _write_sweep(rows: list[dict], cfg: SweepConfig | LambdaSweepConfig, outdir: str) -> int:
    path = experiments.sweep_csv_path(outdir, cfg.name, cfg.master_seed)
    experiments.write_rows_csv(path, rows)
    print(path)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(**_sweep_config(args.config, {
        "policies": lambda v: tuple(map(_policy_from_json, _json_list(v, "policies"))),
    }))
    return _write_sweep(experiments.acceptance_sweep(cfg), cfg, args.outdir)


def _cmd_lambda_sweep(args: argparse.Namespace) -> int:
    cfg = LambdaSweepConfig(**_sweep_config(args.config, {
        "family": lambda v: v,
        "test": lambda v: v,
        "weights": lambda v: tuple(_integer(w, "weight") for w in _json_list(v, "weights")),
    }))
    return _write_sweep(experiments.lambda_sweep(cfg), cfg, args.outdir)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise ValueError("--budget must be at least 1")
    if args.campaign == "soundness":
        rep = experiments.verify_soundness(sets=args.budget, master_seed=args.seed)
        print(f"{len(rep.outcomes)} sets, {rep.accepted} accepted, "
              f"{rep.sims_run} simulations, {len(rep.violations)} deadline misses")
        for v in rep.violations[:10]:
            print(f"  MISS: {v}")
        return 1 if rep.violations else 0
    if args.campaign == "tfp-equivalence":
        rep = experiments.verify_fp_equivalence(
            target_accepted=max(1, args.budget // 10), master_seed=args.seed)
        print(f"{rep.accepted} certified sets of {rep.attempts} tried, "
              f"{rep.sequences} traces compared, {len(rep.mismatches)} mismatches")
        return 1 if rep.mismatches else 0
    if args.campaign == "fixed-vs-variable":
        rep = experiments.verify_fixed_vs_extended(sets=args.budget, master_seed=args.seed)
        print(f"{rep.sets} deadline-equals-period sets, "
              f"{len(rep.mismatches)} disagreements")
        return 1 if rep.mismatches else 0
    search = experiments.find_non_dominance_pair(budget=args.budget, master_seed=args.seed)
    print(f"checked {search.checked} sets")
    for name, wit in (("fixed-only", search.fixed_only),
                      ("variable-only", search.extended_only)):
        if wit is None:
            print(f"  {name}: not found")
        else:
            print(f"  {name}: seed {wit.seed}, u {wit.u_target}, "
                  f"x {wit.deadline_factor}")
    return 0 if search.complete else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    ns = tuple(int(x) for x in args.n_list.split(","))
    rows = experiments.runtime_benchmark(ns=ns, master_seed=args.seed)
    if args.output:
        experiments.write_rows_csv(args.output, rows)
        print(args.output)
    else:
        print("n,sets,mean_s,max_s")
        for r in rows:
            print(f"{r['n']},{r['sets']},{r['mean_s']:.4f},{r['max_s']:.4f}")
    return 0


# options whose value may be negative, and the start of such a value
_SIGNED_OPTIONS = ("--lambda", "--pp")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _join_signed_values(argv: list[str]) -> list[str]:
    """`argv` with `--lambda V` and `--pp V` written `--lambda=V` and
    `--pp=V` when V starts with a minus and a digit or point: argparse
    reads such a word as an option, not as a value, unless it is a plain
    negative integer or decimal (`-1/2` and `-1,2` are neither)."""
    out: list[str] = []
    for k, arg in enumerate(argv):
        if arg == "--":
            return out + argv[k:]
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else argv)
    )
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "lambda-sweep": _cmd_lambda_sweep,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (
        TasksetFormatError, OSError, ValueError, json.JSONDecodeError,
        argparse.ArgumentTypeError,  # _fraction on a config value
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
