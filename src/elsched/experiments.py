"""Experiment campaigns: acceptance-ratio sweeps, priority-weight sweeps,
runtime benchmarks, cross-validation of the analysis against the
simulator, and targeted searches for sets where the two window tests
disagree.

Campaigns are deterministic: every synthesized set's seed is derived by
hashing the master seed with the cell coordinates (utilization, deadline
factor, set index), so reruns and concurrent workers see identical
inputs.  The worker count for cell-parallel campaigns honors the
EL_SCHED_THREADS environment variable.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .analysis import (
    TESTS,
    AnalysisResult,
    TestConfig,
    test_variable,
    test_tfp,
    test_fixed,
    baseline_susp_obl,
    run_test,
)
from .generator import GenSpec, synthesize
from .model import PriorityPolicy, TaskSet, derive_priority_points
from .simulator import (
    generate_job_sequence,
    random_run_feasible,
    simulate_el,
    simulate_tfp,
)


def worker_count() -> int:
    """Workers for cell-parallel campaigns: EL_SCHED_THREADS if set,
    otherwise the CPUs this process may run on (the machine's CPU count
    where the platform cannot tell)."""
    env = os.environ.get("EL_SCHED_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"EL_SCHED_THREADS must be an integer, got {env!r}") from exc
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable, items: Sequence, workers: int | None = None) -> list:
    """Order-preserving map over picklable items; plain loop when one
    worker suffices."""
    items = list(items)
    w = worker_count() if workers is None else max(1, workers)
    w = min(w, len(items)) if items else 1
    if w <= 1:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (w * 4))
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def cell_seed(master_seed: int, *parts: object) -> int:
    """Stable 63-bit seed from a master seed and cell coordinates."""
    text = "|".join([str(master_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def utilization_grid(lo_pct: int, hi_pct: int, step_pct: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(p, 100) for p in range(lo_pct, hi_pct + 1, step_pct))


@dataclass(frozen=True)
class PolicyChoice:
    """A labeled (policy, test) combination evaluated by sweeps."""

    label: str
    policy: PriorityPolicy
    test: str = "fixed"

    def __post_init__(self) -> None:
        if self.test not in TESTS:
            raise ValueError(f"unknown test kind {self.test!r}")

    def run(self, ts: TaskSet, config: TestConfig) -> AnalysisResult:
        return run_test(self.test, ts, derive_priority_points(ts, self.policy), config)


def _default_policies() -> tuple[PolicyChoice, ...]:
    return (
        PolicyChoice("edf", PriorityPolicy.edf(), "fixed"),
        PolicyChoice("susp-obl", PriorityPolicy.edf(), "baseline"),
    )


@dataclass(frozen=True)
class SweepConfig:
    """Acceptance-ratio sweep over a utilization grid.

    Desk scale by default (100 sets of 10 tasks per point); scale
    sets_per_point/n up for full campaigns.
    """

    name: str = "acceptance"
    master_seed: int = 0
    utilizations: tuple[Fraction, ...] = field(
        default_factory=lambda: utilization_grid(5, 100, 5)
    )
    sets_per_point: int = 100
    n: int = 10
    deadline_factors: tuple[Fraction, ...] = (Fraction(1),)
    period_range: tuple[float, float] = (1, 100)
    suspension_factor_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1, 2))
    policies: tuple[PolicyChoice, ...] = field(default_factory=_default_policies)
    test_config: TestConfig = field(default_factory=TestConfig)


def _set_for_cell(
    cfg: SweepConfig | LambdaSweepConfig, u: Fraction, x: Fraction, idx: int
) -> TaskSet:
    seed = cell_seed(cfg.master_seed, u, x, idx)
    return synthesize(GenSpec(
        n=cfg.n, u_total=u, seed=seed, period_range=cfg.period_range,
        deadline_factor=x, suspension_factor_range=cfg.suspension_factor_range,
    ))


def _sweep_cell(args: tuple[SweepConfig, Fraction, Fraction]) -> list[dict]:
    cfg, u, x = args
    counts = {p.label: 0 for p in cfg.policies}
    for idx in range(cfg.sets_per_point):
        ts = _set_for_cell(cfg, u, x, idx)
        for p in cfg.policies:
            if p.run(ts, cfg.test_config).verdict:
                counts[p.label] += 1
    return [
        {
            "deadline_factor": float(x),
            "utilization": float(u),
            "policy": label,
            "accepted": counts[label],
            "total": cfg.sets_per_point,
            "ratio": counts[label] / cfg.sets_per_point,
        }
        for label in counts
    ]


def acceptance_sweep(cfg: SweepConfig, workers: int | None = None) -> list[dict]:
    """Acceptance ratio of every configured policy on shared task sets,
    one row per (deadline factor, utilization, policy)."""
    cells = [(cfg, u, x) for x in cfg.deadline_factors for u in cfg.utilizations]
    rows: list[dict] = []
    for cell_rows in parallel_map(_sweep_cell, cells, workers):
        rows.extend(cell_rows)
    return rows


@dataclass(frozen=True)
class LambdaSweepConfig:
    """Sweep of the priority-point weight for the weighted deadline
    policies.  For each cell the 'best' pseudo-weight accepts a set if
    any swept weight accepts it.
    """

    family: str = "eqdf"
    name: str = "lambda"
    master_seed: int = 0
    utilizations: tuple[Fraction, ...] = field(
        default_factory=lambda: utilization_grid(5, 100, 5)
    )
    weights: tuple[int, ...] = tuple(range(-10, 11))
    sets_per_point: int = 100
    n: int = 10
    deadline_factors: tuple[Fraction, ...] = (Fraction(1),)
    period_range: tuple[float, float] = (1, 100)
    suspension_factor_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1, 2))
    test: str = "fixed"
    test_config: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self) -> None:
        if self.family not in ("eqdf", "saedf"):
            raise ValueError(f"unknown weighted family {self.family!r}")
        # weights are swept under a window test, never the baseline
        if self.test not in TESTS or self.test == "baseline":
            raise ValueError(f"unknown window test kind {self.test!r}")


def _lambda_cell(args: tuple[LambdaSweepConfig, Fraction, Fraction]) -> list[dict]:
    cfg, u, x = args
    counts = {w: 0 for w in cfg.weights}
    best = 0
    for idx in range(cfg.sets_per_point):
        ts = _set_for_cell(cfg, u, x, idx)
        hit = False
        for w in cfg.weights:
            pts = derive_priority_points(ts, PriorityPolicy(cfg.family, Fraction(w)))
            if run_test(cfg.test, ts, pts, cfg.test_config).verdict:
                counts[w] += 1
                hit = True
        if hit:
            best += 1
    rows = [
        {
            "deadline_factor": float(x),
            "utilization": float(u),
            "family": cfg.family,
            "weight": str(w),
            "accepted": counts[w],
            "total": cfg.sets_per_point,
            "ratio": counts[w] / cfg.sets_per_point,
        }
        for w in cfg.weights
    ]
    rows.append({
        "deadline_factor": float(x),
        "utilization": float(u),
        "family": cfg.family,
        "weight": "best",
        "accepted": best,
        "total": cfg.sets_per_point,
        "ratio": best / cfg.sets_per_point,
    })
    return rows


def lambda_sweep(cfg: LambdaSweepConfig, workers: int | None = None) -> list[dict]:
    if 0 not in cfg.weights:
        warnings.warn(
            "weight sweep without 0: the best-weight row is no longer "
            "guaranteed to dominate the plain deadline policy",
            stacklevel=2,
        )
    cells = [(cfg, u, x) for x in cfg.deadline_factors for u in cfg.utilizations]
    rows: list[dict] = []
    for cell_rows in parallel_map(_lambda_cell, cells, workers):
        rows.extend(cell_rows)
    return rows


def runtime_benchmark(
    ns: Sequence[int] = (10, 50),
    utilizations: Sequence[Fraction] = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)),
    sets_per_cell: int = 5,
    master_seed: int = 0,
    period_range: tuple[float, float] = (1, 100),
    config: TestConfig | None = None,
) -> list[dict]:
    """Wall-clock cost of the fixed-window test (deadline policy) per
    task set, aggregated per set size."""
    cfg = config or TestConfig()
    rows = []
    for n in ns:
        times = []
        for u in utilizations:
            for idx in range(sets_per_cell):
                seed = cell_seed(master_seed, u, n, idx)
                ts = synthesize(GenSpec(
                    n=n, u_total=u, seed=seed, period_range=period_range,
                ))
                pts = derive_priority_points(ts, PriorityPolicy.edf())
                t0 = time.perf_counter()
                test_fixed(ts, pts, cfg)
                times.append(time.perf_counter() - t0)
        rows.append({
            "n": n,
            "sets": len(times),
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
        })
    return rows


# --- cross-validation campaigns ------------------------------------------------


@dataclass(frozen=True)
class SetOutcome:
    seed: int
    u_target: Fraction
    deadline_factor: Fraction
    fixed: bool
    extended: bool
    oblivious: bool


@dataclass(frozen=True)
class SoundnessReport:
    outcomes: tuple[SetOutcome, ...]
    sims_run: int
    violations: tuple[dict, ...]

    @property
    def accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.fixed or o.extended)


# Soundness campaigns estimated to simulate fewer jobs than this stay on
# the plain loop.  On a 2-core machine a 2-worker pool took 10-20 ms to
# start and broke even near 25,000 estimated jobs; the margin keeps small
# campaigns from ever paying for it.
_POOL_MIN_JOBS = 50_000


def _soundness_set(
    args: tuple[int, Fraction, int, int, int, tuple[float, float], int, TestConfig],
) -> tuple[SetOutcome, int, list[dict]]:
    """One set of a soundness campaign: its three verdicts, then, if a
    window test accepts it, its simulations."""
    idx, u, master_seed, sims_per_set, n, period_range, horizon_factor, cfg = args
    x = Fraction(1)
    seed = cell_seed(master_seed, u, x, idx)
    ts = synthesize(GenSpec(
        n=n, u_total=u, seed=seed, period_range=period_range, deadline_factor=x,
    ))
    pts = derive_priority_points(ts, PriorityPolicy.edf())
    rf = test_fixed(ts, pts, cfg)
    re = test_variable(ts, pts, cfg)
    ro = baseline_susp_obl(ts, pts, cfg)
    outcome = SetOutcome(seed, u, x, rf.verdict, re.verdict, ro.verdict)
    if not (rf.verdict or re.verdict):
        return outcome, 0, []
    horizon = horizon_factor * max(t.period for t in ts)
    violations = []
    for s in range(sims_per_set):
        sim_seed = cell_seed(master_seed, "sim", idx, s)
        if not random_run_feasible(
            ts, pts, horizon, sim_seed,
            release_model="sporadic-jittered",
            suspension_model="random-phases",
            demand_model="random",
        ):
            violations.append({
                "set_seed": seed, "sim_seed": sim_seed,
                "u": str(u), "set_index": idx, "sim_index": s,
            })
    return outcome, sims_per_set, violations


def verify_soundness(
    sets: int = 100,
    master_seed: int = 0,
    sims_per_set: int = 20,
    n: int = 10,
    u_grid: Sequence[Fraction] | None = None,
    period_range: tuple[float, float] = (20, 100),
    horizon_factor: int = 20,
    config: TestConfig | None = None,
) -> SoundnessReport:
    """Fuzz the two window tests against the simulator on deadline-equals-
    period sets: whenever either test accepts a set (deadline policy),
    every random simulation must be deadline-miss free.  Suspension-
    oblivious verdicts are recorded alongside for dominance checks.

    Sets run through `parallel_map` when the campaign is large enough to
    repay starting the pool; the report is the same at any worker count.
    """
    cfg = config or TestConfig()
    grid = list(u_grid) if u_grid is not None else list(utilization_grid(10, 95, 5))
    items = [
        (idx, grid[idx % len(grid)], master_seed, sims_per_set, n,
         period_range, horizon_factor, cfg)
        for idx in range(sets)
    ]
    # a simulation sees about horizon_factor jobs per task or more, and a
    # set's analyses cost about as much as one simulation
    est_jobs = sets * (sims_per_set + 1) * n * horizon_factor
    workers = None if est_jobs >= _POOL_MIN_JOBS else 1
    outcomes: list[SetOutcome] = []
    violations: list[dict] = []
    sims_run = 0
    for outcome, sims, misses in parallel_map(_soundness_set, items, workers):
        outcomes.append(outcome)
        sims_run += sims
        violations.extend(misses)
    return SoundnessReport(tuple(outcomes), sims_run, tuple(violations))


@dataclass(frozen=True)
class EquivalenceReport:
    attempts: int
    accepted: int
    sequences: int
    mismatches: tuple[dict, ...]


def verify_fp_equivalence(
    target_accepted: int = 50,
    master_seed: int = 0,
    seqs_per_set: int = 10,
    n: int = 10,
    u_grid: Sequence[Fraction] | None = None,
    period_range: tuple[float, float] = (20, 100),
    horizon_factor: int = 5,
    config: TestConfig | None = None,
) -> EquivalenceReport:
    """On sets certified under emulated fixed priorities, the priority-
    point schedule and the strict fixed-priority schedule must coincide
    trace for trace."""
    cfg = config or TestConfig()
    grid = list(u_grid) if u_grid is not None else list(utilization_grid(10, 60, 5))
    attempts = 0
    accepted = 0
    sequences = 0
    mismatches: list[dict] = []
    max_attempts = max(200, target_accepted * 50)
    while accepted < target_accepted and attempts < max_attempts:
        u = grid[attempts % len(grid)]
        seed = cell_seed(master_seed, "fp", u, attempts)
        ts = synthesize(GenSpec(
            n=n, u_total=u, seed=seed, period_range=period_range,
        ))
        attempts += 1
        if not test_tfp(ts, cfg).verdict:
            continue
        accepted += 1
        pts = derive_priority_points(ts, PriorityPolicy.tfp())
        horizon = horizon_factor * max(t.period for t in ts)
        for s in range(seqs_per_set):
            sim_seed = cell_seed(master_seed, "fpsim", seed, s)
            seq = generate_job_sequence(
                ts, horizon, sim_seed,
                release_model="sporadic-jittered",
                suspension_model="random-phases",
                demand_model="random",
            )
            sequences += 1
            if simulate_el(ts, pts, seq) != simulate_tfp(ts, seq):
                mismatches.append({"set_seed": seed, "sim_seed": sim_seed})
    return EquivalenceReport(attempts, accepted, sequences, tuple(mismatches))


@dataclass(frozen=True)
class AgreementReport:
    sets: int
    mismatches: tuple[dict, ...]


def verify_fixed_vs_extended(
    sets: int = 200,
    master_seed: int = 0,
    n: int = 10,
    u_grid: Sequence[Fraction] | None = None,
    period_range: tuple[float, float] = (1, 100),
    config: TestConfig | None = None,
) -> AgreementReport:
    """With deadlines equal to periods the two window tests must agree
    exactly: same verdicts, same response-time bounds."""
    cfg = config or TestConfig()
    grid = list(u_grid) if u_grid is not None else list(utilization_grid(10, 95, 5))
    mismatches: list[dict] = []
    for idx in range(sets):
        u = grid[idx % len(grid)]
        seed = cell_seed(master_seed, u, Fraction(1), idx)
        ts = synthesize(GenSpec(
            n=n, u_total=u, seed=seed, period_range=period_range, deadline_factor=Fraction(1),
        ))
        pts = derive_priority_points(ts, PriorityPolicy.edf())
        rf = test_fixed(ts, pts, cfg)
        re = test_variable(ts, pts, cfg)
        if rf.verdict != re.verdict or rf.bounds != re.bounds:
            mismatches.append({"seed": seed, "u": str(u), "set_index": idx})
    return AgreementReport(sets, tuple(mismatches))


@dataclass(frozen=True)
class DisagreementWitness:
    seed: int
    u_target: Fraction
    deadline_factor: Fraction
    taskset: TaskSet
    fixed: AnalysisResult
    extended: AnalysisResult


@dataclass(frozen=True)
class DisagreementSearch:
    checked: int
    fixed_only: DisagreementWitness | None
    extended_only: DisagreementWitness | None

    @property
    def complete(self) -> bool:
        return self.fixed_only is not None and self.extended_only is not None


def find_non_dominance_pair(
    budget: int = 100_000,
    master_seed: int = 0,
    n: int = 10,
    deadline_factors: Sequence[Fraction] = (Fraction(6, 5), Fraction(3, 2)),
    u_grid: Sequence[Fraction] | None = None,
    period_range: tuple[float, float] = (1, 100),
    config: TestConfig | None = None,
) -> DisagreementSearch:
    """Search deadline-exceeds-period sets for both disagreement
    directions between the window tests: a set only the fixed window
    certifies, and a set only the extended window certifies.  Neither
    test dominates the other; this finds concrete evidence.
    """
    cfg = config or TestConfig()
    grid = list(u_grid) if u_grid is not None else list(utilization_grid(55, 95, 5))
    factors = [Fraction(x) for x in deadline_factors]
    fixed_only: DisagreementWitness | None = None
    extended_only: DisagreementWitness | None = None
    checked = 0
    for idx in range(budget):
        if fixed_only is not None and extended_only is not None:
            break
        u = grid[idx % len(grid)]
        x = factors[(idx // len(grid)) % len(factors)]
        seed = cell_seed(master_seed, u, x, idx)
        ts = synthesize(GenSpec(
            n=n, u_total=u, seed=seed, period_range=period_range, deadline_factor=x,
        ))
        pts = derive_priority_points(ts, PriorityPolicy.edf())
        rf = test_fixed(ts, pts, cfg)
        re = test_variable(ts, pts, cfg)
        checked += 1
        if rf.verdict != re.verdict:
            wit = DisagreementWitness(seed, u, x, ts, rf, re)
            if rf.verdict and fixed_only is None:
                fixed_only = wit
            elif re.verdict and extended_only is None:
                extended_only = wit
    return DisagreementSearch(checked, fixed_only, extended_only)


# --- CSV output -----------------------------------------------------------------


def write_rows_csv(
    path: str | Path, rows: Sequence[dict], fieldnames: Sequence[str] | None = None
) -> None:
    rows = list(rows)
    if fieldnames is None:
        if not rows:
            raise ValueError("cannot infer CSV columns from zero rows")
        fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)


def sweep_csv_path(directory: str | Path, name: str, master_seed: int) -> Path:
    return Path(directory) / f"sweep_{name}_{master_seed}.csv"
