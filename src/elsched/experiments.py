"""Experiment campaigns: acceptance-ratio sweeps, priority-weight sweeps,
runtime benchmarks, cross-validation of the analysis against the
simulator, and targeted searches for sets where the two window tests
disagree.

Campaigns are deterministic: every set is drawn by one rule (`_Corpus`)
that hashes the master seed with the cell coordinates (utilization,
deadline factor, set index) into its seed.  Each sweep cell and verify
set is one item of `parallel_map`, which keeps item order and stops in
item order, so reports are the same at any worker count.  Campaigns large
enough to repay a process pool use EL_SCHED_THREADS workers.

Sweep cells and soundness sets run no analysis twice (`_verdicts`).  Their
memo rests on one identity: when no deadline exceeds its period, the
variable-window test returns the fixed-window test's verdict, bounds and
pass count, so a variable run there is a fixed run.  The fixed-vs-extended
campaign (`verify_fixed_vs_extended`, acceptance check c04) runs both
tests, bypassing the memo, and is what checks that identity.

Campaigns that read only verdicts (sweep cells, soundness sets and the
test_tfp certification of equivalence attempts) run their tests with
`verdict_only`: the window search stops at the first pass that certifies
every task, with the full run's verdict.  Campaigns that compare or
return bounds (`verify_fixed_vs_extended`, `find_non_dominance_pair`,
`runtime_benchmark`) run the tests in full.
"""

from __future__ import annotations

import csv
import hashlib
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .analysis import (
    TESTS,
    AnalysisResult,
    TestConfig,
    _at_least,
    test_variable,
    test_tfp,
    test_fixed,
    run_test,
)
from .generator import GenSpec, synthesize
from .model import WEIGHTED_KINDS, PriorityPolicy, TaskSet, derive_priority_points
from .simulator import (
    generate_job_sequence,
    random_run_feasible,
    simulate_el,
    simulate_tfp,
)


def __getattr__(name: str) -> object:
    # ProcessPoolExecutor loads when a campaign starts a pool: importing
    # it pulls in multiprocessing, which a serial run never uses
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def parallel_map(fn: Callable, items: Sequence, workers: int | None = None,
                 until: Callable[[object], bool] | None = None) -> list:
    """Order-preserving map over picklable items; plain loop when one
    worker suffices.  With `until`, the map ends after the first result,
    in item order, for which until(result) is true; a pool then evaluates
    one step of 8 items per worker at a time and drops the results past
    the stop, so the results are the same at any worker count."""
    items = list(items)
    w = worker_count() if workers is None else max(1, workers)
    w = min(w, len(items)) if items else 1
    if w <= 1:
        return _until(map(fn, items), until)
    step = len(items) if until is None else 8 * w  # at most one step runs past a stop
    chunk = max(1, step // (w * 4))
    # looked up on the module, so a class set over the name is the one used
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=w) as pool:
        return _until((r for i in range(0, len(items), step)
                       for r in pool.map(fn, items[i:i + step], chunksize=chunk)), until)


def _until(results, until: Callable[[object], bool] | None) -> list:
    out = []
    for r in results:
        out.append(r)
        if until is not None and until(r):
            break
    return out


# Campaigns estimated to simulate fewer jobs than this stay on the plain
# loop.  On a 2-core machine a 2-worker pool took 10-20 ms to start and
# broke even near 25,000 estimated jobs; the margin keeps small campaigns
# from ever paying for it.  One analysis costs about as much as
# simulating _ANALYSIS_JOBS jobs per task.
_POOL_MIN_JOBS = 50_000
_ANALYSIS_JOBS = 10


def _gate(est_jobs: int) -> int | None:
    """Workers for a campaign: one below _POOL_MIN_JOBS estimated jobs."""
    return None if est_jobs >= _POOL_MIN_JOBS else 1


def cell_seed(master_seed: int, *parts: object) -> int:
    """Stable 63-bit seed from a master seed and cell coordinates."""
    text = "|".join([str(master_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def utilization_grid(lo_pct: int, hi_pct: int, step_pct: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(p, 100) for p in range(lo_pct, hi_pct + 1, step_pct))


def _need_cells(utilizations: Sequence[Fraction], deadline_factors: Sequence[Fraction]) -> None:
    if not utilizations or not deadline_factors:
        raise ValueError("a campaign needs a utilization and a deadline factor")


@dataclass(frozen=True)
class _Corpus:
    """The rule every campaign draws its sets by.  Set idx takes the
    utilization u_grid[idx % len(u_grid)] and, block by block of
    len(u_grid) sets, the next deadline factor; its seed is
    cell_seed(master_seed, u, x, idx).  A sweep cell is a corpus with
    one utilization and one deadline factor."""

    master_seed: int
    n: int
    period_range: tuple[float, float]
    u_grid: Sequence[Fraction]
    deadline_factors: Sequence[Fraction] = (Fraction(1),)
    suspension_factor_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1, 2))

    def __post_init__(self) -> None:
        _need_cells(self.u_grid, self.deadline_factors)

    def taskset(self, u: Fraction, x: Fraction, seed: int) -> TaskSet:
        return synthesize(GenSpec(
            n=self.n, u_total=u, seed=seed, period_range=self.period_range,
            deadline_factor=x, suspension_factor_range=self.suspension_factor_range,
        ))

    def draw(self, idx: int) -> tuple[int, Fraction, Fraction, TaskSet]:
        """Set idx with its seed, utilization and deadline factor."""
        u = self.u_grid[idx % len(self.u_grid)]
        x = self.deadline_factors[idx // len(self.u_grid) % len(self.deadline_factors)]
        seed = cell_seed(self.master_seed, u, x, idx)
        return seed, u, x, self.taskset(u, x, seed)


@dataclass(frozen=True)
class PolicyChoice:
    """A labeled (policy, test) combination evaluated by sweeps."""

    label: str
    policy: PriorityPolicy
    test: str = "fixed"

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ValueError(f"a policy label must be a string, got {self.label!r}")
        if self.test not in TESTS:
            raise ValueError(f"unknown test kind {self.test!r}")


def _default_policies() -> tuple[PolicyChoice, ...]:
    return (
        PolicyChoice("edf", PriorityPolicy.edf(), "fixed"),
        PolicyChoice("susp-obl", PriorityPolicy.edf(), "baseline"),
    )


@dataclass(frozen=True)
class _SweepCells:
    """What both sweeps share: one cell per (deadline factor,
    utilization), each of sets_per_point synthesized sets of n tasks, and
    the analysis knobs."""

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
    test_config: TestConfig = field(default_factory=TestConfig)

    def __post_init__(self) -> None:
        _at_least(1, sets_per_point=self.sets_per_point, n=self.n)
        _need_cells(self.utilizations, self.deadline_factors)


@dataclass(frozen=True)
class SweepConfig(_SweepCells):
    """Acceptance-ratio sweep over a utilization grid.

    Desk scale by default (100 sets of 10 tasks per point); scale
    sets_per_point/n up for full campaigns.
    """

    policies: tuple[PolicyChoice, ...] = field(default_factory=_default_policies)

    def __post_init__(self) -> None:
        super().__post_init__()
        labels = [p.label for p in self.policies]
        if len(set(labels)) != len(labels):
            raise ValueError(f"repeated policy label in {labels}")


def _verdicts(
    ts: TaskSet, runs: Sequence[tuple[tuple[int, ...], str]], config: TestConfig,
) -> list[bool]:
    """The verdict of each (points, test) run on one set, each distinct
    analysis run once and with verdict_only, so it stops at the first
    pass that certifies every task.  Runs share a verdict when their
    effective test and points are equal: the variable test is the fixed
    test when no deadline exceeds its period, and equal points (eqdf(0),
    saedf(0) and edf, say) give equal results."""
    constrained = all(t.deadline <= t.period for t in ts)
    memo: dict[tuple[str, tuple[int, ...]], bool] = {}
    out = []
    for pts, test in runs:
        key = ("fixed" if constrained and test == "variable" else test, pts)
        if key not in memo:
            memo[key] = run_test(key[0], ts, pts, config, verdict_only=True).verdict
        out.append(memo[key])
    return out


def _count_cell(
    sets: int, choices: tuple[tuple[PriorityPolicy, str], ...], config: TestConfig,
    corpus: _Corpus,
) -> list[int]:
    """Sets of one sweep cell accepted by each (policy, test) choice, by
    position, then by any of them."""
    counts = [0] * (len(choices) + 1)
    for idx in range(sets):
        ts = corpus.draw(idx)[3]
        verdicts = _verdicts(
            ts, [(derive_priority_points(ts, policy), test) for policy, test in choices], config)
        counts = [c + v for c, v in zip(counts, (*verdicts, any(verdicts)))]
    return counts


def _sweep(
    cfg: _SweepCells, choices: tuple[tuple[PriorityPolicy, str], ...],
    labels: list[dict], workers: int | None,
) -> list[dict]:
    """One row per (deadline factor, utilization) cell and label: the
    labels name the choices' counts in order, then the any-choice count."""
    coords = [(x, u) for x in cfg.deadline_factors for u in cfg.utilizations]
    cells = [_Corpus(cfg.master_seed, cfg.n, cfg.period_range, (u,), (x,),
                     cfg.suspension_factor_range) for x, u in coords]
    if workers is None:
        workers = _gate(len(cells) * cfg.sets_per_point * len(choices) * cfg.n * _ANALYSIS_JOBS)
    counted = parallel_map(
        partial(_count_cell, cfg.sets_per_point, choices, cfg.test_config), cells, workers)
    total = cfg.sets_per_point
    return [{"deadline_factor": float(x), "utilization": float(u), **label,
             "accepted": c, "total": total, "ratio": c / total}
            for (x, u), counts in zip(coords, counted) for label, c in zip(labels, counts)]


def acceptance_sweep(cfg: SweepConfig, workers: int | None = None) -> list[dict]:
    """Acceptance ratio of every configured policy on shared task sets,
    one row per (deadline factor, utilization, policy)."""
    choices = tuple((p.policy, p.test) for p in cfg.policies)
    return _sweep(cfg, choices, [{"policy": p.label} for p in cfg.policies], workers)


@dataclass(frozen=True)
class LambdaSweepConfig(_SweepCells):
    """Sweep of the priority-point weight for the weighted deadline
    policies.  For each cell the 'best' pseudo-weight accepts a set if
    any swept weight accepts it.
    """

    name: str = "lambda"
    family: str = "eqdf"
    weights: tuple[int, ...] = tuple(range(-10, 11))
    test: str = "fixed"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.family not in WEIGHTED_KINDS:
            raise ValueError(f"unknown weighted family {self.family!r}")
        if self.test not in TESTS or self.test == "baseline":
            raise ValueError(f"a weight sweep runs the fixed or variable test, got {self.test!r}")
        if not self.weights:
            raise ValueError("weights must not be empty")
        if len(set(self.weights)) != len(self.weights):
            raise ValueError(f"repeated weight in {list(self.weights)}")


def lambda_sweep(cfg: LambdaSweepConfig, workers: int | None = None) -> list[dict]:
    if 0 not in cfg.weights:
        warnings.warn(
            "weight sweep without 0: the best-weight row is no longer "
            "guaranteed to dominate the plain deadline policy",
            stacklevel=2,
        )
    choices = tuple((PriorityPolicy(cfg.family, w), cfg.test) for w in cfg.weights)
    labels = [{"family": cfg.family, "weight": str(w)} for w in (*cfg.weights, "best")]
    return _sweep(cfg, choices, labels, workers)


def runtime_benchmark(
    ns: Sequence[int] = (10, 50),
    utilizations: Sequence[Fraction] = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)),
    sets_per_cell: int = 5,
    master_seed: int = 0,
    period_range: tuple[float, float] = (1, 100),
    config: TestConfig | None = None,
) -> list[dict]:
    """CPU time (`time.process_time`) of the fixed-window test (deadline
    policy) per task set, aggregated per set size.  Each size first runs
    its first set once untimed, so no timed call pays for a cold start."""
    cfg = config or TestConfig()
    rows = []
    for n in ns:
        corpus = _Corpus(master_seed, n, period_range, tuple(utilizations))
        times = []
        for u in utilizations:
            for idx in range(sets_per_cell):
                ts = corpus.taskset(u, Fraction(1), cell_seed(master_seed, u, n, idx))
                pts = derive_priority_points(ts, PriorityPolicy.edf())
                if not times:
                    test_fixed(ts, pts, cfg)
                t0 = time.process_time()
                test_fixed(ts, pts, cfg)
                times.append(time.process_time() - t0)
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


# The job models of randomized simulations in verify campaigns.
_FUZZ = dict(release_model="sporadic-jittered", suspension_model="random-phases",
             demand_model="random")


def _soundness_set(
    corpus: _Corpus, sims_per_set: int, horizon_factor: int, cfg: TestConfig, idx: int,
) -> tuple[SetOutcome, int, list[dict]]:
    """One set of a soundness campaign: its three verdicts, then, if a
    window test accepts it, its simulations."""
    seed, u, x, ts = corpus.draw(idx)
    pts = derive_priority_points(ts, PriorityPolicy.edf())
    fixed, extended, oblivious = _verdicts(
        ts, ((pts, "fixed"), (pts, "variable"), (pts, "baseline")), cfg)
    outcome = SetOutcome(seed, u, x, fixed, extended, oblivious)
    if not (fixed or extended):
        return outcome, 0, []
    horizon = horizon_factor * max(t.period for t in ts)
    sim_seeds = [cell_seed(corpus.master_seed, "sim", idx, s) for s in range(sims_per_set)]
    return outcome, sims_per_set, [
        {"set_seed": seed, "sim_seed": sim_seed, "u": str(u), "set_index": idx, "sim_index": s}
        for s, sim_seed in enumerate(sim_seeds)
        if not random_run_feasible(ts, pts, horizon, sim_seed, **_FUZZ)
    ]


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
    """
    _at_least(0, sets=sets)
    grid = utilization_grid(10, 95, 5) if u_grid is None else u_grid
    corpus = _Corpus(master_seed, n, period_range, grid)
    # a simulation sees about horizon_factor jobs per task or more
    results = parallel_map(
        partial(_soundness_set, corpus, sims_per_set, horizon_factor, config or TestConfig()),
        range(sets), _gate(sets * (sims_per_set + 1) * n * horizon_factor),
    )
    return SoundnessReport(
        tuple(o for o, _, _ in results),
        sum(sims for _, sims, _ in results),
        tuple(v for _, _, misses in results for v in misses),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    attempts: int
    accepted: int
    sequences: int
    mismatches: tuple[dict, ...]


def _fp_attempt(
    corpus: _Corpus, seqs_per_set: int, horizon_factor: int, cfg: TestConfig, attempt: int,
) -> list[dict] | None:
    """One attempt of an equivalence campaign: None unless test_tfp
    certifies its set, else the sequences whose two traces differ."""
    u = corpus.u_grid[attempt % len(corpus.u_grid)]
    seed = cell_seed(corpus.master_seed, "fp", u, attempt)
    ts = corpus.taskset(u, Fraction(1), seed)
    if not test_tfp(ts, cfg, verdict_only=True).verdict:
        return None
    pts = derive_priority_points(ts, PriorityPolicy.tfp())
    horizon = horizon_factor * max(t.period for t in ts)
    mismatches = []
    for s in range(seqs_per_set):
        sim_seed = cell_seed(corpus.master_seed, "fpsim", seed, s)
        seq = generate_job_sequence(ts, horizon, sim_seed, **_FUZZ)
        if simulate_el(ts, pts, seq) != simulate_tfp(ts, seq):
            mismatches.append({"set_seed": seed, "sim_seed": sim_seed})
    return mismatches


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
    _at_least(0, target_accepted=target_accepted)
    grid = utilization_grid(10, 60, 5) if u_grid is None else u_grid
    corpus = _Corpus(master_seed, n, period_range, grid)
    accepted = 0

    def enough(mismatches: list[dict] | None) -> bool:
        nonlocal accepted
        accepted += mismatches is not None
        return accepted >= target_accepted

    attempts = range(max(200, target_accepted * 50) if target_accepted > 0 else 0)
    results = parallel_map(
        partial(_fp_attempt, corpus, seqs_per_set, horizon_factor, config or TestConfig()),
        attempts, _gate(target_accepted * (seqs_per_set + 1) * n * horizon_factor), enough,
    )
    return EquivalenceReport(len(results), accepted, accepted * seqs_per_set,
                             tuple(m for r in results for m in r or ()))


@dataclass(frozen=True)
class AgreementReport:
    sets: int
    mismatches: tuple[dict, ...]


def _window_pair(
    corpus: _Corpus, cfg: TestConfig, idx: int,
) -> tuple[int, Fraction, Fraction, TaskSet, AnalysisResult, AnalysisResult]:
    """Set idx with its fixed- and variable-window results under EDF."""
    seed, u, x, ts = corpus.draw(idx)
    pts = derive_priority_points(ts, PriorityPolicy.edf())
    return seed, u, x, ts, test_fixed(ts, pts, cfg), test_variable(ts, pts, cfg)


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
    _at_least(0, sets=sets)
    grid = utilization_grid(10, 95, 5) if u_grid is None else u_grid
    results = parallel_map(partial(_window_pair, _Corpus(master_seed, n, period_range, grid),
                                   config or TestConfig()),
                           range(sets), _gate(sets * n * 2 * _ANALYSIS_JOBS))
    return AgreementReport(sets, tuple(
        {"seed": seed, "u": str(u), "set_index": idx}
        for idx, (seed, u, _, _, rf, re) in enumerate(results)
        if rf.verdict != re.verdict or rf.bounds != re.bounds
    ))


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
    _at_least(0, budget=budget)
    grid = utilization_grid(55, 95, 5) if u_grid is None else u_grid
    corpus = _Corpus(master_seed, n, period_range, grid, tuple(map(Fraction, deadline_factors)))
    # the first witness of each direction, keyed by the fixed verdict
    witnesses: dict[bool, DisagreementWitness] = {}

    def both_found(r: tuple) -> bool:
        if r[4].verdict != r[5].verdict:
            witnesses.setdefault(r[4].verdict, DisagreementWitness(*r))
        return len(witnesses) == 2

    checked = parallel_map(partial(_window_pair, corpus, config or TestConfig()),
                           range(budget), _gate(budget * n * 2 * _ANALYSIS_JOBS), both_found)
    return DisagreementSearch(len(checked), witnesses.get(True), witnesses.get(False))


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
