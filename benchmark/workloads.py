"""The benchmark's four workloads.

A workload is built from the seed alone.  ``WORKLOADS[name](seed)`` does
the workload's set-up and returns a `Workload`: ``make_pass(p)`` gives
the items of pass ``p`` in a seeded shuffled order, on fresh inputs
(every pass draws its own master seeds, so no item repeats another), and
``warm_up`` is the first item of pass -1 in grid order, the cheapest
kind at the lowest utilization, so that its cost does not swing with
the seed.

An item runs the program through the public functions of its modules,
looked up at call time so that a tracer can wrap them, and has a check
of its output (see ``checks``).  Every item is small enough that the
campaign entry points stay on their plain loop: no process pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from elsched import analysis, experiments, generator, model, simulator

import checks

N_TASKS = 10
EDF = model.PriorityPolicy.edf()


@dataclass(frozen=True)
class Item:
    """One timed unit of work: `run()` calls the program, `check(out,
    full)` lists problems with its output (`full` adds the costly
    re-derivations)."""

    kind: str
    sets: int
    run: Callable[[], object]
    check: Callable[[object, bool], list[str]]


def _sweep_item(cfg: experiments.SweepConfig) -> Item:
    return Item(
        "edf", cfg.sets_per_point,
        lambda: experiments.acceptance_sweep(cfg, workers=1),
        lambda rows, full: checks.sweep_problems(cfg, rows, full),
    )


def _lambda_item(cfg: experiments.LambdaSweepConfig) -> Item:
    return Item(
        cfg.family, cfg.sets_per_point,
        lambda: experiments.lambda_sweep(cfg, workers=1),
        lambda rows, full: checks.lambda_problems(cfg, rows, full),
    )


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int], list[Item]]
    warm_up: Item


def _workload(name: str, seed: int, items_of: Callable[[random.Random], list[Item]]) -> Workload:
    """A workload from `items_of(rng)`, the items of one pass in grid
    order drawn from the pass's own random stream."""
    def make_pass(p: int) -> list[Item]:
        rng = random.Random(f"{name}:{seed}:{p}")
        items = items_of(rng)
        rng.shuffle(items)
        return items
    return Workload(make_pass, items_of(random.Random(f"{name}:{seed}:-1"))[0])


# --- constrained: D = T, EDF under the fixed, variable and baseline tests ----

CONSTRAINED_GRID = experiments.utilization_grid(5, 100, 5)
CONSTRAINED_SETS = 5
CONSTRAINED_POLICIES = (
    experiments.PolicyChoice("edf-fixed", EDF, "fixed"),
    experiments.PolicyChoice("edf-variable", EDF, "variable"),
    experiments.PolicyChoice("edf-susp-obl", EDF, "baseline"),
)


def constrained(seed: int) -> Workload:
    def items_of(rng: random.Random) -> list[Item]:
        return [
            _sweep_item(experiments.SweepConfig(
                name="constrained", master_seed=rng.getrandbits(48), utilizations=(u,),
                sets_per_point=CONSTRAINED_SETS, n=N_TASKS, period_range=(1, 100),
                policies=CONSTRAINED_POLICIES,
            ))
            for u in CONSTRAINED_GRID
        ]
    return _workload("constrained", seed, items_of)


# --- arbitrary: D in {1.5T, 2T}, EDF cells and EQDF/SAEDF weight cells -------

ARBITRARY_GRID = experiments.utilization_grid(10, 100, 10)
ARBITRARY_FACTORS = (Fraction(3, 2), Fraction(2))
ARBITRARY_EDF_SETS = 5
ARBITRARY_LAMBDA_SETS = 2
WEIGHTS = (-2, -1, 0, 1, 2)
ARBITRARY_POLICIES = (
    experiments.PolicyChoice("edf-fixed", EDF, "fixed"),
    experiments.PolicyChoice("edf-variable", EDF, "variable"),
)


def arbitrary(seed: int) -> Workload:
    def items_of(rng: random.Random) -> list[Item]:
        items = []
        for x in ARBITRARY_FACTORS:
            for u in ARBITRARY_GRID:
                items.append(_sweep_item(experiments.SweepConfig(
                    name="arbitrary", master_seed=rng.getrandbits(48), utilizations=(u,),
                    sets_per_point=ARBITRARY_EDF_SETS, n=N_TASKS, deadline_factors=(x,),
                    period_range=(1, 100), policies=ARBITRARY_POLICIES,
                )))
                for family in ("eqdf", "saedf"):
                    items.append(_lambda_item(experiments.LambdaSweepConfig(
                        family=family, master_seed=rng.getrandbits(48), utilizations=(u,),
                        weights=WEIGHTS, sets_per_point=ARBITRARY_LAMBDA_SETS, n=N_TASKS,
                        deadline_factors=(x,), period_range=(1, 100), test="variable",
                    )))
        return items
    return _workload("arbitrary", seed, items_of)


# --- soundness: one-set verify_soundness campaigns ---------------------------

# Utilizations where the window tests accept (nearly) every set, so that
# items simulate rather than only analyze.
SOUNDNESS_GRID = experiments.utilization_grid(10, 30, 5)
# verify_soundness's default: analysis and synthesis then take 3% of an
# item (14% at 4 simulations), and a 30-s run still holds some 300 items
# (100 simulations, as in the soundness corpus, would leave some 60)
SOUNDNESS_SIMS = 20


def _soundness_item(params: dict) -> Item:
    return Item(
        "soundness", 1,
        lambda: experiments.verify_soundness(**params),
        lambda report, full: checks.soundness_problems(params, report, full),
    )


def soundness(seed: int) -> Workload:
    def items_of(rng: random.Random) -> list[Item]:
        return [
            _soundness_item(dict(
                sets=1, master_seed=rng.getrandbits(48), sims_per_set=SOUNDNESS_SIMS,
                n=N_TASKS, u_grid=(u,), period_range=(20, 100), horizon_factor=20,
            ))
            for u in SOUNDNESS_GRID
        ]
    return _workload("soundness", seed, items_of)


# --- trace: the recorded simulation path on test_tfp-certified sets ---------

TRACE_GRID = experiments.utilization_grid(20, 35, 5)
# a large pool, so that the tail of a run does not rest on a few sets;
# every pass visits a seeded sample of it
TRACE_POOL = 128
TRACE_PASS = 32
# 20 of the longest possible periods (100 ms), the same for every set, so
# that items differ only in their sets' job counts
TRACE_HORIZON = 20 * 100 * generator.TICKS_PER_MS
STATE_WINDOWS = 3
_MAX_CANDIDATES = 1000


@dataclass(frozen=True)
class Certified:
    ts: model.TaskSet
    points: tuple[int, ...]
    bounds: tuple[int, ...]


@dataclass(frozen=True)
class TraceOutput:
    seq: simulator.JobSequence
    el: simulator.ScheduleTrace
    fp: simulator.ScheduleTrace
    el_text: str
    fp_text: str
    feasible: bool
    worst: dict
    states: tuple


def certify_pool(seed: int) -> list[Certified]:
    """Synthesize candidate sets until TRACE_POOL pass `test_tfp`."""
    rng = random.Random(f"trace:{seed}")
    pool: list[Certified] = []
    for attempt in range(_MAX_CANDIDATES):
        ts = generator.synthesize(generator.GenSpec(
            n=N_TASKS, u_total=TRACE_GRID[attempt % len(TRACE_GRID)],
            seed=rng.getrandbits(48), period_range=(20, 100),
        ))
        res = analysis.test_tfp(ts)
        if res.verdict:
            pts = model.derive_priority_points(ts, model.PriorityPolicy.tfp())
            problems = checks.tfp_points_problems(ts, pts)
            problems += checks.certificate_problems(ts, pts, res, "fixed")
            if problems:
                raise RuntimeError(f"test_tfp certificate rejected: {problems}")
            pool.append(Certified(ts, pts, res.bounds))
            if len(pool) == TRACE_POOL:
                return pool
    raise RuntimeError(f"fewer than {TRACE_POOL} of {_MAX_CANDIDATES} sets certified")


def _trace_item(c: Certified, sim_seed: int, windows: tuple) -> Item:
    def run() -> TraceOutput:
        seq = simulator.generate_job_sequence(
            c.ts, TRACE_HORIZON, sim_seed, release_model="sporadic-jittered",
            suspension_model="random-phases", demand_model="random",
        )
        el = simulator.simulate_el(c.ts, c.points, seq)
        fp = simulator.simulate_tfp(c.ts, seq)
        el_text = simulator.export_trace(el)
        fp_text = simulator.export_trace(fp)
        feasible = simulator.check_feasibility(el, c.ts)
        _, worst, _ = simulator.response_times(el)
        states = tuple(
            simulator.measure_state_times(el, c.ts, c.points, k, a, b) for k, a, b in windows
        )
        return TraceOutput(seq, el, fp, el_text, fp_text, feasible, worst, states)

    def check(out: TraceOutput, full: bool) -> list[str]:
        problems = checks.tiling_problems(out.el) + checks.tiling_problems(out.fp)
        problems += checks.demand_problems(out.el, out.seq)
        if out.el_text != out.fp_text:
            problems.append("emulated and strict fixed-priority exports differ")
        if not out.feasible:
            problems.append("a certified set missed a deadline")
        problems += checks.state_problems(out.states, windows)
        problems += checks.response_problems(out.el, c.bounds, out.worst)
        return problems

    return Item("trace", 1, run, check)


def trace(seed: int) -> Workload:
    pool = certify_pool(seed)

    def items_of(rng: random.Random) -> list[Item]:
        items = []
        width = TRACE_HORIZON // 10
        for c in rng.sample(pool, TRACE_PASS):
            windows = tuple(
                (k, a, a + width)
                for k, a in ((rng.randrange(N_TASKS), rng.randrange(TRACE_HORIZON - width))
                             for _ in range(STATE_WINDOWS))
            )
            items.append(_trace_item(c, rng.getrandbits(48), windows))
        return items
    return _workload("trace", seed, items_of)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "constrained": constrained,
    "arbitrary": arbitrary,
    "soundness": soundness,
    "trace": trace,
}
