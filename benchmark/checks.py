"""Output checks of the benchmark.

Each check rests on a computation made apart from the program or on a
property the method must have; none compares against a stored copy of
earlier output.  Every function returns a list of problems, empty when
the output is correct.

The window bounds are re-evaluated here in rational arithmetic
(``Fraction`` and ``math.ceil``), independently of the integer kernels
in ``elsched.analysis``.  For task k, a window starting ``b`` ticks after
the analyzed release (``b`` may be negative for reach-back windows):

    R_k(b) = own * (C_k + S_k) + b
             + sum_{i != k} max(0, ceil((min(D_k - C_i, P_k - P_i) + R_i - b) / T_i)) * C_i

with ``own = ceil((D_k - b) / T_k)`` for the fixed window and
``own = min(a + 1, ceil((D_k - b) / T_k))`` for stage ``a`` of the
extended window, where ``b = x - a * T_k``.  A certificate is the
winning offset a test reports; evaluated with the test's final bounds
it must give at most ``bounds[k]``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from elsched import analysis, experiments, generator, simulator

# The analysis function each sweep test kind names.
TEST_NAMES = {"fixed": "test_fixed", "variable": "test_variable", "baseline": "baseline_susp_obl"}


def window_bound(
    k: int, b: int, own: int, rb: Sequence[int],
    C: Sequence[int], S: Sequence[int], D: Sequence[int], T: Sequence[int],
    P: Sequence[int],
) -> Fraction:
    """R_k for a window starting b ticks after the analyzed release."""
    total = Fraction(own * (C[k] + S[k]) + b)
    for i in range(len(C)):
        if i != k:
            reach = min(D[k] - C[i], P[k] - P[i]) + rb[i] - b
            total += max(0, math.ceil(Fraction(reach, T[i]))) * C[i]
    return total


def certificate_problems(ts, points: Sequence[int], result, test: str) -> list[str]:
    """Re-evaluate every certificate of an accepted result.

    test is 'fixed' (also the tfp test), 'variable' or 'baseline' (the
    fixed window on budgets wcet + suspension with no suspension).
    """
    C = [t.wcet for t in ts]
    S = [t.suspension for t in ts]
    D = [t.deadline for t in ts]
    T = [t.period for t in ts]
    if test == "baseline":
        C = [c + s for c, s in zip(C, S)]
        S = [0] * len(S)
    rb = result.bounds
    out = []
    for k in range(len(ts)):
        if rb[k] > D[k]:
            out.append(f"task {k}: bound {rb[k]} exceeds deadline {D[k]}")
        cert = result.offsets[k]
        if test in ("fixed", "baseline"):
            stages = [(0, cert)]
        else:
            reach, xs = cert
            if len(xs) != reach + 1:
                out.append(f"task {k}: {len(xs)} stage offsets for reach-back {reach}")
                continue
            stages = list(enumerate(xs))
        for a, x in stages:
            b = x - a * T[k]
            if not 0 <= x < a * T[k] + D[k]:
                out.append(f"task {k}: offset {x} outside stage {a}")
                continue
            own = math.ceil(Fraction(D[k] - b, T[k]))
            if test == "variable":
                own = min(a + 1, own)
            r = window_bound(k, b, own, rb, C, S, D, T, points)
            if r > rb[k]:
                out.append(f"task {k}: certificate gives {r} > bound {rb[k]}")
            if test == "variable" and a == len(stages) - 1 and r > T[k]:
                out.append(f"task {k}: last stage gives {r} > period {T[k]}")
    return out


def _cell_sets(cfg, u: Fraction, x: Fraction) -> list:
    """The sets of one sweep cell, re-derived from the public seed rule."""
    return [
        generator.synthesize(generator.GenSpec(
            n=cfg.n, u_total=u, seed=experiments.cell_seed(cfg.master_seed, u, x, idx),
            period_range=cfg.period_range, deadline_factor=x,
            suspension_factor_range=cfg.suspension_factor_range,
        ))
        for idx in range(cfg.sets_per_point)
    ]


def _count_certified(sets, points_of, test: str, cfg) -> tuple[list[bool], list[str]]:
    """Verdicts of one test over the sets, with every certificate checked."""
    verdicts, out = [], []
    for ts in sets:
        pts = points_of(ts)
        res = getattr(analysis, TEST_NAMES[test])(ts, pts, cfg.test_config)
        verdicts.append(res.verdict)
        if res.verdict:
            out.extend(certificate_problems(ts, pts, res, test))
    return verdicts, out


def _row_problems(rows: list[dict], total: int) -> list[str]:
    out = []
    for r in rows:
        if r["total"] != total or not 0 <= r["accepted"] <= total:
            out.append(f"row {r}: accepted/total out of range")
        elif r["ratio"] != r["accepted"] / total:
            out.append(f"row {r}: ratio is not accepted/total")
    return out


def sweep_problems(cfg, rows: list[dict], full: bool) -> list[str]:
    """Rows of a one-cell `acceptance_sweep` under deadline (EDF) points."""
    u, x = cfg.utilizations[0], cfg.deadline_factors[0]
    out = _row_problems(rows, cfg.sets_per_point)
    by_label = {r["policy"]: r for r in rows}
    if sorted(by_label) != sorted(p.label for p in cfg.policies):
        return out + [f"row labels {sorted(by_label)} differ from the policies"]
    kinds = {p.test: by_label[p.label]["accepted"] for p in cfg.policies}
    if x == 1 and "fixed" in kinds and "variable" in kinds and kinds["fixed"] != kinds["variable"]:
        out.append(f"D = T: fixed accepts {kinds['fixed']}, variable {kinds['variable']}")
    if full:
        sets = _cell_sets(cfg, u, x)
        for p in cfg.policies:
            verdicts, probs = _count_certified(
                sets, lambda ts: [t.deadline for t in ts], p.test, cfg)
            out.extend(probs)
            if sum(verdicts) != by_label[p.label]["accepted"]:
                out.append(
                    f"{p.label}: {sum(verdicts)} sets certified, row says "
                    f"{by_label[p.label]['accepted']}")
    return out


def lambda_problems(cfg, rows: list[dict], full: bool) -> list[str]:
    """Rows of a one-cell `lambda_sweep` (EQDF or SAEDF weights)."""
    u, x = cfg.utilizations[0], cfg.deadline_factors[0]
    out = _row_problems(rows, cfg.sets_per_point)
    by_weight = {r["weight"]: r for r in rows}
    if sorted(by_weight) != sorted([str(w) for w in cfg.weights] + ["best"]):
        return out + [f"row weights {sorted(by_weight)} differ from the sweep"]
    best = by_weight["best"]["accepted"]
    for w in cfg.weights:
        if by_weight[str(w)]["accepted"] > best:
            out.append(f"weight {w} accepts more sets than the best row")
    if full:
        sets = _cell_sets(cfg, u, x)
        hit = [False] * len(sets)
        scaled = "wcet" if cfg.family == "eqdf" else "suspension"
        for w in cfg.weights:
            verdicts, probs = _count_certified(
                sets, lambda ts: [t.deadline + w * getattr(t, scaled) for t in ts], cfg.test, cfg)
            out.extend(probs)
            hit = [h or v for h, v in zip(hit, verdicts)]
            if sum(verdicts) != by_weight[str(w)]["accepted"]:
                out.append(f"weight {w}: {sum(verdicts)} sets certified, row says "
                           f"{by_weight[str(w)]['accepted']}")
        if sum(hit) != best:
            out.append(f"best: {sum(hit)} sets certified by some weight, row says {best}")
    return out


def soundness_problems(params: dict, report, full: bool) -> list[str]:
    """A one-set `verify_soundness` report.

    Full: re-derive the set, certify it with the fixed test, replay every
    simulation recorded, and check its verdict and its response times
    against the certified bounds.
    """
    out = []
    if report.violations:
        out.append(f"{len(report.violations)} soundness violations: {report.violations}")
    if len(report.outcomes) != 1:
        return out + [f"{len(report.outcomes)} outcomes for one set"]
    if report.sims_run != params["sims_per_set"] * report.accepted:
        out.append(f"sims_run {report.sims_run} != sims x accepted")
    if not full:
        return out
    u = params["u_grid"][0]
    seed = experiments.cell_seed(params["master_seed"], u, Fraction(1), 0)
    outcome = report.outcomes[0]
    if outcome.seed != seed:
        return out + [f"set seed {outcome.seed}, expected {seed}"]
    ts = generator.synthesize(generator.GenSpec(
        n=params["n"], u_total=u, seed=seed, period_range=params["period_range"],
    ))
    pts = [t.deadline for t in ts]
    res = analysis.test_fixed(ts, pts)
    if res.verdict != outcome.fixed:
        out.append(f"fixed verdict {res.verdict}, report says {outcome.fixed}")
    if not (outcome.fixed or outcome.extended):
        return out
    test = "fixed"
    if not res.verdict:
        test, res = "variable", analysis.test_variable(ts, pts)
        if not res.verdict:
            return out + ["the report accepts a set neither window test certifies"]
    out.extend(certificate_problems(ts, pts, res, test))
    horizon = params["horizon_factor"] * max(t.period for t in ts)
    for s in range(params["sims_per_set"]):
        seq = simulator.generate_job_sequence(
            ts, horizon, experiments.cell_seed(params["master_seed"], "sim", 0, s),
            release_model="sporadic-jittered", suspension_model="random-phases",
            demand_model="random",
        )
        trace = simulator.simulate_el(ts, pts, seq)
        if not simulator.check_feasibility(trace, ts):
            out.append(f"simulation {s}: recorded run misses a deadline")
        out.extend(response_problems(trace, res.bounds))
    return out


def tfp_points_problems(ts, points: Sequence[int]) -> list[str]:
    """Emulated fixed priorities in list order: cumulative deadlines."""
    expected = list(itertools.accumulate(t.deadline for t in ts))
    return [] if list(points) == expected else [f"tfp points {points}, expected {expected}"]


def response_problems(trace, bounds: Sequence[int], worst: dict | None = None) -> list[str]:
    """Every finished job responds within its task's certified bound;
    `worst`, if given, is the per-task maximum the program reported."""
    seen: dict[int, int] = {}
    out = []
    for j in trace.jobs:
        if j.finish is not None:
            resp = j.finish - j.release
            seen[j.task] = max(seen.get(j.task, -1), resp)
            if resp > bounds[j.task]:
                out.append(f"job ({j.task},{j.index}) responds in {resp} > bound {bounds[j.task]}")
    if worst is not None and worst != seen:
        out.append(f"per-task worst responses {worst}, recomputed {seen}")
    return out


def tiling_problems(trace) -> list[str]:
    """The intervals cover [0, horizon) without gap or overlap."""
    at = 0
    for iv in trace.intervals:
        if iv.start != at or iv.end <= iv.start:
            return [f"interval {iv} does not continue the tiling at {at}"]
        if (iv.kind == "run") != (iv.task >= 0) or iv.kind not in ("run", "susp", "wait"):
            return [f"interval {iv} has an inconsistent state"]
        at = iv.end
    return [] if at == trace.horizon else [f"intervals end at {at}, horizon {trace.horizon}"]


def demand_problems(trace, seq) -> list[str]:
    """Run intervals give each finished job exactly its generated demand."""
    ran: dict[tuple[int, int], int] = {}
    for iv in trace.intervals:
        if iv.kind == "run":
            ran[(iv.task, iv.job)] = ran.get((iv.task, iv.job), 0) + iv.end - iv.start
    finished = {(j.task, j.index) for j in trace.jobs if j.finish is not None}
    return [
        f"job ({j.task},{j.index}) ran {ran.get((j.task, j.index), 0)} of demand {j.demand}"
        for j in seq.jobs
        if (j.task, j.index) in finished and ran.get((j.task, j.index), 0) != j.demand
    ]


def state_problems(states, windows: Sequence[tuple[int, int, int]]) -> list[str]:
    """Each state window charges every tick to exactly one bucket."""
    out = []
    for st, (k, start, end) in zip(states, windows):
        charged = st.inactive + st.progress + sum(st.interference.values())
        if charged != end - start:
            out.append(f"task {k} window [{start}, {end}): {charged} ticks charged")
    return out
