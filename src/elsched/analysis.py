"""Sufficient schedulability tests for self-suspending tasks under
EDF-like scheduling.

Every test bounds worst-case response times by scanning candidate
analysis-window offsets on an integer grid and iteratively refining one
bound per task while all other bounds are held at their current values
(updates take effect immediately within a pass).  A verdict of True is a
guarantee; False means no decision.  All arithmetic is exact integer
arithmetic on ticks.

One window search serves every test.  The extended window (test_variable)
may start up to max_a periods before the analyzed release; the fixed
window (test_fixed, and through it test_tfp and the suspension-oblivious
baseline) is its single stage that starts at the release, with the count
of the analyzed task's own jobs left uncapped.  TESTS names the three
tests a policy is combined with, and run_test runs one of them by name.

No bound ever rises.  Bounds start at the deadlines, and every window
total is non-decreasing in every other task's bound, so each
recomputation finds stage minima no higher than before: a bound can only
fall, and a task certified once stays certified.  Both the warm start
below and the verdict-only exit rest on this.

The search takes four shortcuts, each exact: it returns every verdict,
bound, offset and pass count that rescanning every task and stage from
scratch, offset by offset, would.  (A verdict-only run takes one more,
which keeps all but the offsets; see the last paragraph.)  A task's
outcome is a function of the other tasks' bounds, so a task is
recomputed only after one of them changed.  No stage minimum rises, so
a stage scan starts just above its last minimum: with the strict-<
first-minimum rule it still ends on the same least value at the same
first offset.  Before each reach-back stage, a floor bounds every total
within the period in the stages left, from below (each ceiling term is
at least its argument); a floor above the period means the task fails
there, as it would after scanning every stage.

Within a stage, the grid offsets are scanned as ranges of indices, depth
first and left to right.  A window total at offset b is b plus an own-job
term and one ceiling term per interferer, and neither kind of term rises
with b.  So over offsets b_lo..b_hi every total is at least b_lo plus
those terms taken at b_hi, and for a single offset that bound is its
total.  The scan evaluates this one bound per range: a range whose bound
is no less than the least total found so far is dropped unvisited, a
single offset below it is the new minimum, and any other range is split
into its first offset and two halves of the rest, met in that order, so
a low minimum is found as early as offset by offset.  Ranges are met in
offset order, so a dropped range holds no total that would have replaced
the minimum when a plain scan met it, and the scan ends on the same
least total at the same first offset.  The cost of a stage grows with
the ranges that can still hold a new minimum, not with the number of
grid points.

A task's grid step and its row of interference caps are made when the
task is computed, not up front for every task: a verdict-only run often
computes only a few tasks.  Its interferers are summed in task order.
Every ceiling term is non-negative, so that order decides only how soon
a partial sum passes the least total found so far and the scan cuts it
off; it never changes a total, a dropped range or a result.

With `verdict_only`, the passes end after the first one in which every
task is certified.  Every later pass would end certified too, so the
verdict is the full run's.  The bounds are sound, each found against
peer bounds no lower than the final ones, but can be looser than the
full run's, and `iterations` counts the passes run: verdict, bounds and
pass count are those of the full run cut at that many passes.  A
reach-back stage a >= 1 stops early too.  A task's bound is its largest
stage minimum, and every earlier stage minimum is above the period, so
once stage a holds a total no greater than M, the largest of them, the
stage cannot move the bound: only a total within the period, which
makes it the reach stage, still matters.  The scan looks on for such a
total only, and not at all when a floor on stage a alone is above the
period.  M belongs to a stage that was scanned exactly, so the bound is
the full run's, and a value kept this way is a real total, never below
the stage's minimum, so the warm start still holds.  Such a stage's
offset is a certifying position, not the first least one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (
    PriorityPolicy, TaskSet, _check_points, _round_ratio, derive_priority_points,
)


def ceil_div(num: int, den: int) -> int:
    """Mathematical ceiling of num/den for positive den and signed num.

    ceil_div(-4, 16) == 0 and ceil_div(-5, 5) == -1, unlike a naive
    (num + den - 1) // den, which is wrong for negative numerators.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    return -(-num // den)


def _at_least(lo: int, **counts: int) -> None:
    """Raise ValueError for the first count that is not an integer >= lo."""
    for what, value in counts.items():
        if not isinstance(value, int) or value < lo:
            raise ValueError(f"{what} must be an integer >= {lo}, got {value!r}")


@dataclass(frozen=True)
class TestConfig:
    """Knobs shared by the iterative tests.

    eta: grid resolution as a fraction of each deadline (step is
    max(1, eta * deadline rounded to the nearest tick, halves up)
    ticks); depth: number of refinement passes; max_a: largest number
    of extra periods the extended-window test may reach back.
    """

    eta: Fraction = Fraction(1, 100)
    depth: int = 5
    max_a: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", Fraction(self.eta))
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        _at_least(1, depth=self.depth)
        _at_least(0, max_a=self.max_a)


DEFAULT_CONFIG = TestConfig()


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one schedulability test.

    verdict: True certifies every response time is bounded by the
    deadline; False is no decision.  bounds: per-task response-time
    bounds in task order (reset to the deadline where refinement gave
    up).  offsets: per-task winning window position - the offset b for
    fixed-window runs, an (a, (x_0..x_a)) pair for extended-window runs,
    None where no position was certified; each is a stage's first least
    position, except that a verdict-only run's reach-back stages may end
    on any position certifying the bound.  iterations: refinement passes
    executed.
    """

    verdict: bool
    bounds: tuple[int, ...]
    offsets: tuple[object, ...]
    iterations: int


def _deadline_descending(D: Sequence[int]) -> list[int]:
    # stable: equal deadlines keep original task order
    return sorted(range(len(D)), key=lambda k: -D[k])


def _reach_floor(
    Dk: int, Tk: int, csk: int, terms: Sequence[tuple[int, int, int]], lcm: int,
    a: int, max_a: int,
) -> int | None:
    """lcm times a lower bound on every window total <= T_k in stages
    a..max_a of the extended-window scan of task k, or None when no
    offset in those stages can give such a total.  csk is C_k + S_k,
    terms are the scan's (reach, period, wcet) interferers, and lcm is a
    common multiple of T_k and their periods.
    """
    # Every total is at least b + csk, so a total <= T_k needs b <= h.
    # Each ceiling term is at least its argument (ar - b) / T_i, which
    # makes lcm * total >= lcm * own * csk + al + b * s: a line in b.
    h = min(Dk - 1, Tk - csk)
    ul = al = 0
    for ar, ti, ci in terms:
        w = ci * (lcm // ti)
        ul += w
        al += ar * w
    s = lcm - ul
    cl = csk * (lcm // Tk)
    floor = None
    # From b = D_k - x * T_k on, stage x counts its own jobs uncapped, at
    # least (D_k - b) / T_k of them, whatever x is: one line in b over
    # the union [D_k - max_a * T_k, h] of those ranges, least at an end.
    lo = Dk - max_a * Tk
    if lo <= h:
        floor = Dk * cl + al + (lo if s >= cl else h) * (s - cl)
    # Below it, stage x counts x + 1 own jobs over b in
    # [-x * T_k, min(h, D_k - 1 - x * T_k)], which is not empty from
    # stage first on.  With s >= 0 the least value is at b = -x * T_k, a
    # line in x, least at x = first or max_a.  With s < 0 it is at the
    # right end, which never rises with x while the own term grows, so it
    # is least at x = first.
    first = max(a, -(h // Tk))
    if first <= max_a:
        if s < 0:
            x = first
            b = min(h, Dk - 1 - x * Tk)
        else:
            x = first if lcm * csk >= Tk * s else max_a
            b = -x * Tk
        v = lcm * (x + 1) * csk + al + b * s
        if floor is None or v < floor:
            floor = v
    return floor


def _window_core(
    C: Sequence[int], S: Sequence[int], D: Sequence[int], T: Sequence[int],
    pp: Sequence[int], cfg: TestConfig, reach_back: bool, verdict_only: bool,
) -> AnalysisResult:
    # Stage a scans the signed window start b = x - a * T_k (relative to
    # the analyzed release) from -a * T_k up to D_k.  The fixed window is
    # the single stage a = 0 with an uncapped own-job count; the extended
    # window caps that count at a + 1 and reaches back one stage at a time
    # until a stage bound fits within the period.  The four shortcuts
    # (see the module docstring) are marked where they are taken.
    n = len(C)
    order = _deadline_descending(D)
    eta_p, eta_q = cfg.eta.numerator, cfg.eta.denominator
    # the tasks that interfere at all: (index, wcet, period, point)
    peers = [(i, C[i], T[i], pp[i]) for i in range(n) if C[i] > 0]
    stages = cfg.max_a + 1 if reach_back else 1
    lcm = math.lcm(*T) if reach_back else 1
    rb = list(D)
    offs: list[object] = [None] * n
    dirty = [True] * n
    # each task's stage minima at its last computation
    minima: list[list[int]] = [[] for _ in range(n)]
    solved = False
    iters = 0
    for _ in range(cfg.depth):
        iters += 1
        solved = True
        changed = False
        for k in order:
            if not dirty[k]:
                # no other bound moved since k's outcome was computed;
                # a computed task without an offset failed
                if offs[k] is None:
                    solved = False
                    break
                continue
            dirty[k] = False
            Dk = D[k]
            Tk = T[k]
            csk = C[k] + S[k]
            # k's grid step and its cap row min(D_k - C_i, pp_k - pp_i),
            # made only for a task that is computed; the interferers stay
            # in task order, which decides only how soon a sum passes best
            step = max(1, _round_ratio(eta_p * Dk, eta_q))
            ppk = pp[k]
            terms = [
                ((Dk - ci if Dk - ci < ppk - pi else ppk - pi) + rb[i], ti, ci)
                for i, ci, ti, pi in peers if i != k
            ]
            last = minima[k]
            stage_best: list[int] = []
            stage_b: list[int] = []
            reach = None
            for a in range(stages):
                if a:
                    floor = _reach_floor(Dk, Tk, csk, terms, lcm, a, cfg.max_a)
                    if floor is None or floor > Tk * lcm:
                        break  # no stage from a on can accept: k fails
                # with b >= 0 the own count never exceeds ceil(D_k / T_k)
                own_cap = a + 1 if reach_back else -(-Dk // Tk)
                # only a bound within the deadline can be kept: a position
                # certifying it must exist at every stage up to the accepted
                # one.  No bound rises, so the least total is at most
                # last[a] and is found from just above it.
                best = last[a] + 1 if a < len(last) else Dk + 1
                best_b = 0
                # a verdict-only stage whose minimum is at most the earlier
                # stages' largest cannot move the bound: once it holds such
                # a total, only one within the period still matters
                settle = max(stage_best) if verdict_only and a else None
                kept = None
                # grid offsets b = base + j * step, j = 0.. while b < D_k,
                # scanned as ranges of j, depth first and left to right
                # (a zero deadline has none at stage 0)
                base = -a * Tk
                stack = [(0, (Dk - 1 - base) // step)] if Dk > base else []
                while stack:
                    lo, hi = stack.pop()
                    # every candidate is at least b + wcet + suspension, so
                    # only b + csk < best can win; the ranges still stacked
                    # lie further right, so once none is left here, none is
                    cut = (best - csk - base - 1) // step
                    if hi > cut:
                        hi = cut
                        if lo > hi:
                            break
                    # the own count and every ceiling only fall as b rises,
                    # so each total in the range is at least its least b
                    # plus those terms at its greatest b: for one offset,
                    # its total.  A range bounded at best cannot move it
                    b_hi = base + hi * step
                    own = -(-(Dk - b_hi) // Tk)
                    if own > own_cap:
                        own = own_cap
                    total = own * csk + base + lo * step
                    if total < best:
                        for ar, ti, ci in terms:
                            num = ar - b_hi
                            if num > 0:
                                total += -(-num // ti) * ci
                                if total >= best:
                                    break
                        else:
                            if lo == hi:
                                best = total
                                best_b = b_hi
                                if settle is not None and total <= settle:
                                    # only a total within the period is
                                    # still of use, if stage a can hold one
                                    if total <= Tk:
                                        break
                                    floor = _reach_floor(Dk, Tk, csk, terms, lcm, a, a)
                                    if floor is None or floor > Tk * lcm:
                                        break
                                    kept = total, b_hi
                                    best = Tk + 1
                            else:
                                # its first offset alone first, then halves
                                mid = (lo + 1 + hi) // 2
                                if mid < hi:
                                    stack.append((mid + 1, hi))
                                stack.append((lo + 1, mid))
                                stack.append((lo, lo))
                if kept and best > Tk:
                    # none within the period: the kept total stands
                    best, best_b = kept
                if best > Dk:
                    break
                stage_best.append(best)
                stage_b.append(best_b)
                if not reach_back or best <= Tk:
                    reach = a
                    break
            minima[k] = stage_best
            if reach is None:
                solved = False
                new_rb = Dk
                offs[k] = None
            else:
                new_rb = max(stage_best)
                if reach_back:
                    offs[k] = (reach, tuple(b + a * Tk for a, b in enumerate(stage_b)))
                else:
                    offs[k] = best_b
            if new_rb != rb[k]:
                rb[k] = new_rb
                changed = True
                if C[k] > 0:
                    dirty = [True] * n
                    dirty[k] = False
            if reach is None:
                break
        if not changed or (verdict_only and solved):
            break
    return AnalysisResult(solved, tuple(rb), tuple(offs), iters)


def _analyze(
    ts: TaskSet, rel_points: Sequence[int], config: TestConfig | None,
    reach_back: bool, inflate: bool = False, verdict_only: bool = False,
) -> AnalysisResult:
    """The window search behind every test: `reach_back` for the extended
    window, `inflate` to fold each suspension into the execution budget,
    `verdict_only` to stop at the first pass that certifies every task."""
    if len(ts) == 0:
        raise ValueError("cannot analyze an empty task set")
    pts = _check_points(ts, rel_points)
    C, S, D, T = zip(*(t.as_tuple() for t in ts))
    if inflate:
        C = [c + s for c, s in zip(C, S)]
        S = [0] * len(ts)
    return _window_core(C, S, D, T, pts, config or DEFAULT_CONFIG, reach_back, verdict_only)


def test_fixed(
    ts: TaskSet, rel_points: Sequence[int], config: TestConfig | None = None,
    *, verdict_only: bool = False,
) -> AnalysisResult:
    """Iterative response-time test scanning window offsets within one
    deadline.  Sound and sufficient: verdict True certifies that every
    job meets its deadline under the given relative priority points.
    With verdict_only, the passes stop at the first that certifies every
    task: same verdict, sound bounds that can be looser than the full
    run's.
    """
    return _analyze(ts, rel_points, config, reach_back=False, verdict_only=verdict_only)


def test_variable(
    ts: TaskSet, rel_points: Sequence[int], config: TestConfig | None = None,
    *, verdict_only: bool = False,
) -> AnalysisResult:
    """Like test_fixed, but the analysis window may start up to
    max_a periods before the analyzed release, which can help when
    deadlines exceed periods.  On task sets whose deadlines never exceed
    their periods it returns exactly the fixed-window result.
    verdict_only stops at the first pass that certifies every task, as
    for test_fixed, and ends each reach-back stage once it can no longer
    move the bound: its offsets are then certifying positions, not
    necessarily the first least ones.
    """
    return _analyze(ts, rel_points, config, reach_back=True, verdict_only=verdict_only)


def test_tfp(
    ts: TaskSet, config: TestConfig | None = None, *, verdict_only: bool = False,
) -> AnalysisResult:
    """Fixed-window test under emulated fixed task priorities (list
    order), using cumulative-deadline priority points.  verdict_only
    stops at the first pass that certifies every task, as for
    test_fixed.
    """
    pts = derive_priority_points(ts, PriorityPolicy.tfp())
    return test_fixed(ts, pts, config, verdict_only=verdict_only)


def baseline_susp_obl(
    ts: TaskSet, rel_points: Sequence[int], config: TestConfig | None = None,
    *, verdict_only: bool = False,
) -> AnalysisResult:
    """Baseline that folds each suspension into the execution budget
    (wcet + suspension, no suspension) and runs the fixed-window test.
    The inflated budget may exceed a deadline; such tasks simply fail
    refinement, so the verdict stays sound.  verdict_only stops at the
    first pass that certifies every task, as for test_fixed.
    """
    return _analyze(ts, rel_points, config, reach_back=False, inflate=True,
                    verdict_only=verdict_only)


# --- test registry -----------------------------------------------------------


TESTS = ("fixed", "variable", "baseline")


def run_test(
    name: str, ts: TaskSet, rel_points: Sequence[int], config: TestConfig | None = None,
    *, verdict_only: bool = False,
) -> AnalysisResult:
    """Run the test `name` from TESTS: the fixed- or variable-window test,
    or the suspension-oblivious baseline.  With verdict_only, the result
    holds the full run's verdict, but its bounds are those of the first
    pass that certified every task (sound, possibly looser), its
    iterations count the passes run, and its offsets are certifying
    positions, for reach-back stages not necessarily the first least
    ones."""
    # the tests are looked up by module-level name at each call, so a
    # wrapper installed over one of them sees the calls made through here
    if name == "fixed":
        return test_fixed(ts, rel_points, config, verdict_only=verdict_only)
    if name == "variable":
        return test_variable(ts, rel_points, config, verdict_only=verdict_only)
    if name == "baseline":
        return baseline_susp_obl(ts, rel_points, config, verdict_only=verdict_only)
    raise ValueError(f"unknown test kind {name!r}")


# --- result serialization ----------------------------------------------------


def result_csv_header(n_tasks: int) -> list[str]:
    return ["taskset_id", "policy", "verdict", "iterations"] + [
        f"R{i + 1}" for i in range(n_tasks)
    ]


def result_csv_row(
    taskset_id: str, policy_label: str, result: AnalysisResult
) -> list[str]:
    return [taskset_id, policy_label, "1" if result.verdict else "0",
            str(result.iterations)] + [str(r) for r in result.bounds]
