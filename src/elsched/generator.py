"""Random task-set synthesis.

Utilizations come from the standard recursive uniform-sum split (sample
the remaining sum through powers of uniform draws), periods are
log-uniform over a millisecond range, deadlines scale the period by a
constant factor, and suspension budgets are uniform over a slice of the
per-task slack.  Everything is quantized to integer ticks
(1 ms = 1000 ticks); utilization targets are hit exactly in the rational
sense by a final rescale.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .model import Task, TaskSet, _round_ratio

TICKS_PER_MS = 1000

_MAX_REDRAWS = 100_000


def _uunifast_ratios(
    n: int, u_num: int, u_den: int, rng: random.Random,
) -> tuple[list[int], int]:
    """The uniform split of u_num / u_den into n positive parts, as
    numerators over one common denominator.  Sampling uses floats; each
    float part is a / d exactly (as_integer_ratio, d a power of two), so
    over their largest d the parts are integers a_i summing to A, and
    u_i = a_i * u_num / (A * u_den) is the exact rescale to the target.

    A split with a part at 0.0 is redrawn, at most `_MAX_REDRAWS` times:
    a total that nearly underflows in floating point never splits into
    positive parts.  A total whose float is 0.0 fails before any draw.
    """
    total = u_num / u_den
    if total == 0.0:
        raise ValueError(
            f"utilization {Decimal(u_num) / Decimal(u_den):.3g} is 0.0 as a float: "
            f"no split into {n} positive floats"
        )
    for _ in range(_MAX_REDRAWS + 1):
        parts: list[float] = []
        remaining = total
        for k in range(1, n):
            nxt = remaining * rng.random() ** (1.0 / (n - k))
            parts.append(remaining - nxt)
            remaining = nxt
        parts.append(remaining)
        if all(p > 0.0 for p in parts):
            break
    else:
        raise ValueError(
            f"gave up after {_MAX_REDRAWS} utilization redraws: no split of "
            f"{total!r} into {n} positive floats"
        )
    ratios = [p.as_integer_ratio() for p in parts]
    common = max(d for _, d in ratios)
    nums = [a * (common // d) for a, d in ratios]
    return [a * u_num for a in nums], sum(nums) * u_den


def uunifast(n: int, u_total: Fraction | float, rng: random.Random) -> list[Fraction]:
    """Split u_total into n positive utilizations, uniformly over the
    simplex.  Sampling uses floats; the result is rescaled exactly so
    the rational parts sum to u_total.
    """
    if n < 1:
        raise ValueError(f"need at least one task, got n={n}")
    target = Fraction(u_total)
    if target <= 0:
        raise ValueError(f"u_total must be positive, got {u_total}")
    nums, den = _uunifast_ratios(n, target.numerator, target.denominator, rng)
    return [Fraction(m, den) for m in nums]


def _exact(value: object) -> Fraction:
    """value as a Fraction; one already a Fraction is kept as it is."""
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthesized task set.

    n tasks; total utilization u_total in (0, n]; periods log-uniform
    over period_range (milliseconds); relative deadline = deadline_factor *
    period (>= 1, so wcet always fits); suspension budget uniform over
    [lo * slack, hi * slack] where slack = period - wcet and (lo, hi) =
    suspension_factor_range.
    """

    n: int
    u_total: Fraction
    seed: int
    period_range: tuple[float, float] = (1, 100)
    deadline_factor: Fraction = Fraction(1)
    suspension_factor_range: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1, 2))

    def __post_init__(self) -> None:
        u = _exact(self.u_total)
        x = _exact(self.deadline_factor)
        slo, shi = _exact(self.suspension_factor_range[0]), _exact(self.suspension_factor_range[1])
        object.__setattr__(self, "u_total", u)
        object.__setattr__(self, "deadline_factor", x)
        object.__setattr__(self, "suspension_factor_range", (slo, shi))
        if self.n < 1:
            raise ValueError(f"need at least one task, got n={self.n}")
        # the task count sizes the draw, so it must be an integer
        if not isinstance(self.n, int):
            raise ValueError(f"task count n must be an integer, got {self.n!r}")
        if not 0 < u <= self.n:
            raise ValueError(f"u_total must be in (0, n], got {u}")
        lo, hi = self.period_range
        # NaN fails every comparison, and periods are drawn log-uniformly
        # in ticks, which must stay finite floats
        if not 0 < lo <= hi <= sys.float_info.max / TICKS_PER_MS:
            raise ValueError(f"bad period range {self.period_range}")
        if round(lo * TICKS_PER_MS) < 1:
            raise ValueError("shortest period must be at least one tick")
        if x < 1:
            raise ValueError(f"deadline_factor must be >= 1, got {x}")
        if slo < 0 or shi < slo:
            raise ValueError(f"bad suspension range {self.suspension_factor_range}")


def synthesize_counting(spec: GenSpec) -> tuple[TaskSet, int]:
    """Synthesize one task set; also report how many utilization vectors
    were discarded because a single task exceeded full utilization
    (possible when u_total > 1; such vectors are redrawn, never clamped).
    """
    rng = random.Random(spec.seed)
    u = spec.u_total
    discards = 0
    while True:
        nums, den = _uunifast_ratios(spec.n, u.numerator, u.denominator, rng)
        if all(m <= den for m in nums):
            break
        discards += 1
        if discards > _MAX_REDRAWS:
            raise ValueError(
                f"gave up after {discards} utilization redraws for {spec}"
            )
    lo_ln = math.log(spec.period_range[0] * TICKS_PER_MS)
    # rng.uniform(lo_ln, hi_ln) is lo_ln + (hi_ln - lo_ln) * rng.random(),
    # written out here: the same draws and the same floats, without a call
    span_ln = math.log(spec.period_range[1] * TICKS_PER_MS) - lo_ln
    draw = rng.random
    # rng.randint(lo, hi) is lo + rng._randbelow(hi - lo + 1) once randrange
    # has checked its arguments: the same draw, without those calls
    below = rng._randbelow
    x = spec.deadline_factor
    slo, shi = spec.suspension_factor_range
    xp, xq = x.numerator, x.denominator
    lp, lq = slo.numerator, slo.denominator
    hp, hq = shi.numerator, shi.denominator
    tasks = []
    for m in nums:
        period = int(math.exp(lo_ln + span_ln * draw()) + 0.5)
        wcet = _round_ratio(m * period, den)
        deadline = _round_ratio(xp * period, xq)
        slack = period - wcet
        if slack > 0:
            s_lo = _round_ratio(lp * slack, lq)
            susp = s_lo + below(_round_ratio(hp * slack, hq) - s_lo + 1)
        else:
            susp = 0
        tasks.append(Task(wcet, susp, deadline, period))
    tasks.sort(key=lambda t: t.deadline)
    return TaskSet(tuple(tasks)), discards


def synthesize(spec: GenSpec) -> TaskSet:
    return synthesize_counting(spec)[0]


# --- batch files (JSON lines) -------------------------------------------------


@dataclass(frozen=True)
class BatchEntry:
    id: str
    seed: int
    u_target: Fraction
    taskset: TaskSet


def dump_batch(entries: Sequence[BatchEntry], path: str | Path) -> None:
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps({
                "id": e.id,
                "seed": e.seed,
                "u_target": str(e.u_target),
                "tasks": [list(t.as_tuple()) for t in e.taskset],
            }) + "\n")


def load_batch(path: str | Path) -> list[BatchEntry]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out.append(BatchEntry(
                id=str(obj["id"]),
                seed=int(obj["seed"]),
                u_target=Fraction(obj["u_target"]),
                taskset=TaskSet.from_tuples(obj["tasks"]),
            ))
    return out
