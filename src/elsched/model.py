"""Task model for self-suspending sporadic tasks on a uniprocessor.

All timing parameters are non-negative integers in ticks (1 tick = 1 us).
Arithmetic on ticks is exact; rational quantities (utilization, priority
weights) use fractions.Fraction.  A task is the 4-tuple (wcet, suspension,
deadline, period); scheduling policies are described by a per-task relative
priority point: a job released at r is dispatched with absolute priority
point r + rel_point, smaller values winning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

TASKSET_HEADER = "# el-sched taskset v1"


class TasksetFormatError(ValueError):
    """Raised when a task-set file or literal violates the model."""


def _round_ratio(num: int, den: int) -> int:
    """num / den (den > 0) rounded to the nearest integer, ties toward
    plus infinity: floor(num / den + 1/2), in integers."""
    return (2 * num + den) // (2 * den)


def round_half_up(value: Fraction | int) -> int:
    """Round to the nearest integer, ties toward plus infinity."""
    value = Fraction(value)
    return _round_ratio(value.numerator, value.denominator)


def _integral_points(points: Sequence[int]) -> list[int]:
    """The priority points as ints; ValueError names the first one that
    is not an integer, so no point is silently truncated."""
    pts = []
    for p in points:
        q = int(p)
        if q != p:
            raise ValueError(f"priority point {p!r} is not an integer")
        pts.append(q)
    return pts


@dataclass(frozen=True)
class Task:
    """One sporadic task: worst-case execution, total self-suspension,
    relative deadline, and minimum inter-arrival separation, in ticks.

    Invariants: 0 <= wcet <= deadline, suspension >= 0, period > 0.
    """

    wcet: int
    suspension: int
    deadline: int
    period: int

    def __post_init__(self) -> None:
        c, s, d, t = self.wcet, self.suspension, self.deadline, self.period
        # four plain ints need no field-by-field type check
        if not (type(c) is int and type(s) is int and type(d) is int and type(t) is int):
            for name in ("wcet", "suspension", "deadline", "period"):
                v = getattr(self, name)
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TasksetFormatError(f"{name} must be an integer tick count, got {v!r}")
        if t <= 0:
            raise TasksetFormatError(f"period must be positive, got {t}")
        if c < 0 or s < 0 or d < 0:
            raise TasksetFormatError("task parameters must be non-negative")
        if c > d:
            raise TasksetFormatError(f"wcet {c} exceeds deadline {d}")

    @property
    def utilization(self) -> Fraction:
        return Fraction(self.wcet, self.period)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.wcet, self.suspension, self.deadline, self.period)


@dataclass(frozen=True)
class TaskSet:
    """An ordered collection of tasks.  Task ids are list positions."""

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for t in self.tasks:
            if not isinstance(t, Task):
                raise TasksetFormatError(f"task set elements must be Task, got {t!r}")

    @classmethod
    def from_tuples(cls, rows: Sequence[Sequence[int]]) -> TaskSet:
        return cls(tuple(Task(*row) for row in rows))

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, i: int) -> Task:
        return self.tasks[i]

    @property
    def utilization(self) -> Fraction:
        return sum((t.utilization for t in self.tasks), Fraction(0))


def _check_points(ts: TaskSet, points: Sequence[int]) -> list[int]:
    """The points of `ts` as ints, by the rule every analysis and simulation
    entry applies: one integer per task, else ValueError."""
    pts = _integral_points(points)
    if len(pts) != len(ts):
        raise ValueError(
            f"one relative priority point per task required, got {len(pts)} for {len(ts)}"
        )
    return pts


# Relative priority-point policies.  Each policy maps a task set to one
# relative priority point per task; see derive_priority_points().  The
# points of the weighted kinds take a weight.

POLICY_KINDS = ("edf", "fifo", "eqdf", "saedf", "tfp", "dm", "explicit")
WEIGHTED_KINDS = ("eqdf", "saedf")


@dataclass(frozen=True)
class PriorityPolicy:
    """How relative priority points are derived from task parameters.

    kind: one of 'edf' (deadline), 'fifo' (release order), 'eqdf'
    (deadline plus weight * wcet), 'saedf' (deadline plus weight *
    suspension), 'tfp' (fixed task priorities in list order, emulated by
    cumulative-deadline points), 'dm' (deadline-monotonic fixed
    priorities, emulated the same way along deadline order), 'explicit'
    (caller-supplied points).

    A weight is given exactly for 'eqdf' and 'saedf' and is kept as a
    Fraction; points are given exactly for 'explicit' and are kept as
    ints.  Any other combination raises ValueError, so no weight or
    point is silently ignored.  label() names the policy: its kind, with
    the weight or points in brackets (edf, eqdf[2], explicit[4,10]).
    """

    kind: str
    weight: Fraction | None = None
    points: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        weighted, explicit = self.kind in WEIGHTED_KINDS, self.kind == "explicit"
        if weighted != (self.weight is not None):
            raise ValueError(f"policy {self.kind} requires a weight" if weighted
                             else f"policy {self.kind} takes no weight, got {self.weight}")
        if explicit != (self.points is not None):
            raise ValueError("policy explicit requires points" if explicit
                             else f"policy {self.kind} takes no points, got {self.points}")
        if weighted:
            object.__setattr__(self, "weight", Fraction(self.weight))
        if explicit:
            object.__setattr__(self, "points", tuple(_integral_points(self.points)))

    @classmethod
    def edf(cls) -> PriorityPolicy:
        return cls("edf")

    @classmethod
    def fifo(cls) -> PriorityPolicy:
        return cls("fifo")

    @classmethod
    def eqdf(cls, weight: Fraction | int) -> PriorityPolicy:
        return cls("eqdf", weight)

    @classmethod
    def saedf(cls, weight: Fraction | int) -> PriorityPolicy:
        return cls("saedf", weight)

    @classmethod
    def tfp(cls) -> PriorityPolicy:
        return cls("tfp")

    @classmethod
    def dm(cls) -> PriorityPolicy:
        return cls("dm")

    @classmethod
    def explicit(cls, points: Sequence[int]) -> PriorityPolicy:
        return cls("explicit", points=points)

    def label(self) -> str:
        if self.weight is not None:
            return f"{self.kind}[{self.weight}]"
        if self.points is not None:
            return f"{self.kind}[{','.join(map(str, self.points))}]"
        return self.kind


def derive_priority_points(ts: TaskSet, policy: PriorityPolicy) -> tuple[int, ...]:
    """Relative priority point per task (signed ticks, task order).

    Weighted policies round to the nearest tick with ties up.  The 'tfp'
    policy assigns cumulative deadlines (point of task i is the sum of
    the deadlines of tasks 0..i), which emulates fixed task priorities in
    list order once every response time is certified to stay within the
    deadline.  The 'dm' policy does the same along the deadline-sorted
    order (ties keep list order), so on a deadline-sorted set it equals
    'tfp'.
    """
    if len(ts) == 0:
        raise ValueError("cannot derive priority points for an empty task set")
    if policy.kind == "edf":
        return tuple(t.deadline for t in ts)
    if policy.kind == "fifo":
        return tuple(0 for _ in ts)
    if policy.kind in WEIGHTED_KINDS:
        # D + (p / q) * X rounds as (q * D + p * X) / q
        p, q = policy.weight.numerator, policy.weight.denominator
        if policy.kind == "eqdf":
            return tuple(_round_ratio(q * t.deadline + p * t.wcet, q) for t in ts)
        return tuple(_round_ratio(q * t.deadline + p * t.suspension, q) for t in ts)
    if policy.kind in ("tfp", "dm"):
        tasks = ts.tasks
        order = range(len(tasks))
        if policy.kind == "dm":
            order = sorted(order, key=lambda i: tasks[i].deadline)
        pts = [0] * len(tasks)
        acc = 0
        for i in order:
            acc += tasks[i].deadline
            pts[i] = acc
        return tuple(pts)
    return tuple(_check_points(ts, policy.points))


# --- line-oriented task-set files -------------------------------------------
#
#   # el-sched taskset v1
#   <wcet> <suspension> <deadline> <period>     (one task per line)
#
# Blank lines and further '#' comments are ignored.


def parse_taskset_text(text: str) -> TaskSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != TASKSET_HEADER:
        raise TasksetFormatError(f"missing header line {TASKSET_HEADER!r}")
    rows: list[Task] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TasksetFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            vals = [int(p) for p in parts]
        except ValueError as exc:
            raise TasksetFormatError(f"line {lineno}: non-integer field") from exc
        try:
            rows.append(Task(*vals))
        except TasksetFormatError as exc:
            raise TasksetFormatError(f"line {lineno}: {exc}") from exc
    return TaskSet(tuple(rows))


def format_taskset_text(ts: TaskSet) -> str:
    lines = [TASKSET_HEADER]
    lines.extend(" ".join(str(v) for v in t.as_tuple()) for t in ts)
    return "\n".join(lines) + "\n"


def load_taskset(path: str | Path) -> TaskSet:
    return parse_taskset_text(Path(path).read_text())


def save_taskset(ts: TaskSet, path: str | Path) -> None:
    Path(path).write_text(format_taskset_text(ts))
