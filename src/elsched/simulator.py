"""Discrete-event simulation of self-suspending jobs on one processor.

Dispatching is preemptive and work-conserving: among all jobs that are
released, have no unfinished predecessor of the same task, and are in an
execution phase, the one with the smallest absolute priority point runs
(ties broken by task index, then job index).  A suspended job frees the
processor and re-enters the ready queue when its suspension timer ends,
keeping its original priority point.  Jobs of one task execute in release
order even if the processor would otherwise idle.

Time is integer ticks.  A trace covers [0, horizon) with half-open,
contiguous intervals in one of three states: a job executing, no job
executing while at least one is suspended, or neither (waiting idle).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import log
from operator import itemgetter
from typing import Iterable, Sequence, TypeVar

from .model import TaskSet, _check_points

RELEASE_MODELS = ("periodic", "sporadic-jittered")
SUSPENSION_MODELS = ("none", "max-single-block", "random-phases")
DEMAND_MODELS = ("wcet", "random")

TRACE_HEADER = "# el-sched trace v1"


def _canonical(
    phases: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Canonical form of an (execute, suspend) phase plan: adjacent parts
    of one kind merged, so only the first pair may execute 0 (a leading
    suspension) and only the last pair suspends 0.  Suspensions with no
    execution after them cannot delay the finish (a job is finished once
    its demand is executed) and are dropped; a plan that never executes
    becomes empty.
    """
    pairs: list[tuple[int, int]] = []
    e_acc = s_acc = 0              # the pending, still growing pair
    for e, s in phases:
        if e < 0 or s < 0:
            raise ValueError(f"negative phase amount {e if e < 0 else s}")
        if e and s_acc:
            pairs.append((e_acc, s_acc))
            e_acc = s_acc = 0
        e_acc += e
        s_acc += s
    if e_acc:
        pairs.append((e_acc, 0))
    return tuple(pairs)


_T = TypeVar("_T")


def _unchecked(cls: type[_T], **fields: object) -> _T:
    """An instance of the frozen dataclass `cls` from fields (for
    `JobSequence` and `ScheduleTrace`, their column storage) already
    valid and canonical: fills the instance dict in one step, with no
    `__init__`, `__post_init__` or frozen `__setattr__` per field."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class JobBehavior:
    """One concrete job: which task it belongs to, its position in that
    task's release order (0-based), its release time, and its fixed
    (execute, suspend) phase plan.  The plan is made canonical on
    construction (`_canonical`); demand and suspension totals are derived
    from it.

    The engine walks the plan as signed steps (see `_run_engine`).  In
    canonical form the only zero parts are a leading execute part and
    the last pair's suspend part, so the walk skips the first and
    finishes at the second.
    """

    task: int
    index: int
    release: int
    phases: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.task < 0 or self.index < 0 or self.release < 0:
            raise ValueError("task, index, and release must be non-negative")
        object.__setattr__(self, "phases", _canonical(self.phases))

    @property
    def demand(self) -> int:
        return sum(e for e, _ in self.phases)

    @property
    def suspension_total(self) -> int:
        return sum(s for _, s in self.phases)


@dataclass(frozen=True)
class JobSequence:
    """All jobs to simulate, plus the observation horizon.

    The jobs are kept as the engine reads them: `_job_tuples`, one
    (task, index, release, phases) tuple per job in (task, index) order,
    the fields of `JobBehavior` in order.  A sequence built from objects
    (`JobSequence(jobs, horizon)`) sorts them and derives its tuples on
    construction.  `generate_job_sequence` stores only the tuples it
    drew; its `jobs` are built from them on first read and then cached.
    Equality, hashing and repr are those of the fields either way.
    """

    jobs: tuple[JobBehavior, ...]
    horizon: int
    # the task set `generate_job_sequence` drew the jobs for: valid for
    # it by construction.  Unset (None) for sequences built any other way
    _drawn_for: TaskSet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        jobs = tuple(sorted(self.jobs, key=lambda j: (j.task, j.index)))
        object.__setattr__(self, "jobs", jobs)
        object.__setattr__(
            self, "_job_tuples", tuple((j.task, j.index, j.release, j.phases) for j in jobs)
        )

    def __getattr__(self, name: str):
        # called only for attributes missing from the instance dict: the
        # jobs of a generated sequence, not yet read
        d = self.__dict__
        if name != "jobs" or "_job_tuples" not in d:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        jobs = d["jobs"] = tuple(
            _unchecked(JobBehavior, task=t, index=i, release=r, phases=p)
            for t, i, r, p in d["_job_tuples"]
        )
        return jobs


def validate_sequence(ts: TaskSet, seq: JobSequence) -> None:
    """Check a sequence against the task model; raises ValueError.  One
    pass: `seq.jobs` is sorted by (task, index), so a job's predecessor
    in its task, if any, is the job before it."""
    prev: JobBehavior | None = None
    for j in seq.jobs:
        if j.task >= len(ts):
            raise ValueError(f"job references task {j.task} of {len(ts)}")
        if j.release >= seq.horizon:
            raise ValueError(f"release {j.release} at or past horizon {seq.horizon}")
        t = ts[j.task]
        if j.demand > t.wcet:
            raise ValueError(
                f"job ({j.task},{j.index}) demand {j.demand} exceeds wcet {t.wcet}"
            )
        if j.suspension_total > t.suspension:
            raise ValueError(
                f"job ({j.task},{j.index}) suspends {j.suspension_total}, "
                f"budget {t.suspension}"
            )
        same = prev is not None and prev.task == j.task
        if j.index != (prev.index + 1 if same else 0):
            raise ValueError(f"task {j.task} job indices must be consecutive from 0")
        if same and j.release - prev.release < t.period:
            raise ValueError(
                f"task {j.task} releases {prev.release},{j.release} "
                f"violate separation {t.period}"
            )
        prev = j


@dataclass(frozen=True)
class Interval:
    """Half-open processor interval.  kind is 'run', 'susp' (no job
    executing, at least one suspended) or 'wait' (neither); task/job are
    -1 unless kind is 'run'.
    """

    start: int
    end: int
    kind: str
    task: int = -1
    job: int = -1


@dataclass(frozen=True)
class JobRecord:
    """Per-job outcome: when it first executed and finished (None if not
    within the horizon), and its execution/suspension spans.
    """

    task: int
    index: int
    release: int
    start: int | None
    finish: int | None
    exec_spans: tuple[tuple[int, int], ...]
    susp_spans: tuple[tuple[int, int], ...]


# what the processor does while no job runs (a running job is its g)
_SUSP, _WAIT = -1, -2

# (task, index, release) of a job tuple
_job_id = itemgetter(0, 1, 2)


@dataclass(frozen=True)
class ScheduleTrace:
    """A recorded schedule over [0, horizon): its intervals in time order
    and one record per job in (task, index) order.

    Storage is the engine's own record, in columns:

    - `_job_tuples`: one tuple per job whose first three fields are
      (task, index, release); a job's position g in it names the job;
    - `_seg_start` and `_seg_who`: the k-th interval begins at
      `_seg_start[k]` and ends where the next begins (the last at the
      horizon); `_seg_who[k]` is the g of the job running in it, or
      `_SUSP` / `_WAIT` when none runs;
    - `_finish` and `_susp_spans`: each job's finish time (None if
      unfinished at the horizon) and list of suspension spans.

    The simulator fills only these, sharing its sequence's job tuples;
    `intervals` and `jobs` are built from them on first access and then
    cached.  A job's execution spans are its run intervals in order and
    its start the first of them.  A trace built from objects
    (`ScheduleTrace(horizon, intervals, jobs)`, `dataclasses.replace`)
    derives the columns on construction: interval starts and states,
    and the records' finish times and suspension spans.  The trace
    readers in this module (`export_trace`, `response_times`,
    `check_feasibility`, `measure_state_times`) read only the columns.

    Two simulated traces compare by their columns, which gives what
    comparing their fields would.  A trace built from objects may hold
    what no schedule gives (records that disagree with the intervals,
    intervals that leave a gap), which the columns do not show, so a
    comparison with one compares the fields.  Hashing hashes the fields.
    """

    horizon: int
    intervals: tuple[Interval, ...]
    jobs: tuple[JobRecord, ...]

    _by_fields = False      # set for a trace built from objects

    def __post_init__(self) -> None:
        pos = {(j.task, j.index): g for g, j in enumerate(self.jobs)}
        # a state no column value names (a run of no record, an unknown
        # kind) reads as waiting
        self.__dict__.update(
            _by_fields=True,
            _job_tuples=[(j.task, j.index, j.release) for j in self.jobs],
            _seg_start=[iv.start for iv in self.intervals],
            _seg_who=[
                pos.get((iv.task, iv.job), _WAIT) if iv.kind == "run"
                else _SUSP if iv.kind == "susp" else _WAIT
                for iv in self.intervals
            ],
            _finish=[j.finish for j in self.jobs],
            _susp_spans=[list(j.susp_spans) for j in self.jobs],
        )

    def __getattr__(self, name: str):
        # called only for attributes missing from the instance dict: the
        # objects of a simulated trace, not yet read
        if name == "intervals":
            value = self._intervals()
        elif name == "jobs":
            value = self._records()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = value
        return value

    def _seg_end(self) -> list[int]:
        ends = self._seg_start[1:]
        ends.append(self.horizon)
        return ends

    def _intervals(self) -> tuple[Interval, ...]:
        jobs = self._job_tuples
        out = []
        for s, e, w in zip(self._seg_start, self._seg_end(), self._seg_who):
            if w >= 0:
                out.append(_unchecked(Interval, start=s, end=e, kind="run",
                                      task=jobs[w][0], job=jobs[w][1]))
            else:
                out.append(_unchecked(Interval, start=s, end=e,
                                      kind="susp" if w == _SUSP else "wait", task=-1, job=-1))
        return tuple(out)

    def _records(self) -> tuple[JobRecord, ...]:
        exec_spans: list[list[tuple[int, int]]] = [[] for _ in self._job_tuples]
        for s, e, w in zip(self._seg_start, self._seg_end(), self._seg_who):
            if w >= 0:
                exec_spans[w].append((s, e))
        return tuple(
            _unchecked(
                JobRecord, task=j[0], index=j[1], release=j[2],
                start=spans[0][0] if spans else None, finish=fin,
                exec_spans=tuple(spans), susp_spans=tuple(susp),
            )
            for j, spans, susp, fin
            in zip(self._job_tuples, exec_spans, self._susp_spans, self._finish)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._by_fields or other._by_fields:
            return (self.horizon, self.intervals, self.jobs) == (
                other.horizon, other.intervals, other.jobs
            )
        a, b = self._job_tuples, other._job_tuples
        return (
            (self.horizon, self._seg_start, self._seg_who, self._finish, self._susp_spans)
            == (other.horizon, other._seg_start, other._seg_who, other._finish,
                other._susp_spans)
            and (a is b or list(map(_job_id, a)) == list(map(_job_id, b)))
        )

    def __hash__(self) -> int:
        return hash((self.horizon, self.intervals, self.jobs))


# (task, index, release, canonical phases): one job as the engine reads it
_EngineJob = tuple[int, int, int, tuple[tuple[int, int], ...]]


def _run_engine(
    horizon: int,
    jobs: Sequence[_EngineJob],
    rel_points: Sequence[int],
    record: bool = True,
) -> tuple[list[int | None], ScheduleTrace | None]:
    """Simulate `jobs` (sorted by task, then index) over [0, horizon),
    dispatching the ready job with the smallest absolute priority point
    (release + `rel_points[task]`), equal points by task, then job index.

    Returns the per-job finish times (None if unfinished at the horizon)
    and, when `record` is set, the full trace: these finish times, the
    segments and suspension spans kept during the run, and `jobs` itself
    (see `ScheduleTrace`).  With `record` off the trace is None and no
    segments or suspension spans are kept; the schedule itself is the
    same.

    Each plan becomes signed steps in one flat list: +e executes e
    ticks, -s suspends s ticks, 0 finishes.  A pair (e, s) gives e if e
    is not 0, then -s, or the finish if s is 0 (in canonical form only
    the first execute part and the last suspend part are 0), and a plan
    ends with a finish.  Each job keeps the index of its current step,
    and an execute step holds the ticks it has left.  The ready heap
    holds dispatch keys (point << bits) | g and the suspension heap
    (end << bits) | g, with every job position g below 2**bits, so both
    compare plain ints.

    Solo walk: when exactly one job is ready after the events at t,
    nothing but that job can act before the next release or the end of
    another job's suspension, whichever comes first (the bound): every
    other unfinished job is suspended, not yet released, or waits for
    its predecessor, whose finish is an event of a suspended job or of
    this one.  So its steps are walked by plain addition: a step that
    ends at or before the bound completes, a finish passes to the
    task's next job if that one is released (and is walked on, being
    the only ready job), and the step that crosses the bound goes back
    onto its heap with what is left of it.  Entering one step at an
    event is the same walk with the bound at t.  The trace is the one
    the event-by-event loop gives: no event it would handle falls
    inside a walk.
    """
    nj = len(jobs)
    bits = nj.bit_length()          # every position g is below 2**bits
    mask = (1 << bits) - 1
    job_task = [j[0] for j in jobs]
    job_rel = [j[2] for j in jobs]
    keys = [((j[2] + rel_points[j[0]]) << bits) | g for g, j in enumerate(jobs)]
    steps: list[int] = []
    start = [0] * nj                # each job's first step
    for g, j in enumerate(jobs):
        start[g] = len(steps)
        for e, s in j[3]:
            if e:
                steps.append(e)
            if not s:
                break
            steps.append(-s)
        steps.append(0)
    pos = [0] * nj                  # each job's current step

    # events each job awaits before it begins: its release, and its
    # predecessor's finish when the job before it is of its task
    pending = [1 + (g > 0 and job_task[g - 1] == tid) for g, tid in enumerate(job_task)]
    finish: list[int | None] = [None] * nj
    if record:
        susp_spans: list[list[tuple[int, int]]] = [[] for _ in range(nj)]
        # the processor does seg_who[k] from seg_start[k] on; None opens
        seg_start: list[int] = []
        seg_who: list[int | None] = [None]

    ready: list[int] = []           # keys of jobs in an execute step
    susp_ev: list[int] = []         # (end << bits) | g of suspended jobs

    rel_order = sorted(range(nj), key=job_rel.__getitem__)
    rel_times = [job_rel[g] for g in rel_order]
    del rel_times[bisect_left(rel_times, horizon):]
    rel_times.append(horizon)       # the next release, or the horizon
    rp = 0
    nr = rel_times[0]

    t = 0
    while t < horizon:
        # one event at t (a release, then a suspension end), a lone
        # ready job, or else the stretch up to the next event: each names
        # a job g that enters step i at t
        if nr == t:
            g = rel_order[rp]
            rp += 1
            nr = rel_times[rp]
            pending[g] -= 1
            if pending[g]:
                continue
            i = start[g]
        elif susp_ev and susp_ev[0] >> bits == t:
            g = heappop(susp_ev) & mask
            i = pos[g] + 1
        elif len(ready) == 1:
            g = ready.pop() & mask
            i = pos[g]
        else:
            nxt = nr
            if susp_ev and susp_ev[0] >> bits < nxt:
                nxt = susp_ev[0] >> bits
            if ready:
                who = ready[0] & mask
                i = pos[who]
                run_end = t + steps[i]
                if run_end < nxt:
                    nxt = run_end
                steps[i] = run_end - nxt
            else:
                who = _SUSP if susp_ev else _WAIT
            if record and seg_who[-1] != who:
                seg_start.append(t)
                seg_who.append(who)
            t = nxt
            if who < 0 or steps[i]:
                continue
            heappop(ready)
            g = who
            i += 1
        # the only ready job walks its steps up to the next event of
        # another job (solo walk); otherwise it only enters step i
        if ready:
            bound = t
        else:
            bound = nr
            if susp_ev and susp_ev[0] >> bits < bound:
                bound = susp_ev[0] >> bits

        while True:
            step = steps[i]
            if step > 0:
                if record and t < bound and seg_who[-1] != g:
                    seg_start.append(t)
                    seg_who.append(g)
                end = t + step
                if end > bound:
                    steps[i] = end - bound
                    pos[g] = i
                    heappush(ready, keys[g])
                    break
            elif step:
                end = t - step
                if record:
                    susp_spans[g].append((t, end if end < horizon else horizon))
                    if t < bound and seg_who[-1] != _SUSP:
                        seg_start.append(t)
                        seg_who.append(_SUSP)
                if end > bound or end == horizon:  # no event at the horizon
                    pos[g] = i
                    heappush(susp_ev, end << bits | g)
                    break
            else:
                finish[g] = t
                g += 1
                if g < nj and job_task[g] == job_task[g - 1]:
                    pending[g] -= 1
                    if not pending[g]:
                        i = start[g]
                        continue
                if record and t < bound:
                    who = _SUSP if susp_ev else _WAIT
                    if seg_who[-1] != who:
                        seg_start.append(t)
                        seg_who.append(who)
                break
            t = end
            i += 1
        t = bound

    if not record:
        return finish, None
    del seg_who[0]
    trace = _unchecked(
        ScheduleTrace, horizon=horizon, _job_tuples=jobs, _seg_start=seg_start,
        _seg_who=seg_who, _finish=finish, _susp_spans=susp_spans,
    )
    return finish, trace


def _engine_jobs(seq: JobSequence) -> tuple[_EngineJob, ...]:
    return seq._job_tuples


def _simulate(ts: TaskSet, rel_points: Sequence[int], seq: JobSequence) -> ScheduleTrace:
    """`simulate_el` on points already checked."""
    if seq._drawn_for != ts:
        validate_sequence(ts, seq)
    return _run_engine(seq.horizon, _engine_jobs(seq), rel_points)[1]


def simulate_el(
    ts: TaskSet, rel_points: Sequence[int], seq: JobSequence
) -> ScheduleTrace:
    """Simulate dispatching by absolute priority points (release plus the
    task's relative point), smaller first, ties by (task, job index).

    Raises ValueError unless `rel_points` holds one integer per task, as
    the analysis requires, or if `seq` breaks the task model of `ts`
    (`validate_sequence`); a sequence `generate_job_sequence` drew for a
    task set equal to `ts` is valid by construction and is not checked.
    """
    return _simulate(ts, _check_points(ts, rel_points), seq)


def simulate_tfp(ts: TaskSet, seq: JobSequence) -> ScheduleTrace:
    """Simulate strict task-level fixed priorities in task order (lower
    task index always wins); validates `seq` as `simulate_el` does.

    The engine is `simulate_el`'s, with relative points i * horizon for
    task i.  Every release lies in [0, horizon) (checked, or true by
    construction), so a task-i job's point lies in [i * horizon,
    (i + 1) * horizon) and beats every job of a later task; within a
    task, release order is index order.
    """
    return _simulate(ts, [i * seq.horizon for i in range(len(ts))], seq)


# --- workload generation ------------------------------------------------------


def _draw_jobs(
    ts: TaskSet,
    horizon: int,
    seed: int,
    release_model: str,
    suspension_model: str,
    demand_model: str,
) -> list[_EngineJob]:
    """The jobs of `generate_job_sequence` in the engine's form, sorted by
    (task, index).  Valid for `ts` by construction.

    The draws are those of `random.Random(seed)` calling `randint` and
    `expovariate`, in the same order, made without the Python-level calls
    those methods go through.  Each integer in [0, n) is drawn with CPython's own rule
    (`Random._randbelow_with_getrandbits`): k = n.bit_length() bits from
    `getrandbits`, redrawn while the value is n or more; `randint(a, b)`
    is a plus such a draw with n = b - a + 1.  Each release gap adds
    int(-log(1.0 - random()) / lam) with lam = 10.0 / period, the float
    `expovariate(lam)` returns.  Per task, the releases are drawn first,
    then each job in release order draws its demand (below wcet + 1,
    'random' demand only) and, under 'random-phases' with a nonzero
    budget and demand, its number of suspensions (below 4); if that is
    not 0, the total suspension (below budget + 1), one cut per extra
    suspension (below total + 1) and one execution offset per suspension
    (below demand).

    Every plan is emitted canonical, as `_canonical` would make it, but
    with no call to it: the k-th suspension lasts cut k minus cut k - 1
    and begins after offset k executed ticks.  A random-phase plan is
    built straight from its draws, one branch per suspension count.
    """
    if release_model not in RELEASE_MODELS:
        raise ValueError(f"unknown release model {release_model!r}")
    if suspension_model not in SUSPENSION_MODELS:
        raise ValueError(f"unknown suspension model {suspension_model!r}")
    if demand_model not in DEMAND_MODELS:
        raise ValueError(f"unknown demand model {demand_model!r}")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    uniform = rng.random
    jittered = release_model == "sporadic-jittered"
    random_demand = demand_model == "random"
    phased = suspension_model == "random-phases"
    blocked = suspension_model == "max-single-block"
    jobs: list[_EngineJob] = []
    append = jobs.append
    for tid, task in enumerate(ts):
        period, wcet, budget = task.period, task.wcet, task.suspension
        if jittered:
            lam = 10.0 / period
            releases = []
            r = 0
            while r < horizon:
                releases.append(r)
                r += period + int(-log(1.0 - uniform()) / lam)
        else:
            releases = range(0, horizon, period)
        k_demand = (wcet + 1).bit_length()
        if not (phased and budget):
            # the plan follows from the demand: max-single-block suspends
            # the whole budget after the first executed tick
            block = budget if blocked else 0
            for pos, rel in enumerate(releases):
                c = wcet
                if random_demand:
                    c = getrandbits(k_demand)
                    while c > wcet:
                        c = getrandbits(k_demand)
                if not c:
                    plan = ()
                elif not block:
                    plan = ((c, 0),)
                else:
                    plan = ((1, block), (c - 1, 0)) if c > 1 else ((1, 0),)
                append((tid, pos, rel, plan))
            continue
        # random-phases: up to three suspensions summing to a uniform
        # total, at uniformly drawn execution offsets in [0, c - 1]
        k_total = (budget + 1).bit_length()
        c = wcet
        k_off = c.bit_length()
        for pos, rel in enumerate(releases):
            if random_demand:
                c = getrandbits(k_demand)
                while c > wcet:
                    c = getrandbits(k_demand)
                k_off = c.bit_length()
            if not c:
                append((tid, pos, rel, ()))
                continue
            n_seg = getrandbits(3)  # below 4, and 4 .bit_length() is 3
            while n_seg > 3:
                n_seg = getrandbits(3)
            if not n_seg:
                append((tid, pos, rel, ((c, 0),)))
                continue
            total = getrandbits(k_total)
            while total > budget:
                total = getrandbits(k_total)
            if n_seg == 1:
                a = getrandbits(k_off)
                while a >= c:
                    a = getrandbits(k_off)
                plan = ((a, total), (c - a, 0)) if total else ((c, 0),)
            elif n_seg == 2:
                # suspensions of cut and total - cut at offsets a <= b
                k = (total + 1).bit_length()
                cut = getrandbits(k)
                while cut > total:
                    cut = getrandbits(k)
                a = getrandbits(k_off)
                while a >= c:
                    a = getrandbits(k_off)
                b = getrandbits(k_off)
                while b >= c:
                    b = getrandbits(k_off)
                if b < a:
                    a, b = b, a
                if a != b and 0 < cut < total:
                    plan = ((a, cut), (b - a, total - cut), (c - b, 0))
                else:
                    # one suspension of the total: at b if the first
                    # part is 0, else at a (a == b, or the second is 0)
                    if not cut:
                        a = b
                    plan = ((a, total), (c - a, 0)) if total else ((c, 0),)
            else:
                # suspensions of lo, hi - lo and total - hi at offsets
                # a <= b <= d (a sorting network of three)
                k = (total + 1).bit_length()
                lo = getrandbits(k)
                while lo > total:
                    lo = getrandbits(k)
                hi = getrandbits(k)
                while hi > total:
                    hi = getrandbits(k)
                if hi < lo:
                    lo, hi = hi, lo
                a = getrandbits(k_off)
                while a >= c:
                    a = getrandbits(k_off)
                b = getrandbits(k_off)
                while b >= c:
                    b = getrandbits(k_off)
                d = getrandbits(k_off)
                while d >= c:
                    d = getrandbits(k_off)
                if b < a:
                    a, b = b, a
                if d < b:
                    b, d = d, b
                    if b < a:
                        a, b = b, a
                # a suspension joins the next one at the same offset;
                # zero parts then vanish
                s1, s2, s3 = lo, hi - lo, total - hi
                if a == b:
                    s1, s2 = 0, hi
                if b == d:
                    s2, s3 = 0, s2 + s3
                plan = ()
                base = 0
                if s1:
                    plan = ((a, s1),)
                    base = a
                if s2:
                    plan += ((b - base, s2),)
                    base = b
                if s3:
                    plan += ((d - base, s3),)
                    base = d
                plan += ((c - base, 0),)
            append((tid, pos, rel, plan))
    return jobs


def generate_job_sequence(
    ts: TaskSet,
    horizon: int,
    seed: int,
    release_model: str = "sporadic-jittered",
    suspension_model: str = "random-phases",
    demand_model: str = "wcet",
) -> JobSequence:
    """Draw a concrete job sequence for a task set.

    Release models: 'periodic' releases at multiples of the period;
    'sporadic-jittered' starts at 0 and separates consecutive releases by
    the period plus exponentially distributed slack (mean one tenth of
    the period, truncated to ticks).  Suspension models: 'none';
    'max-single-block' suspends the whole budget after the first
    executed tick; 'random-phases' spreads a uniformly drawn total over
    up to three suspensions at random execution offsets.  Demand models:
    'wcet' or 'random' (uniform over [0, wcet]).
    """
    jobs = _draw_jobs(ts, horizon, seed, release_model, suspension_model, demand_model)
    # the sequence is built without its constructor: check what it would
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return _unchecked(JobSequence, horizon=horizon, _job_tuples=tuple(jobs), _drawn_for=ts)


def random_run_feasible(
    ts: TaskSet,
    rel_points: Sequence[int],
    horizon: int,
    seed: int,
    release_model: str = "sporadic-jittered",
    suspension_model: str = "random-phases",
    demand_model: str = "wcet",
) -> bool:
    """Same verdict as ``check_feasibility(simulate_el(ts, rel_points,
    generate_job_sequence(ts, horizon, seed, ...)), ts)``, for campaigns
    that need only that verdict: the jobs go straight to the engine
    (generated sequences are valid by construction) and no trace is
    recorded.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    pts = _check_points(ts, rel_points)
    jobs = _draw_jobs(ts, horizon, seed, release_model, suspension_model, demand_model)
    finish, _ = _run_engine(horizon, jobs, pts, record=False)
    return _deadlines_met(ts, horizon, jobs, finish)


# --- trace inspection ---------------------------------------------------------


def response_times(
    trace: ScheduleTrace,
) -> tuple[dict[tuple[int, int], int], dict[int, int], list[tuple[int, int]]]:
    """Per-job response times (finish - release) for finished jobs, the
    per-task maximum, and the jobs unfinished at the horizon.
    """
    per_job: dict[tuple[int, int], int] = {}
    per_task: dict[int, int] = {}
    unfinished: list[tuple[int, int]] = []
    for job, finish in zip(trace._job_tuples, trace._finish):
        if finish is None:
            unfinished.append(job[:2])
            continue
        task = job[0]
        resp = finish - job[2]
        per_job[job[:2]] = resp
        if resp > per_task.get(task, -1):
            per_task[task] = resp
    return per_job, per_task, unfinished


def check_feasibility(trace: ScheduleTrace, ts: TaskSet) -> bool:
    """True iff every finished job met its absolute deadline and no job
    whose deadline lies before the horizon is still unfinished.  Jobs
    with deadlines at or past the horizon cannot be judged and are not
    counted against feasibility.
    """
    return _deadlines_met(ts, trace.horizon, trace._job_tuples, trace._finish)


def _deadlines_met(
    ts: TaskSet, horizon: int, jobs: Sequence[tuple], finishes: Sequence[int | None]
) -> bool:
    """The rule of `check_feasibility` over job tuples (task, index,
    release, ...) and their finish times."""
    deadlines = [t.deadline for t in ts]
    for job, finish in zip(jobs, finishes):
        dl = job[2] + deadlines[job[0]]
        if finish is not None:
            if finish > dl:
                return False
        elif dl < horizon:
            return False
    return True


# --- trace export -------------------------------------------------------------


def export_trace(trace: ScheduleTrace) -> str:
    """Line-oriented text form: a header, one '# job' comment per job
    (task index release start finish, '-' when absent), then one line
    per interval: start end state task job (task/job -1 unless running).
    """
    starts, who = trace._seg_start, trace._seg_who
    # each job's first run segment: read backwards, earlier starts
    # overwrite later ones
    first = dict(zip(reversed(who), reversed(starts)))
    lines = [TRACE_HEADER, f"# horizon {trace.horizon}"]
    label = []   # of each g, then of _WAIT (-2) and _SUSP (-1)
    for g, (job, finish) in enumerate(zip(trace._job_tuples, trace._finish)):
        ti = f"{job[0]} {job[1]}"
        f = "-" if finish is None else finish
        lines.append(f"# job {ti} {job[2]} {first.get(g, '-')} {f}")
        label.append("run " + ti)
    label += ("wait -1 -1", "susp -1 -1")
    # each start is formatted once, as its segment's start and the previous end
    ss = [*map(str, starts), str(trace.horizon)]
    lines.extend(map(" ".join, zip(ss, ss[1:], map(label.__getitem__, who))))
    return "\n".join(lines) + "\n"


# --- processor-state accounting ----------------------------------------------


@dataclass(frozen=True)
class StateTimes:
    """Time accounting for one task over a window [start, end).

    At every instant the window charges exactly one bucket: `inactive`
    (the task has no released-but-unfinished job), `interference[i]`
    (a job of task i with higher dispatch order than the task's current
    job is executing), or `progress` (everything else: the current job
    executes, suspends, or waits while nothing beats it).  The current
    job is the earliest released unfinished one.

    `per_job_progress[j]` refines `progress` per job: time the processor
    works on job j or job j suspends while nothing with higher dispatch
    order than job j executes.  `ref_interference[i]` counts execution
    of task-i jobs with higher dispatch order than one fixed reference
    job, active or not.
    """

    inactive: int
    progress: int
    interference: dict[int, int]
    per_job_progress: dict[int, int]
    ref_interference: dict[int, int]


_task_of = itemgetter(0)   # of a job tuple


def measure_state_times(
    trace: ScheduleTrace,
    ts: TaskSet,
    rel_points: Sequence[int],
    task: int,
    start: int,
    end: int,
    ref_index: int | None = None,
) -> StateTimes:
    """Measure the state buckets of `task` over [start, end) of a trace.

    Dispatch order is (release + relative point, task, job index),
    matching the simulator.  A window with start >= end yields all
    zeros.  Requires 0 <= start and end <= horizon, and `ref_index`, if
    given, to name a job of `task` in the trace, whatever the window.

    One forward sweep over the window.  Jobs of a task execute in release
    order, so only the task's first unfinished job can have begun: it is
    the current job, and the only one that runs or suspends.  Each step
    of the sweep ends at the nearest interval end or the current job's
    release, finish or suspension boundary, and costs O(1).  With J jobs
    and I intervals in the trace, K jobs of `task` and W intervals inside
    the window, a call costs O(n + log J + log I + W + K): its time
    follows the window's length, not the horizon's.  The trace is one the
    simulator returned (jobs in (task, index) order, the indices of a
    task consecutive from 0), so a job's position g in it orders equal
    points as (task, index) does.
    """
    pts = _check_points(ts, rel_points)
    n = len(ts)
    if not 0 <= task < n:
        raise ValueError(f"task {task} outside [0, {n})")
    jobs = trace._job_tuples
    lo = bisect_left(jobs, task, key=_task_of)
    k_count = bisect_right(jobs, task, lo, key=_task_of) - lo
    if ref_index is not None and not 0 <= ref_index < k_count:
        raise ValueError(f"task {task} has no job {ref_index} in the trace")
    interference = {i: 0 for i in range(n) if i != task}
    ref_interference = dict(interference) if ref_index is not None else {}
    per_job = {jobs[g][1]: 0 for g in range(lo, lo + k_count)}
    if start >= end:
        return StateTimes(0, 0, interference, per_job, ref_interference)
    if start < 0 or end > trace.horizon:
        raise ValueError("window must lie within [0, horizon]")

    own = pts[task]
    # dispatch keys (absolute point, g)
    ref_key = None
    if ref_index is not None:
        ref_key = (jobs[lo + ref_index][2] + own, lo + ref_index)

    finish, susp_spans = trace._finish, trace._susp_spans
    seg_start, seg_who = trace._seg_start, trace._seg_who
    last = len(seg_start) - 1
    i = bisect_right(seg_start, start) - 1     # the interval holding start
    inactive = progress = 0
    # the current job: its position p among the task's jobs, its g,
    # release, finish (`end` when unfinished), key, suspension spans and
    # the first span not yet over
    p = -1
    cur_fin = start
    cur = None
    t = start
    while t < end:
        while cur_fin <= t:
            p += 1
            if p == k_count:
                cur = None
                cur_fin = end
                break
            cur = lo + p
            cur_rel = jobs[cur][2]
            cur_fin = end if finish[cur] is None else finish[cur]
            cur_key = (cur_rel + own, cur)
            spans = susp_spans[cur]
            s = 0
        iv_end = seg_start[i + 1] if i < last else trace.horizon
        nxt = iv_end if iv_end < end else end
        w = seg_who[i]
        r = jobs[w][0] if w >= 0 else -1
        rkey = None
        if r >= 0 and r != task:
            rkey = (jobs[w][2] + pts[r], w)
        suspended = False
        active = cur is not None and cur_rel <= t
        if active:
            if cur_fin < nxt:
                nxt = cur_fin
            while s < len(spans) and spans[s][1] <= t:
                s += 1
            if s < len(spans):
                a, b = spans[s]
                if a <= t:
                    suspended = True
                    if b < nxt:
                        nxt = b
                elif a < nxt:
                    nxt = a
        elif cur is not None and cur_rel < nxt:
            nxt = cur_rel
        width = nxt - t

        if ref_key is not None and rkey is not None and rkey < ref_key:
            ref_interference[r] += width
        if not active:
            inactive += width
        elif rkey is not None and rkey < cur_key:
            interference[r] += width
        else:
            progress += width
            if suspended or r == task:  # a running task-k job is the current one
                per_job[p] += width

        t = nxt
        if t == iv_end:
            i += 1

    return StateTimes(inactive, progress, interference, per_job, ref_interference)
