"""Tests for the event-driven scheduler: golden traces, engine invariants,
trace export, and the processor-state accounting."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from elsched import (
    GenSpec,
    PriorityPolicy,
    ScheduleTrace,
    Task,
    TaskSet,
    check_feasibility,
    derive_priority_points,
    export_trace,
    generate_job_sequence,
    measure_state_times,
    response_times,
    simulate_el,
    simulate_tfp,
    synthesize,
    validate_sequence,
)
from elsched import simulator
from elsched import test_fixed as fixed_test  # alias: keep pytest collection away
from elsched.generator import TICKS_PER_MS
from elsched.simulator import (
    DEMAND_MODELS,
    RELEASE_MODELS,
    SUSPENSION_MODELS,
    JobBehavior,
    JobSequence,
    _engine_jobs,
    _run_engine,
    random_run_feasible,
)

REF = TaskSet((Task(2, 0, 5, 5), Task(7, 3, 16, 16)))
REF_POINTS = (4, 10)


def reference_sequence() -> JobSequence:
    """Three short-task jobs plus one suspending long-task job."""
    return JobSequence(
        (
            JobBehavior(0, 0, 0, ((2, 0),)),
            JobBehavior(0, 1, 5, ((2, 0),)),
            JobBehavior(0, 2, 10, ((2, 0),)),
            JobBehavior(1, 0, 0, ((1, 3), (6, 0))),
        ),
        horizon=16,
    )


GOLDEN_EXPORT = """\
# el-sched trace v1
# horizon 16
# job 0 0 0 0 2
# job 0 1 5 5 7
# job 0 2 10 13 15
# job 1 0 0 2 13
0 2 run 0 0
2 3 run 1 0
3 5 susp -1 -1
5 7 run 0 1
7 13 run 1 0
13 15 run 0 2
15 16 wait -1 -1
"""


# --- golden trace -----------------------------------------------------------------


def test_golden_trace_intervals():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    assert [(i.start, i.end, i.kind, i.task, i.job) for i in trace.intervals] == [
        (0, 2, "run", 0, 0),
        (2, 3, "run", 1, 0),
        (3, 5, "susp", -1, -1),
        (5, 7, "run", 0, 1),
        (7, 13, "run", 1, 0),
        (13, 15, "run", 0, 2),
        (15, 16, "wait", -1, -1),
    ]


def test_golden_trace_job_records():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    long_job = [j for j in trace.jobs if j.task == 1][0]
    assert long_job.exec_spans == ((2, 3), (7, 13))
    assert long_job.susp_spans == ((3, 6),)
    assert (long_job.release, long_job.start, long_job.finish) == (0, 2, 13)


def test_golden_trace_is_feasible():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    assert check_feasibility(trace, REF) is True


def test_golden_trace_response_times():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    per_job, per_task, unfinished = response_times(trace)
    assert per_job == {(0, 0): 2, (0, 1): 2, (0, 2): 5, (1, 0): 13}
    assert per_task == {0: 5, 1: 13}
    assert unfinished == []


def test_golden_trace_export_text():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    assert export_trace(trace) == GOLDEN_EXPORT


def test_fourth_release_extends_the_trace():
    # A fourth short-task release at 15 executes its first tick before the
    # horizon and is reported unfinished; its deadline is past the horizon
    # so feasibility is unaffected.
    jobs = reference_sequence().jobs[:3] + (
        JobBehavior(0, 3, 15, ((2, 0),)),
        reference_sequence().jobs[3],
    )
    seq = JobSequence(jobs, 16)
    trace = simulate_el(REF, REF_POINTS, seq)
    assert [(i.start, i.end, i.kind, i.task) for i in trace.intervals] == [
        (0, 2, "run", 0),
        (2, 3, "run", 1),
        (3, 5, "susp", -1),
        (5, 7, "run", 0),
        (7, 13, "run", 1),
        (13, 15, "run", 0),
        (15, 16, "run", 0),
    ]
    assert check_feasibility(trace, REF) is True
    assert response_times(trace)[2] == [(0, 3)]


# --- strict fixed-priority engine ----------------------------------------------------


def test_tfp_differential_fixture():
    # Same instance under strict task-index priority: the third
    # short-task release preempts the long job.
    trace = simulate_tfp(REF, reference_sequence())
    assert [(i.start, i.end, i.kind, i.task) for i in trace.intervals] == [
        (0, 2, "run", 0),
        (2, 3, "run", 1),
        (3, 5, "susp", -1),
        (5, 7, "run", 0),
        (7, 10, "run", 1),
        (10, 12, "run", 0),
        (12, 15, "run", 1),
        (15, 16, "wait", -1),
    ]
    long_job = [j for j in trace.jobs if j.task == 1][0]
    assert long_job.exec_spans == ((2, 3), (7, 10), (12, 15))
    assert long_job.susp_spans == ((3, 6),)
    assert check_feasibility(trace, REF) is True


def test_tfp_equals_el_with_prefix_sum_points():
    pts = derive_priority_points(REF, PriorityPolicy.tfp())
    rng = random.Random(404)
    for s in range(10):
        seq = generate_job_sequence(REF, 80, seed=rng.randint(0, 2**32))
        el = export_trace(simulate_el(REF, pts, seq))
        fp = export_trace(simulate_tfp(REF, seq))
        assert el == fp


def test_tfp_single_task_matches_el_for_any_points():
    ts = TaskSet((Task(3, 2, 9, 9),))
    seq = generate_job_sequence(ts, 40, seed=5)
    fp = export_trace(simulate_tfp(ts, seq))
    for pt in (-7, 0, 9, 100):
        assert export_trace(simulate_el(ts, (pt,), seq)) == fp


# --- engine basics -----------------------------------------------------------------


def test_single_job_runs_at_release():
    ts = TaskSet((Task(2, 0, 5, 5),))
    seq = JobSequence((JobBehavior(0, 0, 3, ((2, 0),)),), 10)
    trace = simulate_el(ts, (5,), seq)
    assert [(i.start, i.end, i.kind, i.task) for i in trace.intervals] == [
        (0, 3, "wait", -1),
        (3, 5, "run", 0),
        (5, 10, "wait", -1),
    ]
    assert response_times(trace)[0] == {(0, 0): 2}


def test_equal_priority_points_tie_break_by_task_index():
    two = TaskSet((Task(2, 0, 10, 10), Task(2, 0, 10, 10)))
    seq = JobSequence(
        (JobBehavior(0, 0, 0, ((2, 0),)), JobBehavior(1, 0, 0, ((2, 0),))), 8
    )
    trace = simulate_el(two, (0, 0), seq)
    assert [(i.start, i.end, i.task) for i in trace.intervals if i.kind == "run"] == [
        (0, 2, 0),
        (2, 4, 1),
    ]


def test_empty_sequence_idles_and_is_feasible():
    ts = TaskSet((Task(2, 0, 5, 5),))
    trace = simulate_el(ts, (5,), JobSequence((), 5))
    assert [(i.start, i.end, i.kind) for i in trace.intervals] == [(0, 5, "wait")]
    assert check_feasibility(trace, ts) is True


def test_leading_suspension_can_blow_the_deadline():
    # The whole demand fits, but the job spends its suspension budget
    # before executing and finishes past its deadline.
    ts = TaskSet((Task(1, 3, 2, 5),))
    seq = JobSequence((JobBehavior(0, 0, 0, ((0, 3), (1, 0))),), 5)
    trace = simulate_el(ts, (2,), seq)
    job = trace.jobs[0]
    assert job.susp_spans == ((0, 3),)
    assert job.finish == 4
    assert check_feasibility(trace, ts) is False


def test_zero_demand_job_finishes_instantly():
    ts = TaskSet((Task(2, 0, 5, 5),))
    seq = JobSequence((JobBehavior(0, 0, 3, ()),), 10)
    trace = simulate_el(ts, (5,), seq)
    job = trace.jobs[0]
    # Never occupies the processor, so it has no start; it completes the
    # moment it becomes eligible.
    assert (job.start, job.finish) == (None, 3)
    assert job.exec_spans == ()
    assert all(i.kind == "wait" for i in trace.intervals)


# --- behavior normalization -----------------------------------------------------------


def test_phase_normalization():
    # Adjacent zero-execute segments merge and trailing suspension drops:
    # a job is finished once its last execution tick completes.
    assert JobBehavior(0, 0, 0, ((1, 2), (1, 0), (0, 5))).phases == ((1, 2), (1, 0))
    assert JobBehavior(0, 0, 0, ((2, 3),)).phases == ((2, 0),)
    assert JobBehavior(0, 0, 0, ()).phases == ()
    # A leading suspension survives as a zero-execute first phase.
    assert JobBehavior(0, 0, 0, ((0, 3), (1, 0))).phases == ((0, 3), (1, 0))


def test_behavior_rejects_negative_amounts():
    with pytest.raises(ValueError):
        JobBehavior(0, 0, -1, ((2, 0),))
    with pytest.raises(ValueError):
        JobBehavior(0, 0, 0, ((-1, 0),))
    with pytest.raises(ValueError):
        JobBehavior(0, 0, 0, ((1, -2),))


# --- sequence validation ----------------------------------------------------------------


def test_validate_sequence_catches_violations():
    ts = TaskSet((Task(2, 0, 5, 5),))
    cases = [
        # separation violated
        JobSequence(
            (JobBehavior(0, 0, 0, ((2, 0),)), JobBehavior(0, 1, 3, ((2, 0),))), 10
        ),
        # demand above wcet
        JobSequence((JobBehavior(0, 0, 0, ((3, 0),)),), 10),
        # suspension above budget (not trailing, so it survives normalization)
        JobSequence((JobBehavior(0, 0, 0, ((1, 1), (1, 0))),), 10),
        # release at/past horizon
        JobSequence((JobBehavior(0, 0, 20, ((2, 0),)),), 10),
        # releases out of order
        JobSequence(
            (JobBehavior(0, 1, 0, ((2, 0),)), JobBehavior(0, 0, 5, ((2, 0),))), 10
        ),
        # unknown task id
        JobSequence((JobBehavior(1, 0, 0, ((2, 0),)),), 10),
    ]
    for seq in cases:
        with pytest.raises(ValueError):
            validate_sequence(ts, seq)


def test_simulate_rejects_malformed_sequence():
    ts = TaskSet((Task(2, 0, 5, 5),))
    bad = JobSequence((JobBehavior(0, 0, 0, ((3, 0),)),), 10)
    with pytest.raises(ValueError):
        simulate_el(ts, (5,), bad)
    with pytest.raises(ValueError):
        simulate_tfp(ts, bad)


def test_simulate_validates_generated_sequences_against_other_task_sets():
    # A generated sequence skips validation only for the task set it was
    # drawn for: against one with a lower wcet, or rebuilt by
    # dataclasses.replace with invalid jobs, it still raises.
    ts = TaskSet((Task(3, 2, 9, 9), Task(5, 4, 20, 20)))
    seq = generate_job_sequence(ts, 100, seed=7)
    simulate_tfp(TaskSet(ts.tasks), seq)  # an equal set: accepted
    lower = TaskSet((Task(2, 2, 9, 9), Task(5, 4, 20, 20)))
    bad_jobs = seq.jobs[:1] + (dataclasses.replace(seq.jobs[1], release=1),) + seq.jobs[2:]
    for other, s in ((lower, seq), (ts, dataclasses.replace(seq, jobs=bad_jobs))):
        with pytest.raises(ValueError):
            simulate_el(other, (9, 20), s)
        with pytest.raises(ValueError):
            simulate_tfp(other, s)


def test_generated_sequence_matches_its_object_built_twin():
    # A generated sequence stores only its engine tuples and builds its
    # jobs on first read; it compares, hashes and prints like the same
    # jobs passed to the constructor, in either order, and feeds the
    # engine the same tuples.  The twin is hand-built, so it is checked.
    ts = TaskSet((Task(3, 2, 9, 9), Task(5, 4, 20, 20)))
    lower = TaskSet((Task(2, 2, 9, 9), Task(5, 4, 20, 20)))
    for seed in range(5):
        twin = JobSequence(generate_job_sequence(ts, 100, seed).jobs, horizon=100)
        for twin_first in (False, True):
            fresh = generate_job_sequence(ts, 100, seed)
            assert "jobs" not in vars(fresh)
            a, b = (twin, fresh) if twin_first else (fresh, twin)
            assert a == b and b == a
            assert hash(fresh) == hash(twin) and repr(fresh) == repr(twin)
            assert fresh.jobs == twin.jobs and fresh.jobs is fresh.jobs
            assert _engine_jobs(fresh) == _engine_jobs(twin)
            assert simulate_el(ts, (9, 20), fresh) == simulate_el(ts, (9, 20), twin)
        with pytest.raises(ValueError):
            validate_sequence(lower, twin)
        with pytest.raises(ValueError):
            simulate_el(lower, (9, 20), twin)


# --- sequence generation ----------------------------------------------------------------


def test_generate_periodic_wcet_none():
    ts = TaskSet((Task(2, 0, 5, 5),))
    seq = generate_job_sequence(
        ts, 10, seed=1, release_model="periodic",
        suspension_model="none", demand_model="wcet",
    )
    assert [(b.task, b.index, b.release, b.phases) for b in seq.jobs] == [
        (0, 0, 0, ((2, 0),)),
        (0, 1, 5, ((2, 0),)),
    ]


def test_generate_is_deterministic():
    ts = TaskSet((Task(3, 2, 9, 9), Task(5, 1, 20, 20)))
    a = generate_job_sequence(ts, 100, seed=77)
    b = generate_job_sequence(ts, 100, seed=77)
    assert a == b


def test_generate_max_single_block_shape():
    ts = TaskSet((Task(4, 3, 12, 12),))
    seq = generate_job_sequence(
        ts, 12, seed=3, release_model="periodic",
        suspension_model="max-single-block", demand_model="wcet",
    )
    # One suspension of the full budget after the first execution tick.
    assert seq.jobs[0].phases == ((1, 3), (3, 0))


def test_generate_all_models_produce_valid_sequences():
    rng = random.Random(1234)
    ts = TaskSet((Task(3, 2, 9, 9), Task(5, 4, 20, 20), Task(1, 0, 7, 7)))
    for release in RELEASE_MODELS:
        for susp in SUSPENSION_MODELS:
            for demand in DEMAND_MODELS:
                for _ in range(5):
                    seq = generate_job_sequence(
                        ts, 200, seed=rng.randint(0, 2**32),
                        release_model=release,
                        suspension_model=susp,
                        demand_model=demand,
                    )
                    validate_sequence(ts, seq)  # raises on violation
                    assert all(b.release < seq.horizon for b in seq.jobs)


def test_generate_rejects_unknown_models():
    ts = TaskSet((Task(2, 0, 5, 5),))
    with pytest.raises(ValueError):
        generate_job_sequence(ts, 10, seed=0, release_model="poisson")
    with pytest.raises(ValueError):
        generate_job_sequence(ts, 10, seed=0, suspension_model="lots")
    with pytest.raises(ValueError):
        generate_job_sequence(ts, 10, seed=0, demand_model="zero")


def test_generate_rejects_nonpositive_horizon():
    ts = TaskSet((Task(2, 0, 5, 5),))
    for horizon in (0, -1):
        with pytest.raises(ValueError, match="horizon must be positive"):
            generate_job_sequence(ts, horizon, seed=0)


# Digests of the generated jobs (task, index, release, phases) per model
# combination.  They pin the RNG draw order: a change here means every
# seeded corpus (c02's included) now simulates different jobs.
GENERATION_DIGESTS = {
    ("periodic", "none", "wcet"): "8988f355112feb16",
    ("periodic", "none", "random"): "3c607320c76a40fc",
    ("periodic", "max-single-block", "wcet"): "68bcf8c4e362eef6",
    ("periodic", "max-single-block", "random"): "ba4077121e44cac9",
    ("periodic", "random-phases", "wcet"): "7430fbeacd21d02a",
    ("periodic", "random-phases", "random"): "a2f88aeaea26aa32",
    ("sporadic-jittered", "none", "wcet"): "dbf8c28e23404e04",
    ("sporadic-jittered", "none", "random"): "b64eea4871fca228",
    ("sporadic-jittered", "max-single-block", "wcet"): "1b8bd1effca200df",
    ("sporadic-jittered", "max-single-block", "random"): "f12a8bbd099f5b42",
    ("sporadic-jittered", "random-phases", "wcet"): "a2ca520561686750",
    ("sporadic-jittered", "random-phases", "random"): "dd75b6e4d09505e4",
}


def test_generate_draw_sequence_is_pinned():
    ts = TaskSet((Task(3, 2, 9, 9), Task(5, 4, 20, 20), Task(1, 0, 7, 7), Task(7, 9, 40, 33)))
    combos = itertools.product(RELEASE_MODELS, SUSPENSION_MODELS, DEMAND_MODELS)
    assert set(combos) == set(GENERATION_DIGESTS)
    for (release, susp, demand), expected in GENERATION_DIGESTS.items():
        h = hashlib.sha256()
        for seed in (0, 1, 2**40 + 7):
            seq = generate_job_sequence(
                ts, 400, seed,
                release_model=release, suspension_model=susp, demand_model=demand,
            )
            for j in seq.jobs:
                h.update(repr((j.task, j.index, j.release, j.phases)).encode())
        assert h.hexdigest()[:16] == expected, (release, susp, demand)


# Edge cases of the draw stream, one (task set, horizon) pair each:
# wcet 1 (every offset draw is randbelow(1)), wcet 0, budgets 0 and 1,
# random demand that often draws 0, periods at and past the horizon,
# and bounds of 2**32 and more, where getrandbits takes over 32 bits.
EDGE_CASES = (
    (TaskSet((
        Task(1, 5, 10, 10), Task(4, 0, 12, 12), Task(3, 1, 9, 9),
        Task(2, 3, 7, 7), Task(0, 2, 5, 5), Task(2, 2, 120, 120),
        Task(5, 4, 300, 300),
    )), 120),
    (TaskSet((
        Task(2**33 + 5, 2**34 + 3, 2**36, 2**36),
        Task(2**32, 2**32 + 1, 2**35, 2**35),
        Task(3, 2**40, 2**36, 2**36),
    )), 2**38),
)
EDGE_GENERATION_DIGEST = "bd97110fadb47a27"


def test_generate_edge_draw_sequence_is_pinned():
    h = hashlib.sha256()
    for ts, horizon in EDGE_CASES:
        for combo in itertools.product(RELEASE_MODELS, SUSPENSION_MODELS, DEMAND_MODELS):
            release, susp, demand = combo
            for seed in (0, 1, 2**40 + 7):
                seq = generate_job_sequence(
                    ts, horizon, seed,
                    release_model=release, suspension_model=susp, demand_model=demand,
                )
                h.update(repr(combo).encode())
                for j in seq.jobs:
                    h.update(repr((j.task, j.index, j.release, j.phases)).encode())
    assert h.hexdigest()[:16] == EDGE_GENERATION_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 2**31, 2**32, 2**32 + 1])
def test_bounded_draw_matches_randbelow(n):
    # The generator draws each integer below n with CPython's rejection
    # rule on getrandbits; if a new interpreter changes the rule, this
    # fails before the pinned digests do.
    ours, ref = random.Random(n), random.Random(n)
    getrandbits = ours.getrandbits
    k = n.bit_length()
    for _ in range(200):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        assert r == ref._randbelow(n)
    assert ours.getstate() == ref.getstate()
    # the same stream through the generator: task 0's demands draw below
    # n, and task 1's draws after them read the state those draws left
    ts = TaskSet((Task(n - 1, 0, n, 10), Task(2**32, 0, 2**32, 10)))
    jobs = generate_job_sequence(
        ts, 100, seed=n, release_model="periodic",
        suspension_model="none", demand_model="random",
    ).jobs
    ref = random.Random(n)
    expected = [ref._randbelow(n) for _ in range(10)]
    expected += [ref._randbelow(2**32 + 1) for _ in range(10)]
    assert [j.demand for j in jobs] == expected


def _literal_draw(ts, horizon, seed, release_model, suspension_model, demand_model, seen):
    """The jobs of `_draw_jobs` drawn the literal way: `randint` and
    `expovariate` of `random.Random(seed)`, each random-phase plan placed
    by sorting its cuts and offsets and pairing them in order, then made
    canonical by `_canonical`.  Counts in `seen` which cases it met."""
    rng = random.Random(seed)
    jobs = []
    for tid, t in enumerate(ts):
        releases, r = [], 0
        while r < horizon:
            releases.append(r)
            r += t.period
            if release_model == "sporadic-jittered":
                r += int(rng.expovariate(10.0 / t.period))
        for pos, rel in enumerate(releases):
            c = rng.randint(0, t.wcet) if demand_model == "random" else t.wcet
            raw = [(c, 0)]
            if c and t.suspension and suspension_model == "max-single-block":
                raw = [(1, t.suspension), (c - 1, 0)]
            elif c and t.suspension and suspension_model == "random-phases":
                n_seg = rng.randint(0, 3)
                seen[f"count {n_seg}"] += 1
                if n_seg:
                    total = rng.randint(0, t.suspension)
                    cuts = sorted(rng.randint(0, total) for _ in range(n_seg - 1)) + [total]
                    offsets = sorted(rng.randint(0, c - 1) for _ in range(n_seg))
                    parts = [b - a for a, b in zip([0] + cuts, cuts)]
                    seen[f"coincident offsets, count {n_seg}"] += len(set(offsets)) < n_seg
                    seen[f"zero part of a positive total, count {n_seg}"] += (
                        total > 0 and 0 in parts)
                    seen[f"zero total, count {n_seg}"] += total == 0
                    raw = [(off - prev, s) for prev, off, s in zip([0] + offsets, offsets, parts)]
                    raw.append((c - offsets[-1], 0))
            jobs.append((tid, pos, rel, simulator._canonical(raw)))
    return jobs


def test_draw_matches_literal_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    combos = list(itertools.product(RELEASE_MODELS, SUSPENSION_MODELS, DEMAND_MODELS))
    assert len(combos) == 12
    # small amounts make offsets coincide and cuts hit 0 or the total;
    # bounds of 2**32 and more take getrandbits over 32 bits
    amounts = st.one_of(st.integers(0, 4), st.integers(0, 40), st.integers(2**32 - 1, 2**34))

    @st.composite
    def cases(draw):
        tasks = []
        for _ in range(draw(st.integers(1, 4))):
            period = draw(st.integers(1, 30))
            wcet = draw(amounts)
            tasks.append(Task(wcet, draw(amounts), max(wcet, period), period))
        return TaskSet(tuple(tasks)), draw(st.integers(1, 120)), draw(st.integers(0, 2**64))

    seen = collections.Counter()

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        ts, horizon, seed = case
        for combo in combos:
            assert simulator._draw_jobs(ts, horizon, seed, *combo) == _literal_draw(
                ts, horizon, seed, *combo, seen), combo

    check()
    # every branch of the draw was met
    required = [f"count {n}" for n in range(4)] + [
        f"{case}, count {n}"
        for case in ("coincident offsets", "zero part of a positive total", "zero total")
        for n in (2, 3)
    ]
    assert [key for key in required if not seen[key]] == []


# --- engine invariants (fuzz) ----------------------------------------------------------------


def _random_taskset(rng: random.Random, n_max: int = 4) -> TaskSet:
    tasks = []
    for _ in range(rng.randint(1, n_max)):
        t = rng.randint(4, 30)
        d = rng.randint(2, t)
        c = rng.randint(1, d)
        tasks.append(Task(c, rng.randint(0, 4), d, t))
    return TaskSet(tuple(tasks))


def _random_trace(rng: random.Random):
    ts = _random_taskset(rng)
    pts = derive_priority_points(
        ts, rng.choice([PriorityPolicy.edf(), PriorityPolicy.fifo(), PriorityPolicy.tfp()])
    )
    horizon = rng.randint(20, max(21, 4 * max(t.period for t in ts)))
    seq = generate_job_sequence(
        ts, horizon, seed=rng.randint(0, 2**32),
        release_model=rng.choice(RELEASE_MODELS),
        suspension_model=rng.choice(SUSPENSION_MODELS),
        demand_model=rng.choice(DEMAND_MODELS),
    )
    return ts, pts, seq, simulate_el(ts, pts, seq)


def test_intervals_tile_the_horizon():
    rng = random.Random(888)
    for _ in range(60):
        _, _, _, trace = _random_trace(rng)
        assert trace.intervals[0].start == 0
        assert trace.intervals[-1].end == trace.horizon
        for a, b in zip(trace.intervals, trace.intervals[1:]):
            assert a.end == b.start
            assert a.start < a.end


def test_within_task_fifo_start_after_predecessor_finish():
    rng = random.Random(999)
    for _ in range(60):
        _, _, _, trace = _random_trace(rng)
        by_task: dict[int, list] = {}
        for j in trace.jobs:
            by_task.setdefault(j.task, []).append(j)
        for jobs in by_task.values():
            jobs.sort(key=lambda j: j.index)
            for a, b in zip(jobs, jobs[1:]):
                if b.start is None:
                    continue
                assert a.finish is not None and b.start >= a.finish


def test_unrecorded_engine_matches_full_trace():
    # Recording off must change nothing but what is kept: the same
    # finish times, hence the same feasibility verdict, as the trace.
    rng = random.Random(2_024)
    verdicts = set()
    for _ in range(300):
        ts, pts, seq, trace = _random_trace(rng)
        finish, no_trace = _run_engine(seq.horizon, _engine_jobs(seq), pts, record=False)
        assert no_trace is None
        assert finish == [j.finish for j in trace.jobs]
        verdict = check_feasibility(trace, ts)
        verdicts.add(verdict)
        # the campaign entry point redraws the same jobs from the seed
        seed = rng.randint(0, 2**32)
        models = dict(
            release_model=rng.choice(RELEASE_MODELS),
            suspension_model=rng.choice(SUSPENSION_MODELS),
            demand_model=rng.choice(DEMAND_MODELS),
        )
        full = simulate_el(ts, pts, generate_job_sequence(ts, seq.horizon, seed, **models))
        assert random_run_feasible(ts, pts, seq.horizon, seed, **models) == (
            check_feasibility(full, ts)
        )
    assert verdicts == {True, False}  # both outcomes were exercised


def test_random_run_feasible_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_run_feasible(REF, REF_POINTS, 0, seed=1)
    with pytest.raises(ValueError):
        random_run_feasible(REF, (4,), 80, seed=1)
    with pytest.raises(ValueError):
        random_run_feasible(REF, REF_POINTS, 80, seed=1, release_model="poisson")


def _run_entry(entry: str, ts: TaskSet, pts):
    """One simulator entry on `ts`: the reference sequence for REF, no
    jobs for an empty set."""
    if entry == "simulate_el":
        seq = reference_sequence() if len(ts) else JobSequence((), horizon=16)
        return simulate_el(ts, pts, seq)
    if entry == "random_run_feasible":
        return random_run_feasible(ts, pts, 80, seed=1)
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    return measure_state_times(trace, ts, pts, 1, 0, 16)


@pytest.mark.parametrize("entry", ["simulate_el", "random_run_feasible", "measure_state_times"])
def test_simulator_entries_apply_the_analysis_point_rule(entry):
    # one integer per task, as the analysis requires: no point is
    # truncated or dispatched on as a fraction, and the text is the
    # analysis's own
    for pts in ((1.5, 2.9), (4, Fraction(21, 2)), (4,), (4, 10, 3)):
        with pytest.raises(ValueError) as analysis_error:
            fixed_test(REF, pts)
        with pytest.raises(ValueError) as entry_error:
            _run_entry(entry, REF, pts)
        assert str(entry_error.value) == str(analysis_error.value)
    with pytest.raises(ValueError, match="one relative priority point per task"):
        _run_entry(entry, REF, (4,))
    assert _run_entry(entry, REF, (4.0, Fraction(10))) == _run_entry(entry, REF, (4, 10))
    # the empty-set refusal is the analysis's alone: no jobs still simulate
    if entry == "simulate_el":
        trace = _run_entry(entry, TaskSet(()), ())
        assert [(iv.start, iv.end, iv.kind) for iv in trace.intervals] == [(0, 16, "wait")]
    elif entry == "random_run_feasible":
        assert _run_entry(entry, TaskSet(()), ()) is True


def _running_at(trace, t):
    for iv in trace.intervals:
        if iv.start <= t < iv.end:
            return iv
    raise AssertionError("uncovered tick")


def test_work_conservation():
    # Whenever the processor waits, every released unfinished job is
    # either suspended or blocked behind an unfinished predecessor.
    rng = random.Random(1_001)
    for _ in range(40):
        _, _, _, trace = _random_trace(rng)
        jobs = {(j.task, j.index): j for j in trace.jobs}
        for iv in trace.intervals:
            if iv.kind != "wait":
                continue
            for t in range(iv.start, iv.end):
                for j in trace.jobs:
                    if j.release > t or (j.finish is not None and j.finish <= t):
                        continue
                    suspended = any(a <= t < b for a, b in j.susp_spans)
                    pred = jobs.get((j.task, j.index - 1))
                    blocked = pred is not None and (
                        pred.finish is None or pred.finish > t
                    )
                    assert suspended or blocked, (iv, j)


def test_suspended_idle_intervals_have_a_suspended_job():
    rng = random.Random(1_002)
    for _ in range(40):
        _, _, _, trace = _random_trace(rng)
        for iv in trace.intervals:
            if iv.kind != "susp":
                continue
            for t in range(iv.start, iv.end):
                assert any(
                    any(a <= t < b for a, b in j.susp_spans) for j in trace.jobs
                )


def _ready_tasks(trace, t):
    """Tasks with a job ready at tick t: released, its predecessor
    finished, itself unfinished and not suspended."""
    ready = set()
    prev = None
    for j in trace.jobs:  # (task, index) order
        pred = prev if prev is not None and prev.task == j.task else None
        prev = j
        if j.release > t or (j.finish is not None and j.finish <= t):
            continue
        if pred is not None and (pred.finish is None or pred.finish > t):
            continue
        if not any(a <= t < b for a, b in j.susp_spans):
            ready.add(j.task)
    return ready


def test_tfp_runs_the_highest_priority_ready_task():
    # Strict fixed priorities, checked tick by tick without the engine's
    # own dispatch rule: while a task-j job runs no job of a task i < j is
    # ready, and while the processor idles no job is ready.
    rng = random.Random(5_151)
    cases = []
    for _ in range(10):
        tasks = []
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(4, 30)
            d = rng.randint(2, 3 * t)
            tasks.append(Task(rng.randint(1, min(d, t)), rng.randint(0, 4), d, t))
        ts = TaskSet(tuple(tasks))
        horizon = rng.randint(20, 4 * max(t.period for t in ts))
        for models in itertools.product(RELEASE_MODELS, SUSPENSION_MODELS, DEMAND_MODELS):
            cases.append((ts, generate_job_sequence(ts, horizon, rng.randint(0, 2**32), *models)))
    for _ in range(100):  # leading suspensions, zero-demand jobs
        ts, _, seq = _hand_built_case(rng)
        cases.append((ts, seq))
    contended = sum(_strict_priority_contention(simulate_tfp(ts, seq)) for ts, seq in cases)
    assert contended > 0  # a lower-priority task was ready behind the runner


def _strict_priority_contention(trace) -> int:
    """Check a trace tick by tick against strict fixed priorities in task
    order, without the engine's own dispatch rule: while a task-j job
    runs no job of a task i < j is ready, and while the processor idles
    no job is ready.  Returns the ticks with more than one task ready."""
    contended = 0
    for iv in trace.intervals:
        for t in range(iv.start, iv.end):
            ready = _ready_tasks(trace, t)
            if iv.kind != "run":
                assert not ready, (iv, t)
                continue
            assert iv.task in ready and min(ready) == iv.task, (iv, t, ready)
            contended += len(ready) > 1
    return contended


def test_next_job_begins_at_the_tick_its_predecessor_finishes():
    # Each task's second job is released at the tick its predecessor
    # finishes: task 0's at the end of a run (the finish comes before
    # the release is handled) and task 1's at the end of a suspension
    # (the release is handled first).  A plan that ends in a suspension
    # is not canonical, so this case goes to the engine directly.
    horizon = 14
    jobs = [
        (0, 0, 0, ((3, 0),)),
        (0, 1, 3, ((2, 0),)),
        (1, 0, 0, ((1, 4),)),
        (1, 1, 10, ((2, 0),)),
    ]
    points = [0, horizon]  # strict priorities: task 0 always wins
    finish, trace = _run_engine(horizon, jobs, points)
    assert finish == [3, 5, 10, 12]
    assert [j.start for j in trace.jobs] == [0, 3, 5, 10]
    assert [(iv.start, iv.end, iv.kind) for iv in trace.intervals] == [
        (0, 3, "run"), (3, 5, "run"), (5, 6, "run"), (6, 10, "susp"),
        (10, 12, "run"), (12, 14, "wait"),
    ]
    assert _strict_priority_contention(trace) > 0
    assert _run_engine(horizon, jobs, points, record=False) == (finish, None)


def test_simulation_is_deterministic():
    rng = random.Random(1_003)
    for _ in range(20):
        ts, pts, seq, trace = _random_trace(rng)
        again = simulate_el(ts, pts, seq)
        assert export_trace(again) == export_trace(trace)


def test_exec_spans_match_run_intervals():
    rng = random.Random(1_004)
    for _ in range(40):
        _, _, _, trace = _random_trace(rng)
        from_intervals: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for iv in trace.intervals:
            if iv.kind == "run":
                from_intervals.setdefault((iv.task, iv.job), []).append(
                    (iv.start, iv.end)
                )
        for j in trace.jobs:
            spans = from_intervals.get((j.task, j.index), [])
            # merge adjacent run intervals of the same job
            merged: list[tuple[int, int]] = []
            for s, e in spans:
                if merged and merged[-1][1] == s:
                    merged[-1] = (merged[-1][0], e)
                else:
                    merged.append((s, e))
            assert tuple(merged) == j.exec_spans


# --- processor-state accounting -----------------------------------------------------------


def test_state_times_golden_values():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    st = measure_state_times(trace, REF, REF_POINTS, 1, 0, 16, ref_index=0)
    assert st.inactive == 3
    assert st.progress == 9
    assert st.interference == {0: 4}
    assert st.per_job_progress == {0: 9}
    assert st.ref_interference == {0: 4}


def test_state_times_zero_width_window():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    st = measure_state_times(trace, REF, REF_POINTS, 1, 7, 7)
    assert st.inactive == 0 and st.progress == 0
    assert all(v == 0 for v in st.interference.values())


def test_state_times_task_absent_from_window():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    # The long task finished at 13; afterwards every tick is inactive.
    st = measure_state_times(trace, REF, REF_POINTS, 1, 13, 16)
    assert st.inactive == 3
    assert st.progress == 0
    assert all(v == 0 for v in st.interference.values())


def test_state_times_rejects_bad_windows():
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    with pytest.raises(ValueError):
        measure_state_times(trace, REF, REF_POINTS, 1, -1, 5)
    with pytest.raises(ValueError):
        measure_state_times(trace, REF, REF_POINTS, 1, 0, 17)
    with pytest.raises(ValueError):
        measure_state_times(trace, REF, REF_POINTS, 1, 0, 16, ref_index=9)
    # points for another number of tasks, and tasks the set does not have
    for pts in ((4,), (4, 10, 3)):
        with pytest.raises(ValueError, match="one relative priority point per task"):
            measure_state_times(trace, REF, pts, 1, 0, 16)
    for task in (-1, 2, 5):
        with pytest.raises(ValueError):
            measure_state_times(trace, REF, REF_POINTS, task, 0, 16)


def test_state_times_checks_ref_index_in_empty_windows():
    # A reference job the trace lacks is an error whatever the window,
    # an empty one included.
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    for a, b in ((5, 5), (5, 6), (6, 5)):
        with pytest.raises(ValueError, match="task 1 has no job 9 in the trace"):
            measure_state_times(trace, REF, REF_POINTS, 1, a, b, ref_index=9)
    empty = measure_state_times(trace, REF, REF_POINTS, 1, 5, 5, ref_index=0)
    assert (empty.inactive, empty.progress, empty.ref_interference) == (0, 0, {0: 0})


def _per_tick_state_times(trace, ts, pts, task, start, end, ref_index=None):
    """Brute-force per-tick re-derivation of the state buckets."""
    n = len(ts)
    interference = {i: 0 for i in range(n) if i != task}
    ref_interference = {i: 0 for i in range(n) if i != task} if ref_index is not None else {}
    k_jobs = [j for j in trace.jobs if j.task == task]
    per_job = {j.index: 0 for j in k_jobs}
    inactive = progress = 0

    def key(j):
        return (j.release + pts[j.task], j.task, j.index)

    ref_key = None
    if ref_index is not None:
        ref_key = key([j for j in k_jobs if j.index == ref_index][0])
    records = {(j.task, j.index): j for j in trace.jobs}

    for t in range(start, end):
        iv = _running_at(trace, t)
        running = records[(iv.task, iv.job)] if iv.kind == "run" else None
        if ref_key is not None and running is not None and running.task != task:
            if key(running) < ref_key:
                ref_interference[running.task] += 1
        active = [
            j for j in k_jobs if j.release <= t and (j.finish is None or j.finish > t)
        ]
        if not active:
            inactive += 1
        else:
            current = min(active, key=lambda j: j.index)
            if running is not None and running.task != task and key(running) < key(current):
                interference[running.task] += 1
            else:
                progress += 1
        for j in k_jobs:
            if running is not None and (running.task, running.index) == (task, j.index):
                per_job[j.index] += 1
            elif any(a <= t < b for a, b in j.susp_spans):
                if not (running is not None and key(running) < key(j)):
                    per_job[j.index] += 1
    return inactive, progress, interference, per_job, ref_interference


def test_state_times_match_per_tick_oracle():
    rng = random.Random(31_415)
    for _ in range(40):
        ts, pts, seq, trace = _random_trace(rng)
        for _ in range(6):
            k = rng.randrange(len(ts))
            c = rng.randint(0, trace.horizon)
            d = rng.randint(c, trace.horizon)
            k_jobs = [j.index for j in trace.jobs if j.task == k]
            ref = rng.choice(k_jobs) if k_jobs and rng.random() < 0.5 else None
            st = measure_state_times(trace, ts, pts, k, c, d, ref_index=ref)
            ticks = _per_tick_state_times(trace, ts, pts, k, c, d, ref_index=ref)
            assert (
                st.inactive,
                st.progress,
                st.interference,
                st.per_job_progress,
                st.ref_interference,
            ) == ticks


def test_state_partition_identities():
    # Every tick of any probe window is exactly one of: no active job,
    # task progressing, or a specific higher-priority task interfering;
    # and task progress splits exactly over its jobs.
    rng = random.Random(27_182)
    for _ in range(60):
        ts, pts, seq, trace = _random_trace(rng)
        for _ in range(8):
            k = rng.randrange(len(ts))
            c = rng.randint(0, trace.horizon)
            d = rng.randint(c, trace.horizon)
            st = measure_state_times(trace, ts, pts, k, c, d)
            assert st.inactive + st.progress + sum(st.interference.values()) == d - c
            assert st.progress == sum(st.per_job_progress.values())


def test_backbone_bound_dominates_response_time():
    # For any finished job, its demand-plus-suspension budget plus the
    # measured interference on it plus the measured progress of its
    # sibling jobs bounds the observed response time.
    rng = random.Random(16_180)
    checked = 0
    for _ in range(40):
        ts, pts, seq, trace = _random_trace(rng)
        for job in trace.jobs:
            if job.finish is None:
                continue
            k = job.task
            st = measure_state_times(
                trace, ts, pts, k, job.release, job.finish, ref_index=job.index
            )
            siblings = sum(
                v for j, v in st.per_job_progress.items() if j != job.index
            )
            bound = (
                ts[k].wcet
                + ts[k].suspension
                + sum(st.ref_interference.values())
                + siblings
            )
            assert job.finish - job.release <= bound
            checked += 1
    assert checked > 100


def _overlapping_jobs(trace) -> bool:
    """Whether some job is released before its predecessor finishes."""
    prev = None
    for j in trace.jobs:
        if prev is not None and prev.task == j.task:
            if prev.finish is None or prev.finish > j.release:
                return True
        prev = j
    return False


def test_state_times_match_per_tick_oracle_beyond_implicit_deadlines():
    # D up to 3T lets a task hold several pending jobs at once; the four
    # parameter-free policies, horizons down to one tick, and windows
    # that touch 0 or the horizon.
    rng = random.Random(62_832)
    policies = (
        PriorityPolicy.edf(), PriorityPolicy.fifo(), PriorityPolicy.tfp(), PriorityPolicy.dm()
    )
    overlapping = 0
    for _ in range(120):
        tasks = []
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(3, 20)
            d = rng.randint(2, 3 * t)
            tasks.append(Task(rng.randint(1, min(d, t)), rng.randint(0, 4), d, t))
        ts = TaskSet(tuple(tasks))
        pts = derive_priority_points(ts, rng.choice(policies))
        horizon = rng.choice([1, 2, rng.randint(3, 15), rng.randint(16, 90)])
        seq = generate_job_sequence(
            ts, horizon, seed=rng.randint(0, 2**32),
            release_model=rng.choice(RELEASE_MODELS),
            suspension_model=rng.choice(SUSPENSION_MODELS),
            demand_model=rng.choice(DEMAND_MODELS),
        )
        trace = simulate_el(ts, pts, seq)
        overlapping += _overlapping_jobs(trace)
        for _ in range(5):
            k = rng.randrange(len(ts))
            c = rng.choice([0, rng.randint(0, horizon)])
            d = rng.choice([horizon, rng.randint(c, horizon)])
            k_jobs = [j.index for j in trace.jobs if j.task == k]
            ref = rng.choice(k_jobs) if k_jobs and rng.random() < 0.5 else None
            st = measure_state_times(trace, ts, pts, k, c, d, ref_index=ref)
            ticks = _per_tick_state_times(trace, ts, pts, k, c, d, ref_index=ref)
            assert (
                st.inactive,
                st.progress,
                st.interference,
                st.per_job_progress,
                st.ref_interference,
            ) == ticks
    assert overlapping >= 10


# --- pinned state-time and export digests --------------------------------------------------

# First 16 hex digits of sha256 digests over _benchmark_scale_traces,
# recorded before measure_state_times became a sweep line and before the
# recorded engine built its records through private constructors: any
# change to a state bucket or an exported byte moves them.
STATE_TIMES_DIGEST = "4deb88199afc5ada"
EXPORT_DIGEST = "bac38862ad3c3bfc"


@pytest.fixture(scope="module")
def benchmark_scale_sets():
    """n = 10 synthesized sets over a 2 s horizon with 20-100 ms periods,
    with their priority points and one drawn job sequence each."""
    rng = random.Random(2_718_281)
    horizon = 2_000 * TICKS_PER_MS
    cases = []
    for u, x, policy in (
        (Fraction(3, 10), 1, PriorityPolicy.tfp()),
        (Fraction(3, 5), 1, PriorityPolicy.edf()),
        (Fraction(1, 2), 2, PriorityPolicy.fifo()),
    ):
        ts = synthesize(GenSpec(n=10, u_total=u, seed=rng.randrange(2**32),
                                period_range=(20, 100), deadline_factor=x))
        pts = derive_priority_points(ts, policy)
        seq = generate_job_sequence(ts, horizon, rng.randrange(2**32), demand_model="random")
        cases.append((ts, pts, seq))
    return cases


def test_state_times_are_pinned(benchmark_scale_sets):
    rng = random.Random(141_421)
    h = hashlib.sha256()
    for ts, pts, seq in benchmark_scale_sets:
        trace = simulate_el(ts, pts, seq)
        horizon = trace.horizon
        width = horizon // 10
        a = rng.randrange(horizon - width)
        for start, end in ((a, a + width), (0, horizon)):
            for k in range(len(ts)):
                k_jobs = [j for j in trace.jobs if j.task == k]
                ref = next((j.index for j in k_jobs if j.release >= start), k_jobs[-1].index)
                for ref_index in (None, ref):
                    st = measure_state_times(trace, ts, pts, k, start, end, ref_index=ref_index)
                    h.update(repr(st).encode())
    assert h.hexdigest()[:16] == STATE_TIMES_DIGEST


def test_exports_are_pinned(benchmark_scale_sets):
    h = hashlib.sha256()
    for ts, pts, seq in benchmark_scale_sets:
        h.update(export_trace(simulate_el(ts, pts, seq)).encode())
        h.update(export_trace(simulate_tfp(ts, seq)).encode())
    assert h.hexdigest()[:16] == EXPORT_DIGEST


def _raw_plan(rng: random.Random, wcet: int, budget: int) -> tuple[tuple[int, int], ...]:
    """Up to five raw (execute, suspend) pairs within a wcet and a
    suspension budget, with many zero parts: leading suspensions, plans
    that never execute, and adjacent parts that merge."""
    plan = []
    e_left, s_left = wcet, budget
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4, 5))):
        e = rng.choice((0, rng.randint(0, e_left), (e_left + 1) // 2, e_left))
        s = rng.choice((0, 0, rng.randint(0, s_left)))
        e_left, s_left = e_left - e, s_left - s
        plan.append((e, s))
    return tuple(plan)


def test_phase_normalization_is_pinned():
    rng = random.Random(4_242)
    h = hashlib.sha256()
    for _ in range(3_000):
        plan = _raw_plan(rng, rng.randint(0, 12), rng.randint(0, 12))
        h.update(repr(JobBehavior(0, 0, 0, plan).phases).encode())
    assert h.hexdigest()[:16] == PHASES_DIGEST


def _hand_built_case(rng: random.Random) -> tuple[TaskSet, list[int], JobSequence]:
    """A small set with deadlines up to three periods, random priority
    points, and a hand-built sequence of raw plans (see _raw_plan)."""
    tasks = []
    for _ in range(rng.randint(1, 3)):
        period = rng.randint(3, 12)
        wcet = rng.randint(0, min(period, 6))
        tasks.append(Task(wcet, rng.randint(0, 6), rng.randint(max(wcet, 1), 3 * period), period))
    ts = TaskSet(tuple(tasks))
    horizon = rng.randint(10, 60)
    jobs = []
    for tid, task in enumerate(ts):
        r = rng.randint(0, 5)
        index = 0
        while r < horizon:
            jobs.append(JobBehavior(tid, index, r, _raw_plan(rng, task.wcet, task.suspension)))
            index += 1
            r += task.period + rng.choice((0, 0, rng.randint(0, 3)))
    return ts, [rng.randint(-5, 40) for _ in ts], JobSequence(tuple(jobs), horizon)


# First 16 hex digits of sha256 digests recorded before the engine walked
# (execute, suspend) pairs: the normalized plans of raw plans, and the
# full trace reprs (suspension spans included, which the export omits)
# of both dispatchers on hand-built sequences.
PHASES_DIGEST = "32d212ffba7f4453"
HAND_BUILT_TRACE_DIGEST = "df6463010fc9e002"


def test_hand_built_schedules_are_pinned():
    rng = random.Random(1_618)
    h = hashlib.sha256()
    for _ in range(300):
        ts, pts, seq = _hand_built_case(rng)
        h.update(repr(simulate_el(ts, pts, seq)).encode())
        h.update(repr(simulate_tfp(ts, seq)).encode())
    assert h.hexdigest()[:16] == HAND_BUILT_TRACE_DIGEST


def test_recorded_objects_match_ordinary_instances():
    # The generator builds jobs, and the engine intervals and job
    # records, without their constructors; they compare, hash and print
    # like ordinary instances and stay frozen.
    rng = random.Random(7_777)
    for _ in range(10):
        _, _, seq, trace = _random_trace(rng)
        for obj in seq.jobs + trace.intervals + trace.jobs:
            fields = dataclasses.fields(obj)
            twin = type(obj)(**{f.name: getattr(obj, f.name) for f in fields})
            assert obj == twin and hash(obj) == hash(twin) and repr(obj) == repr(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, fields[0].name, 0)


def _read_all(trace: ScheduleTrace, ts: TaskSet, pts) -> tuple:
    """What every trace reader gives: the export, response times, the
    feasibility verdict and, per task, state times over the whole horizon
    and over its middle third against job 0."""
    h = trace.horizon
    return (
        export_trace(trace),
        response_times(trace),
        check_feasibility(trace, ts),
        [
            measure_state_times(trace, ts, pts, k, a, b, ref_index=ref)
            for k in range(len(ts))
            for a, b, ref in ((0, h, None), (h // 3, 2 * h // 3, 0))
        ],
    )


def test_engine_and_object_built_traces_agree():
    # An engine trace holds only rows; the same trace built from its
    # Interval/JobRecord objects holds only objects.  Both compare, hash,
    # print and read the same, in either order.
    rng = random.Random(5_151)
    for _ in range(60):
        ts, pts, seq, trace = _random_trace(rng)
        twin = ScheduleTrace(trace.horizon, trace.intervals, trace.jobs)
        fresh = simulate_el(ts, pts, seq)
        assert "intervals" not in vars(fresh) and "_rows" not in vars(twin)
        assert fresh == twin and twin == fresh and not fresh != twin
        assert hash(fresh) == hash(twin)
        assert _read_all(fresh, ts, pts) == _read_all(twin, ts, pts)
        assert repr(fresh) == repr(twin)
        # the frozen dataclass's own rule: hash of the field tuple
        assert hash(fresh) == hash((fresh.horizon, fresh.intervals, fresh.jobs))
        assert fresh.intervals is fresh.intervals and fresh.jobs == twin.jobs

        # one perturbed suspension span, invisible in the export
        job = trace.jobs[-1]
        job = dataclasses.replace(job, susp_spans=job.susp_spans + ((0, 0),))
        bad = dataclasses.replace(trace, jobs=trace.jobs[:-1] + (job,))
        engine = simulate_el(ts, pts, seq)
        assert engine != bad and bad != engine and not engine == bad
        assert export_trace(engine) == export_trace(bad)


def test_trace_readers_build_no_objects(monkeypatch):
    # The readers work on the engine's columns alone: with the record
    # types out of reach they still run, and the trace holds afterwards
    # just what the engine stored, with no rows or objects built.
    rng = random.Random(6_161)
    for _ in range(30):
        ts, pts, seq, _ = _random_trace(rng)
        trace = simulate_el(ts, pts, seq)
        stored = set(vars(trace))
        assert stored.isdisjoint({"_rows", "_job_rows", "intervals", "jobs"})
        with monkeypatch.context() as m:
            m.setattr(simulator, "Interval", None)
            m.setattr(simulator, "JobRecord", None)
            _read_all(trace, ts, pts)
            assert trace == simulate_el(ts, pts, seq)
        assert set(vars(trace)) == stored


def test_object_built_traces_compare_by_their_fields():
    # A trace built from objects may hold what no schedule gives, which
    # its columns do not show: a record that disagrees with the
    # intervals, or an interval that ends before the next begins.  It
    # still compares by its fields.
    trace = simulate_el(REF, REF_POINTS, reference_sequence())
    ivs, jobs = trace.intervals, trace.jobs
    odd = (
        ScheduleTrace(16, ivs, jobs[:-1] + (dataclasses.replace(jobs[-1], start=3),)),
        ScheduleTrace(16, (dataclasses.replace(ivs[0], end=1),) + ivs[1:], jobs),
    )
    for bad in odd:
        fresh = simulate_el(REF, REF_POINTS, reference_sequence())
        assert fresh != bad and bad != fresh and not fresh == bad
        assert bad == ScheduleTrace(16, bad.intervals, bad.jobs)


def test_response_times_exclude_unfinished_jobs():
    ts = TaskSet((Task(4, 0, 8, 8),))
    seq = JobSequence(
        (JobBehavior(0, 0, 0, ((4, 0),)), JobBehavior(0, 1, 8, ((4, 0),))), 10
    )
    trace = simulate_el(ts, (8,), seq)
    per_job, per_task, unfinished = response_times(trace)
    assert per_job == {(0, 0): 4}
    assert per_task == {0: 4}
    assert unfinished == [(0, 1)]


# --- the engine against a tick-by-tick reference ----------------------------


def _tick_reference(seq: JobSequence, points) -> tuple[list, list]:
    """Finish times and the per-tick processor state of `seq`, found one
    tick at a time without the engine's events: each tick, among the
    released jobs whose predecessor of their task has finished and that
    are in an execute part, the one with the smallest absolute point
    (release + point of its task) runs, ties by task, then job index.
    A suspension part ends the given ticks after it begins.  A state is
    ("run", task, index), ("susp",) or ("wait",)."""
    jobs, horizon = seq.jobs, seq.horizon
    parts = [[x for e, s in j.phases for x in (e, -s) if x] for j in jobs]
    part = [-1] * len(jobs)              # -1 until the job begins
    left = [0] * len(jobs)               # ticks left in the current part
    finish = [None] * len(jobs)
    states = []
    for t in range(horizon + 1):
        for g, j in enumerate(jobs):      # a predecessor settles first
            if finish[g] is not None or j.release > t:
                continue
            if part[g] < 0 and g and jobs[g - 1].task == j.task and finish[g - 1] is None:
                continue
            while left[g] == 0:
                part[g] += 1
                if part[g] == len(parts[g]):
                    finish[g] = t
                    break
                left[g] = abs(parts[g][part[g]])
        if t == horizon:
            break
        active = [g for g in range(len(jobs)) if part[g] >= 0 and finish[g] is None]
        ready = [g for g in active if parts[g][part[g]] > 0]
        suspended = [g for g in active if parts[g][part[g]] < 0]
        if ready:
            g = min(ready, key=lambda g: (jobs[g].release + points[jobs[g].task], g))
            left[g] -= 1
            states.append(("run", jobs[g].task, jobs[g].index))
        else:
            states.append(("susp",) if suspended else ("wait",))
        for g in suspended:
            left[g] -= 1
    return finish, states


def _tick_states(trace) -> list:
    return [
        ("run", iv.task, iv.job) if iv.kind == "run" else (iv.kind,)
        for iv in trace.intervals for _ in range(iv.start, iv.end)
    ]


def _assert_engine_matches_reference(seq: JobSequence, points) -> list:
    finish, states = _tick_reference(seq, points)
    jobs = _engine_jobs(seq)
    assert _run_engine(seq.horizon, jobs, points, record=False) == (finish, None)
    recorded, trace = _run_engine(seq.horizon, jobs, points)
    assert recorded == finish == [j.finish for j in trace.jobs]
    assert _tick_states(trace) == states
    return finish


def _seq(horizon: int, *jobs: tuple) -> JobSequence:
    return JobSequence(tuple(JobBehavior(*j) for j in jobs), horizon)


# Each case walks one edge of the engine's solo walk: (sequence, relative
# points, finish times in (task, index) order).
SOLO_WALK_EDGES = {
    # task 0 executes alone up to task 1's release, then suspends
    "execute-ends-on-release": (
        _seq(12, (0, 0, 0, ((4, 3), (1, 0))), (1, 0, 4, ((2, 0),))), (20, 20), [8, 6]),
    # task 0 resumes at task 1's release and loses to its smaller point
    "suspension-ends-on-release": (
        _seq(12, (0, 0, 0, ((1, 3), (2, 0))), (1, 0, 4, ((2, 0),))), (20, 1), [8, 6]),
    # job (0, 0) finishes at task 1's release; (0, 1), waiting since 2,
    # begins then and runs after the more urgent task-1 job
    "finish-on-release-cascades": (
        _seq(12, (0, 0, 0, ((5, 0),)), (0, 1, 2, ((3, 0),)), (1, 0, 5, ((2, 0),))),
        (10, 0), [5, 10, 7]),
    # the successor, released while its predecessor runs, is walked on
    "successor-walked-on": (
        _seq(12, (0, 0, 0, ((3, 0),)), (0, 1, 1, ((0, 2), (2, 0)))), (5,), [3, 7]),
    # a suspension and an execution still running at the horizon
    "cut-by-horizon": (
        _seq(7, (0, 0, 0, ((3, 0),)), (0, 1, 4, ((4, 0),)), (1, 0, 0, ((1, 9), (2, 0)))),
        (1, 30), [3, None, None]),
    # an execution that ends exactly at the horizon finishes there
    "finish-at-horizon": (
        _seq(6, (0, 0, 0, ((2, 1), (3, 0))), (1, 0, 1, ((0, 2),))), (3, 3), [6, 1]),
    # zero demand: (0, 0) at its release, (1, 1) at its predecessor's
    # finish; (0, 1) begins with a suspension
    "zero-demand-and-leading-suspension": (
        _seq(10, (0, 0, 0, ()), (0, 1, 3, ((0, 2), (1, 0))), (1, 0, 0, ((2, 0),)),
             (1, 1, 1, ())),
        (9, 9), [0, 6, 2, 2]),
    # equal absolute points (6): the lower task index preempts
    "equal-points-tie-by-task": (
        _seq(10, (0, 0, 2, ((2, 0),)), (1, 0, 0, ((4, 0),))), (4, 6), [4, 6]),
}


@pytest.mark.parametrize("case", list(SOLO_WALK_EDGES))
def test_engine_matches_tick_reference_on_solo_walk_edges(case):
    seq, points, expected = SOLO_WALK_EDGES[case]
    assert _assert_engine_matches_reference(seq, points) == expected


def test_engine_matches_tick_reference_on_small_sets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 3))
        horizon = draw(st.integers(1, 40))
        jobs = []
        for task in range(n):
            release = draw(st.integers(0, 8))
            index = 0
            while release < horizon and index < 6:
                pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3))
                jobs.append(JobBehavior(task, index, release, tuple(pairs)))
                index += 1
                release += draw(st.integers(0, 12))
        if draw(st.booleans()):
            points = [draw(st.integers(-5, 30)) for _ in range(n)]
        else:
            points = [i * horizon for i in range(n)]   # strict fixed priorities
        return JobSequence(tuple(jobs), horizon), points

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        _assert_engine_matches_reference(*case)

    check()
