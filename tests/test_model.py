"""Tests for the task model, priority-point policies, and taskset files."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from elsched import (
    PriorityPolicy,
    Task,
    TaskSet,
    TasksetFormatError,
    derive_priority_points,
    format_taskset_text,
    load_taskset,
    parse_taskset_text,
    round_half_up,
    save_taskset,
)

WORKED_SET = TaskSet((Task(1, 0, 5, 5), Task(2, 1, 16, 16)))


# --- Task / TaskSet invariants -------------------------------------------------


def test_task_fields_are_ints():
    t = Task(2, 1, 16, 16)
    assert (t.wcet, t.suspension, t.deadline, t.period) == (2, 1, 16, 16)


@pytest.mark.parametrize(
    "fields",
    [
        (-1, 0, 5, 5),   # negative execution demand
        (6, 0, 5, 5),    # demand above deadline
        (1, -1, 5, 5),   # negative suspension
        (1, 0, -1, 5),   # negative deadline
        (1, 0, 5, 0),    # zero period
        (1, 0, 5, -3),   # negative period
    ],
)
def test_task_rejects_invalid_fields(fields):
    with pytest.raises(ValueError):
        Task(*fields)


@pytest.mark.parametrize(
    "fields",
    [
        (1.0, 0, 5, 5),
        (1, Fraction(1, 2), 5, 5),
        (1, 0, "5", 5),
        (True, 0, 5, 5),  # bools are not tick counts
    ],
)
def test_task_rejects_non_integer_fields(fields):
    with pytest.raises(TasksetFormatError):
        Task(*fields)


@pytest.mark.parametrize("fields, message", [
    ((True, 0, 5, 5), "wcet must be an integer tick count, got True"),
    ((1, False, 5, 5), "suspension must be an integer tick count, got False"),
    ((1, 0, 5.0, 5), "deadline must be an integer tick count, got 5.0"),
    ((1, 0, 5, 2.5), "period must be an integer tick count, got 2.5"),
    ((1, 0, 5, 0), "period must be positive, got 0"),
    ((-1, 0, 5, 5), "task parameters must be non-negative"),
    ((1, -1, 5, 5), "task parameters must be non-negative"),
    ((1, 0, -1, 5), "task parameters must be non-negative"),
    ((6, 0, 5, 5), "wcet 6 exceeds deadline 5"),
])
def test_task_refusals_name_what_is_wrong(fields, message):
    # plain ints skip only the field-by-field type check; every refusal
    # keeps its message
    with pytest.raises(TasksetFormatError) as info:
        Task(*fields)
    assert str(info.value) == message


def test_task_accepts_int_subclasses():
    class Ticks(int):
        pass

    t = Task(Ticks(2), 1, Ticks(16), 16)
    assert t == Task(2, 1, 16, 16)
    assert type(t.wcet) is Ticks
    with pytest.raises(TasksetFormatError, match="wcet 17 exceeds deadline 16"):
        Task(Ticks(17), 1, 16, 16)


def test_task_zero_demand_allowed():
    t = Task(0, 0, 0, 1)
    assert t.wcet == 0 and t.deadline == 0


def test_taskset_is_immutable_sequence():
    ts = WORKED_SET
    assert len(ts) == 2
    assert ts[1].wcet == 2
    assert tuple(ts) == ts.tasks
    with pytest.raises(AttributeError):
        ts.tasks = ()  # type: ignore[misc]


def test_taskset_rejects_non_tasks():
    with pytest.raises(TasksetFormatError):
        TaskSet(((1, 0, 5, 5),))  # type: ignore[arg-type]


# --- rounding helpers ----------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1, 2), 1),     # .5 rounds up
        (Fraction(3, 2), 2),
        (Fraction(5, 2), 3),     # never banker's rounding
        (Fraction(-1, 2), 0),    # ties go toward +inf
        (Fraction(-3, 2), -1),
        (Fraction(7, 10), 1),
        (Fraction(2, 10), 0),
        (7, 7),
    ],
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


# --- utilization ---------------------------------------------------------------


def test_utilization_worked_value():
    assert WORKED_SET.utilization == Fraction(13, 40)  # 1/5 + 2/16
    ts = TaskSet((Task(2, 0, 5, 5), Task(7, 3, 16, 16)))
    assert ts.utilization == Fraction(67, 80)  # 2/5 + 7/16


def test_utilization_examples():
    assert TaskSet(()).utilization == 0
    assert TaskSet((Task(5, 0, 5, 5),)).utilization == 1


def test_utilization_is_exact_rational():
    ts = TaskSet((Task(1, 0, 3, 3), Task(1, 0, 7, 7)))
    assert ts.utilization == Fraction(1, 3) + Fraction(1, 7)
    assert isinstance(ts.utilization, Fraction)


# --- priority-point policies ---------------------------------------------------


def test_edf_points_equal_deadlines():
    assert derive_priority_points(WORKED_SET, PriorityPolicy.edf()) == (5, 16)


def test_fifo_points_are_zero():
    assert derive_priority_points(WORKED_SET, PriorityPolicy.fifo()) == (0, 0)


def test_tfp_points_are_deadline_prefix_sums():
    # Emulated fixed priority: cumulative deadlines in list order.
    assert derive_priority_points(WORKED_SET, PriorityPolicy.tfp()) == (5, 21)


def test_tfp_points_strictly_increase_in_list_order():
    rng = random.Random(7)
    for _ in range(50):
        tasks = []
        for _ in range(rng.randint(1, 8)):
            t = rng.randint(2, 50)
            c = rng.randint(1, t)
            tasks.append(Task(c, rng.randint(0, 3), t, t))
        pts = derive_priority_points(TaskSet(tuple(tasks)), PriorityPolicy.tfp())
        assert all(a < b for a, b in zip(pts, pts[1:]))


def test_eqdf_zero_weight_matches_edf():
    assert derive_priority_points(
        WORKED_SET, PriorityPolicy.eqdf(0)
    ) == derive_priority_points(WORKED_SET, PriorityPolicy.edf())


def test_saedf_zero_weight_matches_edf():
    assert derive_priority_points(
        WORKED_SET, PriorityPolicy.saedf(0)
    ) == derive_priority_points(WORKED_SET, PriorityPolicy.edf())


def test_eqdf_weights_execution_time():
    # D + w*C with round-half-up quantization.
    ts = TaskSet((Task(3, 0, 10, 10), Task(2, 5, 20, 20)))
    assert derive_priority_points(ts, PriorityPolicy.eqdf(2)) == (16, 24)
    assert derive_priority_points(ts, PriorityPolicy.eqdf(-1)) == (7, 18)
    assert derive_priority_points(ts, PriorityPolicy.eqdf(Fraction(1, 2))) == (12, 21)


def test_saedf_weights_suspension_time():
    ts = TaskSet((Task(3, 0, 10, 10), Task(2, 5, 20, 20)))
    assert derive_priority_points(ts, PriorityPolicy.saedf(2)) == (10, 30)
    assert derive_priority_points(ts, PriorityPolicy.saedf(Fraction(1, 2))) == (10, 23)
    # Half-tick products round half up.
    ts2 = TaskSet((Task(1, 1, 4, 4),))
    assert derive_priority_points(ts2, PriorityPolicy.saedf(Fraction(1, 2))) == (5,)


def test_explicit_points_pass_through():
    pol = PriorityPolicy.explicit((4, 10))
    assert derive_priority_points(WORKED_SET, pol) == (4, 10)


def test_explicit_points_must_be_integral():
    with pytest.raises(ValueError, match=r"priority point 2\.7 is not an integer"):
        PriorityPolicy.explicit([1, 2.7])
    assert PriorityPolicy.explicit([Fraction(4), 10.0]).points == (4, 10)


def test_explicit_points_length_must_match():
    with pytest.raises(ValueError):
        derive_priority_points(WORKED_SET, PriorityPolicy.explicit((4,)))


def test_empty_taskset_rejected_by_point_derivation():
    with pytest.raises(ValueError):
        derive_priority_points(TaskSet(()), PriorityPolicy.edf())


def test_policy_labels():
    assert PriorityPolicy.edf().label() == "edf"
    assert PriorityPolicy.fifo().label() == "fifo"
    assert PriorityPolicy.eqdf(3).label() == "eqdf[3]"
    assert PriorityPolicy.saedf(-2).label() == "saedf[-2]"
    assert PriorityPolicy.tfp().label() == "tfp"
    assert PriorityPolicy.dm().label() == "dm"


def test_explicit_label_names_its_points():
    assert PriorityPolicy.explicit((4, 10)).label() == "explicit[4,10]"
    assert PriorityPolicy.explicit([-3]).label() == "explicit[-3]"


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "eqdf"}, "policy eqdf requires a weight"),
    ({"kind": "saedf", "points": (1, 2)}, "policy saedf requires a weight"),
    ({"kind": "edf", "weight": 2}, "policy edf takes no weight, got 2"),
    ({"kind": "explicit", "weight": 0, "points": (1,)}, "policy explicit takes no weight"),
    ({"kind": "explicit"}, "policy explicit requires points"),
    ({"kind": "tfp", "points": (1, 2)}, r"policy tfp takes no points, got \(1, 2\)"),
    ({"kind": "eqdf", "weight": 1, "points": (1,)}, "policy eqdf takes no points"),
], ids=["eqdf-bare", "saedf-points", "edf-weight", "explicit-weight", "explicit-bare",
        "tfp-points", "eqdf-points"])
def test_policy_takes_exactly_its_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PriorityPolicy(**kwargs)


def test_policy_stores_weight_as_fraction_and_points_as_ints():
    for weight, stored in ((2, Fraction(2)), (0.5, Fraction(1, 2)), ("-3/4", Fraction(-3, 4))):
        policy = PriorityPolicy("saedf", weight)
        assert type(policy.weight) is Fraction and policy.weight == stored
    assert PriorityPolicy.eqdf(Fraction(6, 4)) == PriorityPolicy("eqdf", Fraction(3, 2))
    policy = PriorityPolicy("explicit", points=[Fraction(4), 10.0])
    assert policy.points == (4, 10) and all(type(p) is int for p in policy.points)


def job_priority_point(release: int, rel_point: int) -> int:
    """Absolute priority point of a job released at `release`."""
    return release + rel_point


def test_job_priority_point_is_release_plus_relative_point():
    assert job_priority_point(10, 5) == 15
    assert job_priority_point(0, 16) == 16


def test_uniform_shift_preserves_priority_order():
    # Adding the same constant to every relative point never changes which
    # of two jobs wins.
    rng = random.Random(13)
    for _ in range(200):
        pts = [rng.randint(0, 100) for _ in range(4)]
        shift = rng.randint(-50, 50)
        rel_a, rel_b = rng.randint(0, 60), rng.randint(0, 60)
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        before = job_priority_point(rel_a, pts[i]) - job_priority_point(rel_b, pts[j])
        after = (
            job_priority_point(rel_a, pts[i] + shift)
            - job_priority_point(rel_b, pts[j] + shift)
        )
        assert (before > 0) == (after > 0) and (before == 0) == (after == 0)


def deadline_monotonic_points(ts: TaskSet) -> tuple[int, ...]:
    """Relative priority points emulating deadline-monotonic fixed
    priorities: cumulative deadlines along the deadline-sorted order,
    mapped back to task positions (ties keep list order)."""
    order = sorted(range(len(ts)), key=lambda i: (ts[i].deadline, i))
    pts = [0] * len(ts)
    acc = 0
    for i in order:
        acc += ts[i].deadline
        pts[i] = acc
    return tuple(pts)


def test_deadline_monotonic_points():
    # Shorter deadline first, stable on ties, cumulative along that order.
    ts = TaskSet((Task(1, 0, 20, 20), Task(1, 0, 5, 5), Task(1, 0, 5, 8)))
    # DM order: task1 (D=5), task2 (D=5, later index), task0 (D=20)
    # cumulative: 5, 10, 30 mapped back to original positions.
    assert deadline_monotonic_points(ts) == (30, 5, 10)
    assert derive_priority_points(ts, PriorityPolicy.dm()) == (30, 5, 10)


def test_dm_points_match_oracle_and_equal_tfp_on_sorted_sets():
    rng = random.Random(77)
    for _ in range(200):
        tasks = []
        for _ in range(rng.randint(1, 6)):
            t = rng.randint(1, 30)
            tasks.append(Task(0, 0, rng.randint(0, 40), t))
        ts = TaskSet(tuple(tasks))
        dm = derive_priority_points(ts, PriorityPolicy.dm())
        assert dm == deadline_monotonic_points(ts)
        by_deadline = TaskSet(tuple(sorted(tasks, key=lambda t: t.deadline)))
        assert derive_priority_points(by_deadline, PriorityPolicy.dm()) == (
            derive_priority_points(by_deadline, PriorityPolicy.tfp())
        )


# --- taskset text format -------------------------------------------------------


def test_format_and_parse_round_trip():
    text = format_taskset_text(WORKED_SET)
    assert text.splitlines()[0] == "# el-sched taskset v1"
    assert parse_taskset_text(text) == WORKED_SET


def test_save_and_load_round_trip(tmp_path):
    path = tmp_path / "set.txt"
    save_taskset(WORKED_SET, path)
    assert load_taskset(path) == WORKED_SET


def test_parse_accepts_comments_and_blank_lines():
    text = (
        "# el-sched taskset v1\n"
        "\n"
        "# a comment\n"
        "1 0 5 5\n"
        "\n"
        "2 1 16 16\n"
    )
    assert parse_taskset_text(text) == WORKED_SET


def test_parse_rejects_missing_header():
    with pytest.raises(TasksetFormatError):
        parse_taskset_text("1 0 5 5\n")


def test_parse_rejects_wrong_field_count_with_line_number():
    text = "# el-sched taskset v1\n1 0 5\n"
    with pytest.raises(TasksetFormatError, match="line 2"):
        parse_taskset_text(text)


def test_parse_rejects_non_integer_with_line_number():
    text = "# el-sched taskset v1\n1 0 5 5\n2 x 16 16\n"
    with pytest.raises(TasksetFormatError, match="line 3"):
        parse_taskset_text(text)


def test_parse_rejects_invariant_violation_with_line_number():
    text = "# el-sched taskset v1\n9 0 5 5\n"
    with pytest.raises(TasksetFormatError, match="line 2"):
        parse_taskset_text(text)


def test_parse_round_trips_random_sets():
    rng = random.Random(99)
    for _ in range(25):
        tasks = []
        for _ in range(rng.randint(1, 12)):
            t = rng.randint(1, 10**6)
            d = rng.randint(0, t * 2)
            c = rng.randint(0, min(d, t))
            tasks.append(Task(c, rng.randint(0, 10**4), d, t))
        ts = TaskSet(tuple(tasks))
        assert parse_taskset_text(format_taskset_text(ts)) == ts
