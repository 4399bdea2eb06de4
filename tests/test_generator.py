"""Tests for task-set synthesis: utilization splitting, quantization,
deadline scaling, and batch files."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import scipy.stats

from elsched import GenSpec, Task, TaskSet, generator, synthesize, uunifast
from elsched.generator import (
    TICKS_PER_MS,
    BatchEntry,
    dump_batch,
    load_batch,
    synthesize_counting,
)


# --- utilization splitting -------------------------------------------------------


def test_uunifast_single_task_gets_everything():
    rng = random.Random(0)
    assert uunifast(1, Fraction(3, 5), rng) == [Fraction(3, 5)]


def test_uunifast_sums_exactly_to_target():
    rng = random.Random(42)
    for n in (2, 3, 10, 50):
        for u in (Fraction(1, 10), Fraction(7, 10), Fraction(99, 100), Fraction(3, 2)):
            parts = uunifast(n, u, rng)
            assert len(parts) == n
            assert sum(parts) == u  # exact rational equality
            assert all(p > 0 for p in parts)


def test_uunifast_is_deterministic():
    a = uunifast(10, Fraction(1, 2), random.Random(7))
    b = uunifast(10, Fraction(1, 2), random.Random(7))
    assert a == b


def test_uunifast_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uunifast(0, Fraction(1, 2), random.Random(0))
    with pytest.raises(ValueError):
        uunifast(3, Fraction(0), random.Random(0))


def test_uunifast_spread_is_not_degenerate():
    # All mass on one task would indicate a broken recursion.
    rng = random.Random(11)
    parts = uunifast(20, Fraction(1), rng)
    assert max(parts) < Fraction(9, 10)


# --- synthesis --------------------------------------------------------------------


def test_synthesize_is_deterministic():
    spec = GenSpec(n=10, u_total=Fraction(1, 2), seed=123)
    assert synthesize(spec) == synthesize(spec)


def test_synthesize_respects_task_invariants():
    rng = random.Random(5)
    for _ in range(20):
        spec = GenSpec(
            n=rng.randint(1, 20),
            u_total=Fraction(rng.randint(1, 95), 100),
            seed=rng.randint(0, 2**32),
        )
        ts = synthesize(spec)
        assert len(ts) == spec.n
        for t in ts:
            assert 0 <= t.wcet <= t.deadline
            assert t.wcet <= t.period
            assert t.suspension >= 0
            assert t.period > 0


def test_synthesize_sorts_by_deadline():
    spec = GenSpec(n=15, u_total=Fraction(3, 5), seed=99)
    ts = synthesize(spec)
    deadlines = [t.deadline for t in ts]
    assert deadlines == sorted(deadlines)


def test_unit_deadline_factor_gives_implicit_deadlines():
    spec = GenSpec(n=10, u_total=Fraction(1, 2), seed=3, deadline_factor=Fraction(1))
    assert all(t.deadline == t.period for t in synthesize(spec))


def test_deadline_factor_scales_periods():
    spec = GenSpec(n=10, u_total=Fraction(1, 2), seed=3, deadline_factor=Fraction(3, 2))
    for t in synthesize(spec):
        # deadline = period scaled by 3/2, rounded half up
        assert t.deadline == math.floor(Fraction(3, 2) * t.period + Fraction(1, 2))
        assert t.deadline > t.period


def test_full_utilization_leaves_no_suspension_slack():
    spec = GenSpec(n=1, u_total=Fraction(1), seed=17)
    (task,) = synthesize(spec).tasks
    assert task.wcet == task.period
    assert task.suspension == 0


def test_zero_suspension_range():
    spec = GenSpec(
        n=8, u_total=Fraction(1, 2), seed=21,
        suspension_factor_range=(Fraction(0), Fraction(0)),
    )
    assert all(t.suspension == 0 for t in synthesize(spec))


def test_suspension_stays_within_slack_fraction():
    spec = GenSpec(
        n=25, u_total=Fraction(1, 2), seed=31,
        suspension_factor_range=(Fraction(0), Fraction(1, 2)),
    )
    for t in synthesize(spec):
        slack = t.period - t.wcet
        assert t.suspension <= math.floor(Fraction(1, 2) * slack + Fraction(1, 2))


def test_periods_land_in_range_ticks():
    spec = GenSpec(n=50, u_total=Fraction(1, 2), seed=8, period_range=(1, 100))
    for t in synthesize(spec):
        assert 1 * TICKS_PER_MS <= t.period <= 100 * TICKS_PER_MS + 1


def test_realized_utilization_tracks_target():
    # Quantization to integer ticks keeps the realized utilization within
    # one percent of the target even for large sets.
    for seed in (1, 2, 3):
        for u in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
            spec = GenSpec(n=200, u_total=u, seed=seed)
            realized = synthesize(spec).utilization
            assert abs(realized - u) <= u / 100


def test_overloaded_targets_redraw_single_task_overshoots():
    # With a total above one, splits giving one task more than full
    # utilization are discarded and redrawn, never clamped.
    saw_discard = False
    for seed in range(30):
        ts, discards = synthesize_counting(
            GenSpec(n=2, u_total=Fraction(9, 5), seed=seed)
        )
        saw_discard = saw_discard or discards > 0
        assert all(t.wcet <= t.period for t in ts)
    assert saw_discard


# --- exactness of the integer synthesis path -----------------------------------


def _fraction_uunifast(n, u_total, rng):
    """The Fraction-arithmetic split: float draws, then an exact rescale."""
    target = Fraction(u_total)
    while True:
        parts = []
        remaining = float(target)
        for k in range(1, n):
            nxt = remaining * rng.random() ** (1.0 / (n - k))
            parts.append(remaining - nxt)
            remaining = nxt
        parts.append(remaining)
        if all(p > 0.0 for p in parts):
            break
    raw = [Fraction(p) for p in parts]
    scale = target / sum(raw)
    return [p * scale for p in raw]


def _fraction_round(value):
    return math.floor(Fraction(value) + Fraction(1, 2))


def _fraction_synthesize(spec):
    """Oracle for synthesize_counting, in Fraction arithmetic throughout."""
    rng = random.Random(spec.seed)
    discards = 0
    while True:
        us = _fraction_uunifast(spec.n, spec.u_total, rng)
        if all(u <= 1 for u in us):
            break
        discards += 1
    lo_ln = math.log(spec.period_range[0] * TICKS_PER_MS)
    hi_ln = math.log(spec.period_range[1] * TICKS_PER_MS)
    slo, shi = spec.suspension_factor_range
    tasks = []
    for u in us:
        period = int(math.exp(rng.uniform(lo_ln, hi_ln)) + 0.5)
        wcet = _fraction_round(u * period)
        deadline = _fraction_round(spec.deadline_factor * period)
        slack = period - wcet
        if slack > 0:
            susp = rng.randint(_fraction_round(slo * slack), _fraction_round(shi * slack))
        else:
            susp = 0
        tasks.append(Task(wcet=wcet, suspension=susp, deadline=deadline, period=period))
    tasks.sort(key=lambda t: t.deadline)
    return TaskSet(tuple(tasks)), discards


_FACTORS = (Fraction(1), Fraction(7, 5), Fraction(3, 2), Fraction(2))
_SUSPENSION_RANGES = (
    (Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)), (Fraction(0), Fraction(1, 10)),
)
_PERIOD_RANGES = ((1, 100), (20, 100), (0.5, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20])
def test_synthesis_matches_fraction_oracle(n):
    # 6 x 900 specs; totals above 1 (below 2 at n = 2, where 2 cannot be
    # split) make redraws happen, and factor 3/2 and suspension range
    # (0, 1/2) hit exact ties, so a change of rounding rule shows
    rng = random.Random(f"synthesis-oracle:{n}")
    top = {1: 20, 2: 39, 3: 40}.get(n, 60)
    discards = 0
    for _ in range(900):
        spec = GenSpec(
            n=n, u_total=Fraction(rng.randint(1, top), 20), seed=rng.getrandbits(48),
            period_range=rng.choice(_PERIOD_RANGES), deadline_factor=rng.choice(_FACTORS),
            suspension_factor_range=rng.choice(_SUSPENSION_RANGES),
        )
        got = synthesize_counting(spec)
        assert got == _fraction_synthesize(spec), spec
        discards += got[1]
        parts = uunifast(n, spec.u_total, random.Random(spec.seed))
        assert sum(parts) == spec.u_total
        assert parts == _fraction_uunifast(n, spec.u_total, random.Random(spec.seed))
    assert (discards > 0) == (n > 1)


def test_infeasible_target_gives_up_with_value_error(monkeypatch):
    # two tasks cannot split a total of 2 without one exceeding 1
    monkeypatch.setattr(generator, "_MAX_REDRAWS", 5)
    with pytest.raises(ValueError, match="gave up after 6 utilization redraws"):
        synthesize_counting(GenSpec(n=2, u_total=Fraction(2), seed=1))


def test_underflowing_target_gives_up_with_value_error(monkeypatch):
    # a positive total whose float is 0.0 (or the least subnormal) never
    # splits into positive float parts: the first fails at once, the
    # second when the redraws end at the limit
    with pytest.raises(ValueError, match=r"^utilization 1e-400 is 0\.0 as a float"):
        synthesize(GenSpec(n=2, u_total=Fraction(1, 10**400), seed=0))
    monkeypatch.setattr(generator, "_MAX_REDRAWS", 5)
    with pytest.raises(ValueError, match="gave up after 5 utilization redraws"):
        uunifast(2, 5e-324, random.Random(0))


class _NoDraws(random.Random):
    def random(self):
        raise AssertionError("drew a random number")


class _CountingDraws(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def test_zero_float_target_gives_up_before_any_draw():
    # 1/10**400 is 0.0 as a float: no draw can split it, so none is made
    for n in (1, 2, 10):
        with pytest.raises(ValueError, match=(
            rf"^utilization 1e-400 is 0\.0 as a float: no split into {n} positive floats$"
        )):
            uunifast(n, Fraction(1, 10**400), _NoDraws(0))


def test_subnormal_target_still_spends_its_redraws(monkeypatch):
    # the least subnormal is positive, so it is drawn, up to the limit
    monkeypatch.setattr(generator, "_MAX_REDRAWS", 5)
    rng = _CountingDraws(0)
    with pytest.raises(ValueError, match="gave up after 5 utilization redraws"):
        uunifast(2, 5e-324, rng)
    assert rng.draws == 6


def test_genspec_validation():
    good = dict(n=5, u_total=Fraction(1, 2), seed=0)
    GenSpec(**good)
    with pytest.raises(ValueError):
        GenSpec(**{**good, "n": 0})
    with pytest.raises(ValueError):
        GenSpec(**{**good, "u_total": Fraction(0)})
    with pytest.raises(ValueError):
        GenSpec(**{**good, "u_total": Fraction(6)})  # above n
    with pytest.raises(ValueError):
        GenSpec(**{**good, "period_range": (0, 10)})
    with pytest.raises(ValueError):
        GenSpec(**{**good, "period_range": (10, 1)})
    with pytest.raises(ValueError):
        GenSpec(**{**good, "deadline_factor": Fraction(1, 2)})
    with pytest.raises(ValueError):
        GenSpec(**{**good, "suspension_factor_range": (Fraction(1), Fraction(0))})
    with pytest.raises(ValueError):
        GenSpec(**{**good, "suspension_factor_range": (Fraction(-1), Fraction(0))})


def _genspec_outcome(**fields):
    """The rational fields GenSpec builds from these values, or the
    message it refuses them with."""
    try:
        spec = GenSpec(seed=0, **fields)
    except ValueError as refusal:
        return str(refusal)
    return (spec.u_total, spec.deadline_factor, *spec.suspension_factor_range)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_genspec_takes_any_rational_form_by_one_rule(n):
    # int, str and float values build the Fraction fields, and meet the
    # refusals and messages, that the same values given as Fractions do
    us = [0, 1, 3, 4, "1/2", "-1/3", 0.5, 2.75, Fraction(3), Fraction(7, 2)]
    xs = [1, 2, "3/2", "2/3", 0.5, 1.0, Fraction(1), Fraction(5, 6)]
    sranges = [(0, "1/2"), ("1/4", 0.25), (0.5, Fraction(1, 4)), (Fraction(-1, 8), 1), (1, 3)]
    seen = set()
    for u in us:
        for x in xs:
            for lo, hi in sranges:
                got = _genspec_outcome(n=n, u_total=u, deadline_factor=x,
                                       suspension_factor_range=(lo, hi))
                assert got == _genspec_outcome(
                    n=n, u_total=Fraction(u), deadline_factor=Fraction(x),
                    suspension_factor_range=(Fraction(lo), Fraction(hi)),
                )
                if isinstance(got, str):
                    seen.add(got.split()[0])
                else:
                    assert all(type(f) is Fraction for f in got)
                    seen.add(True)
    assert seen == ({"need"} if n < 1 else {True, "u_total", "deadline_factor", "bad"})


def test_genspec_keeps_a_fraction_it_is_given():
    u = Fraction(1, 2)
    assert GenSpec(n=2, u_total=u, seed=0).u_total is u


@pytest.mark.parametrize("n", [2.5, 2.0, Fraction(5, 2)])
def test_genspec_refuses_a_non_integer_task_count(n):
    with pytest.raises(ValueError, match="task count n must be an integer"):
        GenSpec(n=n, u_total=Fraction(1, 2), seed=0)


def test_genspec_keeps_its_message_for_too_few_tasks():
    for n in (0, -3, 0.5):
        with pytest.raises(ValueError, match=f"^need at least one task, got n={n}$"):
            GenSpec(n=n, u_total=Fraction(1, 2), seed=0)


def test_log_uniform_periods_pass_ks():
    # Pool the periods of many sets and compare log-periods against the
    # uniform distribution they are drawn from.
    logs = []
    for seed in range(100):
        spec = GenSpec(n=100, u_total=Fraction(1, 2), seed=seed, period_range=(1, 100))
        logs.extend(math.log(t.period) for t in synthesize(spec))
    lo = math.log(1 * TICKS_PER_MS)
    hi = math.log(100 * TICKS_PER_MS)
    stat, p = scipy.stats.kstest(logs, "uniform", args=(lo, hi - lo))
    assert len(logs) == 10_000
    assert p > 0.01, (stat, p)


# --- batch files ------------------------------------------------------------------


def test_batch_round_trip(tmp_path):
    entries = []
    for i in range(5):
        spec = GenSpec(n=4, u_total=Fraction(i + 1, 10), seed=i)
        entries.append(
            BatchEntry(
                id=f"set-{i}", seed=i, u_target=spec.u_total, taskset=synthesize(spec)
            )
        )
    path = tmp_path / "batch.jsonl"
    dump_batch(entries, path)
    loaded = load_batch(path)
    assert loaded == entries


def test_batch_preserves_exact_rationals(tmp_path):
    ts = TaskSet((Task(1, 0, 3, 3),))
    entry = BatchEntry(id="x", seed=0, u_target=Fraction(1, 3), taskset=ts)
    path = tmp_path / "one.jsonl"
    dump_batch([entry], path)
    assert load_batch(path)[0].u_target == Fraction(1, 3)


def test_batch_skips_blank_lines(tmp_path):
    ts = TaskSet((Task(1, 0, 3, 3),))
    path = tmp_path / "gaps.jsonl"
    dump_batch([BatchEntry(id="x", seed=0, u_target=Fraction(1, 2), taskset=ts)], path)
    with open(path, "a") as fh:
        fh.write("\n")
    assert len(load_batch(path)) == 1
