"""Tests for the window search's shortcuts.

The kernel recomputes a task only after another task's bound changed,
starts each stage scan from that stage's last minimum, fails a task
early when a stage floor shows that no later stage can accept, and skips
offset ranges whose lower bound cannot beat the least total so far: one
bound per range, the exact total when the range is a single offset.
Each shortcut must leave every verdict, bound, offset and pass count as
a plain scan gives them.  The oracle here is a test-local copy of the
plain scan: every task on every pass, every stage from D_k + 1, every
grid offset in turn, no floors.  It is compared on synthesized sets and,
through `hypothesis`, on hand-built tiny ones.
The floor itself is checked against a brute-force minimum over every
integer offset.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Sequence

import pytest

from elsched import (
    AnalysisResult,
    GenSpec,
    PriorityPolicy,
    Task,
    TaskSet,
    derive_priority_points,
    synthesize,
)
from elsched import TestConfig as IterConfig  # alias: keep pytest collection away
from elsched import test_variable as variable_test
from elsched.analysis import (
    TESTS,
    _deadline_descending,
    _reach_floor,
    run_test,
)
from elsched.model import POLICY_KINDS, _round_ratio


def _grid_steps(D: Sequence[int], eta: Fraction) -> list[int]:
    p, q = eta.numerator, eta.denominator
    return [max(1, _round_ratio(p * d, q)) for d in D]


def _caps(C: Sequence[int], D: Sequence[int], pp: Sequence[int]) -> list[list[int]]:
    # min(D_k - C_i, pp_k - pp_i), without a call per pair
    return [
        [d - c if d - c < p - q else p - q for c, q in zip(C, pp)]
        for d, p in zip(D, pp)
    ]


def _plain_window_core(C, S, D, T, pp, cfg, reach_back):
    n = len(C)
    order = _deadline_descending(D)
    steps = _grid_steps(D, cfg.eta)
    caps = _caps(C, D, pp)
    stages = cfg.max_a + 1 if reach_back else 1
    rb = list(D)
    offs = [None] * n
    solved = False
    iters = 0
    for _ in range(cfg.depth):
        iters += 1
        solved = True
        changed = False
        for k in order:
            Dk = D[k]
            Tk = T[k]
            csk = C[k] + S[k]
            step = steps[k]
            row = caps[k]
            terms = sorted(
                ((row[i] + rb[i], T[i], C[i]) for i in range(n) if i != k and C[i] > 0),
                key=lambda t: -t[2],
            )
            stage_best = []
            stage_b = []
            reach = None
            for a in range(stages):
                own_cap = a + 1 if reach_back else -(-Dk // Tk)
                best = Dk + 1
                best_b = 0
                b = -a * Tk
                while b < Dk:
                    if b + csk >= best:
                        break
                    own = -(-(Dk - b) // Tk)
                    if own > own_cap:
                        own = own_cap
                    total = own * csk + b
                    if total < best:
                        for ar, ti, ci in terms:
                            num = ar - b
                            if num > 0:
                                total += -(-num // ti) * ci
                                if total >= best:
                                    break
                        else:
                            best = total
                            best_b = b
                    b += step
                if best > Dk:
                    break
                stage_best.append(best)
                stage_b.append(best_b)
                if not reach_back or best <= Tk:
                    reach = a
                    break
            if reach is None:
                solved = False
                if rb[k] != Dk:
                    rb[k] = Dk
                    changed = True
                offs[k] = None
                break
            new_rb = max(stage_best)
            if new_rb != rb[k]:
                rb[k] = new_rb
                changed = True
            if reach_back:
                offs[k] = (reach, tuple(b + a * Tk for a, b in enumerate(stage_b)))
            else:
                offs[k] = best_b
        if not changed:
            break
    return AnalysisResult(solved, tuple(rb), tuple(offs), iters)


def _plain_test(name, ts, pts, cfg):
    C = [t.wcet for t in ts]
    S = [t.suspension for t in ts]
    D = [t.deadline for t in ts]
    T = [t.period for t in ts]
    if name == "baseline":
        C = [c + s for c, s in zip(C, S)]
        S = [0] * len(ts)
    return _plain_window_core(C, S, D, T, pts, cfg, reach_back=name == "variable")


def _policy(kind, ts, rng):
    if kind in ("eqdf", "saedf"):
        return getattr(PriorityPolicy, kind)(Fraction(rng.randint(-6, 6), 2))
    if kind == "explicit":
        return PriorityPolicy.explicit([rng.randint(0, 2 * t.deadline) for t in ts])
    return getattr(PriorityPolicy, kind)()


ORACLE_CONFIGS = (
    IterConfig(depth=20, max_a=20),
    IterConfig(eta=Fraction(1, 1000)),
    IterConfig(eta=Fraction(1)),
    IterConfig(max_a=0),
)


def test_window_search_matches_plain_scan():
    rng = random.Random(90_210)
    compared = 0
    for period_range in ((1, 5), (1, 100)):
        for x in (Fraction(1), Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(3),
                  Fraction(5)):
            for n in (1, 2, 3, 5, 10):
                u = Fraction(rng.choice((35, 60, 80, 95)), 100)
                ts = synthesize(GenSpec(n=n, u_total=u, seed=rng.randrange(2**32),
                                        period_range=period_range, deadline_factor=x))
                for kind in POLICY_KINDS:
                    pts = derive_priority_points(ts, _policy(kind, ts, rng))
                    for cfg in ORACLE_CONFIGS:
                        for name in ("fixed", "variable", "baseline"):
                            got = run_test(name, ts, pts, cfg)
                            assert repr(got) == repr(_plain_test(name, ts, pts, cfg)), (
                                ts, kind, pts, cfg, name
                            )
                            compared += 1
    assert compared >= 3000


STEP_ONE = IterConfig(eta=Fraction(1, 100000))


def test_window_search_matches_plain_scan_at_step_one():
    # with one tick between offsets a stage holds thousands of them, and
    # the scan drops ranges of many offsets at once on their bound
    rng = random.Random(4_242)
    compared = 0
    for x in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
        for n in (1, 2, 3, 5):
            u = Fraction(rng.choice((35, 60, 80, 95)), 100)
            ts = synthesize(GenSpec(n=n, u_total=u, seed=rng.randrange(2**32),
                                    period_range=(1, 5), deadline_factor=x))
            assert _grid_steps([t.deadline for t in ts], STEP_ONE.eta) == [1] * n
            for kind in ("edf", "eqdf", "explicit"):
                pts = derive_priority_points(ts, _policy(kind, ts, rng))
                for name in ("fixed", "variable", "baseline"):
                    got = run_test(name, ts, pts, STEP_ONE)
                    assert repr(got) == repr(_plain_test(name, ts, pts, STEP_ONE)), (
                        ts, kind, pts, name
                    )
                    compared += 1
    assert compared == 144


def test_window_search_matches_plain_scan_on_tiny_sets_hypothesis():
    # hand-built sets reach the edges synthesized ones miss: zero wcet or
    # suspension, wcet == deadline (a zero deadline included), equal
    # deadlines, and offset grids of one to D_k ticks per step
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        tasks = []
        for _ in range(draw(st.integers(1, 4))):
            period = draw(st.integers(1, 30))
            wcet = draw(st.integers(0, period))
            deadline = draw(st.integers(wcet, 3 * period))
            if tasks and tasks[-1].deadline >= wcet and draw(st.booleans()):
                deadline = tasks[-1].deadline
            tasks.append(Task(wcet, draw(st.integers(0, period)), deadline, period))
        ts = TaskSet(tuple(tasks))
        kind = draw(st.sampled_from(POLICY_KINDS))
        policy = _policy(kind, ts, draw(st.randoms(use_true_random=False)))
        name = draw(st.sampled_from(TESTS))
        eta = draw(st.sampled_from((Fraction(1), Fraction(1, 7), Fraction(1, 100000))))
        return ts, derive_priority_points(ts, policy), name, IterConfig(eta=eta)

    @hypothesis.settings(max_examples=1500, deadline=None, database=None)
    @hypothesis.given(cases())
    @hypothesis.example((TaskSet((Task(0, 0, 0, 5), Task(1, 0, 4, 4))), (0, 4), "fixed",
                         IterConfig()))
    def check(case):
        ts, pts, name, cfg = case
        assert repr(run_test(name, ts, pts, cfg)) == repr(_plain_test(name, ts, pts, cfg))

    check()


# An n = 5, D = 2T EDF set near U = 0.91 whose last task reaches back 8
# stages and whose others fail at every stage: a plain scan at max_a = M
# scans all M + 1 stages of each failing task, so its cost grows as M^2.
DEEP = TaskSet((
    Task(892, 811, 5408, 2704),
    Task(1080, 1753, 11044, 5522),
    Task(601, 1503, 17796, 8898),
    Task(1066, 1933, 20474, 10237),
    Task(8027, 231, 75480, 37740),
))


def test_floors_end_a_deep_reach_back_search():
    pts = derive_priority_points(DEEP, PriorityPolicy.edf())
    start = time.perf_counter()
    deep = variable_test(DEEP, pts, IterConfig(max_a=10**6))
    elapsed = time.perf_counter() - start
    assert deep.verdict is False
    assert elapsed < 1.0
    shallow = variable_test(DEEP, pts, IterConfig(max_a=30))
    assert repr(shallow) == repr(_plain_test("variable", DEEP, pts, IterConfig(max_a=30)))
    assert shallow == deep


def test_fine_grid_analyses_finish_quickly():
    # at one tick per offset a linear scan visits up to D_k offsets per
    # stage, seconds for these 24 analyses; the range bound skips most
    fine = []
    for x, name in ((Fraction(1), "fixed"), (Fraction(2), "variable")):
        for i, u in enumerate(range(30, 90, 5)):
            ts = synthesize(GenSpec(n=10, u_total=Fraction(u, 100), seed=1000 + i,
                                    deadline_factor=x))
            fine.append((name, ts, derive_priority_points(ts, PriorityPolicy.edf())))
    start = time.perf_counter()
    results = [run_test(name, ts, pts, STEP_ONE) for name, ts, pts in fine]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    # the step-1 scan sees every offset the default grid sees, and here
    # it accepts every set that grid accepts
    coarse = [run_test(name, ts, pts) for name, ts, pts in fine]
    assert all(f.verdict or not c.verdict for f, c in zip(results, coarse))
    assert sum(r.verdict for r in results) == 10


# --- the stage floor against brute force ------------------------------------------


def _stage_minima(Dk, Tk, csk, terms, max_a):
    """Least window total <= T_k of each stage 0..max_a over every
    integer offset, None where a stage has none."""
    minima = []
    for x in range(max_a + 1):
        least = None
        for b in range(-x * Tk, Dk):
            own = min(-(-(Dk - b) // Tk), x + 1)
            total = own * csk + b + sum(
                -(-(ar - b) // ti) * ci for ar, ti, ci in terms if ar > b
            )
            if total <= Tk and (least is None or total < least):
                least = total
        minima.append(least)
    return minima


def _relaxed_least(Dk, Tk, csk, terms, a, max_a):
    """Least value, over every integer offset b <= T_k - csk of stages
    a..max_a, of the floor's relaxation: each ceiling term replaced by its
    argument, and past the own-job cap, the own count by (D_k - b) / T_k.
    None where no stage has such an offset."""
    least = None
    for x in range(a, max_a + 1):
        for b in range(-x * Tk, min(Dk, Tk - csk + 1)):
            own = x + 1 if b < Dk - x * Tk else Fraction(Dk - b, Tk)
            value = own * csk + b + sum(Fraction((ar - b) * ci, ti) for ar, ti, ci in terms)
            if least is None or value < least:
                least = value
    return least


def _check_floor(Dk, Tk, csk, terms, max_a):
    """Compare the floor of stages a..max_a, for every a, with the least
    window total by brute force and with the least value of its
    relaxation; return how many floors rejected (exceeded T_k)."""
    lcm = math.lcm(Tk, *(ti for _, ti, _ in terms))
    minima = _stage_minima(Dk, Tk, csk, terms, max_a)
    rejected = 0
    for a in range(max_a + 1):
        reachable = [m for m in minima[a:] if m is not None]
        floor = _reach_floor(Dk, Tk, csk, terms, lcm, a, max_a)
        case = (Dk, Tk, csk, terms, a, max_a, floor)
        if reachable:
            assert floor is not None and floor <= min(reachable) * lcm, (case, min(reachable))
        relaxed = _relaxed_least(Dk, Tk, csk, terms, a, max_a)
        assert floor == (None if relaxed is None else relaxed * lcm), (case, relaxed)
        if floor is None or floor > Tk * lcm:
            rejected += 1
    return rejected


def _random_floor_case(rng):
    Tk = rng.randint(1, 9)
    Dk = rng.randint(1, 3 * Tk)
    csk = rng.choice((0, rng.randint(0, Dk), rng.randint(0, 2 * Tk)))
    terms = []
    for _ in range(rng.randint(0, 3)):
        ti = rng.randint(1, 9)
        # wcet above the period: utilization above 1
        terms.append((rng.randint(-15, 25), ti, rng.randint(1, ti + 2)))
    return Dk, Tk, csk, terms, rng.randint(0, 4)


def test_reach_floor_never_exceeds_brute_force_minimum():
    rng = random.Random(8_675_309)
    rejected = negative = idle = overloaded = 0
    for _ in range(2500):
        Dk, Tk, csk, terms, max_a = _random_floor_case(rng)
        rejected += _check_floor(Dk, Tk, csk, terms, max_a)
        negative += any(ar < 0 for ar, _, _ in terms)
        idle += csk == 0
        overloaded += sum(Fraction(ci, ti) for _, ti, ci in terms) > 1
    # every edge was drawn, and the floors did reject stages
    assert min(negative, idle, overloaded) > 150
    assert rejected > 700


def test_reach_floor_never_exceeds_brute_force_minimum_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        Tk = draw(st.integers(1, 9))
        Dk = draw(st.integers(1, 3 * Tk))
        csk = draw(st.integers(0, 2 * Tk))
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            ti = draw(st.integers(1, 9))
            terms.append((draw(st.integers(-15, 25)), ti, draw(st.integers(1, ti + 2))))
        return Dk, Tk, csk, terms, draw(st.integers(0, 4))

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        _check_floor(*case)

    check()
