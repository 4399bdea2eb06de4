"""Tests for the campaign layer: seeding, sweeps, CSV output, parallel
mapping, and the cross-validation harnesses."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from elsched import (
    GenSpec, PriorityPolicy, TaskSet, analysis, derive_priority_points, experiments,
    simulate_tfp, synthesize,
)
from elsched.experiments import (
    LambdaSweepConfig,
    PolicyChoice,
    SweepConfig,
    acceptance_sweep,
    cell_seed,
    find_non_dominance_pair,
    lambda_sweep,
    parallel_map,
    runtime_benchmark,
    sweep_csv_path,
    utilization_grid,
    verify_fixed_vs_extended,
    verify_fp_equivalence,
    verify_soundness,
    worker_count,
    write_rows_csv,
)


def _square(x: int) -> int:  # module-level so it pickles for process pools
    return x * x


# --- seeding ---------------------------------------------------------------------


def test_cell_seed_is_stable_across_processes():
    # Hash-derived, so the same coordinates give the same seed on any
    # platform or run. Pinned values guard against accidental changes.
    assert cell_seed(0, Fraction(1, 2), Fraction(6, 5), 3) == 4021726873578066815
    assert cell_seed(7, "sim", 0, 1) == 4001664738551807980


def test_cell_seed_is_63_bit_and_sensitive_to_parts():
    seeds = {
        cell_seed(0, Fraction(1, 2), Fraction(1), i) for i in range(100)
    }
    assert len(seeds) == 100
    assert all(0 <= s < 2**63 for s in seeds)
    assert cell_seed(0, "a") != cell_seed(1, "a")
    assert cell_seed(0, "a", "b") != cell_seed(0, "ab")


def test_utilization_grid():
    assert utilization_grid(10, 25, 5) == (
        Fraction(1, 10),
        Fraction(3, 20),
        Fraction(1, 5),
        Fraction(1, 4),
    )


# --- worker plumbing --------------------------------------------------------------


def test_worker_count_honors_environment(monkeypatch):
    monkeypatch.setenv("EL_SCHED_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("EL_SCHED_THREADS", "0")
    assert worker_count() == 1  # clamped to at least one
    monkeypatch.setenv("EL_SCHED_THREADS", "soon")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("EL_SCHED_THREADS")
    assert worker_count() >= 1


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("EL_SCHED_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert worker_count() == 3
    # without an affinity call, the machine's CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 64


def test_parallel_map_serial_and_pooled():
    items = list(range(20))
    expected = [x * x for x in items]
    assert parallel_map(_square, items, workers=1) == expected
    assert parallel_map(_square, items, workers=2) == expected
    assert parallel_map(_square, [], workers=4) == []
    # an early stop keeps the results up to the first one `until` accepts
    for workers in (1, 2):
        assert parallel_map(_square, items, workers, until=lambda r: r > 50) == expected[:9]


# --- acceptance sweep --------------------------------------------------------------


def _small_sweep() -> SweepConfig:
    return SweepConfig(
        master_seed=11,
        utilizations=(Fraction(1, 20), Fraction(3, 5)),
        sets_per_point=5,
        n=5,
    )


def test_acceptance_sweep_shape_and_determinism():
    rows = acceptance_sweep(_small_sweep(), workers=1)
    again = acceptance_sweep(_small_sweep(), workers=1)
    assert rows == again
    # one row per (deadline factor, utilization, policy)
    assert len(rows) == 2 * 2
    for row in rows:
        assert set(row) == {
            "deadline_factor",
            "utilization",
            "policy",
            "accepted",
            "total",
            "ratio",
        }
        assert row["total"] == 5
        assert 0 <= row["accepted"] <= row["total"]
        assert row["ratio"] == row["accepted"] / row["total"]


def test_acceptance_sweep_accepts_everything_at_trivial_load():
    rows = acceptance_sweep(_small_sweep(), workers=1)
    edf_low = [
        r for r in rows if r["policy"] == "edf" and r["utilization"] == 0.05
    ]
    assert edf_low and edf_low[0]["ratio"] == 1.0


# --- one analysis per distinct (effective test, points) ------------------------


# edf, eqdf(0) and saedf(0) give equal points; the weighted ones differ
_MEMO_POLICIES = (
    PriorityPolicy.edf(), PriorityPolicy.eqdf(0), PriorityPolicy.saedf(0),
    PriorityPolicy.eqdf(1), PriorityPolicy.saedf(Fraction(-1, 2)), PriorityPolicy.fifo(),
)
_MEMO_RUNS = tuple((p, t) for p in _MEMO_POLICIES for t in ("fixed", "variable", "baseline"))


def _oracle_verdicts(ts, runs, config):
    """One run_test call per run, nothing shared."""
    return [analysis.run_test(test, ts, pts, config).verdict for pts, test in runs]


def _runs(ts):
    return [(derive_priority_points(ts, p), t) for p, t in _MEMO_RUNS]


@pytest.mark.parametrize("x", [Fraction(1), Fraction(3, 2), Fraction(2)])
def test_verdict_memo_matches_one_run_per_choice(x):
    cfg = analysis.TestConfig()
    for seed in range(12):
        u = Fraction(3 + 6 * (seed % 3), 10)
        ts = synthesize(GenSpec(n=5, u_total=u, seed=seed, deadline_factor=x))
        runs = _runs(ts)
        assert experiments._verdicts(ts, runs, cfg) == _oracle_verdicts(ts, runs, cfg)


# one task's deadline beyond its period: only the variable test accepts
MIXED_SET = TaskSet.from_tuples([(1, 9, 19, 19), (13, 3, 37, 26)])


def test_verdict_memo_keeps_variable_test_with_one_deadline_beyond_period():
    cfg = analysis.TestConfig()
    pts = derive_priority_points(MIXED_SET, PriorityPolicy.edf())
    runs = [(pts, "fixed"), (pts, "variable")]
    assert _oracle_verdicts(MIXED_SET, runs, cfg) == [False, True]
    assert experiments._verdicts(MIXED_SET, runs, cfg) == [False, True]
    runs = _runs(MIXED_SET)
    assert experiments._verdicts(MIXED_SET, runs, cfg) == _oracle_verdicts(MIXED_SET, runs, cfg)


def _counting(monkeypatch, module, name):
    """Wrap module.name; the list it returns collects the points of every call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(tuple(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verdict_memo_runs_each_distinct_analysis_once(monkeypatch):
    ts = synthesize(GenSpec(n=5, u_total=Fraction(1, 2), seed=4, deadline_factor=Fraction(2)))
    fixed = _counting(monkeypatch, analysis, "test_fixed")
    variable = _counting(monkeypatch, analysis, "test_variable")
    experiments._verdicts(ts, _runs(ts), analysis.TestConfig())
    # edf, eqdf(0) and saedf(0) share one point tuple: four distinct ones
    assert len(fixed) == len(set(fixed)) == 4
    assert len(variable) == len(set(variable)) == 4


_MEMO_SWEEP_POLICIES = (
    PolicyChoice("edf-fixed", PriorityPolicy.edf(), "fixed"),
    PolicyChoice("edf-variable", PriorityPolicy.edf(), "variable"),
    PolicyChoice("eqdf0-variable", PriorityPolicy.eqdf(0), "variable"),
    PolicyChoice("edf-susp-obl", PriorityPolicy.edf(), "baseline"),
)


@pytest.mark.parametrize("x,per_set", [(Fraction(1), 0), (Fraction(2), 1)])
def test_sweep_runs_variable_test_only_beyond_periods(monkeypatch, x, per_set):
    variable = _counting(monkeypatch, analysis, "test_variable")
    cfg = SweepConfig(master_seed=3, utilizations=(Fraction(3, 10), Fraction(7, 10)),
                      sets_per_point=4, n=5, deadline_factors=(x,),
                      policies=_MEMO_SWEEP_POLICIES)
    rows = acceptance_sweep(cfg, workers=1)
    assert len(variable) == per_set * 2 * 4
    by = {(r["utilization"], r["policy"]): r["accepted"] for r in rows}
    if x == 1:
        for u in (0.3, 0.7):
            assert by[u, "edf-variable"] == by[u, "edf-fixed"] == by[u, "eqdf0-variable"]


def test_fixed_vs_extended_campaign_runs_both_tests(monkeypatch):
    # the campaign checks the identity the verdict memo rests on, so it
    # must not go through the memo
    fixed = _counting(monkeypatch, experiments, "test_fixed")
    variable = _counting(monkeypatch, experiments, "test_variable")
    rep = verify_fixed_vs_extended(sets=6, master_seed=2, n=4)
    assert rep.mismatches == ()
    assert len(fixed) == len(variable) == 6


def test_policy_choice_validates_test_kind():
    with pytest.raises(ValueError):
        PolicyChoice("x", PriorityPolicy.edf(), "nope")


def test_sweep_config_rejects_repeated_label():
    # two choices under one label would be summed into one row
    edf = PriorityPolicy.edf()
    with pytest.raises(ValueError, match="repeated policy label"):
        SweepConfig(policies=(PolicyChoice("edf", edf), PolicyChoice("edf", edf, "variable")))


@pytest.mark.parametrize("config", [SweepConfig, LambdaSweepConfig])
@pytest.mark.parametrize(
    "size,value", [("sets_per_point", 0), ("sets_per_point", -1), ("sets_per_point", 2.5), ("n", 0)])
def test_sweep_configs_reject_bad_sizes(config, size, value):
    # built in Python, not only through the CLI reader: a zero set count
    # used to divide by zero, a negative one to report negative totals
    # and a fractional one to fail inside range()
    with pytest.raises(ValueError, match=f"^{size} must be an integer >= 1, got {value}$"):
        config(**{size: value})


@pytest.mark.parametrize("config", [SweepConfig, LambdaSweepConfig])
@pytest.mark.parametrize("field", ["utilizations", "deadline_factors"])
def test_sweep_configs_reject_empty_grids(config, field):
    # a sweep without cells would return no rows, or a lone best row
    with pytest.raises(ValueError, match="needs a utilization and a deadline factor"):
        config(**{field: ()})


# --- weight sweep ------------------------------------------------------------------


def _small_lambda(family: str = "eqdf", weights=(-1, 0, 1)) -> LambdaSweepConfig:
    return LambdaSweepConfig(
        family=family,
        master_seed=13,
        utilizations=(Fraction(3, 5), Fraction(4, 5)),
        weights=weights,
        sets_per_point=5,
        n=5,
    )


def test_lambda_sweep_best_row_dominates_zero_weight():
    for family in ("eqdf", "saedf"):
        rows = lambda_sweep(_small_lambda(family), workers=1)
        by_cell: dict[float, dict[str, float]] = {}
        for row in rows:
            by_cell.setdefault(row["utilization"], {})[row["weight"]] = row["ratio"]
        assert by_cell
        for cell in by_cell.values():
            assert cell["best"] >= cell["0"]
            # and the best row is an OR, so it dominates every weight
            for w, ratio in cell.items():
                assert cell["best"] >= ratio


def test_lambda_sweep_warns_without_zero_weight():
    with pytest.warns(UserWarning):
        lambda_sweep(_small_lambda(weights=(1, 2)), workers=1)


def test_lambda_sweep_config_validation():
    with pytest.raises(ValueError):
        _small_lambda(family="edf")
    with pytest.raises(ValueError):
        LambdaSweepConfig(test="baseline")
    with pytest.raises(ValueError, match="repeated weight"):
        LambdaSweepConfig(weights=(0, 1, 1))
    with pytest.raises(ValueError, match="^weights must not be empty$"):
        LambdaSweepConfig(weights=())


# --- runtime benchmark ---------------------------------------------------------------


def test_runtime_benchmark_rows():
    rows = runtime_benchmark(
        ns=(2, 20),
        utilizations=(Fraction(1, 2), Fraction(7, 10)),
        sets_per_cell=2,
        master_seed=0,
    )
    assert [r["n"] for r in rows] == [2, 20]
    for r in rows:
        assert r["sets"] == 4
        assert 0 <= r["mean_s"] <= r["max_s"]
    # more tasks cost more
    assert rows[0]["mean_s"] < rows[1]["mean_s"]


# --- CSV output -----------------------------------------------------------------------


def test_write_rows_csv_round_trip(tmp_path):
    rows = [
        {"utilization": 0.5, "policy": "edf", "ratio": 1.0},
        {"utilization": 0.9, "policy": "edf", "ratio": 0.25},
    ]
    path = sweep_csv_path(tmp_path, "acceptance", 7)
    assert path.name == "sweep_acceptance_7.csv"
    write_rows_csv(path, rows)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == [
        {"utilization": "0.5", "policy": "edf", "ratio": "1.0"},
        {"utilization": "0.9", "policy": "edf", "ratio": "0.25"},
    ]


def test_write_rows_csv_empty_needs_fieldnames(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError):
        write_rows_csv(path, [])
    write_rows_csv(path, [], fieldnames=["a", "b"])
    assert path.read_bytes() == b"a,b\r\n"


# --- cross-validation harnesses --------------------------------------------------------


def test_verify_soundness_smoke():
    rep = verify_soundness(sets=12, master_seed=5, sims_per_set=3, n=4, horizon_factor=5)
    assert len(rep.outcomes) == 12
    assert rep.violations == ()
    assert rep.accepted == 8
    assert rep.sims_run == rep.accepted * 3


# Small corpora of every campaign, each below the pool gate: deadlines
# beyond the period for the sweeps, and both ends of the early-stopping
# campaigns (stopped by their target, and out of budget).
CAMPAIGNS = {
    "soundness": lambda: verify_soundness(
        sets=12, master_seed=5, sims_per_set=3, n=4, horizon_factor=5),
    "fp-equivalence": lambda: verify_fp_equivalence(
        target_accepted=5, master_seed=1, seqs_per_set=2, n=4),
    "fp-equivalence-exhausted": lambda: verify_fp_equivalence(
        target_accepted=4, master_seed=3, seqs_per_set=1, n=2,
        u_grid=(Fraction(99, 100),), horizon_factor=2),
    "fixed-vs-extended": lambda: verify_fixed_vs_extended(sets=30, master_seed=2, n=5),
    "non-dominance": lambda: find_non_dominance_pair(budget=150, master_seed=0),
    "non-dominance-exhausted": lambda: find_non_dominance_pair(budget=7, master_seed=3),
    "sweep": lambda: acceptance_sweep(SweepConfig(
        master_seed=11, utilizations=(Fraction(1, 2), Fraction(7, 10)),
        sets_per_point=4, n=5, deadline_factors=(Fraction(3, 2),),
        policies=(PolicyChoice("edf", PriorityPolicy.edf()),
                  PolicyChoice("edf-variable", PriorityPolicy.edf(), "variable"),
                  PolicyChoice("susp-obl", PriorityPolicy.edf(), "baseline")))),
    "lambda-sweep": lambda: lambda_sweep(LambdaSweepConfig(
        family="saedf", master_seed=13, utilizations=(Fraction(1, 2), Fraction(7, 10)),
        weights=(-1, 0, 1), sets_per_point=4, n=5,
        deadline_factors=(Fraction(3, 2),), test="variable")),
}

# sha256 of repr(report), recorded before the campaigns shared one loop
CAMPAIGN_DIGESTS = {
    "soundness":
        "759f2258e103b1b9d532a3bb2cd646ba60cc75ef58dd0ec4cabd9885aaed730e",
    "fp-equivalence":
        "32b2844a5d7942b48c62369fe1d2b01193ca2781362a1795e0d7dc3ee190e55b",
    "fp-equivalence-exhausted":
        "c73e21d69796b002a90c8da67d23fb601462ea0f9222a3a5948fed4e83cf973e",
    "fixed-vs-extended":
        "ee1f38edebf64647a92465d559023f50bdb63007fb241cf621f0193e27ae37a6",
    "non-dominance":
        "5b70803500f39728cf4375c54993a912f497b8c26740b448373c9da33d6e5a22",
    "non-dominance-exhausted":
        "5843c6cc615df8f4444b3e308348f5002336123521d589c8818bc90a23a1f8f9",
    "sweep":
        "4809ca8839195155200f3de495924ddc505ae656b92c2e53d1a1a5e3863dd8c7",
    "lambda-sweep":
        "51d2e1892bb3523ec1ac2a83f4e3c731225afb5fc1d1677c87189756b9888242",
}


def _digest(report) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_campaign_reports_are_pinned(monkeypatch, threads):
    monkeypatch.setenv("EL_SCHED_THREADS", threads)
    monkeypatch.setattr(experiments, "_POOL_MIN_JOBS", 0)  # force the pool
    digests = {name: _digest(run()) for name, run in CAMPAIGNS.items()}
    assert digests == CAMPAIGN_DIGESTS


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_every_campaign_same_report_at_any_worker_count(monkeypatch, name):
    monkeypatch.setenv("EL_SCHED_THREADS", "1")
    serial = CAMPAIGNS[name]()

    pools: list[int] = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setenv("EL_SCHED_THREADS", "2")
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    # a corpus this small stays serial unless the pool is forced
    monkeypatch.setattr(experiments, "_POOL_MIN_JOBS", 0)
    pooled = CAMPAIGNS[name]()
    assert pools == [2]
    assert pooled == serial  # results in order, counts, early stops
    assert _digest(pooled) == CAMPAIGN_DIGESTS[name]


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_small_campaign_starts_no_pool(monkeypatch, name):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setenv("EL_SCHED_THREADS", "2")
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    assert _digest(CAMPAIGNS[name]()) == CAMPAIGN_DIGESTS[name]


def test_importing_the_cli_loads_no_process_pool():
    # the pool class loads with the first pool a campaign starts, so a
    # fresh process pays nothing for multiprocessing on import
    code = (
        "import sys, elsched.cli\n"
        "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import concurrent.futures\n"
        "from elsched import experiments\n"
        "assert experiments.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor\n"
    )
    src = str(Path(experiments.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("campaign", [
    lambda: verify_soundness(sets=1, u_grid=()),
    lambda: verify_fp_equivalence(target_accepted=1, u_grid=[]),
    lambda: verify_fixed_vs_extended(sets=1, u_grid=()),
    lambda: find_non_dominance_pair(budget=1, u_grid=()),
    lambda: find_non_dominance_pair(budget=1, deadline_factors=()),
], ids=["soundness", "fp-equivalence", "fixed-vs-extended", "non-dominance-u",
        "non-dominance-x"])
def test_campaign_rejects_empty_grid(campaign):
    with pytest.raises(ValueError, match="needs a utilization and a deadline factor"):
        campaign()


@pytest.mark.parametrize("campaign,budget", [
    (lambda: verify_soundness(sets=-3), "sets"),
    (lambda: verify_fixed_vs_extended(sets=-5), "sets"),
    (lambda: find_non_dominance_pair(budget=-1), "budget"),
    (lambda: verify_fp_equivalence(target_accepted=-2), "target_accepted"),
], ids=["soundness", "fixed-vs-extended", "non-dominance", "fp-equivalence"])
def test_campaign_rejects_negative_budget(campaign, budget):
    with pytest.raises(ValueError, match=f"^{budget} must be an integer >= 0, got -"):
        campaign()


def test_campaign_zero_budget_reports_nothing():
    assert verify_soundness(sets=0) == experiments.SoundnessReport((), 0, ())
    assert verify_fixed_vs_extended(sets=0) == experiments.AgreementReport(0, ())
    assert find_non_dominance_pair(budget=0) == experiments.DisagreementSearch(0, None, None)
    assert verify_fp_equivalence(target_accepted=0) == experiments.EquivalenceReport(0, 0, 0, ())


def test_verify_soundness_records_all_three_verdicts():
    rep = verify_soundness(sets=6, master_seed=5, sims_per_set=1, n=4, horizon_factor=5)
    for o in rep.outcomes:
        assert isinstance(o.fixed, bool)
        assert isinstance(o.extended, bool)
        assert isinstance(o.oblivious, bool)
        # the suspension-oblivious baseline never out-accepts the
        # window test on the same set
        if o.oblivious:
            assert o.fixed


def test_verify_fp_equivalence_smoke():
    rep = verify_fp_equivalence(
        target_accepted=5, master_seed=1, seqs_per_set=2, n=4
    )
    assert rep.accepted == 5
    assert rep.sequences == 10
    assert rep.mismatches == ()


def test_verify_fp_equivalence_reports_a_perturbed_trace(monkeypatch):
    # Traces are compared whole, suspension spans included, which the
    # exported text does not show.
    def perturbed(ts, seq):
        trace = simulate_tfp(ts, seq)
        job = trace.jobs[-1]
        job = dataclasses.replace(job, susp_spans=job.susp_spans + ((0, 0),))
        return dataclasses.replace(trace, jobs=trace.jobs[:-1] + (job,))

    monkeypatch.setattr(experiments, "simulate_tfp", perturbed)
    rep = verify_fp_equivalence(target_accepted=2, master_seed=1, seqs_per_set=2, n=4)
    assert rep.sequences == 4
    assert len(rep.mismatches) == 4


def test_verify_fixed_vs_extended_smoke():
    rep = verify_fixed_vs_extended(sets=40, master_seed=2, n=5)
    assert rep.sets == 40
    assert rep.mismatches == ()


def test_find_non_dominance_pair_finds_both_directions():
    search = find_non_dominance_pair(budget=150, master_seed=0)
    assert search.complete
    assert search.checked <= 150
    fo, eo = search.fixed_only, search.extended_only
    assert fo is not None and eo is not None
    assert fo.fixed.verdict is True and fo.extended.verdict is False
    assert eo.fixed.verdict is False and eo.extended.verdict is True
    # witness deadlines genuinely exceed periods (the disagreement regime)
    assert any(t.deadline > t.period for t in fo.taskset)
    assert any(t.deadline > t.period for t in eo.taskset)
