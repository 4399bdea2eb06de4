"""Tests of the benchmark itself: each workload at a tiny size, each check
against a corrupted output, and the command's result line.

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from elsched import analysis, experiments, generator, simulator  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 3  # items per workload and seed


def _first_items(name: str, seed: int = run.DEFAULT_SEED, count: int = TINY):
    return workloads.WORKLOADS[name](seed).make_pass(0)[:count]


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_outputs_pass_every_check(name, seed):
    for item in _first_items(name, seed):
        assert item.check(item.run(), True) == []


def test_workloads_start_no_process_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", refuse)
    for name in run.WORKLOAD_NAMES:
        for item in _first_items(name, count=1):
            item.run()


def _accepted_result(test: str, u: str, deadline_factor: int):
    """A converged accepted result (its last pass changed nothing, so
    every certificate is tight against its own bound).  Suspensions are
    short, so that the suspension-oblivious baseline accepts too."""
    func = getattr(analysis, checks.TEST_NAMES[test])
    for seed in range(200):
        ts = generator.synthesize(generator.GenSpec(
            n=6, u_total=u, seed=seed, deadline_factor=deadline_factor,
            suspension_factor_range=(0, "1/10")))
        pts = [t.deadline for t in ts]
        res = func(ts, pts)
        if res.verdict and res.iterations < analysis.DEFAULT_CONFIG.depth:
            return ts, pts, res
    raise AssertionError("no converged accepted set")


@pytest.mark.parametrize("test,u,factor", [
    ("fixed", "2/5", 1), ("baseline", "1/5", 1), ("variable", "2/5", 2)])
def test_certificate_check_rejects_a_bound_lowered_by_one_tick(test, u, factor):
    ts, pts, res = _accepted_result(test, u, factor)
    assert checks.certificate_problems(ts, pts, res, test) == []
    for k in range(len(ts)):
        bounds = list(res.bounds)
        bounds[k] -= 1
        lowered = dataclasses.replace(res, bounds=tuple(bounds))
        assert checks.certificate_problems(ts, pts, lowered, test), k


def _trace_output():
    item = _first_items("trace", count=1)[0]
    out = item.run()
    assert item.check(out, True) == []
    return item, out


def test_trace_check_rejects_a_shifted_interval():
    item, out = _trace_output()
    ivs = list(out.el.intervals)
    mid = len(ivs) // 2
    ivs[mid] = dataclasses.replace(ivs[mid], start=ivs[mid].start + 1, end=ivs[mid].end + 1)
    shifted = dataclasses.replace(out, el=dataclasses.replace(out.el, intervals=tuple(ivs)))
    assert any("tiling" in p for p in item.check(shifted, True))


def test_trace_check_rejects_one_changed_export_byte():
    item, out = _trace_output()
    text = out.fp_text
    pos = len(text) // 2
    changed = text[:pos] + ("1" if text[pos] != "1" else "2") + text[pos + 1:]
    assert item.check(dataclasses.replace(out, fp_text=changed), True) == [
        "emulated and strict fixed-priority exports differ"]


def test_trace_check_rejects_a_state_window_that_does_not_partition():
    item, out = _trace_output()
    states = list(out.states)
    states[0] = dataclasses.replace(states[0], progress=states[0].progress + 1)
    assert item.check(dataclasses.replace(out, states=tuple(states)), True)


def _off_by_one(rows, index):
    rows = [dict(r) for r in rows]
    r = rows[index]
    r["accepted"] += 1 if r["accepted"] < r["total"] else -1
    r["ratio"] = r["accepted"] / r["total"]
    return rows


@pytest.mark.parametrize("name", ["constrained", "arbitrary"])
def test_sweep_check_rejects_an_accepted_count_off_by_one(name):
    for item in _first_items(name, count=TINY):
        rows = item.run()
        assert item.check(rows, True) == []
        for index in range(len(rows)):
            assert item.check(_off_by_one(rows, index), True), (item.kind, index)


def test_soundness_check_rejects_a_miscounted_campaign():
    item = _first_items("soundness", count=1)[0]
    report = item.run()
    assert report.accepted == 1
    assert item.check(dataclasses.replace(report, sims_run=report.sims_run - 1), False)
    violation = ({"sim_index": 0},)
    assert item.check(dataclasses.replace(report, violations=violation), False)


def test_tracer_counts_layers_and_restores_the_program():
    originals = {name: getattr(tracing.MODULES[name.split(".")[0]], name.split(".")[1])
                 for name, _ in tracing.LAYERS}
    tracer = tracing.Tracer()
    item = _first_items("soundness", count=1)[0]
    tracer.install()
    try:
        # experiments looks the function up under its own name
        assert experiments.random_run_feasible is not originals["simulator.random_run_feasible"]
        item.run()
    finally:
        tracer.uninstall()
    tracer.settle()
    for name, fn in originals.items():
        assert getattr(tracing.MODULES[name.split(".")[0]], name.split(".")[1]) is fn
    m = tracer.metrics()
    assert m["experiments.verify_soundness.calls"][0] == 1
    assert m["simulator.random_run_feasible.calls"][0] == workloads.SOUNDNESS_SIMS
    assert m["simulator.jobs"][0] > 0
    busy = m["experiments.verify_soundness.busy_ms"][0]
    children = sum(m[f"{name}.busy_ms"][0] for name, _ in tracing.LAYERS
                   if not name.startswith("experiments."))
    assert m["experiments.verify_soundness.self_ms"][0] == pytest.approx(busy - children)


def _command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_of_its_section(trace, section):
    proc = _command(ROOT, "--workload", "soundness", "--seed", "3", "--seconds", "0",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_trace_run_records_the_certifying_set_up():
    proc = _command(ROOT, "--workload", "trace", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["analysis.test_tfp.calls"]["value"] >= workloads.TRACE_POOL
    assert metrics["analysis.test_tfp.accepted"]["value"] == workloads.TRACE_POOL
    assert metrics["analysis.test_tfp.busy_ms"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "constrained", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import elsched" in proc.stderr
