"""End-to-end tests for the command-line interface.

Everything goes through main(argv) so the tests exercise argument
parsing, dispatch, exit codes, and the printed output together.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from elsched import (
    PriorityPolicy, analysis, derive_priority_points, experiments, generate_job_sequence,
    generator, load_taskset,
)
from elsched.cli import build_parser, main
from elsched.model import POLICY_KINDS

WORKED = "# el-sched taskset v1\n1 0 5 5\n2 1 16 16\n"
REF = "# el-sched taskset v1\n2 0 5 5\n7 3 16 16\n"


@pytest.fixture
def worked_file(tmp_path):
    p = tmp_path / "two.ts"
    p.write_text(WORKED)
    return p


@pytest.fixture
def ref_file(tmp_path):
    p = tmp_path / "ref.ts"
    p.write_text(REF)
    return p


# --- analyze ---------------------------------------------------------------------


def test_analyze_schedulable_exits_zero(worked_file, capsys):
    assert main(["analyze", str(worked_file), "--policy", "edf"]) == 0
    out = capsys.readouterr().out
    assert "schedulable" in out
    assert "response bound 1 / deadline 5" in out
    assert "response bound 6 / deadline 16" in out


def test_analyze_no_decision_exits_one(ref_file, capsys):
    code = main(["analyze", str(ref_file),
                 "--policy", "explicit", "--pp", "4,10", "--test", "fixed"])
    assert code == 1
    out = capsys.readouterr().out
    assert "no decision" in out
    assert "response bound 5 / deadline 5" in out
    assert "response bound 15 / deadline 16" in out


def test_analyze_csv_row(worked_file, capsys):
    assert main(["analyze", str(worked_file), "--csv", "--id", "w1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "taskset_id,policy,verdict,iterations,R1,R2"
    assert lines[1] == "w1,edf,1,3,1,6"


def test_analyze_variable_test(worked_file, capsys):
    assert main(["analyze", str(worked_file), "--test", "variable"]) == 0
    assert "variable window" in capsys.readouterr().out


def test_analyze_baseline_test(worked_file):
    assert main(["analyze", str(worked_file), "--test", "baseline"]) == 0


def test_analyze_weighted_policy_label(worked_file, capsys):
    assert main(["analyze", str(worked_file),
                 "--policy", "eqdf", "--lambda", "1"]) == 0
    assert "eqdf[1]" in capsys.readouterr().out


def test_policy_flag_takes_tfp(worked_file, capsys):
    # --policy offers every policy kind of the model, tfp included
    result = analysis.test_tfp(load_taskset(worked_file))
    code = main(["analyze", str(worked_file), "--policy", "tfp", "--csv", "--id", "w1"])
    assert code == (0 if result.verdict else 1)
    row = capsys.readouterr().out.splitlines()[1]
    assert row == ",".join(analysis.result_csv_row("w1", "tfp", result))
    assert main(["simulate", str(worked_file), "--policy", "tfp", "--horizon", "200"]) == 0


def test_analyze_dm_orders_by_deadline_on_unsorted_file(tmp_path, capsys):
    # list order 20, 5, 5: deadline-monotonic points are 30, 5, 10
    p = tmp_path / "unsorted.ts"
    p.write_text("# el-sched taskset v1\n4 1 20 20\n1 1 5 5\n2 0 5 8\n")
    dm_code = main(["analyze", str(p), "--policy", "dm"])
    dm_out = capsys.readouterr().out
    assert "(dm, fixed window" in dm_out
    explicit_code = main(["analyze", str(p), "--policy", "explicit", "--pp", "30,5,10"])
    explicit_out = capsys.readouterr().out
    assert dm_code == explicit_code
    assert dm_out.splitlines()[1:] == explicit_out.splitlines()[1:]


def test_analyze_input_errors_exit_two(tmp_path, worked_file, capsys):
    bad = tmp_path / "bad.ts"
    bad.write_text("# el-sched taskset v1\n1 0 5\n")
    cases = [
        ["analyze", str(bad)],                                   # malformed file
        ["analyze", str(tmp_path / "missing.ts")],               # no such file
        ["analyze", str(worked_file), "--policy", "eqdf"],       # missing --lambda
        ["analyze", str(worked_file), "--policy", "explicit"],   # missing --pp
        ["analyze", str(worked_file), "--policy", "explicit", "--pp", "4"],
        ["analyze", str(worked_file), "--policy", "explicit", "--pp", "a,b"],
        ["analyze", str(worked_file), "--eta", "0"],             # bad grid step
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_analyze_rejects_non_rational_weight(worked_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(worked_file), "--policy", "eqdf", "--lambda", "w"])
    assert exc.value.code == 2
    assert "not a rational number" in capsys.readouterr().err


# --- generate --------------------------------------------------------------------


def test_generate_single_set_to_file(tmp_path, capsys):
    out = tmp_path / "gen.ts"
    assert main(["generate", "--n", "4", "--u", "0.5",
                 "--seed", "3", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# el-sched taskset v1\n")
    assert len(text.strip().splitlines()) == 5  # header + 4 tasks


def test_generate_to_stdout(capsys):
    assert main(["generate", "--n", "3", "--u", "0.4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# el-sched taskset v1\n")


def test_generate_batch_requires_output(capsys):
    assert main(["generate", "--n", "3", "--u", "0.4", "--count", "2"]) == 2
    assert "requires -o" in capsys.readouterr().err


def test_generate_batch_jsonl(tmp_path):
    out = tmp_path / "batch.jsonl"
    assert main(["generate", "--n", "3", "--u", "0.4",
                 "--count", "4", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["id"] == "set0"
    assert len(first["tasks"]) == 3


def test_generate_rejects_zero_count(capsys):
    assert main(["generate", "--u", "0.4", "--count", "0"]) == 2
    assert "--count" in capsys.readouterr().err


def test_generate_infeasible_target_exits_two(monkeypatch, capsys):
    # two tasks cannot split a total of 2 without one exceeding 1; a small
    # redraw limit keeps the test fast
    monkeypatch.setattr(generator, "_MAX_REDRAWS", 5)
    assert main(["generate", "--n", "2", "--u", "2", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: gave up after 6 utilization redraws")


def test_generate_underflowing_target_exits_two(capsys):
    # 1e-400 is a positive rational whose float is 0.0: no split into
    # positive parts exists, so generation fails before any redraw
    assert main(["generate", "--n", "2", "--u", "1e-400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: utilization 1e-400 is 0.0 as a float: no split into 2")


def test_generate_analyze_round_trip(tmp_path, capsys):
    # generated files feed straight back into every analysis mode
    rng = random.Random(2024)
    for trial in range(50):
        n = rng.randint(1, 8)
        u = f"{rng.randint(5, 95)}/100"
        x = rng.choice(["1", "1.2", "1.5"])
        seed = rng.randrange(2**32)
        path = tmp_path / f"rt{trial}.ts"
        assert main(["generate", "--n", str(n), "--u", u, "--x", x,
                     "--seed", str(seed), "-o", str(path)]) == 0
        for extra in (["--test", "fixed"],
                      ["--test", "variable"],
                      ["--policy", "dm"],
                      ["--policy", "saedf", "--lambda", "-2"]):
            code = main(["analyze", str(path), *extra])
            assert code in (0, 1), (trial, extra)
    capsys.readouterr()


# --- simulate --------------------------------------------------------------------


def test_simulate_smoke(worked_file, tmp_path, capsys):
    trace_out = tmp_path / "trace.txt"
    assert main(["simulate", str(worked_file), "--horizon", "200",
                 "--seed", "4", "--trace-out", str(trace_out)]) == 0
    out = capsys.readouterr().out
    assert "horizon 200" in out
    assert "feasible:" in out
    assert trace_out.read_text().startswith("# el-sched trace v1\n")


def test_simulate_summary_is_pinned(ref_file, capsys):
    # The job count covers finished and unfinished jobs alike: it is the
    # number of jobs generated.
    assert main(["simulate", str(ref_file), "--policy", "tfp", "--horizon", "30",
                 "--seed", "4"]) == 0
    assert capsys.readouterr().out == (
        "tfp: horizon 30, 8 jobs, feasible: yes\n"
        "  task 0: worst observed response 2 / deadline 5\n"
        "  task 1: worst observed response 13 / deadline 16\n"
        "  unfinished at horizon: 1 jobs\n"
    )
    ts = load_taskset(ref_file)
    assert len(generate_job_sequence(ts, 30, 4).jobs) == 8


def test_simulate_empty_set_exits_two(tmp_path, capsys):
    p = tmp_path / "empty.ts"
    p.write_text("# el-sched taskset v1\n")
    assert main(["simulate", str(p)]) == 2
    assert "empty task set" in capsys.readouterr().err


def test_simulate_alternate_models(worked_file, capsys):
    assert main(["simulate", str(worked_file), "--horizon", "100",
                 "--release-model", "periodic",
                 "--suspension-model", "max-single-block",
                 "--demand-model", "random"]) == 0
    capsys.readouterr()


# --- sweeps ----------------------------------------------------------------------


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "name": "smoke",
        "master_seed": 9,
        "utilizations": ["0.3", "0.6"],
        "sets_per_point": 3,
        "n": 4,
        "policies": [{"policy": "edf"}, {"policy": "eqdf", "lambda": "2"}],
    }))
    assert main(["sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 0
    path = tmp_path / "sweep_smoke_9.csv"
    assert str(path) in capsys.readouterr().out
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "deadline_factor,utilization,policy,accepted,total,ratio"
    assert len(lines) == 1 + 2 * 2  # two utilizations x two policies


def test_lambda_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "lam.json"
    cfg.write_text(json.dumps({
        "family": "saedf",
        "name": "lam",
        "master_seed": 3,
        "utilizations": ["0.5"],
        "weights": [0, 2],
        "sets_per_point": 3,
        "n": 4,
    }))
    assert main(["lambda-sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "sweep_lam_3.csv").read_text()
    assert "best" in text
    assert text.splitlines()[0].startswith("deadline_factor,utilization,family")


def test_sweep_infeasible_utilization_exits_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(generator, "_MAX_REDRAWS", 5)
    cfg = tmp_path / "full.json"
    cfg.write_text(json.dumps({"utilizations": ["2"], "sets_per_point": 1, "n": 2}))
    assert main(["sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 2
    assert "error: gave up after 6 utilization redraws" in capsys.readouterr().err


def test_sweep_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [{"lo": 5}, {"lo": 5, "hi": 50}, [5, 50, 5]])
def test_sweep_incomplete_utilization_grid_exits_two(tmp_path, capsys, grid):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"utilization_pct": grid, "sets_per_point": 1}))
    assert main(["sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 2
    assert "error: utilization_pct needs" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"policies": [{"policy": "eqdf", "lambda": "w"}]},
    {"utilizations": ["w"]},
    {"deadline_factors": ["w"]},
    {"eta": "w"},
], ids=["lambda", "utilizations", "deadline_factors", "eta"])
def test_sweep_non_rational_config_value_exits_two(tmp_path, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sets_per_point": 1, **config}))
    assert main(["sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 2
    assert "error: not a rational number: 'w'" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("sweep", [{"n": 4}], "a sweep config must be a JSON object"),
    ("lambda-sweep", [], "a sweep config must be a JSON object"),
    ("sweep", {"policies": ["edf"]}, "a policy entry must be an object"),
    ("sweep", {"policies": {"policy": "edf"}}, "policies must be a list"),
    ("sweep", {"sets_per_point": 0}, "sets_per_point must be an integer >= 1, got 0"),
    ("lambda-sweep", {"sets_per_point": -1}, "sets_per_point must be an integer >= 1"),
    ("sweep", {"period_range": 5}, "period_range must be a list, got 5"),
    ("sweep", {"period_range": [1, "a"]}, "period_range needs two numbers"),
    ("sweep", {"deadline_factors": 2}, "deadline_factors must be a list, got 2"),
    ("sweep", {"utilizations": 0.5}, "utilizations must be a list"),
    ("lambda-sweep", {"n": None}, "n must be an integer >= 1, got None"),
    ("sweep", {"depth": None}, "depth must be an integer, got None"),
    ("lambda-sweep", {"weights": [0.5]}, "weight must be an integer, got 0.5"),
    ("lambda-sweep", {"weights": []}, "weights must not be empty"),
    ("sweep", {"policies": [{"policy": "edf"}, {"policy": "edf", "test": "variable"}]},
     "repeated policy label in ['edf', 'edf']"),
    ("lambda-sweep", {"weights": [1, 1]}, "repeated weight in [1, 1]"),
    ("sweep", {"policies": [{"policy": "eqdf"}]}, "policy eqdf requires a weight"),
    ("sweep", {"utilizations": []}, "a campaign needs a utilization and a deadline factor"),
    ("lambda-sweep", {"deadline_factors": []},
     "a campaign needs a utilization and a deadline factor"),
    ("sweep", {"policies": [{"policy": "edf", "lambda": "2"}]},
     "policy edf takes no weight, got 2"),
    ("sweep", {"utilization": ["0.5"]}, "unknown sweep config field 'utilization'; known: "),
    ("lambda-sweep", {"policies": []}, "unknown sweep config field 'policies'"),
    ("sweep", {"family": "eqdf"}, "unknown sweep config field 'family'"),
    ("sweep", {"policies": [{"policy": "edf", "tset": "variable"}]},
     "unknown policy entry field 'tset'; known: policy, lambda, label, test"),
    ("sweep", {"policies": [{"policy": "edf", "label": ["x"]}]},
     "a policy label must be a string, got ['x']"),
    ("lambda-sweep", {"test": "baseline"},
     "a weight sweep runs the fixed or variable test, got 'baseline'"),
], ids=["array", "lambda-array", "policy-string", "policies-object", "sets-zero",
        "sets-negative", "period-number", "period-text", "factors-number",
        "utilizations-number", "n-null", "depth-null", "weight-fraction", "weights-empty",
        "label-repeated", "weight-repeated", "lambda-missing", "utilizations-empty",
        "factors-empty", "edf-lambda", "unknown-utilization", "unknown-lambda-policies",
        "unknown-sweep-family", "unknown-entry-tset", "label-list", "lambda-baseline"])
def test_sweep_malformed_config_exits_two(tmp_path, capsys, command, config, message):
    if isinstance(config, dict):
        config = {"utilizations": ["0.5"], "sets_per_point": 1, "n": 3, **config}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "-o", str(tmp_path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# JSON text as written: 1e309 parses as inf, and NaN and Infinity are
# extensions Python's json reads
@pytest.mark.parametrize("periods, shown", [
    ("[1, Infinity]", "(1, inf)"),
    ("[1e308, 1e309]", "(1e+308, inf)"),
    ("[NaN, 10]", "(nan, 10)"),
], ids=["infinity", "overflow", "nan"])
def test_sweep_non_finite_period_range_exits_two(tmp_path, capsys, periods, shown):
    cfg = tmp_path / "periods.json"
    cfg.write_text('{"period_range": %s, "utilizations": ["0.5"], "sets_per_point": 1, "n": 3}'
                   % periods)
    assert main(["sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 2
    assert f"error: bad period range {shown}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, config, sweep", [
    ("sweep", experiments.SweepConfig, experiments.acceptance_sweep),
    ("lambda-sweep", experiments.LambdaSweepConfig, experiments.lambda_sweep),
], ids=["sweep", "lambda-sweep"])
def test_sweep_omitted_fields_take_library_defaults(tmp_path, capsys, command, config, sweep):
    given = {"utilizations": ["0.5"], "sets_per_point": 2, "n": 3}
    cfg = tmp_path / "min.json"
    cfg.write_text(json.dumps(given))
    assert main([command, "--config", str(cfg), "-o", str(tmp_path)]) == 0
    written = Path(capsys.readouterr().out.strip())
    expected = config(utilizations=(Fraction(1, 2),), sets_per_point=2, n=3)
    assert written == experiments.sweep_csv_path(tmp_path, expected.name, 0)
    library = tmp_path / "library.csv"
    experiments.write_rows_csv(library, sweep(expected, workers=1))
    assert written.read_bytes() == library.read_bytes()


@pytest.mark.parametrize("command", ["sweep", "lambda-sweep"])
@pytest.mark.parametrize("name", [["x"], "", "a/b", "a\\b", 3, None])
def test_sweep_name_must_be_a_plain_file_name_part(tmp_path, capsys, command, name):
    # the name goes into the CSV file name: a list once wrote sweep_['x']_0.csv
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps({"name": name, "utilizations": ["0.5"], "sets_per_point": 1, "n": 3}))
    assert main([command, "--config", str(cfg), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: a sweep name must be a non-empty string with no path separator, got {name!r}" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_dm_policy_matches_tfp_on_synthesized_sets(tmp_path, capsys):
    # synthesized sets are deadline-sorted, so deadline-monotonic points
    # are the list-order (tfp) points
    texts = []
    for policy in ("dm", "tfp"):
        outdir = tmp_path / policy
        outdir.mkdir()
        cfg = tmp_path / f"{policy}.json"
        cfg.write_text(json.dumps({
            "name": "fp",
            "master_seed": 4,
            "utilizations": ["0.2", "0.4", "0.6"],
            "deadline_factors": ["1", "1.5"],
            "sets_per_point": 4,
            "n": 6,
            "policies": [{"policy": policy, "label": f"fp-{test}", "test": test}
                         for test in ("fixed", "variable")],
        }))
        assert main(["sweep", "--config", str(cfg), "-o", str(outdir)]) == 0
        texts.append((outdir / "sweep_fp_4.csv").read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]


# --- the policy rule: flags and sweep entries ----------------------------------------


def _run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its exit code, stdout and stderr; argparse's own
    refusals (SystemExit) count as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_refused(code: int, err: str) -> None:
    assert code == 2, err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, label", [
    (["--policy", "eqdf", "--lambda", "-1/2"], "eqdf[-1/2]"),
    (["--policy", "eqdf", "--lambda", "-2"], "eqdf[-2]"),
    (["--policy", "eqdf", "--lambda=-1/2"], "eqdf[-1/2]"),
    (["--policy", "saedf", "--lambda", "-.5"], "saedf[-1/2]"),
    (["--policy", "explicit", "--pp", "-1,20"], "explicit[-1,20]"),
], ids=["fraction", "integer", "equals", "decimal", "points"])
def test_negative_policy_values_parse_in_both_forms(worked_file, flags, label):
    # argparse alone reads `-1/2` after `--lambda` as an option and exits 2
    code, out, err = _run(["analyze", str(worked_file), *flags])
    assert code in (0, 1), err
    assert f"({label}, fixed window, passes:" in out.splitlines()[0]
    code, out, err = _run(["simulate", str(worked_file), *flags, "--horizon", "40"])
    assert code == 0, err
    assert out.startswith(f"{label}: horizon 40,")


def test_a_missing_lambda_value_is_still_refused(worked_file):
    for argv in (["--lambda"], ["--lambda", "--csv"], ["--lambda", "-x"], ["--lambda", "-"]):
        code, _, err = _run(["analyze", str(worked_file), "--policy", "eqdf", *argv])
        _assert_refused(code, err)


def test_policy_flags_exit_two_or_print_the_policy_label(worked_file):
    # the flags are refused exactly when their parse, PriorityPolicy or the
    # point count refuses them; otherwise the printed label is the policy's
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ts = load_taskset(worked_file)
    lambdas = st.one_of(st.none(), st.fractions(max_denominator=4).map(str), st.text(max_size=4))
    pps = st.one_of(
        st.none(),
        st.lists(st.integers(-40, 40), min_size=1, max_size=3).map(
            lambda ps: ",".join(map(str, ps))),
        st.text(max_size=6),
    )

    def expected_label(kind: str, lam: str | None, pp: str | None) -> str | None:
        try:
            weight = None if lam is None else Fraction(lam)
            points = None if pp is None else tuple(int(p) for p in pp.split(","))
            policy = PriorityPolicy(kind, weight, points)
            derive_priority_points(ts, policy)
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
            return None
        return policy.label()

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(["analyze", "analyze-csv", "simulate"]),
                      st.sampled_from(POLICY_KINDS), lambdas, pps)
    @hypothesis.example("analyze", "eqdf", "1/0", None)
    @hypothesis.example("analyze", "eqdf", "0/0", None)
    def check(command, kind, lam, pp):
        argv = [command.split("-")[0], str(worked_file), "--policy", kind]
        argv += [] if lam is None else [f"--lambda={lam}"]
        argv += [] if pp is None else [f"--pp={pp}"]
        argv += {"analyze": [], "analyze-csv": ["--csv"], "simulate": ["--horizon", "40"]}[command]
        code, out, err = _run(argv)
        label = expected_label(kind, lam, pp)
        if label is None:
            _assert_refused(code, err)
        elif command == "analyze":
            assert code in (0, 1), err
            assert f"({label}, fixed window, passes:" in out.splitlines()[0]
        elif command == "analyze-csv":
            assert code in (0, 1), err
            assert list(csv.reader(io.StringIO(out)))[1][1] == label
        else:
            assert code == 0, err
            assert out.startswith(f"{label}: horizon 40,")

    check()


def test_sweep_policy_entries_exit_two_or_write_their_label():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fixed_dictionaries({}, optional={
        "policy": st.sampled_from([*POLICY_KINDS, "EDF", "", 3, None]),
        "lambda": st.sampled_from(["2", "-1/2", 1, 0.5, "w", None, [1]]),
        "label": st.sampled_from(["mine", "", ["x"], 5, {"a": 1}]),
        "test": st.sampled_from([*analysis.TESTS, "exact", ["fixed"]]),
        "tset": st.sampled_from(["variable"]),
    })

    def expected_label(entry: dict) -> str | None:
        if not set(entry) <= {"policy", "lambda", "label", "test"}:
            return None
        try:
            weight = Fraction(str(entry["lambda"])) if "lambda" in entry else None
            policy = PriorityPolicy(entry.get("policy", "edf"), weight)
        except ValueError:
            return None
        label = entry.get("label", policy.label())
        ok = isinstance(label, str) and entry.get("test", "fixed") in analysis.TESTS
        return label if ok else None

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(entries)
    def check(entry):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "entry.json"
            cfg.write_text(json.dumps({"utilizations": ["0.5"], "sets_per_point": 1, "n": 2,
                                       "policies": [entry]}))
            code, out, err = _run(["sweep", "--config", str(cfg), "-o", tmp])
            label = expected_label(entry)
            if label is None:
                _assert_refused(code, err)
                assert not list(Path(tmp).glob("*.csv"))
            else:
                assert code == 0, err
                rows = list(csv.DictReader(io.StringIO(Path(out.strip()).read_text())))
                assert [r["policy"] for r in rows] == [label]

    check()


@pytest.mark.parametrize("extra", [
    ["--policy", "edf", "--lambda", "2"],
    ["--policy", "explicit", "--pp", "4,10", "--lambda", "3"],
    ["--policy", "edf", "--pp", "4,10"],
    ["--policy", "tfp", "--lambda", "0"],
], ids=["edf-lambda", "explicit-lambda", "edf-pp", "tfp-lambda-zero"])
def test_parameter_the_policy_does_not_take_exits_two(worked_file, capsys, extra):
    # these ran the bare policy with exit 0 while the CLI kept its own rule
    assert main(["analyze", str(worked_file), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: policy {extra[1]} takes no ")


def test_unlabeled_weighted_entries_are_labeled_by_their_weight(tmp_path, capsys):
    # both entries were labeled "eqdf" and refused as a repeated label
    cfg = tmp_path / "eqdf.json"
    cfg.write_text(json.dumps({
        "utilizations": ["0.5"], "sets_per_point": 2, "n": 3,
        "policies": [{"policy": "eqdf", "lambda": "1"}, {"policy": "eqdf", "lambda": "2"}],
    }))
    assert main(["sweep", "--config", str(cfg), "-o", str(tmp_path)]) == 0
    written = Path(capsys.readouterr().out.strip())
    rows = csv.DictReader(io.StringIO(written.read_text()))
    assert [r["policy"] for r in rows] == ["eqdf[1]", "eqdf[2]"]


def test_analyze_csv_quotes_an_explicit_label(ref_file, capsys):
    assert main(["analyze", str(ref_file), "--policy", "explicit", "--pp", "4,10",
                 "--csv", "--id", "r"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == 'r,"explicit[4,10]",0,2,5,15'


# --- verify & bench ---------------------------------------------------------------


def test_verify_soundness_smoke(capsys):
    assert main(["verify", "soundness", "--budget", "6", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "6 sets" in out
    assert "0 deadline misses" in out


@pytest.mark.parametrize("argv, summary", [
    (["soundness", "--budget", "12", "--seed", "5"], "12 sets, 8 accepted, 160 simulations"),
    (["tfp-equivalence", "--budget", "20", "--seed", "1"], "2 certified sets of 2 tried"),
    (["fixed-vs-variable", "--budget", "20", "--seed", "7"], "20 deadline-equals-period sets"),
    (["non-dominance", "--budget", "150", "--seed", "0"], "checked 101 sets"),
], ids=["soundness", "tfp-equivalence", "fixed-vs-variable", "non-dominance"])
def test_verify_output_independent_of_workers(capsys, monkeypatch, argv, summary):
    monkeypatch.setenv("EL_SCHED_THREADS", "1")
    code = main(["verify", *argv])
    serial = capsys.readouterr().out
    monkeypatch.setenv("EL_SCHED_THREADS", "2")
    monkeypatch.setattr(experiments, "_POOL_MIN_JOBS", 0)  # force the pool
    assert main(["verify", *argv]) == code == 0
    assert capsys.readouterr().out == serial
    assert serial.startswith(summary)


@pytest.mark.parametrize("campaign", ["soundness", "tfp-equivalence",
                                      "fixed-vs-variable", "non-dominance"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_budget_below_one_exits_two(capsys, campaign, budget):
    assert main(["verify", campaign, "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert "error: --budget must be at least 1" in captured.err
    assert captured.out == ""


def test_verify_fixed_vs_variable_smoke(capsys):
    assert main(["verify", "fixed-vs-variable", "--budget", "20", "--seed", "7"]) == 0
    assert "0 disagreements" in capsys.readouterr().out


def test_verify_tfp_equivalence_smoke(capsys):
    assert main(["verify", "tfp-equivalence", "--budget", "20", "--seed", "1"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_non_dominance_smoke(capsys):
    assert main(["verify", "non-dominance", "--budget", "150", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "fixed-only: seed" in out
    assert "variable-only: seed" in out


def test_bench_smoke(capsys):
    assert main(["bench", "--n-list", "2,4", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,sets,mean_s,max_s"
    assert len(lines) == 3


# --- help text ---------------------------------------------------------------------


def test_help_documents_analysis_defaults():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    help_text = sub.choices["analyze"].format_help()
    assert "0.01" in help_text
    assert "default: 5" in help_text
    assert "default: 10" in help_text


def test_every_subcommand_has_help():
    parser = build_parser()
    sub = parser._subparsers._group_actions[0]
    assert set(sub.choices) == {
        "generate", "analyze", "simulate", "sweep",
        "lambda-sweep", "verify", "bench",
    }
    for name, p in sub.choices.items():
        assert p.format_help(), name
