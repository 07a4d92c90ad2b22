"""Tests of the benchmark itself, on tiny workloads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "scalar-sweep": run.SuiteWorkload(
        ["--families", "scalar,comparison", "--trials", "3", "--grid-points", "3"],
        rows=35, trial_rows=18, requests=2),
    "operator-sweep": run.SuiteWorkload(
        ["--families", "operator", "--dims", "1,2", "--cond-max", "1e4", "--trials", "2"],
        rows=8, trial_rows=8, requests=2),
    "operator-large": run.LargeWorkload(dims=(3, 3, 4), requests=3),
}


def _run(name, trace):
    return run.run(name, seed=3, seconds=0.01, trace=trace, workloads=TINY, setup_slots=1)


def _units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_runnable_workloads():
    assert list(run.WORKLOADS) == list(TINY)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_prints_every_end_to_end_metric(name, capsys):
    result = _run(name, trace=False)
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_ratio=0.0" in out and "verdict_digest=" in out and "env: " in out
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_metric(name):
    result = _run(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == _units("per_layer")
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    matrix_layers = [k for k in values if k.startswith(("matrices.", "operators."))]
    scalar_layers = [k for k in values if k.startswith(("rng.", "scalar."))]
    if name == "scalar-sweep":
        assert all(values[k] == 0 for k in matrix_layers)
        assert values["rng.draws"] > 0 and values["scalar.evals"] > 0
    else:
        assert values["matrices.eigh_calls"] > 0 and values["operators.evals"] > 0
    if name == "operator-large":
        assert all(values[k] == 0 for k in scalar_layers)
        assert values["harness.self_s"] == 0 and values["cli.self_s"] == 0
        assert values["matrices.eigh_per_op"] == 4.0 and values["matrices.load_s"] > 0
    if name == "operator-sweep":
        assert values["harness.random_spd_calls"] == 2 * values["operators.evals"]


def _module_names():
    from meanbound import cli, harness, matrices, operators, reporting, rng, scalar

    return {module: dict(vars(module))
            for module in (cli, harness, matrices, operators, reporting, rng, scalar)}


def test_traced_run_restores_every_wrapped_name():
    before = _module_names()
    _run("operator-sweep", trace=True)
    _run("operator-large", trace=True)
    after = _module_names()
    for module, names in before.items():
        assert after[module].keys() == names.keys()
        assert all(after[module][key] is value for key, value in names.items()), module


def test_restore_binds_each_original_again():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        bindings = tracer.bindings()
        assert len(bindings) >= 12
        assert all(getattr(ns, name) is not original for ns, name, original in bindings)
    finally:
        tracer.restore()
    assert all(getattr(ns, name) is original for ns, name, original in bindings)


def test_self_time_subtracts_child_spans():
    spans = [("cli.main", 0.0, 10.0, -1, 0), ("harness.run_all", 1.0, 9.0, 0, 0),
             ("scalar.evaluate", 2.0, 5.0, 1, 0), ("rng.draw", 6.0, 7.0, 1, 0)]
    layers = tracing.layer_metrics(spans, tracing.Counter())
    assert layers["cli.self_s"] == 2.0 and layers["harness.self_s"] == 4.0
    assert layers["scalar.self_s"] == 3.0 and layers["rng.self_s"] == 1.0
    assert layers["scalar.evals"] == 1 and layers["rng.draws"] == 1


def test_operator_windows_match_the_library():
    from meanbound import scalar

    dyadic = {"i": scalar.window_dyadic_high, "ii": scalar.window_dyadic_low}
    one_sided = {"i": scalar.window_sc_low, "ii": scalar.window_sc_high}
    for family in run.OPERATOR_FAMILIES:
        windows = dyadic if family in ("theorem_t6", "corollary_c3") else one_sided
        for branch, window in windows.items():
            for n in range(run.MIN_DEPTH[family], 7):
                assert run._window(family, branch, n) == tuple(window(n))


def test_timings_are_scaled_to_the_reference_speed(monkeypatch, capsys):
    monkeypatch.setattr(run, "calibrate", lambda: 2.0 * run.REFERENCE_CALIBRATION_S)
    result = _run("operator-large", trace=False)
    line = capsys.readouterr().out.split("wall clock: ", 1)[1].splitlines()[0]
    wall = json.loads(line)
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    for name in ("check_p50_ms", "check_tail_ms", "setup_s"):
        assert values[name] == pytest.approx(wall[name] / 2.0)
    assert values["trials_per_s"] == pytest.approx(2.0 * wall["trials_per_s"])


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(40)), 40) == (29, 75.0, 10)
    assert run.tail(list(range(80)), 40) == (59, 75.0, 20)
    assert run.tail([3, 1, 2], 3) == (3, 100.0, 0)


def test_refuses_seed_override(monkeypatch):
    monkeypatch.setenv(run.SEED_ENV, "7")
    with pytest.raises(run.BenchError):
        _run("scalar-sweep", trace=False)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scalar-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
