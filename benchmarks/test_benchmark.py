"""Tests of the benchmark itself, on shrunken data (`workloads.SMOKE`).

Run from the root of the repository:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from airl import evaluation, runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """measured(workload, trace, repeat=0) -> report, cached per module.

    Runs share one working directory, and so one relative output root, so
    that trajectories compare."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("bench"))
    cache: dict = {}

    def measure(workload: str, trace: bool, repeat: int = 0) -> dict:
        key = (workload, trace, repeat)
        if key not in cache:
            cache[key] = harness.measure(workload, SEED, 0, trace,
                                         sizing=workloads.SMOKE)
        return cache[key]

    yield measure
    os.chdir(cwd)


def test_spec_matches_the_code_and_names_are_well_formed():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert e2e == list(harness.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers == list(tracing.PER_LAYER)
    names = [n for n, _ in e2e] + [n for n, _, _ in layers] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(measured, workload):
    report = measured(workload, False)
    result = report["result"]
    assert result["correct"], report["info"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    info = report["info"]
    assert info["step_samples"] >= 2
    assert info["also"]["ops_failed_share"]["value"] == 0.0
    for name in ("run_s", "step_ms.p50", "train_images_per_s", "probe_s"):
        assert info["also"][name]["value"] > 0, name
    assert ("rescue_s" in info["also"]) == (workload == "rescue_eval")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(measured, workload):
    result = measured(workload, True)["result"]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["numerics.matmul.calls"] > 0
    assert metrics["trace.spans"] > 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(measured, workload):
    first = measured(workload, True)["result"]["metrics"]
    second = measured(workload, True, repeat=1)["result"]["metrics"]
    for name in tracing.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_sum_to_at_most_the_traced_run(measured, workload):
    metrics = measured(workload, True)["result"]["metrics"]
    # numerics.matmul.self_s is the sum of its per-caller rows.
    self_s = sum(m["value"] for name, m in metrics.items()
                 if name.endswith(".self_s")
                 and name != "numerics.matmul.self_s")
    assert 0 < self_s <= metrics["trace.run_s"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_the_trajectory_unchanged(measured, workload):
    plain = measured(workload, False)["info"]["trajectory_sha256"]
    traced = measured(workload, True)["info"]["trajectory_sha256"]
    assert plain == traced


def test_missing_wrap_site_fails_loudly(monkeypatch):
    monkeypatch.delattr(runner, "two_views")
    patches = tracing.Patches()
    try:
        with pytest.raises(tracing.WrapSiteMissing, match="two_views"):
            tracing.Tracer().install(patches)
    finally:
        patches.restore()


def test_failed_check_makes_the_run_incorrect(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(evaluation, "linear_probe",
                        lambda *args, **kwargs: (0.0, None))
    report = harness.measure("study_mix", SEED, 0, False,
                             sizing=workloads.SMOKE)
    assert not report["result"]["correct"]
    assert report["result"]["failed"] == len(workloads.STUDY_KINDS)
    assert "not above chance" in report["info"]["check_failures"][0]


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "study_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
