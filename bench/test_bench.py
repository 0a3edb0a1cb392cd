"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
from calibrate import REFERENCE_S, Calibration

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))

SMALL = {
    "params": dataclasses.replace(
        run.WORKLOADS["params-100"], subjects=60, cohorts=2, warmup_subjects=60,
        min_skeleton_f1=0.3,
    ),
    "signals": dataclasses.replace(
        run.WORKLOADS["signals-300s"], duration_s=40.0, warmup_duration_s=40.0,
    ),
}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_and_bounds():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("kind", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(kind, trace):
    result, _ = run.measure(f"test-{kind}", SMALL[kind], seed=3, seconds=0.0, trace=trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize(
    "kind, wrong",
    [("params", {"min_skeleton_f1": 1.01}), ("signals", {"max_resp_rate_err_bpm": -1.0})],
)
def test_gate_fails_on_a_wrong_expected_value(kind, wrong):
    w = dataclasses.replace(SMALL[kind], **wrong)
    result, lines = run.measure(f"test-{kind}", w, seed=3, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert any(line.startswith("gate: ") for line in lines)


def test_calibration_samples_inside_the_interval():
    cal = Calibration()
    with cal.interval():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    # The kernel ran about three times from the alarm; its time is taken
    # out of the interval, and the alarm is off again afterwards.
    assert 0.2 < cal.raw[0] < 0.35
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert cal.scaled() == [cal.raw[0] * REFERENCE_S / cal.kernel_medians[0]]


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "params-100", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
