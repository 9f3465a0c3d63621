"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from survix import interactions
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_known_workloads():
    # wide_exact_p12 runs on request but is not in the spec (see README.md)
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in WORKLOADS if name != "wide_exact_p12"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    detail = harness.run_workload(name, seed=1, seconds=0, trace=bool(trace),
                                  size="tiny", out_dir=None)
    result = detail["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_every_op_is_bracketed_by_kernel_samples():
    wl = WORKLOADS["budgeted_p10"]("tiny")
    records, _, samples = harness.measure(wl, wl.setup(1), 0)
    assert len(samples) >= 2 and all(ns > 0 for ns in samples)
    for r in records:
        pair = samples[r.probe_index:r.probe_index + 2]
        assert r.ref_ns == sum(pair) / 2 and r.ref_units == r.ns / r.ref_ns


def test_traced_run_restores_the_library():
    original = interactions.explain
    harness.run_workload("budgeted_p10", seed=1, seconds=0, trace=True, size="tiny",
                         out_dir=None)
    assert interactions.explain is original


def _perturbed(fn):
    return lambda X, times: fn(X, times) * (1.0 + 1e-6)


@pytest.mark.parametrize("name", ["cohort_exact_p3", "wide_exact_p12", "budgeted_p10"])
def test_perturbed_predict_trips_the_checks(name):
    wl = WORKLOADS[name]("tiny")
    state = wl.setup(1)
    if isinstance(state["predict"], dict):
        state["predict"] = {k: _perturbed(f) for k, f in state["predict"].items()}
    else:
        state["predict"] = _perturbed(state["predict"])
    records = harness.run_cycle(wl, state, 0)
    failed = [r for r in records if r.problems]
    assert failed, "a perturbed model passed every output check"
    if name != "budgeted_p10":  # there only the regression ops check efficiency
        assert len(failed) == len(records)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "budgeted_p10", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
