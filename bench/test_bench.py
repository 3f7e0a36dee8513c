"""Tests of the benchmark itself: ``python3 -m pytest bench``.

Runs use ``--size tiny`` batches; the whole module takes under a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170,
                          env=env)


def _tiny(workload, trace, *extra):
    return _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny", *extra)


def test_spec_lists_the_metrics_the_benchmark_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    assert "  failed_fraction = 0 1" in lines
    assert any(line.startswith("  provenance ") for line in lines)


def test_gate_fails_on_a_perturbed_reference(tmp_path):
    recorded = json.loads((BENCH / "reference.json").read_text())
    recorded["mc-replacement"]["mean_drift"] *= 1 + 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(recorded))
    proc = _tiny("mc-replacement", 0, "--reference", str(path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert any(line.startswith("  check reference: FAIL mean_drift")
               for line in proc.stdout.splitlines())


@pytest.mark.parametrize("rel, admitted", [(1e-14, True), (1e-6, False)])
def test_reference_tolerance_admits_only_last_bit_drift(rel, admitted):
    recorded = json.loads((BENCH / "reference.json").read_text())["mc-wide-window-files"]
    observed = {"failed": 0, "errors": [], "mean_drift": recorded["mean_drift"],
                "detection_fraction": recorded["detection_fraction"],
                "per_seed": [v * (1 + rel) for v in recorded["per_seed"]]}
    assert (run.check_reference(observed, recorded) == []) is admitted


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_leaves_per_seed_results_bit_identical(workload, tmp_path):
    w = WORKLOADS[workload]
    outputs = tmp_path / "out" if w.writes_files else None
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario(workload, base=77, seeds=w.tiny_seeds,
                                        horizon=w.tiny_horizon,
                                        outputs=str(outputs) if outputs else None)))

    def one_batch():
        if outputs is not None and outputs.exists():
            shutil.rmtree(outputs)
        s = worker.load(w.kind, path)
        _, _, result, error = worker.run_batch(w.kind, s)
        return worker.outcome(w.kind, s, result, error, outputs)

    plain = one_batch()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_batch()
    finally:
        tracer.uninstall()
    assert tracer.span_count > 0
    assert traced["per_seed"] == plain["per_seed"]
    assert traced["digest"] == plain["digest"]
    assert traced["failed"] == plain["failed"] == 0


def test_refuses_to_run_when_the_seed_environment_variable_is_set():
    proc = _bench("--workload", "mc-replacement", "--seed", "1", "--seconds", "1",
                  env=dict(os.environ, CPS_SENTINEL_SEED="5"))
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mc-replacement", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
