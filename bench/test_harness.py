"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 -m pytest bench/test_harness.py

It runs ``bench/run.py`` end to end with ``--scale tiny`` and checks the
result line against ``BENCHMARK.json``; it does not time anything.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))


def bench(*args, root=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
        env=env,
    )


def tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_injected_exception_is_a_failed_operation(monkeypatch):
    import workloads
    from fflab import experiments

    def broken(params, seed):
        raise RuntimeError("injected")

    clean = workloads.run_pass("capacity", 0, "tiny")
    assert clean["failed"] == 0
    monkeypatch.setitem(experiments.EXPERIMENTS, "FROSTMAN", broken)
    result = workloads.run_pass("capacity", 0, "tiny")
    assert result["failed"] == 1
    assert result["attempted"] == clean["attempted"]  # c12's one check became the failure
    assert "injected" in result["failures"][0]
    failed_ratio = result["failed"] / result["attempted"]
    assert failed_ratio > 0


def test_refuses_lab_threads_above_nproc():
    env = dict(os.environ, LAB_THREADS=str((os.cpu_count() or 1) + 1))
    proc = bench("--workload", "capacity", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--scale", "tiny", env=env)
    assert proc.returncode != 0 and not proc.stdout.strip()
    assert "LAB_THREADS" in proc.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "capacity", "--seed", "0", "--seconds", "1", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()
