"""Smoke test of the benchmark itself, at a tiny input size.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as _handle:
    LAYERS = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, *extra: str, seed: int = 5, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_every_per_layer_metric_has_a_source_and_a_target():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYERS)
    for spec in LAYERS.values():
        assert spec["moves"] and spec["source"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, _ = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_tampered_release_counts_as_failed():
    result, lines = run_bench("publish", 0, "--tamper")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("ReleaseIntegrityError" in line for line in lines)


def test_sweep_ndcg_is_bit_identical_across_runs():
    digests = []
    for _ in range(2):
        _, lines = run_bench("sweep", 0, seed=9)
        digests.append([line for line in lines if line.startswith("ndcg-digest:")])
    assert digests[0] and digests[0] == digests[1]


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "publish", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
