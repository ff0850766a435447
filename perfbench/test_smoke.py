"""Smoke tests for the benchmark itself, at a tiny scale.

Run with ``python -m pytest perfbench -q`` from the repository root.
Each workload runs once per mode and must emit every metric
``BENCHMARK.json`` lists for that mode, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_catalog_covers_every_metric():
    assert set(catalog.PER_LAYER_MOVES) == {m["name"] for m in SPEC["per_layer"]}
    assert set(catalog.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    assert not set(catalog.WORKLOAD_ONLY) & set(catalog.END_TO_END)
    moved = {w for pairs in catalog.PER_LAYER_MOVES.values() for _, w in pairs}
    assert moved <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_readback_mismatch_is_caught(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    from repro.harness.cache import ResultCache

    load = ResultCache.load

    def tampered(self, key):
        report = load(self, key)
        if report is not None:
            report.total_instructions += 1
        return report

    monkeypatch.setattr(ResultCache, "load", tampered)
    run = workloads.Run(
        root=ROOT, work=tmp_path, seed=3, scale=0.05, seconds=0.1,
        trace=False,
    )
    workloads.warm_readback(run)
    assert run.mismatches and run.failed >= len(run.mismatches)
