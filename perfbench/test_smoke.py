"""Tiny-size smoke test of the benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.  Every
workload runs on a few thousand points for a fraction of a second, untraced
and traced, through the same entry point the full benchmark uses.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import clock, run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "selfjoin_lowdim": (workloads.run_selfjoin,
                        workloads.SelfJoinConfig(3_000, 3, 0.05)),
    "selfjoin_highdim": (workloads.run_selfjoin,
                         workloads.SelfJoinConfig(300, 6, 0.3)),
    "service_points": (workloads.run_service, workloads.ServiceConfig(
        n_points=2_000, rate_ops_s=40.0, setup_repeats=2)),
    "selfjoin_distributed": (workloads.run_distributed,
                             workloads.DistributedConfig(
                                 n_points=3_000, setup_repeats=2)),
}


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run ``perfbench/run.py`` in-process on the tiny workloads."""
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))

    def invoke(workload: str, trace: int = 0) -> tuple[dict, dict]:
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0.4", "--trace", str(trace)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2])["report"]

    return invoke


def test_spec_names_the_shipped_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(bench, workload, trace):
    result, report = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    assert report["failed_frac"] == 0.0
    assert {"nproc", "cpu_model", "python", "numpy", "kernel_tier",
            "git_commit"} <= set(report["host"])
    if trace:
        assert (ROOT / report["trace_file"]).is_file()


def test_a_corrupted_answer_lands_in_failed_frac(bench, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import repro.engine

    real = repro.engine.run_query
    calls = []

    def corrupting(query, **kwargs):
        result = real(query, **kwargs)
        calls.append(query)
        if len(calls) == 2:  # the first timed op, after the set-up op
            table = result.neighbor_table
            neighbors = table.neighbors.copy()
            neighbors[0] = (neighbors[0] + 1) % table.num_points
            result._table = dataclasses.replace(table, neighbors=neighbors)
        return result

    monkeypatch.setattr(repro.engine, "run_query", corrupting)
    result, report = bench("selfjoin_highdim")
    assert not result["correct"]
    assert result["failed"] == 1
    assert report["failed_frac"] == pytest.approx(1 / result["attempted"])


def test_cpu_clock_counts_another_process():
    child = subprocess.Popen([sys.executable, "-c",
                              "sum(range(10**7)); import time; time.sleep(60)"])
    try:
        before = clock.cpu_s()
        deadline = time.monotonic() + 30
        while clock.cpu_s([child.pid]) - before < 0.05:
            assert time.monotonic() < deadline, "child CPU time never showed"
            time.sleep(0.05)
    finally:
        child.kill()
        child.wait()


def test_scaled_time_is_proportional_to_cpu_time():
    reference = clock.Reference()
    scaled = reference.scale(2.0)
    assert scaled == pytest.approx(
        2.0 * clock.REFERENCE_S / reference.samples[-1])


def test_runs_refuse_a_tree_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "selfjoin_lowdim", "--seed", "1",
                     "--seconds", "1"]) != 0
