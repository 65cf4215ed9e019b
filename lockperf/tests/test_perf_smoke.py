"""Smoke test: one short tcp-solo run through the benchmark's entry point.

TCP clients are forkserver processes that re-import the parent's main
module; this fails with "client process produced no result" if the entry
point is not guarded or lockbench is not importable there.
"""

import json
import os
import shutil
import subprocess
import sys

from lockperf import report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_tcp_solo_through_the_entry_point():
    proc = subprocess.run(
        [sys.executable, "lockperf/run.py", "--workload", "tcp-solo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % (3 * 3000) == 0
    assert sorted(result["metrics"]) == sorted(report.metric_names(False))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_lockbench_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "lockperf"), tmp_path / "lockperf")
    proc = subprocess.run(
        [sys.executable, "lockperf/run.py", "--workload", "tcp-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
