"""The benchmark's workloads run to completion and check their outputs.

Runs ``perfbench/run.py`` once per workload, untraced and traced, with no
time budget (every instance gets one turn) and reads its closing JSON
line. No timing is asserted, so the test cannot flake on a slow host.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_checked(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0
    return summary["metrics"]


@pytest.mark.parametrize("workload", ["fit", "flow", "analyze"])
def test_workload_runs_correct(workload):
    _run_checked(workload, "0")


@pytest.mark.parametrize("workload", ["fit", "flow", "analyze"])
def test_workload_runs_traced(workload):
    # --trace 1 wraps library entry points, the tape's among them. The
    # tracer skips a function or method that is gone, so this run fails
    # only when a module or class it looks up is gone; for the tape, that
    # is metricmesh.autodiff and its Tape and TapeProgram classes.
    metrics = _run_checked(workload, "1")
    if workload == "flow":
        # Counts are deterministic per seed. Cyclic projection failed 74
        # line-search repairs here; the over-relaxed repair fails none.
        assert metrics["optimize.repair_failures"]["value"] == 0
        # A trial step sized to the gradient, then Barzilai-Borwein, is
        # accepted at its first try in 96 of 98 candidates; doubling an
        # absolute first step of 1e-2 was accepted in 96 of 224.
        assert metrics["optimize.accept_ratio"]["value"] >= 0.9
