"""The benchmark's own output checks, at its tiny sizes.

Each workload of ``BENCHMARK.json`` checks every answer it times (``classify``
against the Cayley-graph oracle and the recorded class counts, among
others) and reports ``correct`` and ``failed`` on the last line of its
output.  One tiny run per workload puts those checks in the test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", "1", "--seconds", "0", "--tiny", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
