"""Traced runs repeat their work counters exactly.

A traced run also checks its counts against ``workloads.TRACE_KNOWN`` and is
incorrect when they differ, so each run here checks those too.

    python3 -m pytest perfbench/test_perfbench.py

Slow: the paper case makes two traced passes of about a minute each on a
2-core CPython 3.11 machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=RUN.parent.parent,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["h1", "paper", "sweep"])
def test_counters_repeat(workload):
    assert _traced(workload, 3) == _traced(workload, 3)
