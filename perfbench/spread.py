#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and spread.

    python3 perfbench/spread.py --workload h1 --seeds 0-9 [--seconds 15]

Untraced runs, so the end-to-end metrics.  Spread is (Q3 - Q1) / median,
with quartiles from ``statistics.quantiles(values, n=4)``.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", help="'a-b' or 'a,b,c'")
    ap.add_argument("--seconds", default="15")
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={result['metrics'][k]['value']:.6g}" for k in list(result["metrics"])[:6]
        ), flush=True)

    print(f"{'metric':52} {'median':>14} {'spread':>8}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = f"{'-':>8}"
        print(f"{name:52} {med:14.6g} {spread}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
