#!/usr/bin/env python3
"""Benchmark of the schurmann exact verifier, measured from outside the package.

    python3 perfbench/run.py --workload {paper,sweep,h1} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  One
process, one thread.  The run goes through as many whole cycles of verdicts
as fit in ``--seconds`` of wall time, at least one, and checks every verdict
against its known answer.

``--trace 0`` reports the end-to-end metrics.  Verdicts are timed at
reference speed (``refspeed.timed``): wall time scaled by how fast a fixed
reference loop ran around and during each verdict, because the host's speed
drifts by a third within seconds.  ``verdict_s_p50`` and ``verdict_s_p90``
are taken over each task's median across the run's cycles.  ``setup_s`` is
the fastest wall time of SETUP_PROBES fresh processes, each timed from spawn
through ``import schurmann`` and building the first cycle's inputs.  The
report line also holds the plain wall-time median and throughput.

``--trace 1`` runs the cycles traced and reports the per-layer metrics of
one cycle, the scalar microbench and ``trace.overhead_s``: the spans of a
cycle times the cost one span adds to a call, measured in the same process
against the bare call.  The trace itself is checked against the workload's
``TRACE_KNOWN`` entry; a target that is missing, never reached or off its
known count makes the result incorrect.  Spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is the JSON result; the line before it
(``report ...``) holds the environment, counts, any failed verdicts and,
traced, any trace problems.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from refspeed import timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "sweep", "h1"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="import and build the first cycle's inputs, print 'ready', exit",
    )
    return ap.parse_args(argv)


def _import_package():
    if not (SRC / "schurmann" / "__init__.py").is_file():
        raise ImportError(f"no schurmann package under {SRC}")
    sys.path.insert(0, str(SRC))
    import schurmann  # noqa: F401


def _setup_seconds(args) -> float:
    """Fastest spawn-to-ready wall time of SETUP_PROBES ``--setup-only``
    processes.

    Wall time, not time at reference speed: start-up is spawning and
    importing, which the reference loop does not track.  The minimum, as in
    the scalar microbench: other load on the machine only ever adds to it.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            proc.stdout.read()
            code = proc.wait()
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return min(samples)


def _run_cycles(cycle, seconds: float, tracer=None):
    """Run as many whole cycles as fit in ``seconds``, at least one.

    Returns (verdicts as (task id, seconds at reference speed, wall seconds),
    failures as (task id, problem), cycles run).  Only ``task.run`` is timed;
    drawing inputs, collecting garbage before each verdict and checking the
    result are not.  Traced, both times are wall time (see ``timed``).
    """
    verdicts, failures = [], []
    start = perf_counter()
    k = 0
    while True:
        for task in cycle(k):
            if tracer is not None:
                tracer.verdict = task.id
            gc.collect()  # every verdict starts from a collected heap
            outcome, wall, at_reference = timed(task.run, against_reference=tracer is None)
            verdicts.append((task.id, at_reference, wall))
            if isinstance(outcome, Exception):  # a raising verdict is a failed verdict
                failures.append((task.id, f"raised {type(outcome).__name__}: {outcome}"))
                continue
            problem = task.check(outcome)
            if problem is not None:
                failures.append((task.id, problem))
        k += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return verdicts, failures, k


def _environment() -> dict:
    import schurmann.scalars as scalars

    backend = getattr(scalars, "Rational", None)
    digest = hashlib.sha256()
    for path in sorted((SRC / "schurmann").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scalar_backend": (
            f"{backend.__module__}.{backend.__qualname__}" if backend else None
        ),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _task_medians(verdicts, column: int) -> list[float]:
    """Each task's median time over the cycles of a run.

    Percentiles are taken over these, so a rank falls on one task's time
    rather than between two tasks' verdicts, which noise would reorder.
    """
    by_task = {}
    for verdict in verdicts:
        by_task.setdefault(verdict[0], []).append(verdict[column])
    return [statistics.median(times) for times in by_task.values()]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(args, cycle):
    setup_s = _setup_seconds(args)
    verdicts, failures, k = _run_cycles(cycle, args.seconds)
    per_task = _task_medians(verdicts, 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s_p50": (statistics.median(per_task), "s"),
        "verdict_s_p90": (_nearest_rank(per_task, 0.9), "s"),
        "verdicts_per_s": (len(verdicts) / sum(v[1] for v in verdicts), "1/s"),
        "pass_share": ((len(verdicts) - len(failures)) / len(verdicts), "share"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, verdicts, failures, k, {}, []


def _trace_problems(workload, tracer, metrics) -> list[str]:
    """Where the trace of one cycle departs from ``TRACE_KNOWN``."""
    from workloads import TRACE_KNOWN

    known = TRACE_KNOWN[workload]
    reached = {record[0] for record in tracer.spans}
    problems = [f"{name} never called" for name in known["reached"] if name not in reached]
    for name, expected in known["counts"].items():
        value = metrics[name][0]
        if value != expected:
            problems.append(f"{name} is {value:g} a cycle, expected {expected}")
    return problems


def _per_layer(args, cycle):
    from microbench import scalar_metrics
    from tracer import Tracer, span_cost

    tracer = Tracer()
    missing = tracer.install()
    try:
        verdicts, failures, k = _run_cycles(cycle, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(k)
    metrics.update(scalar_metrics())
    metrics["trace.wall_s"] = (sum(v[2] for v in verdicts) / k, "s")
    metrics["trace.overhead_s"] = (len(tracer.spans) / k * span_cost(), "s")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    problems = [f"{name} not defined by schurmann" for name in missing]
    problems += _trace_problems(args.workload, tracer, metrics)
    return metrics, verdicts, failures, k, dict(tracer.counters), problems


def main(argv=None) -> int:
    args = _args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import schurmann: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cycle = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        cycle(0)
        print("ready", flush=True)
        return 0

    measure = _per_layer if args.trace else _end_to_end
    metrics, verdicts, failures, cycles, counters, trace_problems = measure(args, cycle)
    walls = _task_medians(verdicts, 2)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": _environment(),
        "cycles": cycles,
        "verdicts": len(verdicts),
        "wall_verdict_s_p50": statistics.median(walls),
        "wall_verdicts_per_s": len(verdicts) / sum(v[2] for v in verdicts),
        "failed_share": len(failures) / len(verdicts),
        "failures": [{"task": tid, "value": problem} for tid, problem in failures],
        "counters": counters,
        "trace_problems": trace_problems,
    }
    print("report " + json.dumps(report, sort_keys=True))
    correct = not failures and not trace_problems
    result = {
        "correct": correct,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
