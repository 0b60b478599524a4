"""Time calls at a fixed reference speed, on a host whose speed drifts.

On a shared machine the speed the host gives one process changes by a third
within seconds.  The CPU is not taken away (steal time stays near 0); the
same code just runs slower.  Wall times of identical work then spread wider
than any useful bound.  So a timed call is measured against a fixed
reference loop of stdlib work like the package's own (Fraction arithmetic,
tuple-keyed dict stores).  The loop is timed just before the call, every
SAMPLE_EVERY_S during it from an interval timer, and just after it.  The
call's time at reference speed is its wall time × REFERENCE_S / the median
loop time.  REFERENCE_S is near the loop's time on the 2-core CPython 3.11.7
machine the first figures were taken on, so the figures read as seconds.

The loop is the benchmark's own code: a change to the package moves the
call's time and not the loop's.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1.2e-3
SAMPLE_EVERY_S = 0.1
SAMPLES_AROUND = 3


def reference_loop():
    acc = Fraction(0)
    table = {}
    for k in range(1, 300):
        acc += Fraction(k % 7 - 3, k % 5 + 1) * Fraction(k % 3 + 1, k % 4 + 1)
        table[k % 17, k % 13] = acc
    return acc, len(table)


def _loop_s() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def timed(call, against_reference: bool = True):
    """Run ``call``; return (its result or the exception it raised, wall
    seconds, seconds at reference speed).

    The time the interval timer's samples take is left out of the wall time.
    With ``against_reference`` false nothing is sampled, for traced runs
    whose spans must not hold the samples, and both times are wall time.
    """
    samples = [_loop_s() for _ in range(SAMPLES_AROUND)] if against_reference else []
    sampling = 0.0

    def sample(signum, frame):
        nonlocal sampling
        start = perf_counter()
        samples.append(_loop_s())
        sampling += perf_counter() - start

    if against_reference:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = perf_counter()
    try:
        outcome = call()
    except Exception as exc:  # the caller decides what a raising call means
        outcome = exc
    finally:
        if against_reference:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start - sampling
    if not against_reference:
        return outcome, wall, wall
    samples += [_loop_s() for _ in range(SAMPLES_AROUND)]
    return outcome, wall, wall * REFERENCE_S / statistics.median(samples)
