"""The ``scalars`` layer: Q(i) and rational arithmetic on fixed operands.

Two operand sets come from a fixed seed, independent of the workload seed:
small values with |p|, |q| <= 3, drawn as the scenarios draw them, and large
values, each the product of 8 small ones, the size entries reach during
elimination.  Operands are made through Qi's integer constructor and its own
arithmetic, so the bench does not depend on how Qi stores its parts.
"""

from __future__ import annotations

import importlib
import operator
import random
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

OPERAND_SEED = 2017
PAIRS = 256
LOOPS = 20
REPEATS = 5


def _small_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    p = 0
    while True:
        p = rng.randint(-3, 3)
        if p or not nonzero:
            return Fraction(p, rng.randint(1, 3))


def _operands(rng: random.Random, factors: int):
    """Pairs of (re, im) fractions; each part a product of ``factors`` draws."""

    def part():
        x = Fraction(1)
        for _ in range(factors):
            x *= _small_fraction(rng, nonzero=factors > 1)
        return x

    def value():
        re, im = part(), part()
        while factors == 1 and re == 0 and im == 0:
            re, im = part(), part()
        return re, im

    return [(value(), value()) for _ in range(PAIRS)]


def _ns_per_op(op, xs, ys) -> float:
    """Fastest over REPEATS of the mean time of one ``op(x, y)``, in ns; the
    minimum is the estimate least disturbed by other load on the machine."""
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(LOOPS):
            deque(map(op, xs, ys), 0)
        samples.append((perf_counter() - start) / (LOOPS * len(xs)) * 1e9)
    return min(samples)


def scalar_metrics() -> dict:
    scalars = importlib.import_module("schurmann.scalars")
    Qi, I = scalars.Qi, scalars.I
    rational = scalars.Rational

    def qi(pair):
        (re, im) = pair
        return Qi(re.numerator) / Qi(re.denominator) + (
            Qi(im.numerator) / Qi(im.denominator)
        ) * I

    def rat(x: Fraction):
        return rational(x.numerator) / rational(x.denominator)

    metrics = {}
    rng = random.Random(OPERAND_SEED)
    for suffix, factors in (("", 1), ("_large", 8)):
        pairs = _operands(rng, factors)
        qx = [qi(a) for a, _ in pairs]
        qy = [qi(b) for _, b in pairs]
        rx = [rat(a[0]) for a, _ in pairs]
        ry = [rat(b[0]) for _, b in pairs]
        for name, op, xs, ys in (
            ("qi_mul", operator.mul, qx, qy),
            ("qi_add", operator.add, qx, qy),
            ("qi_div", operator.truediv, qx, qy),
            ("rational_mul", operator.mul, rx, ry),
            ("rational_add", operator.add, rx, ry),
        ):
            metrics[f"scalars.{name}{suffix}_ns"] = (_ns_per_op(op, xs, ys), "ns")
    return metrics
