"""The workloads: cycles of verdicts, each checked against a known answer.

A workload is set up once from its seed and then yields cycles of tasks.  A
task is one verdict: ``run`` is timed, ``check`` is not and returns None when
the result is right, else a description of the offending value.  Expected
answers are fixed here (the paper's formulas and values, exact pair counts,
pinned output bytes) and never computed by the package under test.

Every cycle holds the same task shapes, so runs at different seeds stay
comparable; the seed only draws values or orders tasks.  The package is
reached through module attributes at call time, so a traced run sees every
call the workload makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PINNED_PAPER = Path(__file__).resolve().parent / "expected" / "reproduce_paper_len2.txt"


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _schurmann():
    return importlib.import_module("schurmann")


# -- paper --------------------------------------------------------------------


def paper(seed: int):
    """One in-process ``schurmann reproduce-paper --max-word-len 2`` per verdict.

    The suite seed is ``seed % 2``; both suite seeds print the pinned bytes.
    """
    cli = importlib.import_module("schurmann.cli")
    pinned = PINNED_PAPER.read_bytes()
    suite_seed = str(seed % 2)
    argv = ["reproduce-paper", "--max-word-len", "2", "--seed", suite_seed]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue().encode()

    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        last = out.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        if last != "51/51 checks passed":
            return f"last line {last!r}"
        if out != pinned:
            at = next(
                (i for i, (a, b) in enumerate(zip(out, pinned)) if a != b),
                min(len(out), len(pinned)),
            )
            return f"stdout differs from the pinned bytes at byte {at}"
        return None

    def cycle(k: int) -> list[Task]:
        return [Task(f"paper/seed{suite_seed}", run, check)]

    return cycle


# -- sweep --------------------------------------------------------------------

# (id, d of K<d>, summands of counit + sign + sign ..., max_len, words of
# length <= max_len over the 2 d^2 letters, draws per cycle).  The general
# branch (n >= 3) gets five draws so the median verdict is a median of five
# draws of one shape, not one draw: a single sub-second verdict moves by a
# third with the load on a shared machine.
SWEEP_SHAPES = (
    ("k2-n1-len3", 2, 1, 3, 585, 1),
    ("k3-n1-len2", 3, 1, 2, 343, 1),
    ("k2-n1-len2", 2, 1, 2, 73, 1),
    ("k2-n2-len2", 2, 2, 2, 73, 1),
    ("k2-n3-len2", 2, 3, 2, 73, 5),
)


def sweep(seed: int):
    """``primitive`` then ``verify_primitive_exhaustive`` on seeded pairing
    2-cocycles.  H^2(K<d>) = 0, so every primitive exists and checks clean on
    all words^2 pairs."""
    s = _schurmann()
    spaces = {}
    for _, d, n, _, _, _ in SWEEP_SHAPES:
        if (d, n) in spaces:
            continue
        pres = s.build_presentation("k_d", d)
        rep = s.counit_rep(pres, 1)
        for _ in range(n - 1):
            rep = s.direct_sum_rep(rep, s.sign_rep(pres, 1))
        spaces[d, n] = s.solve_cocycles(rep)

    def task(tid, d, n, max_len, words):
        space = spaces[d, n]
        rng = random.Random(f"{seed}:{tid}")
        eta1, eta2 = space.random_element(rng), space.random_element(rng)

        def run():
            s = _schurmann()
            phi = s.primitive(s.KPairCocycle(eta1, eta2))
            return s.verify_primitive_exhaustive(phi, max_len=max_len)

        def check(result):
            checked, witness = result
            if witness is not None:
                return f"witness {witness!r}"
            if checked != words * words:
                return f"{checked} pairs checked, expected {words}^2"
            return None

        return Task(tid, run, check)

    def cycle(k: int) -> list[Task]:
        return [
            task(f"sweep/{sid}/cycle{k}/draw{j}", d, n, max_len, words)
            for sid, d, n, max_len, words, draws in SWEEP_SHAPES
            for j in range(draws)
        ]

    return cycle


# -- h1 -----------------------------------------------------------------------


def _h1_shapes():
    """(label, kind, d, keyword arguments, dim H^1 for the counit, n = 1)."""
    s = _schurmann()
    half = s.Qi(1) / s.Qi(2)
    form = s.QMatrix([[s.ZERO, half], [s.Qi(2), s.ZERO]], cols=2)
    shapes = [(f"u_plus{d}", "u_plus", d, {}, d * d) for d in (2, 3, 4)]
    shapes += [(f"o_plus{d}", "o_plus", d, {}, d * (d - 1) // 2) for d in (2, 3, 4)]
    shapes += [
        ("u_q(1,2,3)", "u_q", 3, {"q_diag": (1, 2, 3)}, 3),
        ("o_f", "o_f", 2, {"F": form}, 1),
        ("su_q3(1/2)", "su_q", 3, {"q": "1/2"}, 2),
    ]
    return shapes


def h1(seed: int):
    """Cocycle-space dimension of the counit direct-summed n times, n = 1, 2:
    presentation, eagerly validated representation, kernel elimination.
    Nothing is drawn; the seed shuffles the task order.

    n = 3 would triple the cycle (U_4+ alone takes about 4 s there); with
    n <= 2 a cycle takes about 5 s, so a run repeats it and the median rests
    on several timings of each task.
    """
    tasks = []
    for label, kind, d, kwargs, dim in _h1_shapes():
        for n in (1, 2):
            tasks.append((f"h1/{label}/n{n}", kind, d, kwargs, n, n * dim))
    random.Random(seed).shuffle(tasks)

    def task(tid, kind, d, kwargs, n, expected):
        def run():
            s = _schurmann()
            pres = s.build_presentation(kind, d, **kwargs)
            rep = s.counit_rep(pres, 1)
            for _ in range(n - 1):
                rep = s.direct_sum_rep(rep, s.counit_rep(pres, 1))
            return s.solve_cocycles(rep).dimension

        def check(dim):
            return None if dim == expected else f"dimension {dim}, expected {expected}"

        return Task(tid, run, check)

    def cycle(k: int) -> list[Task]:
        return [task(*t) for t in tasks]

    return cycle


WORKLOADS = {"paper": paper, "sweep": sweep, "h1": h1}


# What one traced cycle of each workload must record.  ``reached``: spans
# that occur at least once; a function the package renames, moves or stops
# calling through its module would otherwise read 0 and pass for a layer
# that got faster.  ``counts``: per-layer counts the tasks fix exactly (the
# registry and Gram pools of the paper's suite, pair counts, one kernel
# elimination per h1 task).
_ALL_SPANS = (
    "linalg.kernel_basis",
    "linalg.psd_check",
    "linalg.rank",
    "linalg.solve",
    "algebra.build_presentation",
    "representation.representation",
    "cocycle.solve_cocycles",
    "functional.gram_psd_check",
    "functional.schurmann_functional",
    "cohomology.square_zero_on_letters",
    "cohomology.verify_primitive_exhaustive",
    "cohomology.primitive",
    "cli.main",
) + tuple(f"scenarios.C{k:02d}" for k in range(1, 15))

TRACE_KNOWN = {
    "paper": {
        "reached": _ALL_SPANS,
        "counts": {
            "scenarios.registry_two_cocycles": 33,
            "scenarios.registry_functionals": 43,
            "linalg.psd_check.calls": 43,
            "linalg.psd_check.order_max": 545,
            "functional.gram_psd_check.pool_sum": 4367,
            "cohomology.square_zero_on_letters.calls": 33,
            "cohomology.verify_primitive_exhaustive.pairs": 10 * 73**2,
        },
    },
    "sweep": {
        "reached": ("cohomology.primitive", "cohomology.verify_primitive_exhaustive"),
        "counts": {
            "cohomology.verify_primitive_exhaustive.pairs": sum(
                words * words * draws for *_, words, draws in SWEEP_SHAPES
            ),
            "linalg.psd_check.calls": 0,
            "linalg.kernel_basis.calls": 0,
        },
    },
    "h1": {
        "reached": (
            "linalg.kernel_basis",
            "algebra.build_presentation",
            "representation.representation",
            "cocycle.solve_cocycles",
        ),
        "counts": {
            "linalg.kernel_basis.calls": 18,
            "linalg.psd_check.calls": 0,
            "cohomology.verify_primitive_exhaustive.pairs": 0,
        },
    },
}
