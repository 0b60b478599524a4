"""Spans and work counters recorded around calls into schurmann, from outside.

The tracer replaces a function by a wrapper at every name under which the
package's modules hold it, so a caller that looks the function up by name
(``schurmann.cocycle.kernel_basis``, ``schurmann.functional.psd_check``, the
entries of ``schurmann.scenarios.SCENARIOS``) reaches the wrapper.  Each
wrapper records a span (name, start, end, parent span, verdict id) in memory
and may add to work counters.  ``uninstall`` puts every original back.

``install`` returns the targets the package no longer defines, so that a
renamed or moved function fails the run instead of reading 0 as a gain.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _cells(counters, args, kwargs, result):
    m = args[0]
    counters["linalg.kernel_basis.cells"] += m.rows * m.cols


def _psd_order(counters, args, kwargs, result):
    order = args[0].rows
    counters["linalg.psd_check.order_sum"] += order
    counters["linalg.psd_check.order_max"] = max(
        counters["linalg.psd_check.order_max"], order
    )


def _relations(counters, args, kwargs, result):
    counters["algebra.build_presentation.relations"] += len(result.relations)
    counters["algebra.build_presentation.terms"] += sum(
        len(r.terms) for _, r in result.relations
    )


def _pool(counters, args, kwargs, result):
    counters["functional.gram_psd_check.pool_sum"] += len(result)


def _accepted(counters, args, kwargs, result):
    counters["functional.schurmann_functional.returns"] += 1


def _pairs(counters, args, kwargs, result):
    counters["cohomology.verify_primitive_exhaustive.pairs"] += result[0]


def _registry(counters, args, kwargs, result):
    registry = args[1]
    counters["scenarios.registry_two_cocycles"] += len(registry.two_cocycles)
    counters["scenarios.registry_functionals"] += len(registry.functionals)


# (module, function, counter update, records a span)
TARGETS = (
    ("linalg", "kernel_basis", _cells, True),
    ("linalg", "psd_check", _psd_order, True),
    ("linalg", "rank", None, True),
    ("linalg", "solve", None, True),
    ("algebra", "build_presentation", _relations, True),
    ("representation", "representation", None, True),
    ("cocycle", "solve_cocycles", None, True),
    ("functional", "gram_psd_check", None, True),
    ("functional", "default_word_pool", _pool, False),
    ("functional", "schurmann_functional", _accepted, True),
    ("cohomology", "square_zero_on_letters", None, True),
    ("cohomology", "verify_primitive_exhaustive", _pairs, True),
    ("cohomology", "primitive", None, True),
    ("cli", "main", None, True),
)

PACKAGE = "schurmann"
SCENARIO_IDS = tuple(f"C{k:02d}" for k in range(1, 15))
CALIBRATION_CALLS = 20000


def span_cost() -> float:
    """Seconds one span adds to a call: a traced no-op against the bare one.

    The median of 5 timings of CALIBRATION_CALLS calls each.
    """

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop, None, True)
    samples = []
    for _ in range(5):
        per_call = []
        for fn in (noop, traced):
            start = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn()
            per_call.append((perf_counter() - start) / CALIBRATION_CALLS)
        samples.append(per_call[1] - per_call[0])
    return statistics.median(samples)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, verdict id]
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(int)
        self.verdict = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, count, span):
        tracer = self

        if not span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(tracer.counters, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.verdict]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _replace_everywhere(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    def install(self) -> list[str]:
        """Wrap every target; return the names of those the package lacks."""

        def module_of(name):
            try:
                return importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                return None

        missing = []
        for module, attr, count, span in TARGETS:
            fn = getattr(module_of(module), attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            self._replace_everywhere(fn, self._wrap(f"{module}.{attr}", fn, count, span))
        scenarios = module_of("scenarios")
        table = getattr(scenarios, "SCENARIOS", None)
        if table is None:
            return missing + ["scenarios.SCENARIOS"]
        wrapped = []
        for sid, fn in table:
            count = _registry if sid == "C14" else None
            wrapper = self._wrap(f"scenarios.{sid}", fn, count, True)
            self._replace_everywhere(fn, wrapper)
            wrapped.append((sid, wrapper))
        self._restore.append((scenarios, "SCENARIOS", table))
        scenarios.SCENARIOS = tuple(wrapped)
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived times ----------------------------------------------------

    def busy(self) -> tuple[dict, dict]:
        """Per name: wall time inside its outermost spans, and span count."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        for record in self.spans:
            name = record[0]
            calls[name] += 1
            parent = record[3]
            nested = False
            while parent >= 0:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                busy[name] += record[2] - record[1]
        return busy, calls

    def self_time(self) -> dict:
        """Per name: span durations minus the time their child spans cover."""
        own = defaultdict(float)
        for record in self.spans:
            own[record[0]] += record[2] - record[1]
        for record in self.spans:
            if record[3] >= 0:
                own[self.spans[record[3]][0]] -= record[2] - record[1]
        return own

    def layer_metrics(self, cycles: int) -> dict:
        """The per-layer metrics of one cycle, averaged over ``cycles``."""
        busy, calls = self.busy()
        own = self.self_time()
        c = self.counters
        per = 1.0 / cycles

        def b(name):
            return busy.get(name, 0.0) * per

        metrics = {
            "linalg.kernel_basis.busy_s": (b("linalg.kernel_basis"), "s"),
            "linalg.kernel_basis.calls": (calls["linalg.kernel_basis"] * per, "count"),
            "linalg.kernel_basis.cells": (c["linalg.kernel_basis.cells"] * per, "count"),
            "linalg.psd_check.busy_s": (b("linalg.psd_check"), "s"),
            "linalg.psd_check.calls": (calls["linalg.psd_check"] * per, "count"),
            "linalg.psd_check.order_max": (c["linalg.psd_check.order_max"], "count"),
            "linalg.psd_check.order_sum": (c["linalg.psd_check.order_sum"] * per, "count"),
            "linalg.rank.busy_s": (b("linalg.rank"), "s"),
            "linalg.solve.busy_s": (b("linalg.solve"), "s"),
            "algebra.build_presentation.busy_s": (b("algebra.build_presentation"), "s"),
            "algebra.build_presentation.relations": (
                c["algebra.build_presentation.relations"] * per,
                "count",
            ),
            "algebra.build_presentation.terms": (
                c["algebra.build_presentation.terms"] * per,
                "count",
            ),
            "representation.representation.busy_s": (
                b("representation.representation"),
                "s",
            ),
            "representation.representation.calls": (
                calls["representation.representation"] * per,
                "count",
            ),
            "cocycle.solve_cocycles.busy_s": (b("cocycle.solve_cocycles"), "s"),
            "cocycle.solve_cocycles.self_s": (own["cocycle.solve_cocycles"] * per, "s"),
            "functional.gram_psd_check.busy_s": (b("functional.gram_psd_check"), "s"),
            "functional.gram_psd_check.self_s": (
                own["functional.gram_psd_check"] * per,
                "s",
            ),
            "functional.gram_psd_check.pool_sum": (
                c["functional.gram_psd_check.pool_sum"] * per,
                "count",
            ),
            "functional.schurmann_functional.busy_s": (
                b("functional.schurmann_functional"),
                "s",
            ),
            "functional.schurmann_functional.accept_ratio": (
                c["functional.schurmann_functional.returns"]
                / calls["functional.schurmann_functional"]
                if calls["functional.schurmann_functional"]
                else 0.0,
                "ratio",
            ),
            "cohomology.square_zero_on_letters.busy_s": (
                b("cohomology.square_zero_on_letters"),
                "s",
            ),
            "cohomology.square_zero_on_letters.calls": (
                calls["cohomology.square_zero_on_letters"] * per,
                "count",
            ),
            "cohomology.verify_primitive_exhaustive.busy_s": (
                b("cohomology.verify_primitive_exhaustive"),
                "s",
            ),
            "cohomology.verify_primitive_exhaustive.pairs": (
                c["cohomology.verify_primitive_exhaustive.pairs"] * per,
                "count",
            ),
            "cohomology.verify_primitive_exhaustive.pairs_per_s": (
                c["cohomology.verify_primitive_exhaustive.pairs"]
                / busy["cohomology.verify_primitive_exhaustive"]
                if busy.get("cohomology.verify_primitive_exhaustive")
                else 0.0,
                "1/s",
            ),
            "cohomology.primitive.busy_s": (b("cohomology.primitive"), "s"),
        }
        for sid in SCENARIO_IDS:
            metrics[f"scenarios.{sid}.busy_s"] = (b(f"scenarios.{sid}"), "s")
        metrics["scenarios.registry_two_cocycles"] = (
            c["scenarios.registry_two_cocycles"] * per,
            "count",
        )
        metrics["scenarios.registry_functionals"] = (
            c["scenarios.registry_functionals"] * per,
            "count",
        )
        metrics["cli.main.busy_s"] = (b("cli.main"), "s")
        metrics["trace.spans"] = (len(self.spans) * per, "count")
        return metrics
