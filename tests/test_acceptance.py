"""Acceptance gate: every verification scenario must pass exactly.

Each criterion below runs one scenario group from the deterministic suite
and requires every claimed value to match the computed one on the nose.
All arithmetic is over Q(i), so there is no tolerance anywhere: a check
passes only when the formatted exact values are equal as strings.

Run directly for a one-line-per-criterion report:

    python3 tests/test_acceptance.py
"""

from itertools import islice
from pathlib import Path

import pytest

from schurmann import (
    CoboundaryCocycle,
    Functional,
    KPairCocycle,
    RunConfig,
    TwoCocycle,
    coboundary1,
    cocycle,
    cohomology,
    format_results,
    gram_psd_check,
    primitive,
    run_all,
    scenarios,
    schurmann_functional,
    square_zero_on_letters,
    verify_primitive_exhaustive,
)

CRITERIA = {
    "C01": "canonical generating functionals for random cocycles on the "
    "reference representations, with and without selfadjoint offsets",
    "C02": "diagonal Gaussian cocycles of U_Q+ with Q = diag(1,2,3): "
    "dimension, diagonality and psi(u_kk) = -|eta(u_kk)|^2 / 2",
    "C03": "O_F+ with F = [[0,1/2],[2,0]] at d = 2: dimension 1, "
    "trace-free diagonal and a validating functional",
    "C04": "the twisted determinant algebra at d = 3: a relation-vanishing "
    "eta whose obstruction constants differ, so the construction rejects it",
    "C05": "Gaussian plus anti-Gaussian on U_2+: neither part admits a "
    "functional but the direct sum does, without a splitting",
    "C06": "the same sum pattern survives pulling back along a generator "
    "substitution",
    "C07": "the d = 3 direct sum: exact V V* blocks, B = diag(5,3,3), a "
    "functional with no splitting",
    "C08": "random antisymmetric Gaussian cocycles over 1- and 2-dim "
    "carriers always admit generating functionals",
    "C09": "the 4-dim rotation cocycle: B = 2 I_4, a validating functional, "
    "and an exact non-reality witness at (u_23, u_31)",
    "C10": "Gaussian cocycle space dimensions d^2 and d(d-1)/2 across sizes",
    "C11": "unitary defect basis: matrix-unit defects, linear independence, "
    "vanishing coboundary defects and exact class coordinates",
    "C12": "orthogonal defect basis: e_mn - e_nm defects and the d = 2 "
    "anti-Gaussian pair",
    "C13": "primitives exist for random pairing 2-cocycles and reproduce "
    "them on every word pair up to length 3",
    "C14": "registry-wide identities: letter-triple coboundary identity, "
    "paired unitarity sums, positive semidefinite Gram matrices",
}


# `reproduce-paper` stdout at the default seed and word length
PINNED_LEN3 = Path(__file__).resolve().parent / "expected" / "reproduce_paper_len3.txt"


@pytest.fixture(scope="module")
def results():
    return run_all(RunConfig())


def _check(results, cid):
    group = [r for r in results if r.scenario == cid]
    assert group, f"{cid} produced no results"
    failures = []
    for r in group:
        # exact comparison: the formatted values must agree character for
        # character, there is no tolerance to hide behind
        if not r.passed or r.expected != r.computed:
            failures.append(f"{r.claim}: expected {r.expected}, got {r.computed}")
    line = f"{cid}  {'FAIL' if failures else 'PASS'}  {CRITERIA[cid]}"
    print(line)
    assert not failures, "; ".join(failures)
    return line


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(results, cid):
    _check(results, cid)


def test_all_scenarios_accounted_for(results):
    assert {r.scenario for r in results} == set(CRITERIA)
    assert sum(1 for r in results if r.passed) == len(results)
    assert format_results(results).endswith(
        f"{len(results)}/{len(results)} checks passed"
    )


def test_default_run_matches_pinned_output(results):
    assert format_results(results) + "\n" == PINNED_LEN3.read_text()


def test_failing_scenario_says_where_it_raised(monkeypatch):
    def boom(config, registry):
        raise RuntimeError("boom")

    line = boom.__code__.co_firstlineno + 1
    monkeypatch.setattr(scenarios, "SCENARIOS", (("C01", boom),))
    [result] = run_all(RunConfig())
    assert not result.passed
    assert result.computed == f"RuntimeError: boom (raised at test_acceptance.py:{line})"


def test_a_fault_in_the_letter_recursion_fails_c13_or_c14(monkeypatch):
    # the cuts of phi's and psi's recursion stop after 4 letters, so both
    # are wrong on words of 5 letters or more, where the products of C13's
    # recheck at length 3 reach
    cuts = cohomology._cuts
    monkeypatch.setattr(cohomology, "_cuts", lambda w: islice(cuts(w), 4))
    failed = {r.scenario for r in run_all(RunConfig(max_word_len=3)) if not r.passed}
    assert failed & {"C13", "C14"}


def test_a_fault_in_the_coboundary_fails_c13_and_c14(monkeypatch):
    # d(phi)(u, v) loses its eps(v) phi(u) term: C13's primitives fail their
    # pair check, and C14's Gram core recheck, which reads each core entry
    # as -d(psi)(w_p*, w_q), raises
    def batch_numerators(self, pairs):
        k = len(pairs)
        re, im, den = self.phi.batch_numerators([wa + wb for wa, wb in pairs] + [wb for _, wb in pairs])
        keep = [all(l.row == l.col for l in wa) for wa, _ in pairs]
        re, im = ([x[k + i] * e - x[i] for i, e in enumerate(keep)] for x in (re, im))
        return re, im, den

    monkeypatch.setattr(CoboundaryCocycle, "batch_numerators", batch_numerators)
    failed = [r for r in run_all(RunConfig(max_word_len=2)) if not r.passed]
    assert {r.scenario for r in failed} == {"C13", "C14"}
    assert any(
        r.scenario == "C14" and r.computed.startswith("ArithmeticError: ('a Gram core entry disagrees") for r in failed
    ), [r.computed for r in failed]


def test_each_check_has_its_own_id_and_claim():
    # five claim texts recur, in C03 and C09, C05 and C07, C06 and C07 (the
    # pinned output keeps them), so a check is keyed by its id and its claim
    keys = [(r.scenario, r.claim) for r in run_all(RunConfig(max_word_len=2))]
    assert len(keys) == 51
    assert len(set(keys)) == 51


def test_every_scenario_returns_claim_rows():
    # (claim, expected, computed); `run_all` adds the id from the table
    config, registry = RunConfig(max_word_len=2), scenarios.Registry()
    for _, fn in scenarios.SCENARIOS:
        rows = fn(config, registry)
        assert isinstance(rows, list) and rows
        for row in rows:
            assert isinstance(row, tuple) and len(row) == 3 and isinstance(row[0], str)


def test_the_suite_registers_33_two_cocycles_and_43_functionals():
    # the counts a traced benchmark run pins; C14 reads the two lists whole
    config, registry = RunConfig(max_word_len=2), scenarios.Registry()
    for _, fn in scenarios.SCENARIOS:
        fn(config, registry)
    assert len(registry.two_cocycles) == 33
    assert all(isinstance(c, TwoCocycle) for c in registry.two_cocycles)
    assert len(registry.functionals) == 43
    assert all(isinstance(psi, Functional) for psi in registry.functionals)


def test_c11_reads_each_basis_defect_once(monkeypatch):
    # C11 evaluates the 8 defects of its basis once, and `basis_unitary`
    # builds one Gaussian cocycle per first-row matrix unit e_1m (3 of them)
    # plus one per K_p_p (2): its own basis and the one `class_coordinates`
    # rebuilds take 5 builds each, the 10 random cocycles 10 more
    calls = {"defect_unitary": 0, "cocycle_from_V": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for module in (scenarios, cohomology):
        counted(module, "defect_unitary")
    counted(cocycle, "cocycle_from_V")
    rows = dict(scenarios.SCENARIOS)["C11"](RunConfig(), scenarios.Registry())
    assert all(expected == computed for _, expected, computed in rows)
    # 8 basis defects, 10 coboundaries, 9 in `class_coordinates`, 1 residual
    assert calls == {"defect_unitary": 28, "cocycle_from_V": 20}


def test_each_identity_line_reads_batch(monkeypatch, eta_sym_u2):
    # C13's sweep and C14's letter-triple and PSD lines hold by identities;
    # each rechecks them by evaluating a batch, on the numerators that the
    # `Qi` view `batch` reads too
    phi = primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))
    psi = schurmann_functional(eta_sym_u2)
    calls = []
    for kind in (KPairCocycle, CoboundaryCocycle, cohomology.LetterFunctional):
        batch = kind.batch_numerators
        monkeypatch.setattr(
            kind,
            "batch_numerators",
            lambda self, xs, batch=batch, name=kind.__name__: calls.append(name) or batch(self, xs),
        )
    assert verify_primitive_exhaustive(phi) == (585**2, None)
    assert {"CoboundaryCocycle", "KPairCocycle"} <= set(calls)
    for c in (phi.two_cocycle, coboundary1(psi)):
        calls.clear()
        assert square_zero_on_letters(c) is None
        assert calls[0] == type(c).__name__
    calls.clear()
    assert gram_psd_check(psi)
    assert "LetterFunctional" in calls


def test_negative_word_length_refused():
    with pytest.raises(ValueError, match="max_word_len"):
        RunConfig(max_word_len=-1)


if __name__ == "__main__":
    rs = run_all(RunConfig())
    bad = 0
    for cid in sorted(CRITERIA):
        try:
            _check(rs, cid)
        except AssertionError as exc:
            print(f"{cid}  FAIL  {CRITERIA[cid]}: {exc}")
            bad += 1
    print(f"{len(CRITERIA) - bad}/{len(CRITERIA)} criteria passed")
    raise SystemExit(1 if bad else 0)

