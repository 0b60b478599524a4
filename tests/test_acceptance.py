"""Acceptance gate: every verification scenario must pass exactly.

Each criterion below runs one scenario group from the deterministic suite
and requires every claimed value to match the computed one on the nose.
All arithmetic is over Q(i), so there is no tolerance anywhere: a check
passes only when the formatted exact values are equal as strings.

Run directly for a one-line-per-criterion report:

    python3 tests/test_acceptance.py
"""

from pathlib import Path

import pytest

from schurmann import RunConfig, format_results, run_all, scenarios

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

