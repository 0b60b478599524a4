"""End-to-end CLI behavior: exit codes, reports and deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cycle_rep, refuse_elimination, refuse_evaluation
from schurmann import (
    KPairCocycle,
    QMatrix,
    Qi,
    ZERO,
    algebra,
    build_presentation,
    coboundary1,
    cocycle,
    counit_rep,
    rational,
    schurmann_functional,
    serialize,
    words,
)
from schurmann.cli import main
from schurmann.serialize import (
    cocycle_to_json,
    functional_to_json,
    presentation_to_json,
    representation_to_json,
    two_cocycle_to_json,
)

ROOT = Path(__file__).resolve().parents[1]
PINNED_LEN2 = ROOT / "tests" / "expected" / "reproduce_paper_len2.txt"
BENCH_LEN2 = ROOT / "perfbench" / "expected" / "reproduce_paper_len2.txt"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


@pytest.fixture
def files(write, u2, o3, eta_sym_u2, eta_asym_u2):
    out = {
        "pres_u2": write("pres_u2.json", presentation_to_json(u2)),
        "pres_o3": write("pres_o3.json", presentation_to_json(o3)),
        "asym": write("asym.json", cocycle_to_json(eta_asym_u2)),
        "sym": write("sym.json", cocycle_to_json(eta_sym_u2)),
        "psi": write(
            "psi.json", functional_to_json(schurmann_functional(eta_sym_u2))
        ),
        "kpair": write(
            "kpair.json", two_cocycle_to_json(KPairCocycle(eta_asym_u2, eta_asym_u2))
        ),
    }
    tampered = functional_to_json(schurmann_functional(eta_sym_u2))
    for grid in ("values", "star_values"):
        tampered[grid][0][0] = {"re": "5", "im": "0"}
    out["tampered_psi"] = write("tampered_psi.json", tampered)
    nested = two_cocycle_to_json(coboundary1(schurmann_functional(eta_sym_u2)))
    for grid in ("values", "star_values"):
        nested["phi"][grid][0][0] = {"re": "5", "im": "0"}
    out["tampered_coboundary"] = write("tampered_coboundary.json", nested)
    bad = cocycle_to_json(eta_asym_u2)
    bad["W"] = [[bad["V"][j][k] for j in range(2)] for k in range(2)]
    out["badW"] = write("badw.json", bad)
    out["badscalar"] = write(
        "badscalar.json", {"kind": "u_q", "d": 2, "q_diag": ["1/0", "1"]}
    )
    return out


def test_validate_ok(run, files):
    code, out, _ = run("validate", "--input", files["pres_u2"])
    assert code == 0
    assert "valid" in out


def test_validate_names_violated_relations(run, files):
    code, out, _ = run("validate", "--input", files["badW"])
    assert code == 1
    assert "violated relations" in out
    assert "uu*(1,1)" in out


# `validate` stdout for the tampered objects of TAMPERED below
REP_U2 = (
    "representation: violated relations\n"
    "  uu*(1,1): [-5/36, 1/3*i; -1/3*i, 4/9]\n"
    "  u*u(1,1): [5/4, 1/6*i; -1/6*i, 1/9]\n"
    "  uu*(1,2): [1/2, 1/2; 2/9-2/15*i, 0]\n"
    "  u*u(1,2): [1/3+1/5*i, -1/4-3/4*i; 2/3, 1/6+1/6*i]\n"
    "  uu*(2,1): [1/2, 2/9+2/15*i; 1/2, 0]\n"
    "  u*u(2,1): [1/3-1/5*i, 2/3; -1/4+3/4*i, 1/6-1/6*i]\n"
    "  uu*(2,2): [34/225, 1*i; -1*i, 1]\n"
    "  u*u(2,2): [-91/225, 0; 0, 1/2]\n"
    "  ubar·ut(1,1): [-11/36, 1/6*i; -1/6*i, 11/18]\n"
    "  ut·ubar(1,1): [13/36, 4/3*i; -4/3*i, 1]\n"
    "  ubar·ut(1,2): [1/2, -2/3; -1/15-8/5*i, 0]\n"
    "  ut·ubar(1,2): [1/2-11/30*i, 1/3; -7/10-5/6*i, 0]\n"
    "  ubar·ut(2,1): [1/2, -1/15+8/5*i; -2/3, 0]\n"
    "  ut·ubar(2,1): [1/2+11/30*i, -7/10+5/6*i; 1/3, 0]\n"
    "  ubar·ut(2,2): [259/225, 0; 0, 0]\n"
    "  ut·ubar(2,2): [-157/450, 0; 0, 4/9]\n"
)

COC_U_Q = (
    "cocycle: violated relations\n"
    "  uu*(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  u*u(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  uu*(1,2): (4/3*i, -1)\n"
    "  u*u(1,2): (4/3*i, -1)\n"
    "  uu*(2,1): (5/3, 1/7)\n"
    "  u*u(2,1): (5/3, 1/7)\n"
    "  uu*(2,2): (5/4, 1-2/3*i)\n"
    "  u*u(2,2): (5/4, 1-2/3*i)\n"
    "  q_row(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  q_col(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  q_row(1,2): (35/18, 1/7)\n"
    "  q_col(1,2): (35/18, 1/7)\n"
    "  q_row(2,1): (19/3*i, -1)\n"
    "  q_col(2,1): (19/3*i, -1)\n"
    "  q_row(2,2): (5/4, 1-2/3*i)\n"
    "  q_col(2,2): (5/4, 1-2/3*i)\n"
    "  q_row(1,2)*: (19/18*i, -1/6)\n"
    "  q_col(1,2)*: (19/18*i, -1/6)\n"
    "  q_row(2,1)*: (35/3, 6/7)\n"
    "  q_col(2,1)*: (35/3, 6/7)\n"
)

COC_SU_Q = (
    "cocycle: violated relations\n"
    "  uu*(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  u*u(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  uu*(1,2): (4/3*i, -1)\n"
    "  u*u(1,2): (4/3*i, -1)\n"
    "  uu*(2,1): (5/3, 1/7)\n"
    "  u*u(2,1): (5/3, 1/7)\n"
    "  uu*(2,2): (5/4, 1-2/3*i)\n"
    "  u*u(2,2): (5/4, 1-2/3*i)\n"
    "  q_row(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  q_col(1,1): (1/2+1*i, 1+1/2*i)\n"
    "  q_row(1,2): (-1, 1/7)\n"
    "  q_col(1,2): (-1, 1/7)\n"
    "  q_row(2,1): (4/9*i, -1)\n"
    "  q_col(2,1): (4/9*i, -1)\n"
    "  q_row(2,2): (5/4, 1-2/3*i)\n"
    "  q_col(2,2): (5/4, 1-2/3*i)\n"
    "  det(1,2): (1/2+1*i, -2/3*i)\n"
    "  det(2,1): (-1/6-1/3*i, 2/9*i)\n"
    "  q_row(1,2)*: (4*i, -9)\n"
    "  q_col(1,2)*: (4*i, -9)\n"
    "  q_row(2,1)*: (-1/9, 1/63)\n"
    "  q_col(2,1)*: (-1/9, 1/63)\n"
    "  det(1,2)*: (5/4, 2+1/2*i)\n"
    "  det(2,1)*: (-5/12, -2/3-1/6*i)\n"
)

COC_O2_MAGIC = (
    "cocycle: violated relations\n"
    "  uu*(1,1): (3/4+2*i, -3/4+2*i)\n"
    "  u*u(1,1): (5/4+2*i, -5/4+2*i)\n"
    "  uu*(1,2): (-3/4+1/6*i, 7/4-1/6*i)\n"
    "  u*u(1,2): (-1/4+1/6*i, 5/4-1/6*i)\n"
    "  uu*(2,1): (7/4, -3/4)\n"
    "  u*u(2,1): (5/4, -1/4)\n"
    "  uu*(2,2): (5/4+1/2*i, 11/4+1/6*i)\n"
    "  u*u(2,2): (3/4+1/2*i, 13/4+1/6*i)\n"
    "  ubar·ut(1,1): (3/4+2*i, -3/4+2*i)\n"
    "  ut·ubar(1,1): (5/4+2*i, -5/4+2*i)\n"
    "  ubar·ut(1,2): (-3/4+1/6*i, 7/4-1/6*i)\n"
    "  ut·ubar(1,2): (-1/4+1/6*i, 5/4-1/6*i)\n"
    "  ubar·ut(2,1): (7/4, -3/4)\n"
    "  ut·ubar(2,1): (5/4, -1/4)\n"
    "  ubar·ut(2,2): (5/4+1/2*i, 11/4+1/6*i)\n"
    "  ut·ubar(2,2): (3/4+1/2*i, 13/4+1/6*i)\n"
)


def _s(re, im="0"):
    return {"re": re, "im": im}


F_SWAP = QMatrix([[ZERO, Qi(rational("1/2"))], [Qi(2), ZERO]])

# a V that extends to no cocycle, loaded without W: the 3-cycle of U_3+ and
# the counit of every other kind but K<d> (where every V completes to a
# cocycle), V a matrix unit, and a relation each one breaks
BARE_V = {
    "u_plus": (lambda: cycle_rep(build_presentation("u_plus", 3)), (0, 0), "ubar·ut(1,2)"),
    "u_q": (lambda: counit_rep(build_presentation("u_q", 2, q_diag=[rational("1/2"), rational(3)])), (0, 1), "q_row(2,1)"),
    "o_plus": (lambda: counit_rep(build_presentation("o_plus", 2)), (0, 1), "sym(1,2)"),
    "o_f": (lambda: counit_rep(build_presentation("o_f", 2, F=F_SWAP)), (0, 1), "uF-Fubar(1,1)"),
    "su_q": (lambda: counit_rep(build_presentation("su_q", 2, q=rational("1/3"))), (0, 0), "det(1,2)"),
}


@pytest.mark.parametrize("kind", sorted(BARE_V))
def test_validate_names_the_relations_a_bare_V_breaks(run, write, kind):
    build, at, label = BARE_V[kind]
    rep = build()
    V = [[[_s("1" if (j, k) == at else "0")] for k in range(rep.d)] for j in range(rep.d)]
    path = write("bare_v.json", {"rep": representation_to_json(rep), "V": V})
    code, out, err = run("validate", "--input", path)
    assert (code, err) == (1, "")
    assert out.startswith("cocycle: violated relations\n")
    assert f"  {label}: " in out


def _tampered_rep():
    # u_plus d = 2 on a 2-dim carrier, blocks with complex fractions
    R = [
        [[[_s("1/2"), _s("0", "1/3")], [_s("0"), _s("1")]], [[_s("0"), _s("-1/2", "1/2")], [_s("2/3"), _s("0")]]],
        [[[_s("1"), _s("0")], [_s("0", "-1"), _s("0")]], [[_s("1/3", "1/5"), _s("0")], [_s("0"), _s("-1")]]],
    ]
    return {"presentation": presentation_to_json(build_presentation("u_plus", 2)), "n": 2, "R": R}


def _tampered_counit_cocycle(kind, **kw):
    rep = representation_to_json(counit_rep(build_presentation(kind, 2, **kw), 2))
    V = [[[_s("1/2", "1"), _s("0")], [_s("0", "1/3"), _s("-1")]], [[_s("2"), _s("1/7")], [_s("0"), _s("0", "-2/3")]]]
    W = [[[_s("0"), _s("1", "1/2")], [_s("-1/3"), _s("0")]], [[_s("0", "1"), _s("0")], [_s("5/4"), _s("1")]]]
    return {"rep": rep, "V": V, "W": W}


def _tampered_magic_cocycle():
    # o_plus d = 2 on the magic unitary p, 1 - p with p = [[1/2, 1/2], [1/2, 1/2]]
    p = [[_s("1/2"), _s("1/2")], [_s("1/2"), _s("1/2")]]
    q = [[_s("1/2"), _s("-1/2")], [_s("-1/2"), _s("1/2")]]
    pres = presentation_to_json(build_presentation("o_plus", 2))
    V = [[[_s("1", "1"), _s("-1", "1")], [_s("0"), _s("1/2")]], [[_s("1/2"), _s("0")], [_s("0", "1/3"), _s("2")]]]
    return {"rep": {"presentation": pres, "n": 2, "R": [[p, q], [q, p]]}, "V": V, "W": V}


# stdout of `validate` on each tampered object, the same with and without
# --json: every violated relation in presentation order with its exact value
TAMPERED = {
    "rep_u_plus": (_tampered_rep, REP_U2),
    "cocycle_u_q": (lambda: _tampered_counit_cocycle("u_q", q_diag=[rational("1/2"), rational(3)]), COC_U_Q),
    "cocycle_su_q": (lambda: _tampered_counit_cocycle("su_q", q=rational("1/3")), COC_SU_Q),
    "cocycle_o_plus_magic": (_tampered_magic_cocycle, COC_O2_MAGIC),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_validate_violation_output_pinned(run, write, name, as_json):
    build, expected = TAMPERED[name]
    argv = ["validate", "--input", write(f"{name}.json", build())] + (["--json"] if as_json else [])
    code, out, err = run(*argv)
    assert code == 1
    assert err == ""
    assert out == expected


def test_malformed_scalar_is_input_error(run, files):
    code, _, err = run("validate", "--input", files["badscalar"])
    assert code == 2
    assert "1/0" in err


def test_non_string_kind_is_input_error(run, write):
    code, _, err = run("validate", "--input", write("k.json", {"kind": [1], "d": 2}))
    assert code == 2
    assert "'kind' must be a string" in err


@pytest.mark.parametrize("value", [2.5, True, "2"])
@pytest.mark.parametrize("field", ["d", "n"])
def test_integer_fields_refuse_other_json_types(run, write, eta_sym_u2, field, value):
    # int() would truncate 2.5 to 2 and read true as 1
    obj = cocycle_to_json(eta_sym_u2)
    target = obj["rep"]["presentation"] if field == "d" else obj["rep"]
    target[field] = value
    code, _, err = run("validate", "--input", write("f.json", obj))
    assert code == 2
    assert f"'{field}' must be a JSON integer" in err


def test_missing_input_flag(run):
    code, _, err = run("check", "gf")
    assert code == 2
    assert "requires --input" in err


def test_unreadable_file(run):
    code, _, err = run("validate", "--input", "/does/not/exist.json")
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_file(run, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run("validate", "--input", str(p))
    assert code == 2
    assert "invalid JSON" in err


def test_wrong_shape_rejected(run, files):
    code, _, err = run("check", "gf", "--input", files["pres_u2"])
    assert code == 2
    assert "expected a cocycle" in err


def test_check_gf_negative_prints_both_matrices(run, files):
    code, out, _ = run("check", "gf", "--input", files["asym"])
    assert code == 1
    assert "gf exists: false" in out
    assert "b_tilde:" in out
    assert "b transpose:" in out
    # the exact offending matrices, column aligned
    assert "[    1  1*i ]" in out
    assert "[    2  1*i ]" in out


def test_check_gf_positive(run, files):
    code, out, _ = run("check", "gf", "--input", files["sym"])
    assert code == 0
    assert "gf exists: true" in out


def test_check_real_negative_with_witness(run, files):
    code, out, _ = run("check", "real", "--input", files["asym"])
    assert code == 1
    assert "real: false" in out
    assert "u[1,1]" in out and "u[1,2]" in out


def test_check_h1_dimension(run, files):
    code, out, _ = run("check", "h1", "--input", files["pres_o3"])
    assert code == 0
    assert out.strip() == "h1 dimension: 3"


def test_check_h1_json(run, files):
    code, out, _ = run("check", "h1", "--input", files["pres_o3"], "--json")
    assert code == 0
    assert json.loads(out) == {"dimension": 3}


def test_check_lk(run, files):
    code, out, _ = run("check", "lk", "--input", files["psi"])
    assert code == 0
    assert "decomposable: true" in out


def test_check_psd(run, files):
    code, out, _ = run("check", "psd", "--input", files["psi"])
    assert code == 0
    assert "psd true" in out


def test_validate_rejects_tampered_functional(run, files):
    code, out, _ = run("validate", "--input", files["tampered_psi"])
    assert code == 1
    assert "violated relations" in out
    assert out.strip().endswith("INVALID")


@pytest.mark.parametrize("what", ["psd", "lk"])
def test_checks_refuse_tampered_functional(run, files, what):
    # the letter values no longer vanish on the relations, so no verdict
    # may be printed: psd would read true and lk decomposable
    code, out, err = run("check", what, "--input", files["tampered_psi"])
    assert code == 2
    assert out == ""
    assert "invalid functional" in err
    assert "violated relations" in err
    assert "uu*(1,1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["check", "defect"], ["class-coords"], ["primitive"]],
    ids=["validate", "defect", "class-coords", "primitive"],
)
def test_tampered_nested_functional_refused_on_load(run, files, argv):
    # the coboundary of a functional that does not vanish on the relations
    # is no 2-cocycle of the quotient; no verdict may be printed on it
    code, out, err = run(*argv, "--input", files["tampered_coboundary"])
    assert code == 2
    assert out == ""
    assert "invalid functional in a coboundary 2-cocycle" in err
    assert "uu*(1,1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["reproduce-paper"], ["check", "psd", "--input", "psi"], ["check", "real", "--input", "sym"]],
    ids=["reproduce-paper", "psd", "real"],
)
def test_negative_word_length_refused(run, files, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(*argv, "--max-word-len", "-1")
    assert code == 2
    assert out == ""
    assert "--max-word-len must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [["check", "psd", "--input", "psi", "--max-word-len", "9"], ["reproduce-paper", "--max-word-len", "7"]],
    ids=["psd", "reproduce-paper"],
)
def test_table_budget_refused(run, files, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert "above the table budget MAX_TABLE_ENTRIES" in err


def test_real_word_length_budget_refused(run, files, monkeypatch):
    # length 3000 used to end in a RecursionError traceback
    monkeypatch.setattr(cocycle, "reality_pair", lambda *a: pytest.fail("evaluated"))
    monkeypatch.setattr(cocycle, "cocycle_values", lambda *a: pytest.fail("evaluated"))
    code, out, err = run("check", "real", "--input", files["sym"], "--max-word-len", "3000")
    assert code == 2
    assert out == ""
    assert "above the word length budget MAX_SAMPLED_WORD_LEN" in err


@pytest.mark.parametrize("command", [["check", "h1"], ["solve-cocycles"]], ids=["h1", "solve"])
def test_cocycle_matrix_budget_refused(run, write, monkeypatch, command):
    # the counit on n = 23 over U_4+: 23 coordinates of 2 * 16 * 23 columns
    # on each of the 257 relation words
    path = write("rep.json", representation_to_json(counit_rep(build_presentation("u_plus", 4), 23)))
    refuse_elimination(monkeypatch)
    code, out, err = run(*command, "--input", path)
    assert code == 2
    assert out == ""
    assert "the cocycle coefficient matrix would hold 4350496 entries" in err
    assert "above the table budget MAX_TABLE_ENTRIES" in err


def test_representation_budget_refused_from_json(run, write, monkeypatch):
    # the counit on n = 2 over U_2+ holds 4 entries on each of 33 relation
    # words, one above a budget of 131
    path = write("rep.json", representation_to_json(counit_rep(build_presentation("u_plus", 2), 2)))
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 131)
    refuse_evaluation(monkeypatch)
    code, out, err = run("validate", "--input", path)
    assert code == 2
    assert out == ""
    assert "the relation values of a representation of dimension 2 would hold 132 entries" in err
    assert "above the table budget MAX_TABLE_ENTRIES = 131" in err


@pytest.mark.parametrize("d", [6, 7, 10**9])
def test_su_q_budget_refused_before_build(run, write, monkeypatch, d):
    # d! determinant relations of d! words of d letters: 5!^2 * 5 fits the
    # budget, 6!^2 * 6 does not
    assert 120**2 * 5 <= words.MAX_TABLE_ENTRIES < 720**2 * 6
    monkeypatch.setattr(serialize, "build_presentation", lambda *a, **k: pytest.fail("built"))
    path = write("su_q.json", {"kind": "su_q", "d": d, "q": "1/2"})
    code, out, err = run("validate", "--input", path)
    assert code == 2
    assert out == ""
    assert f"su_q at d = {d}" in err
    assert "above the table budget MAX_TABLE_ENTRIES" in err


@pytest.mark.parametrize("kind", ["k_d", "u_plus", "u_q", "o_plus", "o_f", "su_q"])
def test_presentation_budget_refused_from_json(run, write, monkeypatch, kind):
    # about 4 d^3 relation terms: d = 1000 would build for hours
    monkeypatch.setattr(serialize, "build_presentation", lambda *a, **k: pytest.fail("built"))
    code, out, err = run("validate", "--input", write("p.json", {"kind": kind, "d": 1000}))
    assert code == 2
    assert out == ""
    assert f"{kind} at d = 1000" in err
    assert "above the table budget MAX_TABLE_ENTRIES" in err


def test_check_defect(run, files):
    code, out, _ = run("check", "defect", "--input", files["kpair"])
    assert code == 0
    assert "unitary defect:" in out
    assert "flavor check (trace zero): pass" in out


def test_basis_listing(run, files):
    code, out, _ = run("basis", "--input", files["pres_u2"])
    assert code == 0
    assert "3 classes" in out
    for label in ("K_1_2", "K_2_1", "K_p_1"):
        assert label in out


def test_primitive_obstructed_prints_defect(run, files):
    code, out, _ = run("primitive", "--input", files["kpair"])
    assert code == 1
    assert "not a coboundary" in out
    assert "[ -1  0 ]" in out


def test_class_coords(run, files):
    code, out, _ = run("class-coords", "--input", files["kpair"])
    assert code == 0
    assert "flavor: unitary" in out
    assert "K_p_1: 1" in out


def test_solve_cocycles_deterministic(run, files):
    code1, out1, _ = run("solve-cocycles", "--input", files["pres_u2"])
    code2, out2, _ = run("solve-cocycles", "--input", files["pres_u2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "dimension: 4" in out1


def test_solve_cocycles_json(run, files):
    code, out, _ = run("solve-cocycles", "--input", files["pres_u2"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert len(data["basis"]) == 4


def test_reproduce_paper_short_pool(run):
    code1, out1, _ = run("reproduce-paper", "--max-word-len", "2")
    code2, out2, _ = run("reproduce-paper", "--max-word-len", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1
    assert "FAIL" not in out1
    # the bytes pinned for this run, the same the benchmark pins
    assert out1.encode() == PINNED_LEN2.read_bytes() == BENCH_LEN2.read_bytes()


def test_reproduce_paper_runs_past_the_sweep_length_of_its_old_budget(run):
    # the sweep is budgeted by its eta tables, words of up to 4 letters, no
    # longer by tables of words of 8 letters
    code, out, err = run("reproduce-paper", "--max-word-len", "4")
    assert code == 0, err
    assert "all 21911761 word pairs of length <= 4" in out
    assert out.endswith("51/51 checks passed\n")


def test_module_entry_point_runs_the_cli():
    # python -m schurmann exits with the code of cli.main
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-m", "schurmann", "--help"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "reproduce-paper" in done.stdout
