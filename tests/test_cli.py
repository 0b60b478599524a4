"""End-to-end CLI behavior: exit codes, reports and deterministic output."""

import json

import pytest

from schurmann import KPairCocycle, coboundary1, cocycle, schurmann_functional, serialize, words
from schurmann.cli import main
from schurmann.serialize import (
    cocycle_to_json,
    functional_to_json,
    presentation_to_json,
    two_cocycle_to_json,
)


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
    [["check", "psd", "--input", "psi", "--max-word-len", "9"], ["reproduce-paper", "--max-word-len", "4"]],
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
    code, out, err = run("check", "real", "--input", files["sym"], "--max-word-len", "3000")
    assert code == 2
    assert out == ""
    assert "above the word length budget MAX_SAMPLED_WORD_LEN" in err


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
