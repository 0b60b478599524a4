"""End-to-end CLI behavior: exit codes, reports and deterministic output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import cycle_rep, refuse_elimination, refuse_evaluation
from schurmann import (
    CoboundaryCocycle,
    CombinationCocycle,
    CounitFunctional,
    I,
    KPairCocycle,
    ONE,
    Primitive,
    QMatrix,
    QVector,
    Qi,
    ZERO,
    algebra,
    build_presentation,
    coboundary1,
    cocycle,
    counit_rep,
    gaussian_cocycle,
    primitive,
    rational,
    scalar_gaussian_cocycle,
    scenarios,
    schurmann_functional,
    solve_cocycles,
)
from schurmann.cli import main
from schurmann.serialize import (
    cocycle_to_json,
    functional_to_json,
    presentation_to_json,
    primitive_to_json,
    representation_to_json,
    two_cocycle_to_json,
)

ROOT = Path(__file__).resolve().parents[1]
PINNED_LEN2 = ROOT / "tests" / "expected" / "reproduce_paper_len2.txt"
PINNED_SEED1_JSON = ROOT / "tests" / "expected" / "reproduce_paper_seed1_len2.json"
BENCH_LEN2 = ROOT / "perfbench" / "expected" / "reproduce_paper_len2.txt"
PINNED_CLI = ROOT / "tests" / "expected" / "cli_outputs.json"
PINNED_FLAVORS = ROOT / "tests" / "expected" / "cli_flavor_outputs.json"


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


# every subcommand that reads --input
INPUT_COMMANDS = [
    ["validate"],
    *(["check", what] for what in ("defect", "gf", "h1", "lk", "psd", "real")),
    ["basis"],
    ["primitive"],
    ["class-coords"],
    ["solve-cocycles"],
]


def _cli_outcomes(run, files) -> dict:
    """[exit code, stdout, stderr] of every --input subcommand on every file
    of `files`, on a missing --input and on an unreadable path, each plain
    and with --json."""
    inputs = [(name, ["--input", path]) for name, path in files.items()]
    inputs += [("no-input", []), ("unreadable", ["--input", "/does/not/exist.json"])]
    out = {}
    for command in INPUT_COMMANDS:
        for name, flags in inputs:
            for mode in ([], ["--json"]):
                out[" ".join([*command, name, *mode])] = list(run(*command, *flags, *mode))
    return out


def test_cli_outputs_are_pinned(run, files):
    # exit code, stdout and stderr of each run, byte for byte
    pinned = json.loads(PINNED_CLI.read_text())
    outcomes = _cli_outcomes(run, files)
    assert list(outcomes) == list(pinned)
    for key, outcome in outcomes.items():
        assert outcome == pinned[key], key


@pytest.fixture
def flavor_files(write, o3, eta_rot_o3):
    """{command: {name: path}}: O_2+ and O_3+ inputs for the orthogonal
    branches, and normalized inputs on the kinds that `basis`, `check
    defect`, `primitive` and `class-coords` refuse."""

    def z(j, k):
        # e_jk - e_kj at d = 3, indices from 0
        entry = {(j, k): ONE, (k, j): -ONE}
        return QMatrix([[entry.get((r, s), ZERO) for s in range(3)] for r in range(3)])

    def pairing(pres):
        # the first counit cocycle paired with itself
        eta = solve_cocycles(counit_rep(pres)).basis[0]
        return KPairCocycle(eta, eta)

    # Khat_1_2 of the orthogonal basis, and C07's Gaussian part
    khat = KPairCocycle(scalar_gaussian_cocycle(o3, z(2, 0)), scalar_gaussian_cocycle(o3, z(2, 1)))
    eta_g = scalar_gaussian_cocycle(o3, QMatrix([[ZERO, ONE, ONE], [-ONE, ZERO, I], [-ONE, -I, ZERO]]))
    boundary = coboundary1(schurmann_functional(eta_rot_o3))
    uq = build_presentation("u_q", 2, q_diag=[1, 2])
    of = build_presentation("o_f", 2, F=QMatrix([[ZERO, Qi(rational("1/2"))], [Qi(2), ZERO]]))
    two_cocycles = {
        "khat_o3": khat,
        "boundary_o3": boundary,
        "kpair_rot_o3": KPairCocycle(eta_rot_o3, eta_rot_o3),
        "combo_o3": CombinationCocycle(((Qi(2), khat), (ONE, boundary))),
        "pairing_uq": pairing(uq),
        "pairing_of": pairing(of),
    }
    two_cocycles = {name: write(f"{name}.json", two_cocycle_to_json(c)) for name, c in two_cocycles.items()}
    presentations = {
        name: write(f"{name}.json", presentation_to_json(p))
        for name, p in (("pres_o2", build_presentation("o_plus", 2)), ("pres_uq", uq))
    }
    cocycles = {
        name: write(f"{name}.json", cocycle_to_json(eta)) for name, eta in (("eta_g_o3", eta_g), ("rot_o3", eta_rot_o3))
    }
    return {
        ("check", "gf"): cocycles,
        ("check", "defect"): two_cocycles,
        ("basis",): presentations,
        ("primitive",): two_cocycles,
        ("class-coords",): two_cocycles,
    }


def test_orthogonal_and_refusal_outputs_are_pinned(run, flavor_files):
    # exit code, stdout and stderr of the orthogonal branches and of the
    # kind refusals (exit 2), byte for byte, plain and with --json
    pinned = json.loads(PINNED_FLAVORS.read_text())
    outcomes = {
        " ".join([*command, name, *mode]): list(run(*command, "--input", path, *mode))
        for command, paths in flavor_files.items()
        for name, path in paths.items()
        for mode in ([], ["--json"])
    }
    assert list(outcomes) == list(pinned)
    for key, outcome in outcomes.items():
        assert outcome == pinned[key], key


def _nested_combination(depth):
    """A `combination` 2-cocycle, one term deep `depth` times, around the
    coboundary of the counit on U_2+: three JSON levels per term."""
    inner = json.dumps(two_cocycle_to_json(coboundary1(CounitFunctional(build_presentation("u_plus", 2)))))
    head = '{"kind": "combination", "terms": [{"coeff": {"re": "1", "im": "0"}, "term": '
    return head * depth + inner + "}]}" * depth


@pytest.mark.parametrize("text", ["[" * 200_000, _nested_combination(340)], ids=["brackets", "combination"])
@pytest.mark.parametrize("command", INPUT_COMMANDS, ids="-".join)
def test_deeply_nested_json_is_an_input_error(run, tmp_path, command, text):
    # the JSON decoder runs out of recursion depth on these: exit 2 with
    # the file named, no traceback
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run(*command, "--input", str(p))
    assert code == 2
    assert out == ""
    assert f"invalid JSON in {p}: nested too deeply" in err


# -- fuzzing every --input subcommand ------------------------------------------


@pytest.fixture(scope="module")
def fuzz_bases(u2, eta_sym_u2):
    """One valid JSON object of every shape the commands read."""
    psi = schurmann_functional(eta_sym_u2)
    kpair = KPairCocycle(eta_sym_u2, eta_sym_u2)
    return [
        presentation_to_json(u2),
        presentation_to_json(build_presentation("k_d", 2)),
        representation_to_json(counit_rep(u2)),
        cocycle_to_json(eta_sym_u2),
        functional_to_json(psi),
        two_cocycle_to_json(kpair),
        two_cocycle_to_json(coboundary1(psi)),
        primitive_to_json(primitive(kpair)),
    ]


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(min_value=2**63)
    | st.integers(max_value=-(2**63))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


_NEST = "\x00nest\x00"


def _mutated(data, obj) -> str:
    """The JSON text of obj with one node replaced by a drawn value (wrong
    types, huge ints), given a drawn unknown key, or nested in up to
    100000 lists."""
    path = data.draw(st.sampled_from(list(_paths(obj))))
    node = _at(obj, path)
    how = data.draw(st.sampled_from(["replace", "key", "nest"]))
    if how == "replace":
        return json.dumps(_replaced(obj, path, data.draw(_json_values)))
    if how == "key" and isinstance(node, dict):
        node = dict(node, **{data.draw(st.text(max_size=6)): data.draw(_json_values)})
        return json.dumps(_replaced(obj, path, node))
    depth = data.draw(st.sampled_from([1, 2, 100_000]))
    text = json.dumps(_replaced(obj, path, _NEST))
    return text.replace(json.dumps(_NEST), "[" * depth + json.dumps(node) + "]" * depth)


@given(data=st.data())
def test_every_input_command_survives_generated_json(tmp_path_factory, fuzz_bases, data):
    # exit 0, 1 or 2, whatever the file holds: no exception leaves cli.main
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(_mutated(data, data.draw(st.sampled_from(fuzz_bases))))
    for command in INPUT_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, "--input", str(path)])
        assert code in (0, 1, 2), command


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


def _c09_cocycle():
    """C09's Gaussian cocycle on O_4+, which is not real."""
    pair = lambda a, b: QVector((a, b))
    z = ZERO
    grid = [
        [pair(z, z), pair(z, z), pair(ONE, z), pair(z, ONE)],
        [pair(z, z), pair(z, z), pair(I, z), pair(z, -I)],
        [pair(-ONE, z), pair(-I, z), pair(z, z), pair(z, z)],
        [pair(z, -ONE), pair(z, I), pair(z, z), pair(z, z)],
    ]
    return gaussian_cocycle(build_presentation("o_plus", 4), grid)


def test_check_real_on_letters_alone_at_length_0(run, write, eta_rot_o3):
    # no sampled word at length 0: the letters alone are checked
    c09 = write("c09.json", cocycle_to_json(_c09_cocycle()))
    code, out, err = run("check", "real", "--input", c09, "--max-word-len", "0")
    assert (code, err) == (1, "")
    assert out == "real: false\nfails at a=(1)·u[1,3], b=(1)·u[2,3]: 1*i != -1*i\n"
    rot = write("rot.json", cocycle_to_json(eta_rot_o3))
    code, out, err = run("check", "real", "--input", rot, "--max-word-len", "0")
    assert (code, out, err) == (0, "real: true\n", "")


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


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_failed_internal_recheck_exits_1_without_a_traceback(run, files, monkeypatch, as_json):
    # every value of d(psi) off by one: the Gram core recheck of `check psd`
    # raises ArithmeticError, reported on stderr with no verdict printed
    batch = CoboundaryCocycle.batch_numerators

    def shifted(self, pairs):
        re, im, den = batch(self, pairs)
        return [v + den for v in re], im, den

    monkeypatch.setattr(CoboundaryCocycle, "batch_numerators", shifted)
    code, out, err = run("check", "psd", "--input", files["psi"], *(["--json"] if as_json else []))
    assert (code, out) == (1, "")
    assert err == "internal check failed: a Gram core entry disagrees with the letter recursion of psi\n"


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


def test_primitive_over_a_non_normalized_2cocycle_refused_on_load(run, write):
    # d(eps)(1, 1) = 1, so the letter recursion contradicts the letter values
    # (it gives phi(u[1,1]) = -1 against 0); no verdict may be printed on it
    zero = QMatrix.zero(2, 2)
    phi = Primitive(coboundary1(CounitFunctional(build_presentation("k_d", 2))), zero, zero)
    code, out, err = run("validate", "--input", write("counit_primitive.json", primitive_to_json(phi)))
    assert (code, out) == (2, "")
    assert "2-cocycle must be normalized" in err
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


@pytest.mark.parametrize("argv", [["check", "psd", "--input", "psi", "--max-word-len", "9"]], ids=["psd"])
def test_table_budget_refused(run, files, argv):
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert "above the table budget MAX_TABLE_ENTRIES" in err


def test_reproduce_paper_word_length_budget_refused(run, monkeypatch):
    # C13's recheck multiplies two words of --max-word-len letters: 129
    # gives 258 letters, above MAX_SAMPLED_WORD_LEN = 256, refused before
    # any scenario runs
    assert 2 * 128 == algebra.MAX_SAMPLED_WORD_LEN
    refused = tuple((sid, lambda *a: pytest.fail("built")) for sid, _ in scenarios.SCENARIOS)
    monkeypatch.setattr(scenarios, "SCENARIOS", refused)
    code, out, err = run("reproduce-paper", "--max-word-len", "129")
    assert code == 2
    assert out == ""
    assert "the sweep's recheck products of length up to 258" in err
    assert "above the word length budget MAX_SAMPLED_WORD_LEN = 256" in err


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
    assert 120**2 * 5 <= algebra.MAX_TABLE_ENTRIES < 720**2 * 6
    # every kind builds its relations from the unitarity ones first
    monkeypatch.setattr(algebra, "_quadratic_relations", lambda *a, **k: pytest.fail("built"))
    path = write("su_q.json", {"kind": "su_q", "d": d, "q": "1/2"})
    code, out, err = run("validate", "--input", path)
    assert code == 2
    assert out == ""
    assert f"su_q at d = {d}" in err
    assert "above the table budget MAX_TABLE_ENTRIES" in err


@pytest.mark.parametrize("kind", ["k_d", "u_plus", "u_q", "o_plus", "o_f", "su_q"])
def test_presentation_budget_refused_from_json(run, write, monkeypatch, kind):
    # about 4 d^3 relation terms: d = 1000 would build for hours
    # every kind builds its relations from the unitarity ones first
    monkeypatch.setattr(algebra, "_quadratic_relations", lambda *a, **k: pytest.fail("built"))
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


def test_reproduce_paper_json_at_seed_1_is_pinned(run):
    # every check's expected and computed strings at a second seed
    code, out, _ = run("reproduce-paper", "--json", "--seed", "1", "--max-word-len", "2")
    assert code == 0
    assert out.encode() == PINNED_SEED1_JSON.read_bytes()


def test_reproduce_paper_runs_past_the_sweep_length_of_its_old_budget(run):
    # the sweep builds no table: its pairs hold by an identity and its
    # recheck reads 16 pairs of 7-letter words, where a table of the words
    # of length 7 would have held 8^7 entries, above MAX_TABLE_ENTRIES
    code, out, err = run("reproduce-paper", "--max-word-len", "7")
    assert code == 0, err
    assert f"all {sum(8**m for m in range(8)) ** 2} word pairs of length <= 7" in out
    assert out.endswith("51/51 checks passed\n")


def test_module_entry_point_runs_the_cli():
    # python -m schurmann exits with the code of cli.main
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-m", "schurmann", "--help"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "reproduce-paper" in done.stdout
