"""Command line interface over the JSON wire formats.

Subcommands:
    validate          parse and validate any supported object file
    check gf          does the cocycle admit a generating functional
    check lk          does the functional split along the Gaussian subspace
    check real        is the cocycle real (Kac presentations)
    check defect      defect matrix of a 2-cocycle plus its flavor check
    check h1          dimension of the 1-cocycle space
    check psd         conditional positivity on the short word pool
    basis             defect basis for a u_plus / o_plus presentation
    primitive         construct phi with d(phi) = c for a 2-cocycle file
    class-coords      coordinates of a 2-cocycle in the defect basis
    solve-cocycles    exact basis of the cocycle space of a representation
    reproduce-paper   run the whole verification suite

Every subcommand is a pure function of (input file, seed, max word length),
so output is byte-identical across runs with the same flags.  Exit codes:
0 pass, 1 mathematical failure or negative verdict, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import PRESENTATION_KINDS
from .cocycle import b_matrices, is_real_cocycle, solve_cocycles
from .cohomology import (
    basis_orthogonal,
    basis_unitary,
    check_2cocycle,
    check_primitive,
    class_coordinates,
    defect_orthogonal,
    defect_unitary,
    primitive,
)
from .errors import InputError, ObstructionError, RelationViolation
from .functional import (
    admits_gf_orth,
    admits_gf_unitary,
    gram_psd_check,
    lk_decomposition,
    schurmann_functional,
)
from .linalg import QMatrix
from .representation import counit_rep
from .scalars import Qi, scalar_to_json
from .scenarios import RunConfig, format_results, run_all
from .serialize import (
    checked_phi,
    cocycle_from_json,
    cocycle_to_json,
    element_to_json,
    functional_from_json,
    matrix_to_json,
    presentation_from_json,
    primitive_from_json,
    primitive_to_json,
    problem_lines,
    relation_checks,
    representation_from_json,
    two_cocycle_from_json,
)

_TWO_COCYCLE_KINDS = {"kpair", "coboundary", "combination"}


def _load(path):
    if path is None:
        raise InputError("this subcommand requires --input FILE")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from None


def _detect(obj) -> str:
    if not isinstance(obj, dict):
        raise InputError("top-level JSON must be an object")
    kind = obj.get("kind")
    if kind is not None and not isinstance(kind, str):
        raise InputError(f"'kind' must be a string, got {kind!r}")
    if kind in _TWO_COCYCLE_KINDS:
        return "two-cocycle"
    if kind == "primitive":
        return "primitive"
    if "rep" in obj and "values" in obj:
        return "functional"
    if "rep" in obj and "V" in obj:
        return "cocycle"
    if "presentation" in obj and "R" in obj:
        return "representation"
    if kind in PRESENTATION_KINDS:
        return "presentation"
    raise InputError(
        "unrecognized object; expected a presentation, representation, "
        "cocycle, functional, primitive or 2-cocycle"
    )


def _expect(obj, wanted: str):
    shape = _detect(obj)
    if shape != wanted:
        raise InputError(f"expected a {wanted} file, got a {shape}")


def _fmt_matrix(m: QMatrix, indent: str = "  ") -> str:
    cells = [[repr(x) for x in row] for row in m.data]
    widths = [max(len(cells[r][c]) for r in range(m.rows)) for c in range(m.cols)]
    lines = []
    for row in cells:
        body = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"{indent}[ {body} ]")
    return "\n".join(lines)


def _violation_lines(violations) -> list:
    return [f"  {lbl}: {val!r}" for lbl, val in violations]


def _violation_json(violations) -> list:
    return [
        {
            "relation": lbl,
            "value": scalar_to_json(val) if isinstance(val, Qi) else repr(val),
        }
        for lbl, val in violations
    ]


# -- validate ---------------------------------------------------------------


def _valid_functional(obj):
    """The functional in obj, refused with an InputError unless it validates."""
    return checked_phi(functional_from_json(obj), "functional")


def cmd_validate(args):
    obj = _load(args.input)
    shape = _detect(obj)
    if shape == "presentation":
        p = presentation_from_json(obj)
        lines = [
            f"presentation: kind={p.kind} d={p.d}, {len(p.relations)} relations",
            "valid",
        ]
        data = {"object": shape, "kind": p.kind, "d": p.d, "valid": True}
        return 0, lines, data
    if shape == "representation":
        rep = representation_from_json(obj)
        lines = [
            f"representation: {rep.presentation.kind} d={rep.d}, carrier dimension {rep.n}",
            "valid",
        ]
        data = {"object": shape, "kind": rep.presentation.kind, "d": rep.d, "n": rep.n, "valid": True}
        return 0, lines, data
    if shape == "cocycle":
        eta = cocycle_from_json(obj)
        lines = [
            f"cocycle: {eta.presentation.kind} d={eta.d}, carrier dimension {eta.n}",
            "valid",
        ]
        data = {"object": shape, "kind": eta.presentation.kind, "d": eta.d, "n": eta.n, "valid": True}
        return 0, lines, data
    if shape == "functional":
        psi = functional_from_json(obj)
        violations, hermitian = relation_checks(psi)
        ok = not violations and hermitian
        lines = [f"functional: {psi.presentation.kind} d={psi.d}"]
        lines.extend(problem_lines(violations, hermitian))
        lines.append("valid" if ok else "INVALID")
        data = {
            "object": shape,
            "valid": ok,
            "hermitian": hermitian,
            "violations": _violation_json(violations),
        }
        return (0 if ok else 1), lines, data
    if shape == "primitive":
        phi = primitive_from_json(obj)
        pres = phi.presentation
        violations, _ = relation_checks(phi)
        witness = None if violations else check_primitive(phi, seed=args.seed)
        ok = not violations and witness is None
        lines = [f"primitive: {pres.kind} d={phi.d}"]
        if violations:
            lines.append("violated relations:")
            lines.extend(_violation_lines(violations))
        if witness is not None:
            a, b, got, want = witness
            lines.append(f"d(phi) != c at a={a!r}, b={b!r}: {got!r} != {want!r}")
        lines.append("valid" if ok else "INVALID")
        data = {"object": shape, "valid": ok, "violations": _violation_json(violations)}
        return (0 if ok else 1), lines, data
    # two-cocycle
    c = two_cocycle_from_json(obj)
    witness = check_2cocycle(c, seed=args.seed)
    ok = witness is None
    lines = [f"2-cocycle: {c.presentation.kind} d={c.d}"]
    data = {"object": shape, "valid": ok}
    if witness is not None:
        a, b, x, val = witness
        lines.append(
            f"degree-2 identity fails at a={a!r}, b={b!r}, x={x!r}: {val!r}"
        )
        data["witness"] = {
            "a": element_to_json(a),
            "b": element_to_json(b),
            "x": element_to_json(x),
            "value": scalar_to_json(val),
        }
    lines.append("valid" if ok else "INVALID")
    return (0 if ok else 1), lines, data


# -- check ------------------------------------------------------------------


def _check_gf(args):
    obj = _load(args.input)
    _expect(obj, "cocycle")
    eta = cocycle_from_json(obj)
    kind = eta.presentation.kind
    if kind == "u_plus":
        ok = admits_gf_unitary(eta)
        bm = b_matrices(eta)
        bt = bm.b.transpose()
        lines = [f"gf exists: {str(ok).lower()} (criterion: b_tilde = b transpose)"]
        if not ok:
            lines += ["b_tilde:", _fmt_matrix(bm.b_tilde), "b transpose:", _fmt_matrix(bt)]
        data = {
            "verdict": ok,
            "b_tilde": matrix_to_json(bm.b_tilde),
            "b_transpose": matrix_to_json(bt),
        }
        return (0 if ok else 1), lines, data
    if kind == "o_plus":
        ok = admits_gf_orth(eta)
        bm = b_matrices(eta)
        bc = bm.b.conj()
        lines = [f"gf exists: {str(ok).lower()} (criterion: b real)"]
        if not ok:
            lines += ["b:", _fmt_matrix(bm.b), "conj(b):", _fmt_matrix(bc)]
        data = {"verdict": ok, "b": matrix_to_json(bm.b), "b_conj": matrix_to_json(bc)}
        return (0 if ok else 1), lines, data
    try:
        schurmann_functional(eta)
        ok, violations = True, []
    except RelationViolation as exc:
        ok, violations = False, exc.violations
    lines = [
        f"gf exists: {str(ok).lower()} (canonical construction "
        f"{'validates' if ok else 'fails'})"
    ]
    lines.extend(_violation_lines(violations))
    data = {"verdict": ok, "violations": _violation_json(violations)}
    return (0 if ok else 1), lines, data


def _check_lk(args):
    obj = _load(args.input)
    _expect(obj, "functional")
    psi = _valid_functional(obj)
    lk = lk_decomposition(psi)
    lines = [
        f"gaussian subspace dimension: {lk.gaussian_dim}",
        f"gaussian part admits gf: {str(lk.gf_exists_g).lower()}",
        f"non-gaussian part admits gf: {str(lk.gf_exists_n).lower()}",
        f"decomposable: {str(lk.decomposable).lower()}",
    ]
    data = {
        "gaussian_dim": lk.gaussian_dim,
        "gf_exists_gaussian": lk.gf_exists_g,
        "gf_exists_nongaussian": lk.gf_exists_n,
        "verdict": lk.decomposable,
    }
    return (0 if lk.decomposable else 1), lines, data


def _check_real(args):
    obj = _load(args.input)
    _expect(obj, "cocycle")
    eta = cocycle_from_json(obj)
    max_len = args.max_word_len if args.max_word_len is not None else 3
    ok, witness = is_real_cocycle(eta, max_word_len=max_len, seed=args.seed)
    lines = [f"real: {str(ok).lower()}"]
    data = {"verdict": ok}
    if witness is not None:
        a, b, lhs, rhs = witness
        lines.append(f"fails at a={a!r}, b={b!r}: {lhs!r} != {rhs!r}")
        data["witness"] = {
            "a": element_to_json(a),
            "b": element_to_json(b),
            "lhs": scalar_to_json(lhs),
            "rhs": scalar_to_json(rhs),
        }
    return (0 if ok else 1), lines, data


def _defect_report(c):
    """(flavor, defect, flavor check name, check holds) for a 2-cocycle."""
    if c.presentation.kind == "o_plus":
        m = defect_orthogonal(c)
        return "orthogonal", m, "antisymmetric", (m + m.transpose()).is_zero()
    m = defect_unitary(c)
    return "unitary", m, "trace zero", m.trace().is_zero()


def _check_defect(args):
    obj = _load(args.input)
    _expect(obj, "two-cocycle")
    c = two_cocycle_from_json(obj)
    flavor, m, check_name, check_ok = _defect_report(c)
    lines = [
        f"{flavor} defect:",
        _fmt_matrix(m),
        f"flavor check ({check_name}): {'pass' if check_ok else 'FAIL'}",
    ]
    data = {
        "flavor": flavor,
        "defect": matrix_to_json(m),
        "flavor_check": check_name,
        "flavor_check_pass": check_ok,
    }
    return (0 if check_ok else 1), lines, data


def _rep_from(obj):
    shape = _detect(obj)
    if shape == "presentation":
        return counit_rep(presentation_from_json(obj))
    if shape == "representation":
        return representation_from_json(obj)
    raise InputError(f"expected a presentation or representation file, got a {shape}")


def _check_h1(args):
    space = solve_cocycles(_rep_from(_load(args.input)))
    lines = [f"h1 dimension: {space.dimension}"]
    return 0, lines, {"dimension": space.dimension}


def _check_psd(args):
    obj = _load(args.input)
    _expect(obj, "functional")
    psi = _valid_functional(obj)
    max_len = args.max_word_len if args.max_word_len is not None else 2
    ok = gram_psd_check(psi, max_len=max_len)
    lines = [f"gram matrix over words of length <= {max_len}: psd {str(ok).lower()}"]
    return (0 if ok else 1), lines, {"verdict": ok, "max_word_len": max_len}


_CHECKS = {
    "gf": _check_gf,
    "lk": _check_lk,
    "real": _check_real,
    "defect": _check_defect,
    "h1": _check_h1,
    "psd": _check_psd,
}


# -- cohomology commands ----------------------------------------------------


def cmd_basis(args):
    obj = _load(args.input)
    _expect(obj, "presentation")
    pres = presentation_from_json(obj)
    if pres.kind == "u_plus":
        basis, flavor = basis_unitary(pres), "unitary"
    elif pres.kind == "o_plus":
        basis, flavor = basis_orthogonal(pres), "orthogonal"
    else:
        raise InputError("defect basis covers u_plus and o_plus presentations")
    lines = [f"defect basis ({len(basis)} classes):"]
    entries = []
    for label, c in basis.items():
        _, m, check_name, check_ok = _defect_report(c)
        lines.append(f"{label}: {flavor} defect")
        lines.append(_fmt_matrix(m))
        lines.append(f"flavor check ({check_name}): {'pass' if check_ok else 'FAIL'}")
        entries.append({"label": label, "defect": matrix_to_json(m)})
    return 0, lines, {"flavor": flavor, "basis": entries}


def cmd_primitive(args):
    obj = _load(args.input)
    _expect(obj, "two-cocycle")
    c = two_cocycle_from_json(obj)
    phi = primitive(c)
    lines = [
        "primitive letter values:",
        _fmt_matrix(phi.values),
        "starred letter values:",
        _fmt_matrix(phi.star_values),
    ]
    return 0, lines, primitive_to_json(phi)


def cmd_class_coords(args):
    obj = _load(args.input)
    _expect(obj, "two-cocycle")
    c = two_cocycle_from_json(obj)
    cc = class_coordinates(c)
    lines = [f"flavor: {cc.flavor}", "coordinates:"]
    for label, coeff in cc.coefficients.items():
        lines.append(f"  {label}: {coeff!r}")
    lines.append("defect:")
    lines.append(_fmt_matrix(cc.defect))
    data = {
        "flavor": cc.flavor,
        "coordinates": {lbl: scalar_to_json(v) for lbl, v in cc.coefficients.items()},
        "defect": matrix_to_json(cc.defect),
    }
    return 0, lines, data


def cmd_solve_cocycles(args):
    space = solve_cocycles(_rep_from(_load(args.input)))
    lines = [f"cocycle space dimension: {space.dimension}"]
    for i, eta in enumerate(space.basis):
        lines.append(f"basis[{i}]:")
        for j in range(eta.d):
            for k in range(eta.d):
                if not eta.V[j][k].is_zero():
                    lines.append(f"  V[{j + 1},{k + 1}] = {eta.V[j][k]!r}")
        for j in range(eta.d):
            for k in range(eta.d):
                if not eta.W[j][k].is_zero():
                    lines.append(f"  W[{j + 1},{k + 1}] = {eta.W[j][k]!r}")
    data = {
        "dimension": space.dimension,
        "basis": [cocycle_to_json(eta) for eta in space.basis],
    }
    return 0, lines, data


def cmd_reproduce_paper(args):
    config = RunConfig(
        seed=args.seed,
        max_word_len=args.max_word_len if args.max_word_len is not None else 3,
    )
    results = run_all(config)
    ok = all(r.passed for r in results)
    lines = [format_results(results)]
    data = {
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
        "results": [
            {
                "scenario": r.scenario,
                "claim": r.claim,
                "expected": r.expected,
                "computed": r.computed,
                "passed": r.passed,
            }
            for r in results
        ],
    }
    return (0 if ok else 1), lines, data


# -- wiring -----------------------------------------------------------------


def _add_common(p, needs_input=True):
    if needs_input:
        p.add_argument("--input", metavar="FILE", help="JSON input file")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument(
        "--max-word-len",
        dest="max_word_len",
        type=int,
        default=None,
        metavar="N",
        help="maximum word length where sampling or pools apply",
    )
    p.add_argument(
        "--json", dest="as_json", action="store_true", help="machine-readable output"
    )


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schurmann",
        description="Exact cocycles, generating functionals and second "
        "Hochschild cohomology on universal quantum group algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("validate", help="validate any supported JSON object"))
    checker = sub.add_parser("check", help="boolean checks with exact witnesses")
    checker.add_argument("what", choices=sorted(_CHECKS))
    _add_common(checker)
    _add_common(sub.add_parser("basis", help="defect basis of a presentation"))
    _add_common(sub.add_parser("primitive", help="primitive of a 2-cocycle"))
    _add_common(sub.add_parser("class-coords", help="defect-basis coordinates"))
    _add_common(sub.add_parser("solve-cocycles", help="basis of the cocycle space"))
    _add_common(
        sub.add_parser("reproduce-paper", help="run the verification suite"),
        needs_input=False,
    )
    return ap


def _dispatch(args):
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "check":
        return _CHECKS[args.what](args)
    if args.command == "basis":
        return cmd_basis(args)
    if args.command == "primitive":
        return cmd_primitive(args)
    if args.command == "class-coords":
        return cmd_class_coords(args)
    if args.command == "solve-cocycles":
        return cmd_solve_cocycles(args)
    return cmd_reproduce_paper(args)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.max_word_len is not None and args.max_word_len < 0:
        print(f"input error: --max-word-len must be >= 0, got {args.max_word_len}", file=sys.stderr)
        return 2
    try:
        code, lines, data = _dispatch(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RelationViolation as exc:
        print(f"{exc.what}: violated relations")
        for lbl, val in exc.violations:
            print(f"  {lbl}: {val!r}")
        return 1
    except ObstructionError as exc:
        print(str(exc))
        print(_fmt_matrix(exc.defect))
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(data, indent=2) if args.as_json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
