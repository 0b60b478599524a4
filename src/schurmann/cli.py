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

There is one input path.  `_COMMANDS` names each subcommand with its help
text, the wire shapes its --input may hold and its function; the parser and
the dispatch are both built from it.  `_input` reads the file once, detects
its shape, refuses a shape the subcommand does not take and loads it through
`_LOADERS`, so every subcommand is a pure function of (loaded input, seed,
max word length) and output is byte-identical across runs with the same
flags.  Exit codes: 0 pass, 1 mathematical failure, negative verdict or
failed internal recheck, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .algebra import PRESENTATION_KINDS
from .cocycle import b_matrices, is_real_cocycle, solve_cocycles
from .cohomology import (
    CLASS_KINDS,
    FLAVORS,
    check_2cocycle,
    check_primitive,
    class_coordinates,
    defect,
    defect_basis,
    primitive,
)
from .errors import InputError, ObstructionError, RelationViolation
from .functional import (
    admits_gf_criterion,
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
    violation_lines,
)

_TWO_COCYCLE_KINDS = {"kpair", "coboundary", "combination"}


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


_LOADERS = {
    "presentation": presentation_from_json,
    "representation": representation_from_json,
    "cocycle": cocycle_from_json,
    "functional": functional_from_json,
    "primitive": primitive_from_json,
    "two-cocycle": two_cocycle_from_json,
}


def _input(path, shapes):
    """(shape, loaded object) of the JSON file at path; a shape outside
    shapes (None: any shape) is refused before anything is loaded."""
    if path is None:
        raise InputError("this subcommand requires --input FILE")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from None
    shape = _detect(obj)
    if shapes is not None and shape not in shapes:
        raise InputError(f"expected a {' or '.join(shapes)} file, got a {shape}")
    return shape, _LOADERS[shape](obj)


def _fmt_matrix(m: QMatrix, indent: str = "  ") -> str:
    cells = [[repr(x) for x in row] for row in m.data]
    widths = [max(len(cells[r][c]) for r in range(m.rows)) for c in range(m.cols)]
    lines = []
    for row in cells:
        body = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"{indent}[ {body} ]")
    return "\n".join(lines)


def _violation_json(violations) -> list:
    return [
        {
            "relation": lbl,
            "value": scalar_to_json(val) if isinstance(val, Qi) else repr(val),
        }
        for lbl, val in violations
    ]


# -- subcommands: each takes (args, shape, loaded input) ----------------------


def cmd_validate(args, shape, obj):
    if shape == "presentation":
        lines = [f"presentation: kind={obj.kind} d={obj.d}, {len(obj.relations)} relations", "valid"]
        return 0, lines, {"object": shape, "kind": obj.kind, "d": obj.d, "valid": True}
    if shape in ("representation", "cocycle"):
        kind = obj.presentation.kind
        lines = [f"{shape}: {kind} d={obj.d}, carrier dimension {obj.n}", "valid"]
        return 0, lines, {"object": shape, "kind": kind, "d": obj.d, "n": obj.n, "valid": True}
    if shape == "functional":
        violations, hermitian = relation_checks(obj)
        ok = not violations and hermitian
        lines = [
            f"functional: {obj.presentation.kind} d={obj.d}",
            *problem_lines(violations, hermitian),
            "valid" if ok else "INVALID",
        ]
        data = {
            "object": shape,
            "valid": ok,
            "hermitian": hermitian,
            "violations": _violation_json(violations),
        }
        return (0 if ok else 1), lines, data
    if shape == "primitive":
        violations, _ = relation_checks(obj)
        witness = None if violations else check_primitive(obj, seed=args.seed)
        ok = not violations and witness is None
        lines = [f"primitive: {obj.presentation.kind} d={obj.d}", *problem_lines(violations, True)]
        if witness is not None:
            a, b, got, want = witness
            lines.append(f"d(phi) != c at a={a!r}, b={b!r}: {got!r} != {want!r}")
        lines.append("valid" if ok else "INVALID")
        data = {"object": shape, "valid": ok, "violations": _violation_json(violations)}
        return (0 if ok else 1), lines, data
    witness = check_2cocycle(obj, seed=args.seed)
    ok = witness is None
    lines = [f"2-cocycle: {obj.presentation.kind} d={obj.d}"]
    data = {"object": shape, "valid": ok}
    if witness is not None:
        a, b, x, val = witness
        lines.append(f"degree-2 identity fails at a={a!r}, b={b!r}, x={x!r}: {val!r}")
        data["witness"] = {
            "a": element_to_json(a),
            "b": element_to_json(b),
            "x": element_to_json(x),
            "value": scalar_to_json(val),
        }
    lines.append("valid" if ok else "INVALID")
    return (0 if ok else 1), lines, data


# The printed names of each defect flavor: the name of the defect's check,
# and the existence criterion with the (text label, JSON key, matrix) of
# the two B matrices it compares.  The orthogonal names read b_tilde = b^t
# as "b real": on o_plus, b_tilde = b and b^t = conj(b).
_CHECK_NAMES = {"unitary": "trace zero", "orthogonal": "antisymmetric"}
_CRITERIA = {
    "unitary": (
        "b_tilde = b transpose",
        lambda bm: [("b_tilde", "b_tilde", bm.b_tilde), ("b transpose", "b_transpose", bm.b.transpose())],
    ),
    "orthogonal": ("b real", lambda bm: [("b", "b", bm.b), ("conj(b)", "b_conj", bm.b.conj())]),
}


def _check_gf(args, shape, eta):
    kind = eta.presentation.kind
    if kind in CLASS_KINDS:
        ok = admits_gf_criterion(eta)
        criterion, sides = _CRITERIA[FLAVORS[kind]]
        matrices = sides(b_matrices(eta))
        lines = [f"gf exists: {str(ok).lower()} (criterion: {criterion})"]
        if not ok:
            lines += [line for label, _, m in matrices for line in (f"{label}:", _fmt_matrix(m))]
        data = {"verdict": ok} | {key: matrix_to_json(m) for _, key, m in matrices}
        return (0 if ok else 1), lines, data
    try:
        schurmann_functional(eta)
        ok, violations = True, []
    except RelationViolation as exc:
        ok, violations = False, exc.violations
    lines = [
        f"gf exists: {str(ok).lower()} (canonical construction "
        f"{'validates' if ok else 'fails'})",
        *violation_lines(violations),
    ]
    data = {"verdict": ok, "violations": _violation_json(violations)}
    return (0 if ok else 1), lines, data


def _check_lk(args, shape, psi):
    lk = lk_decomposition(checked_phi(psi, "functional"))
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


def _check_real(args, shape, eta):
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


def _check_defect(args, shape, c):
    # `defect` raises ArithmeticError rather than return a matrix that fails
    # its flavor check, so every defect printed passes it
    m, flavor = defect(c), FLAVORS[c.presentation.kind]
    check = _CHECK_NAMES[flavor]
    lines = [f"{flavor} defect:", _fmt_matrix(m), f"flavor check ({check}): pass"]
    data = {
        "flavor": flavor,
        "defect": matrix_to_json(m),
        "flavor_check": check,
        "flavor_check_pass": True,
    }
    return 0, lines, data


def _cocycle_space(shape, x):
    """The cocycle space of a representation, or of the counit of a presentation."""
    return solve_cocycles(counit_rep(x) if shape == "presentation" else x)


def _check_h1(args, shape, x):
    space = _cocycle_space(shape, x)
    return 0, [f"h1 dimension: {space.dimension}"], {"dimension": space.dimension}


def _check_psd(args, shape, psi):
    max_len = args.max_word_len if args.max_word_len is not None else 2
    ok = gram_psd_check(checked_phi(psi, "functional"), max_len=max_len)
    lines = [f"gram matrix over words of length <= {max_len}: psd {str(ok).lower()}"]
    return (0 if ok else 1), lines, {"verdict": ok, "max_word_len": max_len}


def cmd_basis(args, shape, pres):
    basis, flavor = defect_basis(pres), FLAVORS[pres.kind]
    check = _CHECK_NAMES[flavor]
    lines = [f"defect basis ({len(basis)} classes):"]
    entries = []
    for label, c in basis.items():
        m = defect(c)
        lines += [f"{label}: {flavor} defect", _fmt_matrix(m), f"flavor check ({check}): pass"]
        entries.append({"label": label, "defect": matrix_to_json(m)})
    return 0, lines, {"flavor": flavor, "basis": entries}


def cmd_primitive(args, shape, c):
    phi = primitive(c)
    lines = [
        "primitive letter values:",
        _fmt_matrix(phi.values),
        "starred letter values:",
        _fmt_matrix(phi.star_values),
    ]
    return 0, lines, primitive_to_json(phi)


def cmd_class_coords(args, shape, c):
    cc = class_coordinates(c)
    lines = [f"flavor: {cc.flavor}", "coordinates:"]
    lines += [f"  {label}: {coeff!r}" for label, coeff in cc.coefficients.items()]
    lines += ["defect:", _fmt_matrix(cc.defect)]
    data = {
        "flavor": cc.flavor,
        "coordinates": {lbl: scalar_to_json(v) for lbl, v in cc.coefficients.items()},
        "defect": matrix_to_json(cc.defect),
    }
    return 0, lines, data


def cmd_solve_cocycles(args, shape, x):
    space = _cocycle_space(shape, x)
    lines = [f"cocycle space dimension: {space.dimension}"]
    for i, eta in enumerate(space.basis):
        lines.append(f"basis[{i}]:")
        for name, grid in (("V", eta.V), ("W", eta.W)):
            for j in range(eta.d):
                for k in range(eta.d):
                    if not grid[j][k].is_zero():
                        lines.append(f"  {name}[{j + 1},{k + 1}] = {grid[j][k]!r}")
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
    data = {
        "passed": sum(1 for r in results if r.passed),
        "total": len(results),
        "results": [dataclasses.asdict(r) for r in results],
    }
    return (0 if data["passed"] == data["total"] else 1), [format_results(results)], data


# -- wiring -------------------------------------------------------------------

_CHECK = "boolean checks with exact witnesses"
# a representation, or a presentation read as its counit
_REP = ("presentation", "representation")

# every subcommand: (help, the shapes its --input may hold, function); None
# takes any shape, () reads no --input.  "check X" rows are the choices of
# the one `check` subcommand.
_COMMANDS = {
    "validate": ("validate any supported JSON object", None, cmd_validate),
    "check defect": (_CHECK, ("two-cocycle",), _check_defect),
    "check gf": (_CHECK, ("cocycle",), _check_gf),
    "check h1": (_CHECK, _REP, _check_h1),
    "check lk": (_CHECK, ("functional",), _check_lk),
    "check psd": (_CHECK, ("functional",), _check_psd),
    "check real": (_CHECK, ("cocycle",), _check_real),
    "basis": ("defect basis of a presentation", ("presentation",), cmd_basis),
    "primitive": ("primitive of a 2-cocycle", ("two-cocycle",), cmd_primitive),
    "class-coords": ("defect-basis coordinates", ("two-cocycle",), cmd_class_coords),
    "solve-cocycles": ("basis of the cocycle space", _REP, cmd_solve_cocycles),
    "reproduce-paper": ("run the verification suite", (), cmd_reproduce_paper),
}


def _add_common(p, needs_input):
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
    checks = sorted(name.split()[1] for name in _COMMANDS if name.startswith("check "))
    for name, (text, shapes, _) in _COMMANDS.items():
        head, _, what = name.partition(" ")
        if what and what != checks[0]:
            continue  # one `check` subcommand, added on its first row
        p = sub.add_parser(head, help=text)
        if what:
            p.add_argument("what", choices=checks)
        _add_common(p, needs_input=shapes != ())
    return ap


def _run(args):
    if args.max_word_len is not None and args.max_word_len < 0:
        raise InputError(f"--max-word-len must be >= 0, got {args.max_word_len}")
    _, shapes, fn = _COMMANDS[f"{args.command} {args.what}" if "what" in args else args.command]
    return fn(args, *_input(args.input, shapes)) if shapes != () else fn(args)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, lines, data = _run(args)
    except ValueError as exc:  # InputError is one
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RelationViolation as exc:
        print("\n".join([f"{exc.what}: violated relations", *violation_lines(exc.violations)]))
        return 1
    except ObstructionError as exc:
        print(str(exc))
        print(_fmt_matrix(exc.defect))
        return 1
    except ArithmeticError as exc:
        print(f"internal check failed: {exc.args[0]}", file=sys.stderr)
        return 1
    print(json.dumps(data, indent=2) if args.as_json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
