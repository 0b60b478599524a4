"""JSON wire formats.

Scalars travel as {"re": "p/q", "im": "p/q"}, vectors as scalar lists,
matrices as row-major scalar lists, words as [{"r": j, "c": k, "star": s}],
elements as [{"coeff": scalar, "word": word}].  Composite objects:

    presentation  {"kind": ..., "d": ..., "q_diag"/"F"/"q" as applicable}
    representation {"presentation": ..., "n": ..., "R": grid of matrices}
    cocycle       {"rep": ..., "V": grid of vectors, "W": grid (optional
                   on every kind: `cocycle.cocycle_from_V` completes it)}
    functional    cocycle keys plus {"values": ..., "star_values": ...}
    two-cocycle   {"kind": "kpair"|"coboundary"|"combination", ...}

Serialization is canonical (element terms sorted), so dump -> load -> dump
is the identity.  All structural problems raise InputError.
"""

from __future__ import annotations

from .algebra import (
    Element,
    Letter,
    Presentation,
    build_presentation,
    word_key,
)
from .cocycle import Cocycle, cocycle_from_V, cocycle_general
from .cohomology import (
    CoboundaryCocycle,
    CombinationCocycle,
    CounitFunctional,
    KPairCocycle,
    Primitive,
    TwoCocycle,
    is_normalized,
)
from .errors import InputError
from .functional import Functional
from .linalg import QMatrix, QVector
from .representation import Representation, representation
from .scalars import Qi, Rational, rational, rational_to_json, scalar_from_json, scalar_to_json


def rational_from_json(text) -> Rational:
    try:
        return rational(str(text))
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        raise InputError(f"malformed rational {text!r}: {exc}") from None


def _json_int(value, field: str) -> int:
    """A JSON integer; booleans, floats and strings are refused, not coerced."""
    if type(value) is not int:
        raise InputError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _scalar_in(obj) -> Qi:
    try:
        return scalar_from_json(obj)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def vector_to_json(v: QVector) -> list:
    return [scalar_to_json(x) for x in v]


def vector_from_json(obj) -> QVector:
    if not isinstance(obj, list):
        raise InputError(f"not a vector: {obj!r}")
    return QVector(tuple(_scalar_in(x) for x in obj))


def matrix_to_json(m: QMatrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in m.data]


def matrix_from_json(obj) -> QMatrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError(f"not a matrix: {obj!r}")
    if not obj:
        raise InputError("empty matrix")
    cols = len(obj[0])
    if any(len(r) != cols for r in obj):
        raise InputError("ragged matrix rows")
    return QMatrix([[_scalar_in(x) for x in row] for row in obj], cols=cols)


def word_to_json(w) -> list:
    return [{"r": l.row, "c": l.col, "star": l.star} for l in w]


def word_from_json(obj) -> tuple:
    if not isinstance(obj, list):
        raise InputError(f"not a word: {obj!r}")
    out = []
    for item in obj:
        if not isinstance(item, dict) or set(item) - {"r", "c", "star"}:
            raise InputError(f"not a letter: {item!r}")
        row = _json_int(item.get("r"), "letter row 'r'")
        col = _json_int(item.get("c"), "letter column 'c'")
        if row < 1 or col < 1:
            raise InputError(f"letter indices must be positive: {item!r}")
        star = item.get("star", False)
        if type(star) is not bool:
            raise InputError(f"letter 'star' must be JSON true or false, got {star!r}")
        out.append(Letter(row, col, star))
    return tuple(out)


def element_to_json(a: Element) -> list:
    return [
        {"coeff": scalar_to_json(c), "word": word_to_json(w)}
        for w, c in sorted(a.terms.items(), key=lambda t: word_key(t[0]))
    ]


def presentation_to_json(p: Presentation) -> dict:
    out = {"kind": p.kind, "d": p.d}
    if p.q_diag is not None:
        out["q_diag"] = [rational_to_json(x) for x in p.q_diag]
    if p.F is not None:
        out["F"] = matrix_to_json(p.F)
    if p.q is not None:
        out["q"] = rational_to_json(p.q)
    return out


def presentation_from_json(obj) -> Presentation:
    if not isinstance(obj, dict) or "kind" not in obj or "d" not in obj:
        raise InputError("presentation needs 'kind' and 'd'")
    extra = set(obj) - {"kind", "d", "q_diag", "F", "q"}
    if extra:
        raise InputError(f"unknown presentation fields: {sorted(extra)}")
    d = _json_int(obj["d"], "dimension 'd'")
    q_diag = None
    if "q_diag" in obj:
        if not isinstance(obj["q_diag"], list):
            raise InputError("q_diag must be a list of rationals")
        q_diag = [rational_from_json(x) for x in obj["q_diag"]]
    F = matrix_from_json(obj["F"]) if "F" in obj else None
    q = rational_from_json(obj["q"]) if "q" in obj else None
    try:
        return build_presentation(str(obj["kind"]), d, q_diag=q_diag, F=F, q=q)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def representation_to_json(rep: Representation) -> dict:
    return {
        "presentation": presentation_to_json(rep.presentation),
        "n": rep.n,
        "R": [[matrix_to_json(rep.R[j][k]) for k in range(rep.d)] for j in range(rep.d)],
    }


def _grid_from_json(obj, d: int, what: str, load):
    if not isinstance(obj, list) or len(obj) != d or any(
        not isinstance(row, list) or len(row) != d for row in obj
    ):
        raise InputError(f"{what} must be a {d} x {d} grid")
    return [[load(x) for x in row] for row in obj]


def representation_from_json(obj) -> Representation:
    if not isinstance(obj, dict) or set(obj) - {"presentation", "n", "R"}:
        raise InputError("representation needs 'presentation', 'n', 'R'")
    pres = presentation_from_json(obj.get("presentation"))
    n = _json_int(obj.get("n"), "carrier dimension 'n'")
    grid = _grid_from_json(obj.get("R"), pres.d, "R", matrix_from_json)
    return representation(pres, grid, n=n)


def cocycle_to_json(eta: Cocycle) -> dict:
    d = eta.d
    return {
        "rep": representation_to_json(eta.rep),
        "V": [[vector_to_json(eta.V[j][k]) for k in range(d)] for j in range(d)],
        "W": [[vector_to_json(eta.W[j][k]) for k in range(d)] for j in range(d)],
    }


def cocycle_from_json(obj) -> Cocycle:
    if not isinstance(obj, dict) or set(obj) - {"rep", "V", "W"}:
        raise InputError("cocycle needs 'rep', 'V' and optionally 'W'")
    rep = representation_from_json(obj.get("rep"))
    V = _grid_from_json(obj.get("V"), rep.d, "V", vector_from_json)
    if "W" in obj:
        W = _grid_from_json(obj["W"], rep.d, "W", vector_from_json)
        return cocycle_general(rep, V, W)
    return cocycle_from_V(rep, V)


def functional_to_json(psi: Functional) -> dict:
    out = cocycle_to_json(psi.cocycle)
    out["values"] = matrix_to_json(psi.values)
    out["star_values"] = matrix_to_json(psi.star_values)
    return out


def functional_from_json(obj) -> Functional:
    if not isinstance(obj, dict) or not {"values", "star_values"} <= set(obj):
        raise InputError("functional needs cocycle fields plus 'values', 'star_values'")
    eta = cocycle_from_json({k: obj[k] for k in ("rep", "V", "W") if k in obj})
    values = matrix_from_json(obj["values"])
    star_values = matrix_from_json(obj["star_values"])
    d = eta.d
    if values.shape != (d, d) or star_values.shape != (d, d):
        raise InputError("functional letter values must be d x d matrices")
    return Functional(eta, values, star_values)


def relation_checks(phi):
    """(relations where phi does not vanish, hermitian letter values) for a
    generating functional or a primitive; only a generating functional needs
    star_values = conj(values)."""
    hermitian = not isinstance(phi, Functional) or phi.star_values == phi.values.conj()
    return phi.relation_violations(), hermitian


def violation_lines(violations) -> list:
    """One indented `label: value` line per violated relation."""
    return [f"  {lbl}: {val!r}" for lbl, val in violations]


def problem_lines(violations, hermitian) -> list:
    lines = []
    if violations:
        lines.append("violated relations:")
        lines.extend(violation_lines(violations))
    if not hermitian:
        lines.append("letter values are not hermitian (star_values != conj(values))")
    return lines


def checked_phi(phi, what: str):
    """phi, refused with an InputError unless it passes `relation_checks`."""
    violations, hermitian = relation_checks(phi)
    if violations or not hermitian:
        lines = problem_lines(violations, hermitian)
        raise InputError(f"invalid {what}, no verdict computed\n" + "\n".join(lines))
    return phi


def _phi_to_json(phi) -> dict:
    if isinstance(phi, Functional):
        out = functional_to_json(phi)
        out["kind"] = "functional"
        return out
    if isinstance(phi, CounitFunctional):
        return {"kind": "counit", "presentation": presentation_to_json(phi.presentation)}
    if isinstance(phi, Primitive):
        return {
            "kind": "primitive",
            "two_cocycle": two_cocycle_to_json(phi.two_cocycle),
            "values": matrix_to_json(phi.values),
            "star_values": matrix_to_json(phi.star_values),
        }
    raise InputError(f"cannot serialize functional of type {type(phi).__name__}")


def _phi_from_json(obj):
    if not isinstance(obj, dict):
        raise InputError(f"not a functional: {obj!r}")
    kind = obj.get("kind", "functional")
    if kind == "functional":
        rest = {k: v for k, v in obj.items() if k != "kind"}
        return functional_from_json(rest)
    if kind == "counit":
        return CounitFunctional(presentation_from_json(obj.get("presentation")))
    if kind == "primitive":
        c = two_cocycle_from_json(obj.get("two_cocycle"))
        if not is_normalized(c):  # the letter recursion needs c(h, 1) = 0
            raise InputError("2-cocycle must be normalized; apply normalize() first")
        values = matrix_from_json(obj.get("values"))
        star_values = matrix_from_json(obj.get("star_values"))
        if values.shape != (c.d, c.d) or star_values.shape != (c.d, c.d):
            raise InputError("primitive letter values must be d x d matrices")
        return Primitive(c, values, star_values)
    raise InputError(f"unknown functional kind {kind!r}")


def two_cocycle_to_json(c: TwoCocycle) -> dict:
    if isinstance(c, KPairCocycle):
        return {
            "kind": "kpair",
            "eta1": cocycle_to_json(c.eta1),
            "eta2": cocycle_to_json(c.eta2),
        }
    if isinstance(c, CoboundaryCocycle):
        return {"kind": "coboundary", "phi": _phi_to_json(c.phi)}
    if isinstance(c, CombinationCocycle):
        return {
            "kind": "combination",
            "terms": [
                {"coeff": scalar_to_json(coeff), "term": two_cocycle_to_json(t)}
                for coeff, t in c.terms
            ],
        }
    raise InputError(f"cannot serialize 2-cocycle of type {type(c).__name__}")


def two_cocycle_from_json(obj) -> TwoCocycle:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("2-cocycle needs a 'kind'")
    kind = obj["kind"]
    if kind == "kpair":
        try:
            return KPairCocycle(
                cocycle_from_json(obj.get("eta1")), cocycle_from_json(obj.get("eta2"))
            )
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if kind == "coboundary":
        phi = _phi_from_json(obj.get("phi"))
        if not isinstance(phi, CounitFunctional):
            checked_phi(phi, "functional in a coboundary 2-cocycle")
        return CoboundaryCocycle(phi)
    if kind == "combination":
        terms = obj.get("terms")
        if not isinstance(terms, list) or not terms:
            raise InputError("combination needs a nonempty 'terms' list")
        loaded = []
        for item in terms:
            if not isinstance(item, dict) or set(item) - {"coeff", "term"}:
                raise InputError(f"bad combination term: {item!r}")
            loaded.append(
                (_scalar_in(item.get("coeff")), two_cocycle_from_json(item.get("term")))
            )
        try:
            return CombinationCocycle(tuple(loaded))
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError(f"unknown 2-cocycle kind {kind!r}")


def primitive_to_json(phi: Primitive) -> dict:
    return _phi_to_json(phi)


def primitive_from_json(obj) -> Primitive:
    phi = _phi_from_json(obj)
    if not isinstance(phi, Primitive):
        raise InputError(f"expected a primitive, got kind {obj.get('kind')!r}")
    return phi
