"""Wire format roundtrips and rejection of malformed input."""

import json
import random

import pytest

from conftest import cycle_rep
from schurmann import (
    CoboundaryCocycle,
    CombinationCocycle,
    CounitFunctional,
    I,
    InputError,
    KPairCocycle,
    ONE,
    Primitive,
    QMatrix,
    QVector,
    Qi,
    ZERO,
    build_presentation,
    coboundary1,
    counit_rep,
    primitive,
    rational,
    schurmann_functional,
    solve_cocycles,
)
from schurmann.serialize import (
    cocycle_from_json,
    cocycle_to_json,
    functional_from_json,
    functional_to_json,
    matrix_from_json,
    matrix_to_json,
    presentation_from_json,
    presentation_to_json,
    primitive_from_json,
    primitive_to_json,
    representation_from_json,
    representation_to_json,
    two_cocycle_from_json,
    two_cocycle_to_json,
    vector_from_json,
    vector_to_json,
    word_from_json,
    word_to_json,
)


def through_json(obj):
    """Serialize to an actual JSON string and back, like the CLI does."""
    return json.loads(json.dumps(obj))


def test_matrix_vector_roundtrip():
    m = QMatrix([[ONE, I], [ZERO, Qi(rational("-1/2"))]])
    assert matrix_from_json(through_json(matrix_to_json(m))) == m
    v = QVector((ONE, -I))
    assert vector_from_json(through_json(vector_to_json(v))) == v


def test_word_roundtrip():
    from schurmann import Letter

    w = (Letter(1, 2, False), Letter(2, 2, True))
    assert word_from_json(through_json(word_to_json(w))) == w


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("k_d", {}),
        ("u_plus", {}),
        ("o_plus", {}),
        ("u_q", {"q_diag": [rational(2), rational(1)]}),
        ("su_q", {"q": rational("1/3")}),
    ],
)
def test_presentation_roundtrip(kind, kwargs):
    p = build_presentation(kind, 2, **kwargs)
    assert presentation_from_json(through_json(presentation_to_json(p))) == p


def test_representation_roundtrip(u2):
    rep = counit_rep(u2)
    assert representation_from_json(through_json(representation_to_json(rep))) == rep


def test_cocycle_roundtrip(eta_sym_u2):
    assert cocycle_from_json(through_json(cocycle_to_json(eta_sym_u2))) == eta_sym_u2


def test_cocycle_without_W_loads_on_every_kind(every_kind):
    # W is completed from V and rho on every kind, so dropping it from the
    # wire format loads the same cocycle
    three = build_presentation("o_plus", 3)
    for rep in [counit_rep(pres, 2) for pres in every_kind] + [cycle_rep(three)]:
        eta = solve_cocycles(rep).random_element(random.Random(0))
        full = through_json(cocycle_to_json(eta))
        bare = {key: value for key, value in full.items() if key != "W"}
        assert cocycle_from_json(bare) == cocycle_from_json(full) == eta


def test_functional_roundtrip(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    assert functional_from_json(through_json(functional_to_json(psi))) == psi


def test_two_cocycle_roundtrips(eta_sym_u2, eta_asym_u2):
    kp = KPairCocycle(eta_sym_u2, eta_asym_u2)
    out = two_cocycle_from_json(through_json(two_cocycle_to_json(kp)))
    assert isinstance(out, KPairCocycle)
    assert out.eta1 == kp.eta1 and out.eta2 == kp.eta2

    cob = coboundary1(schurmann_functional(eta_sym_u2))
    out = two_cocycle_from_json(through_json(two_cocycle_to_json(cob)))
    assert isinstance(out, CoboundaryCocycle)
    assert out.phi == cob.phi

    combo = CombinationCocycle(((Qi(rational(2)), kp), (-I, cob)))
    out = two_cocycle_from_json(through_json(two_cocycle_to_json(combo)))
    assert isinstance(out, CombinationCocycle)
    a = out.terms[0]
    assert a[0] == Qi(rational(2))


def test_primitive_roundtrip(eta_sym_u2):
    phi = primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))
    out = primitive_from_json(through_json(primitive_to_json(phi)))
    assert out.values == phi.values
    assert out.star_values == phi.star_values
    assert out.two_cocycle.eta1 == phi.two_cocycle.eta1


def test_primitive_from_json_rejects_other_kinds(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    with pytest.raises(InputError):
        primitive_from_json(functional_to_json(psi) | {"kind": "functional"})


def test_primitive_letter_grids_must_be_d_by_d(eta_sym_u2):
    obj = through_json(primitive_to_json(primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))))
    obj["values"] = [row[:1] for row in obj["values"][:1]]
    with pytest.raises(InputError, match="d x d"):
        primitive_from_json(obj)


def test_primitive_over_a_non_normalized_2cocycle_refused():
    # d(eps)(1, 1) = 1: the letter recursion would give phi(u[1,1]) = -1
    # against the letter value 0
    zero = QMatrix.zero(2, 2)
    phi = Primitive(coboundary1(CounitFunctional(build_presentation("k_d", 2))), zero, zero)
    with pytest.raises(InputError, match="2-cocycle must be normalized"):
        primitive_from_json(through_json(primitive_to_json(phi)))


def test_malformed_inputs_rejected():
    with pytest.raises(InputError):
        presentation_from_json({"kind": "v_plus", "d": 2})
    with pytest.raises(ValueError):
        presentation_from_json({"kind": "u_q", "d": 2, "q_diag": ["1/0", "1"]})
    with pytest.raises(InputError):
        matrix_from_json("nope")
    with pytest.raises(InputError):
        two_cocycle_from_json({"terms": []})
    with pytest.raises(InputError):
        two_cocycle_from_json({"kind": "combination", "terms": []})


@pytest.mark.parametrize("value", [2.5, True, "2"])
@pytest.mark.parametrize("field", ["r", "c"])
def test_letter_indices_must_be_json_integers(field, value):
    letter = {"r": 1, "c": 2, "star": False} | {field: value}
    with pytest.raises(InputError, match=f"'{field}' must be a JSON integer"):
        word_from_json([letter])


@pytest.mark.parametrize("value", ["no", 0.0, 1, None], ids=["string", "float", "int", "null"])
def test_letter_star_must_be_json_boolean(value):
    # bool() read "no" as starred and 0.0 as unstarred
    with pytest.raises(InputError, match="letter 'star' must be JSON true or false"):
        word_from_json([{"r": 1, "c": 2, "star": value}])
    assert word_from_json(through_json([{"r": 1, "c": 2, "star": True}]))[0].star is True
    assert word_from_json([{"r": 1, "c": 2}])[0].star is False


def test_rep_deserialization_revalidates(u2):
    rep = counit_rep(u2)
    obj = through_json(representation_to_json(rep))
    obj["R"][0][1] = obj["R"][0][0]  # u[1,2] -> 1 breaks unitarity
    from schurmann import RelationViolation

    with pytest.raises(RelationViolation):
        representation_from_json(obj)
