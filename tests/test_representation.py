"""Finite dimensional *-representations and their eager validation."""

import sys

import pytest
from hypothesis import given, strategies as st

from conftest import (
    drawn_blocks,
    drawn_elements,
    oracle_rep,
    oracle_violations,
    q,
    qi_scalars,
    refuse_evaluation,
    unvalidated_rep,
    without_deep_recursion,
)
from schurmann import (
    Element,
    I,
    InputError,
    ONE,
    QMatrix,
    RelationViolation,
    ZERO,
    build_presentation,
    counit,
    counit_rep,
    direct_sum_rep,
    evaluate_rep,
    letters,
    representation,
    sign_rep,
)
from schurmann import algebra
from schurmann.cocycle import MAX_SAMPLED_WORD_LEN
from schurmann.representation import rep_values


def test_counit_rep_images(u2):
    rep = counit_rep(u2)
    assert rep.n == 1
    assert rep.image(1, 1) == QMatrix.identity(1)
    assert rep.image(1, 2).is_zero()
    assert rep.image(1, 2, star=True).is_zero()


def test_rep_rejects_wrong_blocks(u2):
    eye = QMatrix.identity(1)
    zero = QMatrix.zero(1, 1)
    # u[1,1] -> 1, u[1,2] -> 1 breaks unitarity row sums
    blocks = [[eye, eye], [zero, eye]]
    with pytest.raises(RelationViolation) as exc:
        representation(u2, blocks)
    assert exc.value.violations
    lbl, val = exc.value.violations[0]
    assert isinstance(lbl, str)
    assert not val.is_zero()


def test_rep_budget_refused_before_evaluation(u2, monkeypatch):
    # n^2 entries on each of the 33 relation words of U_2+: n = 178 fits
    # the budget, n = 179 asks for 1 057 353 entries
    assert 178 * 178 * 33 <= algebra.MAX_TABLE_ENTRIES < 179 * 179 * 33
    refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match="dimension 179 would hold 1057353 entries"):
        counit_rep(u2, 179)


def test_rep_budget_boundary(u2, monkeypatch):
    # the counit on n = 2: 4 entries on each of 33 words
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 132)
    assert counit_rep(u2, 2).n == 2
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 131)
    refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match="above the table budget MAX_TABLE_ENTRIES = 131"):
        counit_rep(u2, 2)


def test_rep_values_budget_boundary(u2, monkeypatch):
    # a word of three letters: 4 words in its suffix closure, 4 entries each on n = 2
    rep = counit_rep(u2, 2)
    a = Element.from_word(2, letters(2)[:3])
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 16)
    assert rep_values(rep, [a]) == [oracle_rep(rep, a)]
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 15)
    refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match="above the table budget MAX_TABLE_ENTRIES = 15"):
        rep_values(rep, [a])


def test_counit_rep_is_validated_once_per_dimension(monkeypatch):
    # the package attribute schurmann.representation is the function, so the
    # module is patched through sys.modules
    module = sys.modules["schurmann.representation"]
    evaluate, calls = module.word_set_values, []
    monkeypatch.setattr(module, "word_set_values", lambda *args: calls.append(args) or evaluate(*args))
    pres = build_presentation("u_plus", 2)
    rep = counit_rep(pres, 2)
    assert counit_rep(pres, 2) is rep
    assert len(calls) == 1
    assert counit_rep(pres, 1) is not rep
    assert len(calls) == 2
    other = build_presentation("u_plus", 2)
    assert counit_rep(other, 2) == rep and counit_rep(other, 2) is not rep
    assert len(calls) == 3


def test_rep_on_a_zero_dimensional_carrier(every_kind):
    for pres in every_kind:
        rep = counit_rep(pres, 0)
        assert rep_values(rep, [r for _, r in pres.relations]) == [QMatrix.zero(0, 0)] * len(
            pres.relations
        )


def test_sign_rep_validates(u2):
    rep = sign_rep(u2)
    assert rep.image(1, 1) == QMatrix([[-ONE]])
    a = Element.generator(2, 1, 1) * Element.generator(2, 1, 1)
    assert evaluate_rep(rep, a) == QMatrix.identity(1)


def test_diagonal_phase_rep(u2):
    # u -> diag(i, -i) is a valid 1-dim phase assignment
    blocks = [
        [QMatrix([[I]]), QMatrix.zero(1, 1)],
        [QMatrix.zero(1, 1), QMatrix([[-I]])],
    ]
    rep = representation(u2, blocks)
    assert rep.image(1, 1, star=True) == QMatrix([[-I]])


letters_d2 = st.sampled_from(letters(2))
words_d2 = st.lists(letters_d2, max_size=3).map(tuple)
elements_d2 = st.lists(
    st.tuples(words_d2, qi_scalars), min_size=1, max_size=2
).map(lambda pairs: Element(2, dict(pairs)))


@given(elements_d2, elements_d2)
def test_rep_is_star_homomorphism(u2, a, b):
    rep = sign_rep(u2, n=1)
    assert evaluate_rep(rep, a * b) == evaluate_rep(rep, a) @ evaluate_rep(rep, b)
    assert evaluate_rep(rep, a.star()) == evaluate_rep(rep, a).adjoint()


@given(elements_d2)
def test_counit_rep_agrees_with_counit(u2, a):
    rep = counit_rep(u2)
    assert evaluate_rep(rep, a) == QMatrix([[counit(a)]])


def test_direct_sum_blocks(u2):
    rep = direct_sum_rep(counit_rep(u2), sign_rep(u2))
    assert rep.n == 2
    assert rep.image(1, 1) == QMatrix([[ONE, ZERO], [ZERO, -ONE]])


def test_rep_relation_labels_name_the_relation(u2):
    eye = QMatrix.identity(1)
    blocks = [[eye, eye], [eye, eye]]
    with pytest.raises(RelationViolation) as exc:
        representation(u2, blocks)
    assert "uu*" in str(exc.value) or "u*u" in str(exc.value)


# -- the word-set evaluator against the plain recursion ----------------------


@given(st.data())
def test_rep_values_match_recursion(every_kind, data):
    # every presentation in every example: a per-example draw of one can
    # miss one under the derandomized triage profile
    for pres in every_kind:
        n = data.draw(st.integers(1, 2))
        rep = unvalidated_rep(pres, drawn_blocks(data, pres.d, n), n)
        elements = drawn_elements(data, pres.d)
        # the empty word, and an element (so its words) repeated in one batch
        elements += [Element.one(pres.d), elements[0], Element.zero(pres.d)]
        memo = {}
        want = [oracle_rep(rep, a, memo) for a in elements]
        assert rep_values(rep, elements) == want
        assert [evaluate_rep(rep, a) for a in elements] == want


@given(st.data())
def test_rep_violations_match_recursion(every_kind, data):
    # labels, order and values of the RelationViolation list
    # every presentation in every example: a per-example draw of one can
    # miss one under the derandomized triage profile
    for pres in every_kind:
        n = data.draw(st.integers(1, 2))
        blocks = drawn_blocks(data, pres.d, n)
        want = oracle_violations(unvalidated_rep(pres, blocks, n), oracle_rep)
        if not want:
            assert representation(pres, blocks, n).n == n
            continue
        with pytest.raises(RelationViolation) as exc:
            representation(pres, blocks, n)
        assert exc.value.violations == want


def test_rep_of_a_long_word_matches_recursion(u2):
    # a word of MAX_SAMPLED_WORD_LEN letters evaluates with a few frames of
    # recursion to spare: the evaluator works layer by layer
    m, p = QMatrix([[ONE, I], [q("1/2"), ZERO]]), QMatrix([[ZERO, ONE], [ONE, q("1/3")]])
    rep = unvalidated_rep(u2, [[m, p], [p.adjoint(), m.adjoint()]], 2)
    w = tuple(letters(2)[k % 8] for k in range(MAX_SAMPLED_WORD_LEN))
    a = Element.from_word(2, w, q("1/2"))
    want = oracle_rep(rep, a)
    assert want != want.transpose()
    assert without_deep_recursion(evaluate_rep, rep, a) == want
