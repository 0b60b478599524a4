"""Finite dimensional *-representations and their eager validation."""

import sys
from math import lcm

import pytest
from hypothesis import given, strategies as st

from conftest import (
    apply,
    coupled_reps,
    cycle_rep,
    drawn_blocks,
    drawn_carrier,
    drawn_elements,
    idempotent_rep,
    letter_image,
    oracle_gaussian_subspace,
    oracle_rep,
    oracle_violations,
    phase_rep,
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
    Letter,
    ONE,
    QMatrix,
    RelationViolation,
    ZERO,
    build_presentation,
    counit,
    counit_rep,
    direct_sum_rep,
    gaussian_subspace,
    letters,
    representation,
    sign_rep,
)
from schurmann import algebra, words
from schurmann.algebra import MAX_SAMPLED_WORD_LEN
from schurmann.representation import rep_values


def test_counit_rep_images(u2):
    rep = counit_rep(u2)
    assert rep.n == 1
    assert letter_image(rep, Letter(1, 1, False)) == QMatrix.identity(1)
    assert letter_image(rep, Letter(1, 2, False)).is_zero()
    assert letter_image(rep, Letter(1, 2, True)).is_zero()


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
    assert letter_image(rep, Letter(1, 1, False)) == QMatrix([[-ONE]])
    a = Element.generator(2, 1, 1) * Element.generator(2, 1, 1)
    assert rep_values(rep, [a])[0] == QMatrix.identity(1)


def test_diagonal_phase_rep(u2):
    # u -> diag(i, -i) is a valid 1-dim phase assignment
    blocks = [
        [QMatrix([[I]]), QMatrix.zero(1, 1)],
        [QMatrix.zero(1, 1), QMatrix([[-I]])],
    ]
    rep = representation(u2, blocks)
    assert letter_image(rep, Letter(1, 1, True)) == QMatrix([[-I]])


letters_d2 = st.sampled_from(letters(2))
words_d2 = st.lists(letters_d2, max_size=3).map(tuple)
elements_d2 = st.lists(
    st.tuples(words_d2, qi_scalars), min_size=1, max_size=2
).map(lambda pairs: Element(2, dict(pairs)))


@given(elements_d2, elements_d2)
def test_rep_is_star_homomorphism(u2, a, b):
    rep = sign_rep(u2, n=1)
    assert rep_values(rep, [a * b])[0] == rep_values(rep, [a])[0] @ rep_values(rep, [b])[0]
    assert rep_values(rep, [a.star()])[0] == rep_values(rep, [a])[0].adjoint()


@given(elements_d2)
def test_counit_rep_agrees_with_counit(u2, a):
    rep = counit_rep(u2)
    assert rep_values(rep, [a])[0] == QMatrix([[counit(a)]])


def test_direct_sum_blocks(u2):
    rep = direct_sum_rep(counit_rep(u2), sign_rep(u2))
    assert rep.n == 2
    assert letter_image(rep, Letter(1, 1, False)) == QMatrix([[ONE, ZERO], [ZERO, -ONE]])


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
        assert [rep_values(rep, [a])[0] for a in elements] == want


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
    assert without_deep_recursion(rep_values, rep, [a])[0] == want


def oracle_action(rep):
    """The `words.Action` of rep from its 2 d^2 letter images read from R,
    the starred through `QMatrix.adjoint`, entry by entry over one
    denominator."""
    images = [letter_image(rep, l) for l in letters(rep.d)]
    den = lcm(*(z.den for m in images for row in m.data for z in row))
    num = [[[(z.a * (den // z.den), z.b * (den // z.den)) for z in row] for row in m.data] for m in images]
    norm = max((sum(abs(a) + abs(b) for a, b in row) for m in num for row in m), default=0)
    by_head = []
    for k in range(rep.n):
        row = []
        for l in range(rep.n):
            re, im = [m[k][l][0] for m in num], [m[k][l][1] for m in num]
            if any(re) or any(im):
                row.append((l, re, im if any(im) else None))
        by_head.append(row)
    real = all(ci is None for row in by_head for _, _, ci in row)
    return words.Action(den, norm, by_head, real)


def test_action_equals_the_adjoint_images_on_cycle_and_phase():
    # phase_rep's blocks diag(i, 1) are not self-adjoint, cycle_rep's grid
    # is not symmetric in (j, k)
    u3 = build_presentation("u_plus", 3)
    for rep in (cycle_rep(u3), phase_rep(u3), direct_sum_rep(phase_rep(u3), cycle_rep(u3))):
        assert rep.action == oracle_action(rep)


@given(st.data())
def test_action_equals_the_adjoint_images_on_drawn_carriers(every_kind, data):
    pres = data.draw(st.sampled_from(every_kind))
    n = data.draw(st.integers(1, 3))
    for rep in (drawn_carrier(data, pres), unvalidated_rep(pres, drawn_blocks(data, pres.d, n), n)):
        assert rep.action == oracle_action(rep)


def assert_gaussian_subspace(rep):
    """gaussian_subspace(rep) is the kernel that `oracle_gaussian_subspace`
    stacks from R, and rho(l) v = counit(l) v on every letter l and basis
    vector v by the recursion."""
    basis = gaussian_subspace(rep)
    assert basis == oracle_gaussian_subspace(rep)
    memo = {}
    for l in letters(rep.d):
        a = Element.generator(rep.d, *l)
        m = oracle_rep(rep, a, memo)
        for v in basis:
            assert apply(m, v) == v.scale(counit(a))


@given(st.data())
def test_gaussian_subspace_on_drawn_carriers(every_kind, data):
    pres = data.draw(st.sampled_from(every_kind))
    assert_gaussian_subspace(drawn_carrier(data, pres))


def test_gaussian_subspace_on_coupled_and_idempotent_reps(every_kind):
    # idempotent_rep's relations lack u* u = 1: rho(u) - 1 alone leaves e_0,
    # rho(u*) - 1 removes it
    reps = [rep for pres in every_kind for rep in coupled_reps(pres)] + [idempotent_rep()]
    assert len(reps) > 2
    for rep in reps:
        assert_gaussian_subspace(rep)
    assert gaussian_subspace(idempotent_rep()) == []
