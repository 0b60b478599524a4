"""Generating functionals, conditional positivity and the splitting report."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    drawn_words,
    eta_word,
    flat_cocycle,
    q,
    qi_matrices,
    qi_scalars,
    scalar_grid,
    small_rationals,
    unvalidated_rep,
)
from schurmann import (
    Element,
    I,
    ONE,
    QMatrix,
    QVector,
    Qi,
    RelationViolation,
    ZERO,
    admits_generating_functional,
    admits_gf_orth,
    admits_gf_unitary,
    build_presentation,
    cocycle_general,
    counit,
    counit_rep,
    direct_sum_rep,
    gaussian_cocycle,
    gram_psd_check,
    hermitianize,
    letters,
    lk_decomposition,
    rational,
    schurmann_functional,
    sign_rep,
    solve_cocycles,
    su_q3_obstruction,
)
from schurmann import algebra, functional
from schurmann.algebra import word_set, words_up_to
from schurmann.errors import InputError
from schurmann.functional import Functional, default_pool_size, default_word_pool
from schurmann.linalg import GaussianMatrix, psd_check
from schurmann.words import word_set_values


@pytest.fixture(scope="module")
def eta_complex_k3():
    """An unvalidated cocycle on k_d, d = 3, n = 2: rho with complex
    off-diagonal blocks over denominators 2 and 3 and diagonal blocks
    diag(1, i), letter values up to 2^70 over denominators 1 to 3.  Every
    word of two letters or more needs the imaginary product, on numerators
    far above 64 bits."""

    def off(j, k):
        return QMatrix([[Qi(j + 1, k - 1) / Qi(2), I], [Qi(k), Qi(j - k, 1) / Qi(3)]])

    diag = QMatrix([[ONE, ZERO], [ZERO, I]])
    blocks = [[diag if j == k else off(j, k) for k in range(3)] for j in range(3)]
    values = [Qi(2**70 - 7 * j, j % 5 - 2) / Qi(j % 3 + 1) for j in range(2 * 9 * 2)]
    return flat_cocycle(unvalidated_rep(build_presentation("k_d", 3), blocks, 2), values)


@pytest.fixture(scope="module")
def sweep_values(eta_sym_u2, eta_rot_o3, eta_asym_u2, eta_complex_k3):
    """(eta, the index of every word, eta on every word) up to length 3 for
    each input, on one word set of all those words."""
    out = []
    for eta in (eta_sym_u2, eta_rot_o3, eta_asym_u2, eta_complex_k3):
        words = list(words_up_to(eta.d, 3))
        ws = word_set(eta.d, [Element.from_word(eta.d, w) for w in words])
        at = {w: j for j, w in enumerate(words)}
        out.append((eta, at, word_set_values(ws, eta.rep.action, eta.n, eta.numerators)))
    return out


@given(st.data())
def test_tables_match_recursion(sweep_values, data):
    # eta on the sweep's word set against the memoised recursion, every
    # input in every example (a derandomized draw of one input can miss one)
    for eta, at, values in sweep_values:
        for w in drawn_words(data, eta.d):
            assert QVector(values.column(at[w])) == eta_word(eta, w, {}), w


def test_functional_vanishes_on_relations(eta_sym_u2, u2):
    psi = schurmann_functional(eta_sym_u2)
    for lbl, r in u2.relations:
        assert psi.value(r).is_zero(), lbl


def test_functional_normalization_and_diagonal(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    assert psi.value(Element.one(2)) == ZERO
    # psi(u_kk) = -|eta(u_kk)|^2 / 2; here eta(u_11) = (1, i)-row pairing
    assert psi.values == QMatrix([[-ONE, ZERO], [ZERO, -ONE]])
    assert psi.star_values == psi.values.conj()


def test_construction_rejects_obstructed_cocycle(eta_asym_u2):
    with pytest.raises(RelationViolation) as exc:
        schurmann_functional(eta_asym_u2)
    assert exc.value.violations
    assert admits_generating_functional(eta_asym_u2) is None


def test_selfadjoint_offset_still_validates(eta_sym_u2, u2):
    H = QMatrix([[q("2"), I], [-I, ZERO]])
    assert H.is_hermitian()
    psi = schurmann_functional(eta_sym_u2, H)
    for lbl, r in u2.relations:
        assert psi.value(r).is_zero(), lbl


def test_non_hermitian_offset_rejected(eta_sym_u2):
    with pytest.raises(ValueError):
        schurmann_functional(eta_sym_u2, QMatrix([[ZERO, ONE], [ZERO, ZERO]]))


def test_gram_psd_on_examples(eta_sym_u2, eta_rot_o3):
    assert gram_psd_check(schurmann_functional(eta_sym_u2))
    assert gram_psd_check(schurmann_functional(eta_rot_o3))
    assert gram_psd_check(schurmann_functional(eta_sym_u2), max_len=3)


@pytest.mark.parametrize("name", ["eta_sym_u2", "eta_rot_o3"])
def test_gram_entries_match_plain_recursion(request, monkeypatch, name):
    # every entry psd_check receives is psi(a_i* a_j), a_i = w_i - counit(w_i) 1,
    # evaluated through the element algebra and the memoised recursion
    psi = schurmann_functional(request.getfixturevalue(name))
    d = psi.d
    pool = default_word_pool(2)
    assert len(pool) == 41
    pool_calls, fed = [], []
    monkeypatch.setattr(
        functional, "default_word_pool", lambda *args: pool_calls.append(args) or pool
    )
    monkeypatch.setattr(functional, "psd_check", lambda m: fed.append(m) or True)
    assert gram_psd_check(psi)
    assert pool_calls == [(d, 2)]
    [m] = fed
    assert m.shape == (41, 41)
    shifted = []
    for w in pool:
        e = Element.from_word(d, w)
        shifted.append(e - Element.one(d).scale(counit(e)))
    for i, ai in enumerate(shifted):
        for j, aj in enumerate(shifted):
            assert m[i][j] == psi.value(ai.star() * aj), (pool[i], pool[j])


def test_gram_rows_at_length_three_match_the_evaluator(u2):
    # at max_len = 3 the rows read eta on the pool's word set, up to words of length 3; seeded rows, six of
    # them for words of length 3, against the sparse evaluator.  An n = 2 carrier over U_2+
    # with blocks and letter values over denominators, nothing validated:
    # the Gram entries follow the recursion on the free algebra either way.
    rng = random.Random(15)

    def scalar():
        return Qi(rng.randint(-3, 3), rng.randint(-3, 3)) / Qi(rng.randint(1, 5))

    blocks = [[QMatrix([[scalar() for _ in "ab"] for _ in "ab"]) for _ in "ab"] for _ in "ab"]
    eta = flat_cocycle(unvalidated_rep(u2, blocks, 2), [scalar() for _ in range(16)])
    values = QMatrix([[scalar() for _ in "ab"] for _ in "ab"])
    psi = Functional(eta, values, values.conj())
    pool = default_word_pool(2, 3)
    m = functional.pool_gram_matrix(psi, pool)
    assert m.shape == (169, 169)
    assert m.z is m.h and m.h.den > 1
    shifted = []
    for w in pool:
        e = Element.from_word(2, w)
        shifted.append(e - Element.one(2).scale(counit(e)))
    deep = [i for i, w in enumerate(pool) if len(w) == 3]
    for i in rng.sample(deep, 6) + rng.sample(range(len(pool)), 3):
        assert m[i] == [psi.value(shifted[i].star() * aj) for aj in shifted], pool[i]


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 2)])
def test_gram_entries_on_any_pool_and_letter_values(d, n):
    # a random grid R, letter values of psi with star_values other than
    # values.conj(), a pool that is not star closed, words of length 0 to
    # 3.  Every entry against the sparse evaluator, nothing validated.
    rng = random.Random(20 + 10 * d + n)

    def scalar():
        return Qi(rng.randint(-3, 3), rng.randint(-3, 3)) / Qi(rng.randint(1, 4))

    grid = [[QMatrix([[scalar() for _ in range(n)] for _ in range(n)]) for _ in range(d)] for _ in range(d)]
    eta = flat_cocycle(unvalidated_rep(build_presentation("k_d", d), grid, n), [scalar() for _ in range(2 * d * d * n)])
    alpha = letters(d)
    pool = [()] + [tuple(rng.choice(alpha) for _ in range(m)) for m in (1, 1, 2, 2, 2, 3, 3, 3, 3)]
    assert any(tuple(l.adjoint() for l in reversed(w)) not in pool for w in pool)
    shifted = []
    for w in pool:
        e = Element.from_word(d, w)
        shifted.append(e - Element.one(d).scale(counit(e)))
    grams = []
    for _ in range(2):
        values, star_values = (QMatrix([[scalar() for _ in range(d)] for _ in range(d)]) for _ in "vs")
        assert star_values != values.conj()
        psi = Functional(eta, values, star_values)
        m = functional.pool_gram_matrix(psi, pool)
        rows = [m[i] for i in range(len(pool))]
        for i, ai in enumerate(shifted):
            assert rows[i] == [psi.value(ai.star() * aj) for aj in shifted], pool[i]
        grams.append(rows)
    # the letter values of psi drop out of every entry
    assert grams[0] == grams[1]
    assert any(any(not z.is_zero() for z in row) for row in grams[0])


def test_default_pool_size_matches_the_pool():
    for d in (1, 2, 3):
        for max_len in (0, 1, 2):
            assert default_pool_size(d, max_len) == len(default_word_pool(d, max_len))


def test_gram_budget_refused_before_the_pool_is_built(monkeypatch, eta_sym_u2):
    # the budget is what the Gram holds, its pool's letters and n
    # coordinates of eta per word: at d = 2 length 5 (2729 words) fits and
    # length 8 (174761 words) does not, and the check must neither build
    # nor compile nor evaluate that pool
    psi = schurmann_functional(eta_sym_u2)
    n = eta_sym_u2.n
    assert default_pool_size(2, 7) * (7 + n) <= algebra.MAX_TABLE_ENTRIES < default_pool_size(2, 8) * (8 + n)
    assert gram_psd_check(psi, max_len=5)
    monkeypatch.setattr(functional, "default_word_pool", lambda *a: pytest.fail("pool built"))
    monkeypatch.setattr(functional, "word_set", lambda *a: pytest.fail("pool compiled"))
    monkeypatch.setattr(functional, "word_set_values", lambda *a: pytest.fail("pool evaluated"))
    with pytest.raises(InputError, match="MAX_TABLE_ENTRIES"):
        gram_psd_check(psi, max_len=8)
    # an explicit pool is budgeted by its own size and longest word
    word = tuple(letters(2)[:2])
    with pytest.raises(InputError, match="MAX_TABLE_ENTRIES"):
        functional.pool_gram_matrix(psi, [word] * (algebra.MAX_TABLE_ENTRIES // (2 + n) + 1))


def test_gram_check_rechecks_its_core_against_the_letter_recursion(monkeypatch, eta_sym_u2):
    # the verdict reads the core entries, here on letters, from eta on the
    # pool's word set; with those values over twice their denominator G =
    # H* H stays psd, and the recheck through psi's letter values raises
    psi = schurmann_functional(eta_sym_u2)
    evaluate = functional.word_set_values

    def scaled(*args):
        x = evaluate(*args)
        return GaussianMatrix.unchecked(x.re, x.im, 2 * x.den, x.cols)

    monkeypatch.setattr(functional, "word_set_values", scaled)
    pool = default_word_pool(2)
    g = functional.pool_gram_matrix(psi, pool)
    assert [len(pool[p]) for p in g.core[0]] == [1] and psd_check(g)
    with pytest.raises(ArithmeticError, match="Gram core entry"):
        gram_psd_check(psi)


@pytest.fixture(scope="module")
def criterion_spaces():
    """Cocycle spaces of the counit on n = 1, 2, the sign representation and
    their sum on U_2+, U_3+, O_2+, O_3+ and O_4+."""
    spaces = []
    for kind, d in (("u_plus", 2), ("u_plus", 3), ("o_plus", 2), ("o_plus", 3), ("o_plus", 4)):
        pres = build_presentation(kind, d)
        sign = sign_rep(pres)
        for rep in (counit_rep(pres, 1), counit_rep(pres, 2), sign, direct_sum_rep(counit_rep(pres), sign)):
            spaces.append(solve_cocycles(rep))
    return spaces


@given(st.data())
def test_the_existence_criteria_agree_with_the_construction(criterion_spaces, data):
    # b_tilde = b^t on U_d+ and b real on O_d+ decide whether eta admits a
    # generating functional; the canonical construction decides it by
    # validating psi on the relations.  Each basis cocycle enters with a
    # real, a complex or no coefficient, so both verdicts occur.
    space = data.draw(st.sampled_from(criterion_spaces))
    coeff = st.sampled_from([ZERO]) | small_rationals.map(Qi) | qi_scalars
    terms = [(data.draw(coeff), eta) for eta in space.basis]
    d, n = space.rep.d, space.rep.n

    def grid(pick):
        return [
            [sum((pick(eta)[j][k].scale(c) for c, eta in terms), QVector.zero(n)) for k in range(d)]
            for j in range(d)
        ]

    eta = cocycle_general(space.rep, grid(lambda e: e.V), grid(lambda e: e.W))
    criterion = admits_gf_unitary if eta.presentation.kind == "u_plus" else admits_gf_orth
    assert criterion(eta) == (admits_generating_functional(eta) is not None)


def test_the_paper_criteria_agree_with_the_decider_on_every_basis(criterion_spaces):
    # on U_d+ the H = 0 functional takes the value b_jk - b~_kj on the
    # relation (ubar u^t)_jk = delta_jk, so it validates iff b~ = b^t; on
    # O_d+ the sym relations force b~ = b, so the same relation asks that
    # the Hermitian b be symmetric, that is real
    rng = random.Random(0)
    verdicts = {}
    for space in criterion_spaces:
        pres = space.rep.presentation
        if pres.d == 4:
            continue
        criterion = admits_gf_unitary if pres.kind == "u_plus" else admits_gf_orth
        for eta in list(space.basis) + [space.random_element(rng) for _ in range(15)]:
            verdict = criterion(eta)
            assert verdict == (admits_generating_functional(eta) is not None)
            verdicts.setdefault((pres.kind, pres.d), set()).add(verdict)
    kinds = [("u_plus", 2), ("u_plus", 3), ("o_plus", 2), ("o_plus", 3)]
    assert verdicts == {key: {False, True} for key in kinds}


def test_lk_report_on_gaussian_functional(eta_sym_u2):
    lk = lk_decomposition(schurmann_functional(eta_sym_u2))
    assert lk.gaussian_dim == 1
    assert lk.gf_exists_g
    assert lk.gf_exists_n
    assert lk.decomposable


def test_su_q3_obstruction_constant_iff_diagonal_symmetric():
    # twisted determinant relations force the diagonal values to sum to zero
    su3 = build_presentation("su_q", 3, q=rational("1/2"))
    eta = gaussian_cocycle(
        su3, scalar_grid([[ONE, ZERO, ZERO], [ZERO, -ONE, ZERO], [ZERO, ZERO, ZERO]])
    )
    report = su_q3_obstruction(eta)
    assert len(report.values) == 6
    assert report.constant

    mixed = gaussian_cocycle(
        su3,
        scalar_grid(
            [[Qi(rational(-1), rational(-1)), ZERO, ZERO],
             [ZERO, ONE, ZERO],
             [ZERO, ZERO, I]]
        ),
    )
    report = su_q3_obstruction(mixed)
    assert not report.constant
    assert len(set(report.values.values())) > 1


@given(qi_matrices(2), qi_matrices(2))
def test_hermitianize_properties(a, b):
    v, w = hermitianize(a, b)
    assert w == v.conj()
    v2, w2 = hermitianize(v, w)
    assert (v2, w2) == (v, w)
