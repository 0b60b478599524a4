"""Cocycles: the defining identity, B matrices, reality and the solver."""

import functools
import random
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import (
    apply,
    coupled_reps,
    cycle_rep,
    drawn_blocks,
    drawn_carrier,
    drawn_elements,
    drawn_entries,
    flat_cocycle,
    idempotent_rep,
    oracle_cocycle,
    oracle_combination,
    oracle_completed_W,
    oracle_letter_gram,
    oracle_rep,
    oracle_violations,
    permuted,
    phase_rep,
    q,
    qi_scalars,
    qi_vectors,
    refuse_elimination,
    refuse_evaluation,
    scalar_grid,
    unvalidated_cocycle,
    unvalidated_rep,
    without_deep_recursion,
)
from schurmann import (
    Cocycle,
    Element,
    I,
    InputError,
    Letter,
    ONE,
    QMatrix,
    QVector,
    Qi,
    RelationViolation,
    ZERO,
    admits_gf_criterion,
    b_matrices,
    build_presentation,
    counit,
    counit_rep,
    direct_sum_cocycle,
    direct_sum_rep,
    gaussian_cocycle,
    is_real_cocycle,
    letters,
    rational,
    reality_pair,
    representation,
    scalar_gaussian_cocycle,
    sign_rep,
    solve_cocycles,
)
from schurmann import algebra, cocycle, linalg, words
from schurmann.algebra import word_set
from schurmann.cocycle import cocycle_columns, cocycle_from_V, cocycle_general, cocycle_values
from schurmann.representation import rep_values

letters_d2 = st.sampled_from(letters(2))
words_d2 = st.lists(letters_d2, max_size=3).map(tuple)
elements_d2 = st.lists(
    st.tuples(words_d2, qi_scalars), min_size=1, max_size=2
).map(lambda pairs: Element(2, dict(pairs)))


@given(elements_d2, elements_d2)
def test_cocycle_identity(eta_sym_u2, a, b):
    # eta(ab) = rho(a) eta(b) + eta(a) eps(b)
    eta = eta_sym_u2
    lhs = cocycle_values(eta, [a * b])[0]
    rhs = apply(rep_values(eta.rep, [a])[0], cocycle_values(eta, [b])[0]) + cocycle_values(
        eta, [a]
    )[0].scale(counit(b))
    assert lhs == rhs


def test_cocycle_vanishes_on_unit(eta_sym_u2):
    assert cocycle_values(eta_sym_u2, [Element.one(2)])[0].is_zero()


def test_gaussian_rejects_nonantisymmetric_orthogonal_grid(o3):
    grid = [[ZERO] * 3 for _ in range(3)]
    grid[0][2] = I
    grid[1][2] = ONE
    with pytest.raises(RelationViolation) as exc:
        gaussian_cocycle(o3, scalar_grid(grid))
    assert "sym" in str(exc.value)


def test_b_matrices_frozen(eta_asym_u2):
    bm = b_matrices(eta_asym_u2)
    assert bm.b == QMatrix([[q("2"), -I], [I, ONE]])
    assert bm.b_tilde == QMatrix([[ONE, I], [-I, q("2")]])
    assert bm.b.is_hermitian()
    assert bm.b_tilde.is_hermitian()


def test_gf_criteria(eta_asym_u2, eta_sym_u2, eta_rot_o3):
    assert not admits_gf_criterion(eta_asym_u2)
    assert admits_gf_criterion(eta_sym_u2)
    assert admits_gf_criterion(eta_rot_o3)


def test_b_matrix_uses_adjoint_not_transpose():
    # V = [[i]] at d = 1: the adjoint pairing gives B = [1], a plain
    # transpose would give [-1]
    u1 = build_presentation("u_plus", 1)
    eta = gaussian_cocycle(u1, [[QVector((I,))]])
    bm = b_matrices(eta)
    assert bm.b == QMatrix([[ONE]])
    assert bm.b_tilde == QMatrix([[ONE]])
    assert admits_gf_criterion(eta)


def test_reality_frozen_witness(eta_asym_u2):
    ok, witness = is_real_cocycle(eta_asym_u2)
    assert not ok
    a, b, lhs, rhs = witness
    assert a == Element.generator(2, 1, 1)
    assert b == Element.generator(2, 1, 2)
    assert lhs == I
    assert rhs == ZERO
    got = reality_pair(eta_asym_u2, a, b)
    assert got == (lhs, rhs)


def test_reality_positive_cases(u2, eta_rot_o3):
    eye = gaussian_cocycle(u2, scalar_grid([[ONE, ZERO], [ZERO, ONE]]))
    assert is_real_cocycle(eye) == (True, None)
    assert is_real_cocycle(eta_rot_o3) == (True, None)


def test_reality_at_the_word_length_budget(eta_rot_o3):
    # a sampled word of the longest allowed length stays below the recursion
    # limit (length 3000 raised RecursionError)
    word = Element.from_word(3, (Letter(1, 2, False),) * algebra.MAX_SAMPLED_WORD_LEN)
    assert is_real_cocycle(eta_rot_o3, sample_words=[word]) == (True, None)


def test_reality_symmetric_complex_is_not_real(eta_sym_u2):
    ok, witness = is_real_cocycle(eta_sym_u2)
    assert not ok
    a, b, lhs, rhs = witness
    assert reality_pair(eta_sym_u2, a, b) == (lhs, rhs)


def test_solver_dimensions_on_gaussian_rep():
    dims = {}
    for kind, d, kwargs in [
        ("u_plus", 2, {}),
        ("o_plus", 3, {}),
        ("su_q", 2, {"q": rational("1/2")}),
    ]:
        pres = build_presentation(kind, d, **kwargs)
        dims[kind] = solve_cocycles(counit_rep(pres)).dimension
    assert dims == {"u_plus": 4, "o_plus": 3, "su_q": 1}


def test_solver_budget_refused_before_any_row(monkeypatch):
    # the relations of U_4+ run over 257 words: the counit on n = 23 asks the
    # evaluator for 23 coordinates of 2 * 16 * 23 columns on each, 4 350 496
    # entries; n = 11 would fit
    rep = counit_rep(build_presentation("u_plus", 4), 23)
    refuse_elimination(monkeypatch)
    with pytest.raises(InputError, match="cocycle coefficient matrix would hold 4350496 entries"):
        solve_cocycles(rep)


def test_solver_budget_boundary(u2, monkeypatch):
    # the counit on n = 2 over U_2+: 2 coordinates of 2 * 4 * 2 columns on
    # each of the 33 relation words
    rep = counit_rep(u2, 2)
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 1056)
    assert solve_cocycles(rep).dimension == 8
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 1055)
    refuse_elimination(monkeypatch)
    with pytest.raises(InputError, match="above the table budget MAX_TABLE_ENTRIES = 1055"):
        solve_cocycles(rep)


def solver_reps(every_kind):
    """The counit on n = 1, 2 over every kind, counit + sign and a complex
    character of U_2+."""
    u2 = every_kind[1]
    a, b = q("3/5"), q(("0", "4/5"))
    character = [[QMatrix([[a]]), QMatrix([[b]])], [QMatrix([[b]]), QMatrix([[a]])]]
    reps = [counit_rep(pres, n) for pres in every_kind for n in (1, 2)]
    return reps + [
        direct_sum_rep(counit_rep(u2), sign_rep(u2)),
        representation(u2, character, 1),
    ]


def test_solver_basis_vanishes_under_the_recursion(every_kind):
    # every basis vector is checked on every relation by the plain recursion,
    # independently of the word-set evaluator that built and checked it
    for rep in solver_reps(every_kind):
        space = solve_cocycles(rep)
        assert space.basis
        for eta in space.basis:
            assert oracle_violations(eta, oracle_cocycle) == []


def tamper(vec, at, by):
    entries = list(vec)
    entries[at] = entries[at] + by
    return QVector(entries)


def test_solver_refuses_a_tampered_kernel(u2, monkeypatch):
    # the counit on n = 2 is two blocks of one action, eliminated once; its
    # kernel's vectors 1 and 3 are broken, so both embeddings of each are:
    # block k puts entry h at h n + k, the merge sorts by free column (the
    # last nonzero entry), and the error is the one cocycle_general raises
    # for the first broken merged vector, labels and values alike
    rep = counit_rep(u2, 2)
    kernel = linalg.kernel_basis
    clean, basis = [], []

    def tampered(m):
        clean.extend(kernel(m))
        basis.extend(clean)
        basis[1], basis[3] = tamper(basis[1], 0, ONE), tamper(basis[3], 5, I)
        return basis

    monkeypatch.setattr(cocycle, "kernel_basis", tampered)
    with pytest.raises(RelationViolation) as exc:
        solve_cocycles(rep)
    assert len(clean) == 4
    free = [max(i for i, z in enumerate(vec) if z) for vec in clean]
    order = sorted((2 * free[j] + k, j, k) for j in range(4) for k in (0, 1))
    _, j, k = next(item for item in order if item[1] in (1, 3))
    with pytest.raises(RelationViolation) as want:
        eta = flat_cocycle(rep, [basis[j][i // 2] if i % 2 == k else ZERO for i in range(16)])
        cocycle_general(rep, eta.V, eta.W)
    assert exc.value.what == want.value.what == "cocycle"
    assert exc.value.violations == want.value.violations
    assert exc.value.violations == oracle_violations(eta, oracle_cocycle)


def test_solver_on_a_zero_dimensional_carrier(every_kind):
    for pres in every_kind:
        space = solve_cocycles(counit_rep(pres, 0))
        assert space.dimension == 0 and space.basis == ()


def qi_kernel(rep):
    """The kernel of the whole coefficient matrix of rep's cocycle equations,
    one pass on all of rho, its cells read one by one as Qi."""
    d, n = rep.d, rep.n
    width = 2 * d * d * n
    units = [[(v, 1, 0)] for v in range(width)], 1
    sums = cocycle._relation_sums(rep, units, width, "the cocycle coefficient matrix")
    rows = [cells[k::n] for cells in map(sums.column, sums.nonzero_columns()) for k in range(n)]
    return linalg.kernel_basis(QMatrix(rows, cols=width) if rows else QMatrix.zero(0, width))


def basis_vectors(space):
    """Each basis cocycle's letter values at h n + k over `letters(d)`."""
    return [QVector([z for l in letters(space.rep.d) for z in eta.letter_value(l)]) for eta in space.basis]


@given(st.data())
def test_solver_basis_is_the_kernel_of_the_qi_rows(data):
    # relations of counit 0 (so the counit is a representation) with
    # coefficients over different denominators: the basis equals the kernel
    # of the coefficient matrix built cell by cell as Qi
    d, n = 2, data.draw(st.integers(1, 2))
    relations = []
    for i, a in enumerate(drawn_elements(data, d, max_len=2)):
        a = a.scale(q(f"1/{data.draw(st.integers(1, 9))}"))
        relations.append((f"r{i}", a - Element.one(d).scale(counit(a))))
    rep = counit_rep(algebra.Presentation("k_d", d, tuple(relations), True), n)
    assert basis_vectors(solve_cocycles(rep)) == qi_kernel(rep)


@given(st.data())
def test_solver_basis_is_the_kernel_of_the_whole_matrix(every_kind, data):
    # solved once per distinct block and merged, against the kernel of the
    # whole coefficient matrix: drawn carriers and coupled blocks, their
    # coordinates permuted so that blocks interleave
    pres = data.draw(st.sampled_from(every_kind))
    rep, coupled = drawn_carrier(data, pres), coupled_reps(pres)
    if coupled and data.draw(st.booleans()):
        rep = data.draw(st.sampled_from(coupled))
    rep = permuted(rep, data.draw(st.permutations(range(rep.n))))
    assert basis_vectors(solve_cocycles(rep)) == qi_kernel(rep)


def test_solver_on_coupled_and_interleaved_blocks(u2):
    rotated, interleaved = coupled_reps(u2)
    assert words.coordinate_blocks(rotated.action) == [[0, 1]]
    assert words.coordinate_blocks(interleaved.action) == [[0, 2], [1]]
    assert words.coordinate_blocks(idempotent_rep().action) == [[0, 1]]
    for rep in (rotated, interleaved, idempotent_rep()):
        assert basis_vectors(solve_cocycles(rep)) == qi_kernel(rep)


def test_solver_eliminates_once_per_distinct_block(every_kind, monkeypatch):
    # the counit on n = 3 is three equal blocks, counit + sign two distinct ones
    kernel, widths = linalg.kernel_basis, []
    monkeypatch.setattr(cocycle, "kernel_basis", lambda m: widths.append(m.cols) or kernel(m))
    for pres in every_kind:
        width = 2 * pres.d * pres.d
        widths.clear()
        solve_cocycles(counit_rep(pres, 3))
        assert widths == [width]
        if pres.kind != "su_q" or pres.d % 2 == 0:
            widths.clear()
            solve_cocycles(direct_sum_rep(counit_rep(pres), sign_rep(pres)))
            assert widths == [width, width]


def test_solver_refuses_a_split_coupled_block(monkeypatch):
    # split into singletons, the block solves rho_00 V_0 = 0 and rho_11 V_1 = 0
    # with rho_11 = 0: V = e_1 comes out, and the check on the whole of rho
    # finds eta(u^2 - u) = rho(u) e_1 = e_0
    rep = idempotent_rep()
    monkeypatch.setattr(cocycle, "coordinate_blocks", lambda rho: [[k] for k in range(len(rho.by_head))])
    with pytest.raises(RelationViolation) as exc:
        solve_cocycles(rep)
    assert exc.value.what == "cocycle"
    assert exc.value.violations == [("idempotent", QVector([ONE, ZERO]))]


def test_solver_basis_members_validate(o3):
    space = solve_cocycles(counit_rep(o3))
    assert len(space.basis) == space.dimension
    for eta in space.basis:
        assert isinstance(eta, Cocycle)
        # touching a relation through the cocycle identity must give zero
        for lbl, r in o3.relations:
            assert cocycle_values(eta, [r])[0].is_zero(), lbl


def test_random_element_is_deterministic(u2):
    space = solve_cocycles(counit_rep(u2))
    e1 = space.random_element(random.Random(7))
    e2 = space.random_element(random.Random(7))
    assert e1 == e2
    for lbl, r in u2.relations:
        assert cocycle_values(e1, [r])[0].is_zero(), lbl


def test_scalar_gaussian_matches_grid_form(u2):
    m = QMatrix([[ONE, I], [I, ONE]])
    a = scalar_gaussian_cocycle(u2, m)
    b = gaussian_cocycle(u2, scalar_grid([[ONE, I], [I, ONE]]))
    assert a == b


def test_direct_sum_concatenates(eta_sym_u2, eta_asym_u2):
    s = direct_sum_cocycle(eta_sym_u2, eta_asym_u2)
    assert s.n == 2
    a = Element.generator(2, 1, 2)
    assert cocycle_values(s, [a])[0] == cocycle_values(eta_sym_u2, [a])[0].direct_sum(
        cocycle_values(eta_asym_u2, [a])[0]
    )


@given(st.data())
def test_assemblies_of_checked_parts_evaluate_nothing(every_kind, data):
    # direct_sum_rep, direct_sum_cocycle and random_element build through the
    # unchecked dataclass constructors: a direct sum's relation values are
    # its summands', and a combination's are linear in its basis's, so each
    # equals the checking constructor on its own grids.  A spy on the
    # evaluator, under every name the two modules call it by (the package
    # attribute schurmann.representation is the function, hence sys.modules),
    # sees no call from the three.
    pres = data.draw(st.sampled_from(every_kind))
    r1, r2 = drawn_carrier(data, pres), drawn_carrier(data, pres)
    s1, s2 = solve_cocycles(r1), solve_cocycles(r2)
    rng, calls = random.Random(data.draw(st.integers(0, 2**32))), []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("schurmann.representation", "schurmann.cocycle"):
            module = sys.modules[name]
            spy = lambda *args, evaluate=module.word_set_values: calls.append(args) or evaluate(*args)
            mp.setattr(module, "word_set_values", spy)
        rep = direct_sum_rep(r1, r2)
        e1, e2 = s1.random_element(rng), s2.random_element(rng)
        eta = direct_sum_cocycle(e1, e2)
    assert calls == []
    n = r1.n + r2.n
    assert rep == representation(pres, [list(map(QMatrix.block_diag, *rows)) for rows in zip(r1.R, r2.R)], n)
    assert rep_values(rep, [r for _, r in pres.relations]) == [QMatrix.zero(n, n)] * len(pres.relations)
    assert (e1, e2) == (cocycle_general(r1, e1.V, e1.W), cocycle_general(r2, e2.V, e2.W))
    sums = [[list(map(QVector.direct_sum, *rows)) for rows in zip(g1, g2)] for g1, g2 in ((e1.V, e2.V), (e1.W, e2.W))]
    assert eta == cocycle_general(rep, *sums)


# -- W completed from V by the unitarity relations ----------------------------


@pytest.fixture(scope="session")
def completion_spaces(every_kind):
    """Solved cocycle spaces: the counit on n = 1, 2, the sign and counit +
    sign on every kind (the sign is no representation of su_q at odd d),
    the 3-cycle on U_3+, K<3> and O_3+ and diag(i, 1) on U_3+."""
    reps = []
    for pres in every_kind:
        reps += [counit_rep(pres, 1), counit_rep(pres, 2)]
        if pres.kind != "su_q" or pres.d % 2 == 0:
            reps += [sign_rep(pres), direct_sum_rep(counit_rep(pres), sign_rep(pres))]
    three = {kind: build_presentation(kind, 3) for kind in ("u_plus", "k_d", "o_plus")}
    reps += [cycle_rep(pres) for pres in three.values()] + [phase_rep(three["u_plus"])]
    return [solve_cocycles(rep) for rep in reps]


def test_completion_recovers_every_basis_vector(completion_spaces):
    assert {space.rep.presentation.kind for space in completion_spaces} == set(algebra.PRESENTATION_KINDS)
    for space in completion_spaces:
        assert space.basis, space.rep
        for eta in space.basis:
            assert cocycle_from_V(space.rep, eta.V) == eta


@given(st.data())
def test_completion_recovers_W_on_drawn_members(completion_spaces, data):
    for space in completion_spaces:
        d, n = space.rep.d, space.rep.n
        coeffs = [data.draw(qi_scalars) for _ in space.basis]
        V = oracle_combination(coeffs, [eta.V for eta in space.basis], d, n)
        W = oracle_combination(coeffs, [eta.W for eta in space.basis], d, n)
        assert cocycle_from_V(space.rep, V).W == W


@given(st.data())
def test_letter_grid_arithmetic_matches_the_qvector_oracles(every_kind, data):
    # random_element, b_matrices and the W of cocycle_from_V work on the
    # letter values' numerators; the QVector formulas they replaced agree
    # exactly, with the coefficients drawn in basis order
    rep = drawn_carrier(data, data.draw(st.sampled_from(every_kind)))
    space, seed = solve_cocycles(rep), data.draw(st.integers(0, 2**32))
    eta = space.random_element(random.Random(seed))
    rng = random.Random(seed)
    coeffs = [cocycle.random_coefficient(rng) for _ in space.basis]
    assert eta.V == oracle_combination(coeffs, [b.V for b in space.basis], rep.d, rep.n)
    assert eta.W == oracle_combination(coeffs, [b.W for b in space.basis], rep.d, rep.n)
    bm = b_matrices(eta)
    assert (bm.b, bm.b_tilde) == (oracle_letter_gram(eta.V), oracle_letter_gram(eta.W))
    assert cocycle_from_V(rep, eta.V).W == oracle_completed_W(rep, eta.V) == eta.W


# -- the word-set evaluator against the plain recursion ----------------------


def drawn_grids(data, space, n):
    """Random (V, W) grids, or a member of the cocycle space with one value
    changed, the drawn values real in the real arm (`drawn_entries`); the
    counit's members are real."""
    d = space.rep.d
    vectors = qi_vectors(n, drawn_entries(data))
    if not space.basis or data.draw(st.booleans()):
        return [[[data.draw(vectors) for _ in range(d)] for _ in range(d)] for _ in "VW"]
    eta = data.draw(st.sampled_from(space.basis))
    V, W = [list(map(list, eta.V)), list(map(list, eta.W))]
    grid = data.draw(st.sampled_from([V, W]))
    j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    grid[j][k] = data.draw(vectors)
    return V, W


@functools.lru_cache(maxsize=None)
def counit_space(pres, n):
    """The cocycle space of the counit on n dimensions, solved once per presentation."""
    return solve_cocycles(counit_rep(pres, n))


@given(st.data())
def test_cocycle_values_match_recursion(every_kind, data):
    # every presentation in every example: a per-example draw of one can
    # miss one under the derandomized triage profile
    for pres in every_kind:
        n = data.draw(st.integers(1, 2))
        rep = unvalidated_rep(pres, drawn_blocks(data, pres.d, n), n)
        V, W = drawn_grids(data, counit_space(pres, n), n)
        eta = unvalidated_cocycle(rep, V, W)
        elements = drawn_elements(data, pres.d)
        # the empty word, and an element (so its words) repeated in one batch
        elements += [Element.one(pres.d), elements[0], Element.zero(pres.d)]
        memo = {}
        want = [oracle_cocycle(eta, a, memo) for a in elements]
        assert cocycle_values(eta, elements) == want
        assert [cocycle_values(eta, [a])[0] for a in elements] == want


@given(st.data())
def test_cocycle_violations_match_recursion(every_kind, data):
    # labels, order and values of the RelationViolation list, on the counit
    # or on a rep that need not be valid (cocycle_general does not check it)
    # every presentation in every example: a per-example draw of one can
    # miss one under the derandomized triage profile
    for pres in every_kind:
        n = data.draw(st.integers(1, 2))
        if data.draw(st.booleans()):
            rep = counit_rep(pres, n)
        else:
            rep = unvalidated_rep(pres, drawn_blocks(data, pres.d, n), n)
        V, W = drawn_grids(data, counit_space(pres, n), n)
        want = oracle_violations(unvalidated_cocycle(rep, V, W), oracle_cocycle)
        if not want:
            assert cocycle_general(rep, V, W).n == n
            continue
        with pytest.raises(RelationViolation) as exc:
            cocycle_general(rep, V, W)
        assert exc.value.violations == want


@given(st.data())
def test_word_set_values_in_columns_match_recursion(every_kind, data):
    # 2 to 4 cocycles at once, or all 2 d^2 n columns of the solver: cell
    # v n + k of an element is coordinate k of eta_v on it.  rho entries and
    # letter values are scaled by 1, 2^40 or 2^70 over a denominator, so the
    # layer bounds straddle the 64- and 128-bit slot limits, on words of up
    # to five letters; rho itself (no eta) runs on the same drawn rep
    # every presentation in every example: a per-example draw of one can
    # miss one under the derandomized triage profile.  The solver's width is
    # drawn at d = 2 only: at d = 3 its up to 36 x 36 letter values made
    # drawing them the test's largest cost
    for pres in every_kind:
        d, n = pres.d, data.draw(st.integers(1, 2))
        full = 2 * d * d * n
        width = data.draw(st.one_of(st.integers(2, 4), st.just(full)) if d == 2 else st.integers(2, 4))

        def scale():
            return Qi(data.draw(st.sampled_from([1, 2**40, 2**70]))) / Qi(data.draw(st.integers(1, 6)))

        s = scale()
        rep = unvalidated_rep(pres, [[m.scale(s) for m in row] for row in drawn_blocks(data, d, n)], n)
        column = st.lists(drawn_entries(data), min_size=full, max_size=full)
        vectors = [[z * s for z in data.draw(column)] for s in (scale() for _ in range(width))]
        elements = drawn_elements(data, d, max_len=5) + [Element.one(d)]
        sums = words.word_set_values(
            word_set(d, elements), rep.action, n, words.columns(vectors), width
        )
        memo = [{} for _ in vectors]
        for e, a in enumerate(elements):
            want = [oracle_cocycle(flat_cocycle(rep, vec), a, m) for vec, m in zip(vectors, memo)]
            assert sums.column(e) == [z for value in want for z in value]
        memo = {}
        assert rep_values(rep, elements) == [oracle_rep(rep, a, memo) for a in elements]


def test_word_set_values_bound_every_slot(u2):
    # rho purely imaginary at 2^40 i, letter values near 2^70 in three
    # columns on n = 2, words of four letters: the values reach 2^190, so a
    # slot picked from a bound without |im| in |rho|, or without the eta
    # term of a layer, overflows, and a stride other than the three columns
    # reads the wrong cells; every coordinate pair gathers imaginary parts only
    big = Qi(0, 2**40)
    m = QMatrix([[big, big], [ZERO, big * q("1/3")]])
    rep = unvalidated_rep(u2, [[m, m.adjoint()], [m, m]], 2)
    assert all(not any(re) for row in rep.action.by_head for _, re, _ in row)
    alpha = letters(2)
    elements = [
        Element.from_word(2, (alpha[1], alpha[2], alpha[0], alpha[3]), q("1/2")),
        Element.from_word(2, (alpha[5], alpha[0], alpha[3], alpha[6]))
        + Element.from_word(2, (alpha[4],), I),
    ]
    top = Qi(2**70) / Qi(3)
    vectors = [[top * Qi(v + 1, k % 3) for k in range(16)] for v in range(3)]
    assert_columns_match(rep, elements, vectors)


def assert_columns_match(rep, elements, vectors):
    """eta for every column of letter values, and rho, on the elements'
    word set against the recursions."""
    ws = word_set(rep.d, elements)
    sums = words.word_set_values(ws, rep.action, rep.n, words.columns(vectors), len(vectors))
    memo = [{} for _ in vectors]
    for e, a in enumerate(elements):
        want = [oracle_cocycle(flat_cocycle(rep, vec), a, m) for vec, m in zip(vectors, memo)]
        assert sums.column(e) == [z for value in want for z in value]
    assert rep_values(rep, elements) == [oracle_rep(rep, a) for a in elements]


def letter_vectors(d, n, width):
    """width columns of letter values, every entry nonzero and distinct."""
    return [[Qi(k + 1, v - k) / Qi(v + 2) for k in range(2 * d * d * n)] for v in range(width)]


def test_word_set_values_of_the_unit_and_zero(u2):
    # the unit alone compiles to no layers; a zero element to an empty stretch
    rep = unvalidated_rep(u2, [[QMatrix([[ONE, I], [q("1/2"), ZERO]])] * 2] * 2, 2)
    for elements in ([Element.one(2).scale(q("1/2"))], [Element.zero(2)], [Element.zero(2), Element.one(2)]):
        assert word_set(2, elements).layers == ()
        assert_columns_match(rep, elements, letter_vectors(2, 2, 2))
    a = Element.from_word(2, letters(2)[:3], I)
    assert_columns_match(rep, [Element.zero(2), a, Element.zero(2)], letter_vectors(2, 2, 3))


def test_word_set_values_on_a_layer_without_counit_tails(u2):
    # every tail of layers 2 and 3 is off-diagonal: no eta(h) term there
    alpha = letters(2)
    off = [l for l in alpha if l.row != l.col]
    elements = [Element.from_word(2, (h, t)) + Element.from_word(2, (t, h, t), I) for h in alpha for t in off]
    ws = word_set(2, elements)
    assert [eps for _, _, eps in ws.layers[1:]] == [[], []]
    m = QMatrix([[q("1/3"), I], [ONE, q("-2")]])
    rep = unvalidated_rep(u2, [[m, m.adjoint()], [QMatrix.zero(2, 2), m]], 2)
    assert_columns_match(rep, elements, letter_vectors(2, 2, 2))


def test_word_set_values_on_one_long_run_and_one_tail_runs():
    # layer 4 holds one head letter over all 72 determinant words of SU_q(3)
    # next to 17 head letters with one tail each; the relations themselves
    # fill layers 1 to 3
    pres = build_presentation("su_q", 3, q=rational("1/2"))
    alpha = letters(3)
    dets = [r for _, r in pres.determinant_relations()]
    w = next(iter(dets[0].terms))
    elements = dets + [Element.generator(3, 1, 1) * r for r in dets]
    elements += [Element.from_word(3, (h,) + w, Qi(k, 1)) for k, h in enumerate(alpha[1:])]
    heads = word_set(3, elements).layers[3][0]
    assert heads.count(0) == 72 and all(heads.count(h) == 1 for h in range(1, len(alpha)))
    blocks = [
        [QMatrix([[Qi(j + 1, k), ONE], [ZERO, Qi(-1, j * k)]]).scale(ONE / Qi(j + k + 1)) for k in range(3)]
        for j in range(3)
    ]
    assert_columns_match(unvalidated_rep(pres, blocks, 2), elements, letter_vectors(3, 2, 2))


def test_word_set_values_refuse_an_understated_slot(u2, monkeypatch):
    # 64-bit slots for sums near 2^70: the decode raises rather than return
    # aliased cells, whether a sum overflows its bytes (one column, and rho)
    # or its slots (three columns, the top two 0)
    monkeypatch.setattr(words, "_width", lambda bound: 64)
    a = Element.from_word(2, (letters(2)[0],))
    ws = word_set(2, [a])
    rep = counit_rep(u2, 1)
    for vectors in ([[Qi(2**70)] * 8], [[Qi(2**70)] * 8, [ZERO] * 8, [ZERO] * 8]):
        with pytest.raises(ArithmeticError, match="above its layer's bound"):
            words.word_set_values(ws, rep.action, 1, words.columns(vectors), len(vectors))
    big = QMatrix([[Qi(2**70)]])
    with pytest.raises(ArithmeticError, match="above its layer's bound"):
        rep_values(unvalidated_rep(u2, [[big, big], [big, big]], 1), [a])


def test_cocycle_values_budget_boundary(eta_sym_u2, monkeypatch):
    # a word of three letters: 4 words in its suffix closure, 1 entry each
    a = Element.from_word(2, letters(2)[:3])
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 4)
    assert cocycle_values(eta_sym_u2, [a]) == [oracle_cocycle(eta_sym_u2, a)]
    monkeypatch.setattr(algebra, "MAX_TABLE_ENTRIES", 3)
    refuse_evaluation(monkeypatch)
    with pytest.raises(InputError, match="above the table budget MAX_TABLE_ENTRIES = 3"):
        cocycle_columns(eta_sym_u2, [a])


def test_cocycle_of_a_long_word_matches_recursion(u2):
    # a word of MAX_SAMPLED_WORD_LEN letters evaluates with a few frames of
    # recursion to spare: the evaluator works layer by layer
    m, p = QMatrix([[ONE, I], [q("1/2"), ZERO]]), QMatrix([[ZERO, ONE], [ONE, q("1/3")]])
    rep = unvalidated_rep(u2, [[m, p], [p.adjoint(), m.adjoint()]], 2)
    vec = [[QVector((q("1/3"), I)), QVector((ZERO, ONE))], [QVector((ONE, ONE)), QVector((I, ZERO))]]
    eta = unvalidated_cocycle(rep, vec, vec)
    diagonal = (Letter(1, 1, False), Letter(2, 2, True))
    w = tuple(letters(2)[k % 8] for k in range(algebra.MAX_SAMPLED_WORD_LEN - 4)) + diagonal * 2
    a = Element.from_word(2, w, q("1/2"))
    assert without_deep_recursion(cocycle_values, eta, [a])[0] == oracle_cocycle(eta, a)
