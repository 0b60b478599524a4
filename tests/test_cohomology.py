"""2-cocycles, defects, class coordinates, primitives and the verifier."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import (
    canonical_values,
    drawn_elements,
    flat_cocycle,
    oracle_functional,
    oracle_pair,
    oracle_square_zero_on_letters,
    oracle_verify_primitive_exhaustive,
    qi_scalars,
    without_deep_recursion,
)
from schurmann import (
    CoboundaryCocycle,
    CombinationCocycle,
    CounitFunctional,
    Element,
    I,
    KPairCocycle,
    Letter,
    ONE,
    ObstructionError,
    Primitive,
    QMatrix,
    QVector,
    Qi,
    TwoCocycle,
    ZERO,
    basis_orthogonal,
    basis_unitary,
    build_presentation,
    check_2cocycle,
    check_primitive,
    class_coordinates,
    coboundary1,
    counit,
    counit_rep,
    defect_orthogonal,
    defect_unitary,
    gaussian_cocycle,
    is_normalized,
    letters,
    normalize,
    primitive,
    rational,
    schurmann_functional,
    sign_rep,
    solve_cocycles,
    square_zero_on_letters,
    sum_identity_defects,
    verify_primitive_exhaustive,
)
from schurmann import algebra, cocycle, cohomology, words
from schurmann.cocycle import Cocycle
from schurmann.errors import InputError
from schurmann.functional import Functional
from schurmann.representation import Representation, direct_sum_rep


def unit(d, j, k):
    rows = [[ZERO] * d for _ in range(d)]
    rows[j - 1][k - 1] = ONE
    return QMatrix(rows)


# -- the degree-2 identity ----------------------------------------------------


def test_kpair_is_a_2cocycle(eta_sym_u2):
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    assert check_2cocycle(c) is None
    assert square_zero_on_letters(c) is None
    assert is_normalized(c)


def test_kpair_frozen_sample(eta_sym_u2):
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    a = Element.generator(2, 1, 2)
    b = Element.generator(2, 2, 1)
    assert c.value(a, b) == -ONE


def test_kpair_requires_matching_rep(eta_sym_u2, eta_rot_o3):
    with pytest.raises(ValueError):
        KPairCocycle(eta_sym_u2, eta_rot_o3)


def test_square_zero_finds_witness_on_adhoc_bilinear():
    # c(a, b) = [len(a) = len(b) = 1] is not a 2-cocycle: the identity
    # reduces to eps(a) - eps(x) on letter triples.  The letter-triple
    # identity covers the catalogued kinds only; check_2cocycle sweeps the
    # same letter triples in the same order through batch.
    class FlatPairing(TwoCocycle):
        d = 2

        def batch(self, pairs):
            return [ONE if len(wa) == 1 and len(wb) == 1 else ZERO for wa, wb in pairs]

    with pytest.raises(TypeError):
        square_zero_on_letters(FlatPairing())
    witness = check_2cocycle(FlatPairing())
    assert witness is not None
    a, b, x, val = witness
    assert not val.is_zero()
    assert val == counit(a) - counit(x)


def test_square_zero_pins_broken_star_witness(u2, eta_sym_u2):
    # pinned value, computed by the per-word letter-triple sweep
    eta = _broken_star_eta(u2, eta_sym_u2, (0, 0))
    a = Letter(1, 1, False)
    assert square_zero_on_letters(KPairCocycle(eta, eta)) == (a, a, a, Qi(-1, -1))


def test_square_zero_refuses_other_types():
    with pytest.raises(TypeError):
        square_zero_on_letters(type("NoForm", (), {"d": 2})())


def test_coboundary_is_a_2cocycle(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    c = coboundary1(psi)
    assert check_2cocycle(c) is None
    assert square_zero_on_letters(c) is None


def test_coboundary_matches_direct_formula(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    c = coboundary1(psi)
    for la in letters(2):
        for lb in letters(2):
            a = Element.from_word(2, (la,))
            b = Element.from_word(2, (lb,))
            direct = (
                counit(a) * psi.value(b)
                - psi.value(a * b)
                + psi.value(a) * counit(b)
            )
            assert c.value(a, b) == direct


def test_coboundary_of_canonical_functional_is_minus_pairing(eta_sym_u2):
    # the sign convention: d(psi) = -<eta(.*), eta(.)> for the canonical psi
    psi = schurmann_functional(eta_sym_u2)
    c = coboundary1(psi)
    kp = KPairCocycle(eta_sym_u2, eta_sym_u2)
    pairs = [((la,), (lb,)) for la in letters(2) for lb in letters(2)]
    assert c.batch(pairs) == [-v for v in kp.batch(pairs)]


def test_normalize_subtracts_the_unit_value(u2, eta_sym_u2, eta_asym_u2):
    # d(eps)(a, b) = eps(a) eps(b), so normalize(c) = c - c(1, 1) d(eps) is
    # c(a, b) - c(1, 1) eps(a) eps(b) on every word pair
    d_eps = CoboundaryCocycle(CounitFunctional(u2))
    kp = KPairCocycle(eta_sym_u2, eta_asym_u2)
    words = [w for m in range(3) for w in product(letters(2), repeat=m)]
    pairs = [(a, b) for a in words for b in words]
    eps = {w: counit(Element.from_word(2, w)) for w in words}
    assert d_eps.batch([((), ())]) == [ONE]
    for c in (d_eps, CombinationCocycle(((ONE, kp), (Qi(2, -1), d_eps)))):
        unit = c.batch([((), ())])[0]
        assert not is_normalized(c)
        normal = normalize(c)
        assert is_normalized(normal)
        want = [v - unit * eps[a] * eps[b] for v, (a, b) in zip(c.batch(pairs), pairs)]
        assert normal.batch(pairs) == want
    assert is_normalized(kp) and normalize(kp) is kp


# -- defects and class coordinates -------------------------------------------


def test_defect_frozen_unitary(eta_asym_u2):
    c = KPairCocycle(eta_asym_u2, eta_asym_u2)
    m = defect_unitary(c)
    assert m == QMatrix([[-ONE, ZERO], [ZERO, ONE]])
    assert m.trace().is_zero()


def test_coboundary_has_zero_defect(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    assert defect_unitary(coboundary1(psi)).is_zero()


def test_orthogonal_basis_defects():
    o3 = build_presentation("o_plus", 3)
    basis = basis_orthogonal(o3)
    assert sorted(basis) == ["Khat_1_2", "Khat_1_3", "Khat_2_3"]
    for m in range(1, 4):
        for n in range(m + 1, 4):
            d = defect_orthogonal(basis[f"Khat_{m}_{n}"])
            assert d == unit(3, m, n) - unit(3, n, m)
            assert (d + d.transpose()).is_zero()


def test_anti_gaussian_pair_defect_d2():
    o2 = build_presentation("o_plus", 2)
    kz = basis_orthogonal(o2)["Kz"]
    assert defect_orthogonal(kz) == QMatrix(
        [[ZERO, Qi(rational(2))], [Qi(rational(-2)), ZERO]]
    )


def test_unitary_basis_coordinates_are_indicators(u2):
    basis = basis_unitary(u2)
    assert sorted(basis) == ["K_1_2", "K_2_1", "K_p_1"]
    for label, c in basis.items():
        cc = class_coordinates(c)
        assert cc.flavor == "unitary"
        for other, coeff in cc.coefficients.items():
            assert coeff == (ONE if other == label else ZERO)


def test_class_coordinates_frozen(eta_asym_u2):
    cc = class_coordinates(KPairCocycle(eta_asym_u2, eta_asym_u2))
    assert cc.flavor == "unitary"
    assert {k: v for k, v in cc.coefficients.items() if not v.is_zero()} == {
        "K_p_1": ONE
    }
    assert cc.defect == QMatrix([[-ONE, ZERO], [ZERO, ONE]])


@given(qi_scalars, qi_scalars)
def test_defect_is_linear(eta_asym_u2, eta_sym_u2, x, y):
    c1 = KPairCocycle(eta_asym_u2, eta_asym_u2)
    c2 = KPairCocycle(eta_sym_u2, eta_sym_u2)
    combo = CombinationCocycle(((x, c1), (y, c2)))
    assert defect_unitary(combo) == defect_unitary(c1).scale(x) + defect_unitary(
        c2
    ).scale(y)


def test_sum_identity_defects_vanish(eta_sym_u2, eta_rot_o3):
    for c in (
        KPairCocycle(eta_sym_u2, eta_sym_u2),
        KPairCocycle(eta_rot_o3, eta_rot_o3),
    ):
        defects = sum_identity_defects(c)
        assert defects
        for label, value in defects.items():
            assert value.is_zero(), label


# -- primitives ---------------------------------------------------------------


def test_primitive_roundtrip_through_coboundary(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    c = coboundary1(psi)
    phi = primitive(c)
    assert phi.values == psi.values
    assert phi.star_values == psi.star_values
    assert check_primitive(phi) is None


def test_primitive_obstruction_unitary(eta_asym_u2):
    with pytest.raises(ObstructionError) as exc:
        primitive(KPairCocycle(eta_asym_u2, eta_asym_u2))
    assert exc.value.flavor == "unitary"
    assert exc.value.defect == QMatrix([[-ONE, ZERO], [ZERO, ONE]])


def test_primitive_of_orthogonal_basis_obstructed():
    o3 = build_presentation("o_plus", 3)
    c = basis_orthogonal(o3)["Khat_1_2"]
    with pytest.raises(ObstructionError) as exc:
        primitive(c)
    assert exc.value.flavor == "orthogonal"
    assert not exc.value.defect.is_zero()


def test_exhaustive_verification_counts(eta_sym_u2):
    # the symmetric pairing has zero defect, so a primitive exists
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    assert defect_unitary(c).is_zero()
    phi = primitive(c)
    checked, witness = verify_primitive_exhaustive(phi, max_len=2)
    assert witness is None
    # 73 words of length <= 2 over the 8 letters, squared
    assert checked == 5329


def test_exhaustive_verifier_builds_no_table_below_length_2(monkeypatch, u2, eta_sym_u2):
    # zeta1 and eta1 share their letter values, so on a broken star
    # structure no pair of words of length <= 1 can fail: every pair is
    # counted with no word evaluated
    eta1 = _broken_star_eta(u2, eta_sym_u2, (0, 0))
    clean = primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))
    phi = Primitive(KPairCocycle(eta1, eta1), clean.values, clean.star_values)
    assert verify_primitive_exhaustive(phi, max_len=2)[1] is not None
    monkeypatch.setattr(cohomology, "word_set_values", lambda *a: pytest.fail("words evaluated"))
    assert verify_primitive_exhaustive(phi, max_len=0) == (1, None)
    assert verify_primitive_exhaustive(phi, max_len=1) == (9**2, None)


def test_exhaustive_verifier_needs_a_pairing(eta_sym_u2):
    phi = primitive(coboundary1(schurmann_functional(eta_sym_u2)))
    with pytest.raises(TypeError):
        verify_primitive_exhaustive(phi)


def _broken_star_eta(u2, clean_eta, broken):
    """clean_eta on a carrier whose starred image at grid position `broken`
    is multiplied by i."""
    good = clean_eta.rep
    bad_star = [list(row) for row in good.R_star]
    j, k = broken
    bad_star[j][k] = bad_star[j][k].scale(I)
    rep = Representation(u2, good.n, good.R, tuple(tuple(r) for r in bad_star))
    return Cocycle(rep, clean_eta.V, clean_eta.W)


def _broken_star_sweep(u2, clean_eta, broken):
    """Sweep the clean primitive against the pairing on the broken carrier."""
    clean = primitive(KPairCocycle(clean_eta, clean_eta))
    eta = _broken_star_eta(u2, clean_eta, broken)
    c = KPairCocycle(eta, eta)
    return verify_primitive_exhaustive(
        Primitive(c, clean.values, clean.star_values), max_len=2
    )


def test_exhaustive_verifier_catches_broken_star_structure(u2, eta_sym_u2):
    # letter-value corruptions extend to counit derivations and cancel in
    # the coboundary, so the only way to manufacture a violation is to break
    # the *-compatibility of the representation underneath the pairing
    assert eta_sym_u2.rep == counit_rep(u2)
    checked, witness = _broken_star_sweep(u2, eta_sym_u2, (0, 0))
    assert witness is not None
    aw, bw, got, want = witness
    assert checked == 659
    assert aw == (Letter(1, 1, False), Letter(1, 1, False))
    assert bw == (Letter(1, 1, False),)
    assert got != want
    assert got == Qi(rational(-2))
    assert want == Qi(rational(-1), rational(1))


# the same corruption on wider counit carriers, one scalar grid per
# coordinate; the expected witnesses were computed by the earlier sweep,
# which had separate n = 1, n = 2 and general branches
@pytest.mark.parametrize(
    "grids, broken, expected",
    [
        (
            ([[ONE, I], [I, ONE]], [[ONE, ZERO], [ZERO, -ONE]]),
            (0, 0),
            (659, ((1, 1), (1, 1)), ((1, 1),), Qi(-4), Qi(-2, 2)),
        ),
        (
            (
                [[ONE, I], [I, ONE]],
                [[ONE, ZERO], [ZERO, -ONE]],
                [[Qi(2), ONE], [ONE, ZERO]],
            ),
            (1, 1),
            (878, ((1, 1), (2, 2)), ((1, 1),), Qi(-6), Qi(0, 6)),
        ),
    ],
    ids=["n2", "n3"],
)
def test_exhaustive_verifier_catches_broken_star_structure_wide(u2, grids, broken, expected):
    V = [[QVector(tuple(g[j][k] for g in grids)) for k in range(2)] for j in range(2)]
    checked, witness = _broken_star_sweep(u2, gaussian_cocycle(u2, V), broken)
    want_checked, aw, bw, got, want = expected
    assert checked == want_checked
    assert witness == (
        tuple(Letter(*rc, False) for rc in aw),
        tuple(Letter(*rc, False) for rc in bw),
        got,
        want,
    )


def _scalar(rng):
    return Qi(rng.randint(-3, 3), rng.randint(-3, 3)) / Qi(rng.randint(1, 3))


def _broken_star_carriers(pres, rng):
    """(broken, star): a random grid R, n <= 3, with R_star adjoint R on the
    star carrier and, on the broken one, adjoint R but at one random cell,
    multiplied there by a Gaussian unit or an integer.  No relation is
    checked: the identities behind the sweeps hold on the free *-algebra."""
    d, n = pres.d, rng.randint(1, 3)
    block = lambda: QMatrix([[_scalar(rng) for _ in range(n)] for _ in range(n)])
    R = tuple(tuple(block() for _ in range(d)) for _ in range(d))
    star = [[m.adjoint() for m in row] for row in R]
    good = Representation(pres, n, R, tuple(map(tuple, star)))
    j, k = rng.randrange(d), rng.randrange(d)
    star[j][k] = star[j][k].scale(rng.choice([I, -ONE, -I, ZERO, Qi(2), Qi(-3)]))
    return Representation(pres, n, R, tuple(map(tuple, star))), good


def _random_pairing(rng, rep1, rep2):
    """The pairing of a random cocycle on rep1 with one on rep2 whose letter
    values are half of them 0, so that its span can be a proper subspace."""
    size = 2 * rep1.d * rep1.d * rep1.n
    eta1 = flat_cocycle(rep1, [_scalar(rng) for _ in range(size)])
    eta2 = flat_cocycle(rep2, [rng.choice([ZERO, _scalar(rng)]) for _ in range(size)])
    return KPairCocycle(eta1, eta2)


def _letter_values(rng, d):
    values = QMatrix([[_scalar(rng) for _ in range(d)] for _ in range(d)])
    return values, values.transpose()


def _broken_star_primitive(pres, rng):
    """A primitive with random letter values on the pairing of two random
    cocycles, each on the broken or on the star carrier."""
    carriers = _broken_star_carriers(pres, rng)
    c = _random_pairing(rng, rng.choice(carriers), rng.choice(carriers))
    return Primitive(c, *_letter_values(rng, pres.d))


@given(st.randoms(use_true_random=False))
def test_pairing_sweeps_match_the_table_oracles(u2, o3, rng):
    # every presentation in every example: the sweep's (checked, witness)
    # and the first letter-triple witness equal those of the plain per-word
    # sweeps in `conftest`; O_3+ at length 1 only, its full plain sweep at
    # length 2 taking seconds (one pinned case below)
    for pres, top in ((build_presentation("k_d", 2), 2), (u2, 2), (o3, 1)):
        phi = _broken_star_primitive(pres, rng)
        max_len = rng.randint(1, top)
        got = verify_primitive_exhaustive(phi, max_len=max_len)
        assert got == oracle_verify_primitive_exhaustive(phi, max_len), (pres.kind, max_len)
        c = phi.two_cocycle
        assert square_zero_on_letters(c) == oracle_square_zero_on_letters(c), pres.kind


def test_pairing_sweep_on_o3_at_length_2_matches_the_plain_sweep(o3):
    # both cocycles on the broken carrier.  A letter u never fails (zeta1
    # and eta1 share their letter values), so the witness's u has two
    # letters: past the 19 words of length <= 1, each against all 343 words
    rng = random.Random(0)
    broken, _ = _broken_star_carriers(o3, rng)
    phi = Primitive(_random_pairing(rng, broken, broken), *_letter_values(rng, 3))
    checked, witness = verify_primitive_exhaustive(phi, max_len=2)
    assert checked == 6520 > 19 * 343
    assert (len(witness[0]), len(witness[1])) == (2, 1)
    assert (checked, witness) == oracle_verify_primitive_exhaustive(phi, 2)


def _two_cocycles_of_every_kind(pres, rng):
    """Coboundaries of a primitive, of a generating functional and of the
    counit, which hold the identity on every triple, and nested
    combinations with non-unit Gaussian coefficients of pairings on the
    broken carrier, on the star one and on both.  The primitive's and the
    functional's own pairings are on the broken carrier."""
    broken, star = _broken_star_carriers(pres, rng)
    on_broken, on_star = _random_pairing(rng, broken, broken), _random_pairing(rng, star, star)
    mixed = _random_pairing(rng, star, broken)
    phi = Primitive(on_broken, *_letter_values(rng, pres.d))
    psi = Functional(on_broken.eta1, *_letter_values(rng, pres.d))
    coboundaries = [coboundary1(phi), coboundary1(psi), coboundary1(CounitFunctional(pres))]

    def k():
        return rng.choice([Qi(2), -I, Qi(1, -3) / Qi(2), Qi(-1, 2)])

    inner = CombinationCocycle(((k(), on_broken), (k(), coboundaries[0]), (k(), mixed)))
    nested = CombinationCocycle(((k(), on_star), (k(), inner), (k(), coboundaries[1])))
    flat = CombinationCocycle(((k(), on_star), (k(), on_broken)))
    return coboundaries + [nested, flat, CombinationCocycle(((k(), nested), (k(), on_broken)))]


@given(st.randoms(use_true_random=False))
def test_square_zero_matches_the_plain_oracle(u2, rng):
    # every kind of 2-cocycle in every example: the first letter-triple
    # witness equals that of the plain per-word sweep in `conftest`
    for pres in (build_presentation("k_d", 2), u2):
        cocycles = _two_cocycles_of_every_kind(pres, rng)
        for c in cocycles:
            assert square_zero_on_letters(c) == oracle_square_zero_on_letters(c), c
        assert [square_zero_on_letters(c) for c in cocycles[:3]] == [None] * 3


def test_square_zero_evaluates_nothing_without_a_broken_pairing(monkeypatch, u2, eta_sym_u2):
    # coboundaries and star pairings only: None before any letter is read
    psi = schurmann_functional(eta_sym_u2)
    star = KPairCocycle(eta_sym_u2, eta_sym_u2)
    cob = coboundary1(psi)
    combo = CombinationCocycle(((Qi(2), star), (-I, CombinationCocycle(((I, cob), (Qi(3), star))))))
    monkeypatch.setattr(cohomology, "_pairing_triple", lambda *a: pytest.fail("evaluated"))
    for kind in (KPairCocycle, CombinationCocycle, cohomology.CoboundaryCocycle):
        monkeypatch.setattr(kind, "batch", lambda *a: pytest.fail("evaluated"))
    for c in (combo, cob, coboundary1(CounitFunctional(u2)), star):
        assert square_zero_on_letters(c) is None


def test_class_coordinates_rebuild_is_enforced(monkeypatch, eta_asym_u2):
    # a wrong K_p sign no longer rebuilds the defect; the check is not an
    # assert, so it also holds under python -O
    monkeypatch.setattr(cohomology, "KP_DEFECT_SIGN", +1)
    with pytest.raises(ArithmeticError) as exc:
        class_coordinates(KPairCocycle(eta_asym_u2, eta_asym_u2))
    rebuilt, defect = exc.value.args[1:]
    assert defect == QMatrix([[-ONE, ZERO], [ZERO, ONE]])
    assert rebuilt == -defect


def test_check_primitive_passes_on_construction(eta_rot_o3):
    c = KPairCocycle(eta_rot_o3, eta_rot_o3)
    # zero defect here, so a primitive exists
    assert defect_orthogonal(c).is_zero()
    phi = primitive(c)
    assert check_primitive(phi) is None
    checked, witness = verify_primitive_exhaustive(phi, max_len=2)
    assert witness is None


def test_exhaustive_budget_refused_before_any_table(monkeypatch, eta_sym_u2):
    phi = primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))
    monkeypatch.setattr(cohomology, "word_set_values", lambda *a: pytest.fail("words evaluated"))
    # 8 letters: the budget of eta on the words of length 7, 8**7 entries;
    # length 6 fits
    assert 8**6 <= words.MAX_TABLE_ENTRIES < 8**7
    with pytest.raises(InputError, match="MAX_TABLE_ENTRIES"):
        verify_primitive_exhaustive(phi, max_len=7)
    # but not for five coordinates, 5 * 8**6 entries
    eta = flat_cocycle(counit_rep(build_presentation("k_d", 2), 5), [ZERO] * 40)
    wide = Primitive(KPairCocycle(eta, eta), phi.values, phi.star_values)
    with pytest.raises(InputError, match="length 6 would hold 1310720 entries"):
        verify_primitive_exhaustive(wide, max_len=6)


@pytest.fixture(scope="module")
def k2_pairing_primitive():
    """A C13-style primitive: a random pairing on K<2> over counit + sign."""
    pres = build_presentation("k_d", 2)
    space = solve_cocycles(direct_sum_rep(counit_rep(pres), sign_rep(pres, 1)))
    rng = random.Random("0:C13")
    return primitive(KPairCocycle(space.random_element(rng), space.random_element(rng)))


def _table_cases(eta, k2_phi):
    """Every 2-cocycle kind the JSON loader builds, over eta, plus the
    primitives whose value tables they need."""
    psi = canonical_values(eta)
    kp = KPairCocycle(eta, eta)
    # letter values need not satisfy anything for the tables to follow the recursion
    on_kpair = Primitive(kp, psi.values, psi.star_values)
    on_coboundary = Primitive(coboundary1(psi), psi.values.transpose(), psi.values)
    counit_cob = coboundary1(CounitFunctional(eta.presentation))
    cocycles = [
        kp,
        coboundary1(psi),
        coboundary1(on_kpair),
        coboundary1(on_coboundary),
        counit_cob,
        CombinationCocycle(((Qi(2), kp), (I, coboundary1(on_kpair)), (Qi(rational("-1/2")), counit_cob))),
    ]
    return cocycles, [on_kpair, on_coboundary, k2_phi]


def _elements_for(data, d):
    """Drawn elements of words up to length 4, with the empty word, a
    repeated element and the zero element among them."""
    drawn = drawn_elements(data, d, max_len=4)
    return drawn + [Element.one(d), drawn[0], Element.zero(d)]


@pytest.mark.parametrize("name", ["eta_sym_u2", "eta_rot_o3", "eta_asym_u2"])
@given(data=st.data())
def test_batches_match_the_recursions(request, k2_pairing_primitive, name, data):
    # every functional and 2-cocycle of the input in every example
    eta = request.getfixturevalue(name)
    cocycles, primitives = _table_cases(eta, k2_pairing_primitive)
    psi = canonical_values(eta)
    on_combination = Primitive(cocycles[-1], psi.values.transpose(), psi.star_values)
    functionals = [psi, on_combination] + primitives
    for phi in functionals:
        elements, memo = _elements_for(data, phi.d), {}
        words = [w for a in elements for w in a.terms]
        assert phi.batch(words) == [oracle_functional(phi, w, memo) for w in words]
        for a in elements:
            want = sum((x * oracle_functional(phi, w, memo) for w, x in a.terms.items()), ZERO)
            assert phi.value(a) == want, a
    # the forms of the functionals are these cocycles, up to k2's 2-cocycle
    for c in cocycles + [k2_pairing_primitive.form]:
        elements, memo = _elements_for(data, c.d), {}
        pairs = [(u, v) for a in elements for u in a.terms for b in elements for v in b.terms]
        assert c.batch(pairs) == [oracle_pair(c, u, v, memo) for u, v in pairs]
        for a, b in zip(elements, reversed(elements)):
            want = sum(
                (x * y * oracle_pair(c, u, v, memo) for u, x in a.terms.items() for v, y in b.terms.items()),
                ZERO,
            )
            assert c.value(a, b) == want, (a, b)


def _sampled_pairs(d, count, seed=0):
    """The letter pairs and count random pairs of words of length <= 2, as
    check_primitive samples them."""
    rng = random.Random(seed)
    alpha = letters(d)
    els = [Element.from_word(d, (l,)) for l in alpha]
    pool = [()] + [(l,) for l in alpha] + [(l1, l2) for l1 in alpha for l2 in alpha]
    sampled = [tuple(Element.from_word(d, rng.choice(pool)) for _ in range(2)) for _ in range(count)]
    return [(a, b) for a in els for b in els] + sampled


def test_check_primitive_compiles_a_fixed_number_of_word_sets(monkeypatch, k2_pairing_primitive):
    # a batch puts all words of one side on one word set, however many pairs it holds
    compiled = []

    def counted(*args):
        compiled.append(1)
        return algebra.word_set(*args)

    monkeypatch.setattr(cocycle, "word_set", counted)
    counts = []
    for count in (24, 200):
        compiled.clear()
        assert check_primitive(k2_pairing_primitive, _sampled_pairs(2, count)) is None
        counts.append(len(compiled))
    assert counts[0] == counts[1] > 0


def test_functionals_on_a_long_word_match_recursion(eta_sym_u2, k2_pairing_primitive):
    # a word of MAX_SAMPLED_WORD_LEN diagonal letters evaluates with a few
    # frames of recursion to spare: no recursion runs once per letter
    diagonal = [l for l in letters(2) if l.row == l.col]
    w = tuple(diagonal[k % 4] for k in range(cocycle.MAX_SAMPLED_WORD_LEN))
    coeff = Qi(rational("1/2"), 1)
    a = Element.from_word(2, w, coeff)
    for phi in (schurmann_functional(eta_sym_u2), k2_pairing_primitive):
        assert without_deep_recursion(phi.value, a) == coeff * oracle_functional(phi, w)
