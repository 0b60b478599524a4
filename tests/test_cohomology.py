"""2-cocycles, defects, class coordinates, primitives and the verifier."""

import random
from itertools import islice, product

import pytest
from hypothesis import given, strategies as st

from conftest import (
    canonical_values,
    drawn_blocks,
    drawn_elements,
    flat_cocycle,
    oracle_cocycle,
    oracle_functional,
    oracle_orthogonal_defect,
    oracle_orthogonal_primitive,
    oracle_pair,
    oracle_star,
    oracle_square_zero_on_letters,
    oracle_verify_primitive_exhaustive,
    qi_scalars,
    unvalidated_rep,
    without_deep_recursion,
)
from schurmann import (
    CoboundaryCocycle,
    CombinationCocycle,
    CounitFunctional,
    Element,
    I,
    KPairCocycle,
    ONE,
    ObstructionError,
    Primitive,
    QMatrix,
    QVector,
    Qi,
    TwoCocycle,
    ZERO,
    admits_generating_functional,
    admits_gf_criterion,
    b_matrices,
    build_presentation,
    check_2cocycle,
    check_primitive,
    class_coordinates,
    coboundary1,
    counit,
    counit_rep,
    defect,
    defect_basis,
    is_normalized,
    letters,
    normalize,
    primitive,
    rational,
    scalar_gaussian_cocycle,
    schurmann_functional,
    sign_rep,
    solve_cocycles,
    square_zero_on_letters,
    sum_identity_defects,
    verify_primitive_exhaustive,
)
from schurmann import algebra, cocycle, cohomology, words
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

        def batch_numerators(self, pairs):
            return [int(len(wa) == 1 and len(wb) == 1) for wa, wb in pairs], [0] * len(pairs), 1

    with pytest.raises(TypeError):
        square_zero_on_letters(FlatPairing())
    witness = check_2cocycle(FlatPairing())
    assert witness is not None
    a, b, x, val = witness
    assert not val.is_zero()
    assert val == counit(a) - counit(x)


def test_square_zero_returns_the_first_failing_recheck_triple(monkeypatch, eta_sym_u2):
    # the identity holds for a pairing, so a witness can only come from its
    # recheck: a batch that adds 1 on every pair whose first word has two
    # letters gives -1 on every letter triple, so the first triple of the
    # recheck is returned with that value
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    batch = KPairCocycle.batch_numerators

    def shifted(self, pairs):
        re, im, den = batch(self, pairs)
        return [v + den * (len(u) == 2) for v, (u, _) in zip(re, pairs)], im, den

    monkeypatch.setattr(KPairCocycle, "batch_numerators", shifted)
    a, b, x, value = square_zero_on_letters(c)
    assert value == -ONE
    assert {a, b, x} <= {Element.from_word(2, (l,)) for l in letters(2)}


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
    m = defect(c)
    assert m == QMatrix([[-ONE, ZERO], [ZERO, ONE]])
    assert m.trace().is_zero()


def test_coboundary_has_zero_defect(eta_sym_u2):
    psi = schurmann_functional(eta_sym_u2)
    assert defect(coboundary1(psi)).is_zero()


def test_orthogonal_basis_defects():
    o3 = build_presentation("o_plus", 3)
    basis = defect_basis(o3)
    assert sorted(basis) == ["Khat_1_2", "Khat_1_3", "Khat_2_3"]
    for m in range(1, 4):
        for n in range(m + 1, 4):
            d = defect(basis[f"Khat_{m}_{n}"])
            assert d == unit(3, m, n) - unit(3, n, m)
            assert (d + d.transpose()).is_zero()


def test_anti_gaussian_pair_defect_d2():
    o2 = build_presentation("o_plus", 2)
    kz = defect_basis(o2)["Kz"]
    assert defect(kz) == QMatrix(
        [[ZERO, Qi(rational(2))], [Qi(rational(-2)), ZERO]]
    )


def test_unitary_basis_coordinates_are_indicators(u2):
    basis = defect_basis(u2)
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
    assert defect(combo) == defect(c1).scale(x) + defect(c2).scale(y)


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
    c = defect_basis(o3)["Khat_1_2"]
    with pytest.raises(ObstructionError) as exc:
        primitive(c)
    assert exc.value.flavor == "orthogonal"
    assert not exc.value.defect.is_zero()


def test_exhaustive_verification_counts(eta_sym_u2):
    # the symmetric pairing has zero defect, so a primitive exists
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    assert defect(c).is_zero()
    phi = primitive(c)
    checked, witness = verify_primitive_exhaustive(phi, max_len=2)
    assert witness is None
    # 73 words of length <= 2 over the 8 letters, squared
    assert checked == 5329


def test_exhaustive_verifier_needs_a_pairing(eta_sym_u2):
    phi = primitive(coboundary1(schurmann_functional(eta_sym_u2)))
    with pytest.raises(TypeError):
        verify_primitive_exhaustive(phi)


def test_exhaustive_verifier_catches_a_fault_in_the_recursion(monkeypatch, eta_sym_u2):
    # phi's recursion cut short after 4 letters: no pair of words of length
    # <= 2 sees it, and at length 3 the first recheck pair, of diagonal
    # letters, has a 6-letter product and fails; c(u, v) is rechecked against
    # the plain recursion of `conftest`
    phi = primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))
    cuts = cohomology._cuts
    monkeypatch.setattr(cohomology, "_cuts", lambda w: islice(cuts(w), 4))
    assert verify_primitive_exhaustive(phi, max_len=2) == (73**2, None)
    checked, (u, v, got, want) = verify_primitive_exhaustive(phi, max_len=3)
    assert checked == 1
    assert len(u) == len(v) == 3 and all(l.row == l.col for l in u + v)
    assert got != want == oracle_pair(phi.two_cocycle, u, v)


def _scalar(rng):
    return Qi(rng.randint(-3, 3), rng.randint(-3, 3)) / Qi(rng.randint(1, 3))


def _random_carrier(pres, rng):
    """A random grid R, n <= 3, as a representation with no relation
    checked: the identities behind the sweeps hold on the free *-algebra."""
    d, n = pres.d, rng.randint(1, 3)
    block = lambda: QMatrix([[_scalar(rng) for _ in range(n)] for _ in range(n)])
    return Representation(pres, n, tuple(tuple(block() for _ in range(d)) for _ in range(d)))


def _random_pairing(rng, rep):
    """The pairing of a random cocycle on rep with one whose letter values
    are half of them 0, so that its span can be a proper subspace."""
    size = 2 * rep.d * rep.d * rep.n
    eta1 = flat_cocycle(rep, [_scalar(rng) for _ in range(size)])
    eta2 = flat_cocycle(rep, [rng.choice([ZERO, _scalar(rng)]) for _ in range(size)])
    return KPairCocycle(eta1, eta2)


def _letter_values(rng, d):
    values = QMatrix([[_scalar(rng) for _ in range(d)] for _ in range(d)])
    return values, values.transpose()


@given(st.randoms(use_true_random=False))
def test_pairing_sweeps_match_the_table_oracles(u2, o3, rng):
    # every presentation in every example: the sweep's (checked, witness)
    # and the letter-triple verdict equal those of the plain per-word
    # sweeps in `conftest`, which evaluate every pair and every triple, on
    # a primitive with random letter values on the pairing of two random
    # cocycles; O_3+ at length 1 only, its full plain sweep at length 2
    # taking seconds
    for pres, top in ((build_presentation("k_d", 2), 2), (u2, 2), (o3, 1)):
        rep = _random_carrier(pres, rng)
        phi = Primitive(_random_pairing(rng, rep), *_letter_values(rng, pres.d))
        max_len = rng.randint(1, top)
        got = verify_primitive_exhaustive(phi, max_len=max_len)
        assert got == oracle_verify_primitive_exhaustive(phi, max_len), (pres.kind, max_len)
        c = phi.two_cocycle
        assert square_zero_on_letters(c) == oracle_square_zero_on_letters(c), pres.kind


def _two_cocycles_of_every_kind(pres, rng):
    """Coboundaries of a primitive, of a generating functional and of the
    counit, and a combination with non-unit Gaussian coefficients of
    pairings, coboundaries and combinations nested in it, all on one random
    carrier."""
    rep = _random_carrier(pres, rng)
    first, second = _random_pairing(rng, rep), _random_pairing(rng, rep)
    phi = Primitive(first, *_letter_values(rng, pres.d))
    psi = Functional(first.eta1, *_letter_values(rng, pres.d))
    coboundaries = [coboundary1(phi), coboundary1(psi), coboundary1(CounitFunctional(pres))]

    def k():
        return rng.choice([Qi(2), -I, Qi(1, -3) / Qi(2), Qi(-1, 2)])

    inner = CombinationCocycle(((k(), first), (k(), coboundaries[0]), (k(), second)))
    nested = CombinationCocycle(((k(), second), (k(), inner), (k(), coboundaries[1])))
    return coboundaries + [CombinationCocycle(((k(), nested), (k(), first)))]


@given(st.randoms(use_true_random=False))
def test_square_zero_matches_the_plain_oracle(u2, rng):
    # every kind of 2-cocycle in every example: the identity's verdict
    # equals that of the plain per-word sweep in `conftest` over every
    # letter triple
    for pres in (build_presentation("k_d", 2), u2):
        for c in _two_cocycles_of_every_kind(pres, rng):
            assert square_zero_on_letters(c) is None
            assert oracle_square_zero_on_letters(c) is None, c


def test_class_coordinates_rebuild_is_enforced(monkeypatch, eta_asym_u2):
    # a wrong solution of the defect system no longer rebuilds the defect;
    # the check is not an assert, so it also holds under python -O
    solve = cohomology.solve
    monkeypatch.setattr(cohomology, "solve", lambda m, b: -solve(m, b))
    with pytest.raises(ArithmeticError) as exc:
        class_coordinates(KPairCocycle(eta_asym_u2, eta_asym_u2))
    rebuilt, defect = exc.value.args[1:]
    assert defect == QMatrix([[-ONE, ZERO], [ZERO, ONE]])
    assert rebuilt == -defect


def test_class_coordinates_refuse_an_inconsistent_system(monkeypatch, eta_asym_u2):
    monkeypatch.setattr(cohomology, "solve", lambda m, b: None)
    with pytest.raises(ArithmeticError) as exc:
        class_coordinates(KPairCocycle(eta_asym_u2, eta_asym_u2))
    assert exc.value.args[1:] == (QMatrix([[-ONE, ZERO], [ZERO, ONE]]),)


@pytest.fixture(scope="module")
def named_bases():
    """(basis, a coboundary or None) on u_plus at d = 2, 3 and o_plus at d =
    2, 3, 4; the coboundary is that of a validated functional."""
    out = []
    for d in (2, 3):
        pres = build_presentation("u_plus", d)
        h = QMatrix([[Qi(j + k + 1, j - k) for k in range(d)] for j in range(d)])
        psi = schurmann_functional(scalar_gaussian_cocycle(pres, h))
        out.append((defect_basis(pres), coboundary1(psi)))
    return out + [(defect_basis(build_presentation("o_plus", d)), None) for d in (2, 3, 4)]


@given(data=st.data())
def test_class_coordinates_read_back_drawn_combinations(named_bases, data):
    # every basis in every example: the coordinates of sum x_K K, plus a
    # coboundary on u_plus, are the drawn x, in basis order
    for basis, boundary in named_bases:
        xs = [data.draw(qi_scalars) for _ in basis]
        terms = tuple(zip(xs, basis.values()))
        if boundary is not None:
            terms += ((data.draw(qi_scalars), boundary),)
        cc = class_coordinates(CombinationCocycle(terms))
        assert cc.coefficients == dict(zip(basis, xs))
        assert list(cc.coefficients) == list(basis)


def test_the_o_plus_defect_refuses_a_matrix_that_is_not_antisymmetric():
    # an unvalidated cocycle with eta(u[1,2]) = 1 and eta(u*[1,2]) = 0 does
    # not read u* as u, so its pairing's defect has trace zero but is not
    # antisymmetric
    eta = flat_cocycle(counit_rep(build_presentation("o_plus", 2)), [ZERO, ONE] + [ZERO] * 6)
    with pytest.raises(ArithmeticError) as exc:
        defect(KPairCocycle(eta, eta))
    assert exc.value.args == ("orthogonal defect that is not antisymmetric", QMatrix([[-ONE, ZERO], [ZERO, ONE]]))


# what each kind accepts of the defect, the defect basis, the primitive and
# the paper's existence criterion; every other call raises ValueError
CAPABILITIES = {
    "k_d": {"defect", "primitive"},
    "u_plus": {"defect", "defect_basis", "primitive", "admits_gf_criterion"},
    "u_q": {"defect"},
    "o_plus": {"defect", "defect_basis", "primitive", "admits_gf_criterion"},
    "o_f": set(),
    "su_q": {"defect"},
}
KIND_ARGS = {
    "u_q": {"q_diag": [rational("1/2"), rational(3)]},
    "o_f": {"F": QMatrix([[ZERO, Qi(rational("1/2"))], [Qi(2), ZERO]])},
    "su_q": {"q": rational("1/3")},
}


@pytest.mark.parametrize("kind", algebra.PRESENTATION_KINDS)
def test_each_kind_accepts_what_its_cohomology_has(kind):
    assert set(CAPABILITIES) == set(algebra.PRESENTATION_KINDS)
    pres = build_presentation(kind, 2, **KIND_ARGS.get(kind, {}))
    # the zero 2-cocycle d(eps) - d(eps), and a cocycle of the counit
    c = normalize(coboundary1(CounitFunctional(pres)))
    eta = solve_cocycles(counit_rep(pres)).basis[0]
    calls = {
        "defect": lambda: defect(c),
        "defect_basis": lambda: defect_basis(pres),
        "primitive": lambda: primitive(c),
        "admits_gf_criterion": lambda: admits_gf_criterion(eta),
    }
    accepted = set()
    for name, call in calls.items():
        try:
            call()
            accepted.add(name)
        except ValueError as exc:
            # the kind is refused, not the input
            assert not isinstance(exc, InputError), exc
    assert accepted == CAPABILITIES[kind]


def test_class_coordinates_at_d1_are_empty():
    # on O_1+ the only Gaussian cocycle is 0, an antisymmetric 1 x 1 matrix
    for kind, v in (("u_plus", ONE), ("o_plus", ZERO)):
        pres = build_presentation(kind, 1)
        eta = scalar_gaussian_cocycle(pres, QMatrix([[v]]))
        cc = class_coordinates(KPairCocycle(eta, eta))
        assert cc.coefficients == {}
        assert cc.defect == QMatrix([[ZERO]])


@pytest.fixture(scope="module")
def orthogonal_inputs():
    """(cocycles, 2-cocycles) on O_2+, O_3+ and O_4+.  The cocycles are the
    basis and two seeded combinations of the cocycle space of the counit,
    the sign, the counit on C^2 and counit + sign.  The 2-cocycles are the
    defect basis, pairings of those cocycles, the coboundaries of the
    functionals they admit and a combination of the three sorts."""
    rng = random.Random(0)
    out = []
    for d in (2, 3, 4):
        pres = build_presentation("o_plus", d)
        basis = list(defect_basis(pres).values())
        cocycles, pairings, boundaries = [], [], []
        eps, sign = counit_rep(pres), sign_rep(pres)
        for rep in (eps, sign, counit_rep(pres, 2), direct_sum_rep(eps, sign)):
            space = solve_cocycles(rep)
            etas = list(space.basis) + [space.random_element(rng) for _ in range(2)] if space.basis else []
            cocycles += etas
            pairings += [KPairCocycle(a, b) for a, b in zip(etas, etas[1:] + etas[:1])]
            boundaries += [coboundary1(psi) for psi in map(admits_generating_functional, etas) if psi is not None]
        combination = CombinationCocycle(((Qi(2), basis[-1]), (Qi(1, 1), pairings[-1]), (ONE, boundaries[-1])))
        out.append((cocycles, basis + pairings + boundaries + [combination]))
    return out


def test_the_one_defect_agrees_with_the_orthogonal_formulas(orthogonal_inputs):
    # every 2-cocycle here vanishes on the relations u* = u of O_d+ in its
    # first argument, so the unitary letter sums of `defect` and `primitive`
    # equal the orthogonal ones (conftest), and b_tilde = b^t is b real
    verdicts, defects = set(), set()
    for cocycles, two_cocycles in orthogonal_inputs:
        for eta in cocycles:
            bm = b_matrices(eta)
            verdicts.add(admits_gf_criterion(eta))
            assert admits_gf_criterion(eta) == (bm.b == bm.b.conj())
        for c in two_cocycles:
            want = oracle_orthogonal_defect(c)
            assert defect(c) == want
            defects.add(want.is_zero())
            if want.is_zero():
                phi, values = primitive(c), oracle_orthogonal_primitive(c)
                assert (phi.values, phi.star_values) == (values, values)
            else:
                with pytest.raises(ObstructionError) as exc:
                    primitive(c)
                assert (exc.value.flavor, exc.value.defect) == ("orthogonal", want)
    assert verdicts == defects == {False, True}


def test_check_primitive_passes_on_construction(eta_rot_o3):
    c = KPairCocycle(eta_rot_o3, eta_rot_o3)
    # zero defect here, so a primitive exists
    assert defect(c).is_zero()
    phi = primitive(c)
    assert check_primitive(phi) is None
    checked, witness = verify_primitive_exhaustive(phi, max_len=2)
    assert witness is None


def test_exhaustive_budget_refused_before_any_table(monkeypatch, eta_sym_u2):
    # the budget is the recheck's: its products of 2 max_len letters, up to
    # MAX_SAMPLED_WORD_LEN = 256; no table is built at any length
    phi = primitive(KPairCocycle(eta_sym_u2, eta_sym_u2))
    assert verify_primitive_exhaustive(phi, max_len=7) == (sum(8**m for m in range(8)) ** 2, None)
    monkeypatch.setattr(cohomology, "_recheck_pairs", lambda *a: pytest.fail("pairs built"))
    monkeypatch.setattr(KPairCocycle, "batch", lambda *a: pytest.fail("evaluated"))
    with pytest.raises(InputError, match="length up to 258 are above the word length budget MAX_SAMPLED_WORD_LEN"):
        verify_primitive_exhaustive(phi, max_len=129)


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


def test_pairing_reads_two_letter_words_on_the_word_set(monkeypatch, eta_sym_u2):
    # letters come from the letter values; two-letter words, like all longer
    # words, go through the one evaluator, one word set per side
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    alpha = letters(2)
    letter_pairs = [((h,), (l,)) for h in alpha for l in alpha]
    word_pairs = [((h, l), (l, h)) for h in alpha for l in alpha]
    compiled = []

    def counted(*args):
        compiled.append(1)
        return algebra.word_set(*args)

    monkeypatch.setattr(cocycle, "word_set", counted)
    c.batch(letter_pairs)
    assert len(compiled) == 0
    want = c.batch(word_pairs)
    assert len(compiled) == 2
    evaluate = cocycle.word_set_values

    def shifted(*args):
        # one more unit in the first cell
        out = evaluate(*args)
        out.re[0][0] += out.den
        return out

    monkeypatch.setattr(cocycle, "word_set_values", shifted)
    assert c.batch(word_pairs) != want


@given(st.data())
def test_pairing_sides_read_letters_through_the_position_tables(every_kind, data):
    # one batch of the empty word, every letter and three-letter words, some
    # twice, on a carrier of n = 1 to 3: eta of each word unstarred, eta of
    # its adjoint starred (a starred table that kept (l,) at l would show)
    for pres in every_kind:
        d, n = pres.d, data.draw(st.integers(1, 3))
        rep = unvalidated_rep(pres, drawn_blocks(data, d, n), n)
        eta = flat_cocycle(rep, data.draw(st.lists(qi_scalars, min_size=2 * d * d * n, max_size=2 * d * d * n)))
        alpha = letters(d)
        long = data.draw(st.lists(st.tuples(*[st.sampled_from(alpha)] * 3), min_size=1, max_size=3))
        ws = data.draw(st.permutations([()] + [(l,) for l in alpha] + long))
        ws += ws[:3]
        for starred in (False, True):
            side = cohomology._pairing_side(eta, ws, starred)
            elements = [Element.from_word(d, w) for w in ws]
            want = [oracle_cocycle(eta, oracle_star(a) if starred else a) for a in elements]
            assert [QVector(side.column(j)) for j in range(len(ws))] == want


def test_letter_pairings_star_no_word(monkeypatch, every_kind):
    # a batch of letter pairs reads both sides through the position tables
    # and stars no word; a batch with longer words stars each of its
    # distinct longer first words once
    starred = []
    star_word = cohomology._star_word
    monkeypatch.setattr(cohomology, "_star_word", lambda w: starred.append(w) or star_word(w))
    for pres in every_kind:
        space = solve_cocycles(counit_rep(pres, 1))
        c = KPairCocycle(space.basis[0], space.basis[-1])
        alpha = letters(pres.d)
        c.batch([((), ())] + [((h,), (l,)) for h in alpha for l in alpha])
        assert starred == []
        c.batch([((h, l), (l,)) for h in alpha[:2] for l in alpha] * 2)
        assert sorted(starred) == sorted((h, l) for h in alpha[:2] for l in alpha)
        starred.clear()


@given(st.data())
def test_sums_match_the_plain_sum_of_batch_values(eta_sym_u2, data):
    # keys repeated within and across the term lists, Gaussian coefficients
    # over mixed denominators and empty lists, against sum coeff batch(key)
    # on Qi; the pairing's values are Gaussian, so each cross term counts
    c = KPairCocycle(eta_sym_u2, eta_sym_u2)
    alpha = letters(2)
    pool = [((), ()), ((alpha[0], alpha[5]), (alpha[2],))] + [((h,), (l,)) for h in alpha[:3] for l in alpha[4:6]]
    terms = st.lists(st.tuples(st.sampled_from(pool), qi_scalars), max_size=6)
    termss = data.draw(st.lists(terms, max_size=4))
    termss += [[]] + termss[:1]
    want = [sum((coeff * c.batch([key])[0] for key, coeff in ts), ZERO) for ts in termss]
    assert cohomology._sums(c.batch_numerators, termss) == want


def test_functionals_on_a_long_word_match_recursion(eta_sym_u2, k2_pairing_primitive):
    # a word of MAX_SAMPLED_WORD_LEN diagonal letters evaluates with a few
    # frames of recursion to spare: no recursion runs once per letter
    diagonal = [l for l in letters(2) if l.row == l.col]
    w = tuple(diagonal[k % 4] for k in range(algebra.MAX_SAMPLED_WORD_LEN))
    coeff = Qi(rational("1/2"), 1)
    a = Element.from_word(2, w, coeff)
    for phi in (schurmann_functional(eta_sym_u2), k2_pairing_primitive):
        assert without_deep_recursion(phi.value, a) == coeff * oracle_functional(phi, w)
