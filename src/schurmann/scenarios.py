"""Deterministic end-to-end verification scenarios.

Each scenario builds explicit presentations, cocycles, functionals or
2-cocycles, computes exact values and records them next to the expected
ones; a result passes only when the two agree exactly.  Scenarios register
the objects they validate, and the final structural scenario re-checks the
whole registry against the identities every such object must satisfy.

``run_all`` is a pure function of its ``RunConfig`` and feeds both the
command line runner and the acceptance tests.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass, field

from .algebra import Element, build_presentation, letters
from .cocycle import (
    b_matrices,
    cocycle_from_V,
    cocycle_general,
    direct_sum_cocycle,
    evaluate_cocycle,
    gaussian_cocycle,
    pullback_cocycle,
    random_coefficient,
    reality_pair,
    is_real_cocycle,
    scalar_gaussian_cocycle,
    solve_cocycles,
)
from .cohomology import (
    KP_DEFECT_SIGN,
    CombinationCocycle,
    KPairCocycle,
    basis_orthogonal,
    basis_unitary,
    class_coordinates,
    coboundary1,
    defect_orthogonal,
    defect_unitary,
    matrix_unit,
    primitive,
    square_zero_on_letters,
    sum_identity_defects,
    verify_primitive_exhaustive,
)
from .errors import InputError, ObstructionError, RelationViolation
from .functional import (
    admits_generating_functional,
    admits_gf_orth,
    admits_gf_unitary,
    gram_psd_check,
    lk_decomposition,
    schurmann_functional,
    su_q3_obstruction,
)
from .linalg import QMatrix, QVector, inner_product, rank
from .representation import (
    GeneratorSubstitution,
    counit_rep,
    direct_sum_rep,
    representation,
    sign_rep,
)
from .scalars import I, ONE, ZERO, Qi, rational


@dataclass(frozen=True)
class RunConfig:
    """Suite parameters; a fixed config gives byte-identical output."""

    seed: int = 0
    max_word_len: int = 3

    def __post_init__(self):
        if self.max_word_len < 0:
            raise ValueError(f"max_word_len must be >= 0, got {self.max_word_len}")


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    claim: str
    expected: str
    computed: str
    passed: bool


@dataclass
class Registry:
    """Objects validated by earlier scenarios, re-checked wholesale at the end."""

    two_cocycles: list = field(default_factory=list)
    functionals: list = field(default_factory=list)

    def add_two_cocycle(self, label, c):
        self.two_cocycles.append((label, c))

    def add_functional(self, label, psi):
        self.functionals.append((label, psi))


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(_fmt(v) for v in x) + ")"
    return repr(x)


def _result(scenario: str, claim: str, expected, computed) -> ScenarioResult:
    return ScenarioResult(
        scenario, claim, _fmt(expected), _fmt(computed), expected == computed
    )


def _rng(config: RunConfig, scenario: str) -> random.Random:
    return random.Random(f"{config.seed}:{scenario}")


def _random_hermitian(d: int, rng: random.Random) -> QMatrix:
    rows = [[ZERO] * d for _ in range(d)]
    for j in range(d):
        rows[j][j] = Qi(rational(rng.randint(-3, 3)) / rng.randint(1, 3))
        for k in range(j + 1, d):
            z = random_coefficient(rng)
            rows[j][k] = z
            rows[k][j] = z.conj()
    return QMatrix(rows, cols=d)


def _k2_spaces():
    """Cocycle spaces on K<2> over the three reference representations."""
    pres = build_presentation("k_d", 2)
    gaussian = counit_rep(pres, 1)
    anti = sign_rep(pres, 1)
    return [
        solve_cocycles(gaussian),
        solve_cocycles(anti),
        solve_cocycles(direct_sum_rep(gaussian, anti)),
    ]


def _u2_pair():
    """The two reference cocycles on U_2+ without generating functionals."""
    pres = build_presentation("u_plus", 2)
    eta_g = scalar_gaussian_cocycle(pres, QMatrix([[ONE, I], [ZERO, ONE]], cols=2))
    flip = [[ONE, ZERO], [I, ONE]]
    v = [[QVector((flip[j][k],)) for k in range(2)] for j in range(2)]
    w = [[QVector((flip[k][j],)) for k in range(2)] for j in range(2)]
    eta_n = cocycle_general(sign_rep(pres, 1), v, w)
    return pres, eta_g, eta_n


def scenario_c01(config: RunConfig, registry: Registry):
    """K<2>: every cocycle admits a generating functional."""
    sid = "C01"
    spaces = _k2_spaces()
    rng = _rng(config, sid)
    plain = 0
    for i in range(20):
        eta = spaces[i % 3].random_element(rng)
        try:
            psi = schurmann_functional(eta)
        except RelationViolation:
            continue
        registry.add_functional(f"{sid} random {i}", psi)
        plain += 1
    offset = 0
    for i in range(5):
        eta = spaces[i % 3].random_element(rng)
        try:
            psi = schurmann_functional(eta, _random_hermitian(2, rng))
        except RelationViolation:
            continue
        registry.add_functional(f"{sid} offset {i}", psi)
        offset += 1
    return [
        _result(
            sid,
            "20 random cocycles over the three reference representations "
            "admit generating functionals",
            20,
            plain,
        ),
        _result(
            sid,
            "5 random selfadjoint offsets H give valid functionals as well",
            5,
            offset,
        ),
    ]


def scenario_c02(config: RunConfig, registry: Registry):
    """U_Q+ with Q = diag(1,2,3): only diagonal Gaussian cocycles, all generating."""
    sid = "C02"
    pres = build_presentation("u_q", 3, q_diag=(1, 2, 3))
    space = solve_cocycles(counit_rep(pres, 1))
    diagonal = all(
        eta.V[j][k].is_zero()
        for eta in space.basis
        for j in range(3)
        for k in range(3)
        if j != k
    )
    generated = 0
    diag_formula = 0
    for idx, eta in enumerate(space.basis):
        try:
            psi = schurmann_functional(eta)
        except RelationViolation:
            continue
        generated += 1
        registry.add_functional(f"{sid} basis {idx}", psi)
        if all(
            psi.value(Element.generator(3, k, k))
            == -inner_product(eta.V[k - 1][k - 1], eta.V[k - 1][k - 1]) / Qi(2)
            for k in range(1, 4)
        ):
            diag_formula += 1
    return [
        _result(sid, "Gaussian cocycle space has dimension 3", 3, space.dimension),
        _result(sid, "every basis cocycle is diagonal", True, diagonal),
        _result(
            sid,
            "a generating functional validates on each basis cocycle",
            space.dimension,
            generated,
        ),
        _result(
            sid,
            "psi(u_kk) = -||eta(u_kk)||^2 / 2 on each basis cocycle",
            space.dimension,
            diag_formula,
        ),
    ]


def scenario_c03(config: RunConfig, registry: Registry):
    """O_F+ with F = [[0,1/2],[2,0]]: Gaussian cocycles mirror and generate."""
    sid = "C03"
    f = QMatrix([[ZERO, Qi("1/2")], [Qi(2), ZERO]], cols=2)
    pres = build_presentation("o_f", 2, F=f)
    space = solve_cocycles(counit_rep(pres, 1))
    mirrored = all(eta.V[0][0] == -eta.V[1][1] for eta in space.basis)
    results = [
        _result(sid, "Gaussian cocycle space has dimension 1", 1, space.dimension),
        _result(sid, "each basis cocycle has eta(u_11) = -eta(u_22)", True, mirrored),
    ]
    validated = False
    form_zero, form_total = 0, 0
    if space.basis:
        try:
            psi = schurmann_functional(space.basis[0])
        except RelationViolation:
            psi = None
        if psi is not None:
            validated = True
            registry.add_functional(f"{sid} basis 0", psi)
            form_rels = [
                r for lbl, r in pres.relations if lbl.startswith("uF-Fubar")
            ]
            form_total = len(form_rels)
            form_zero = sum(1 for r in form_rels if psi.value(r).is_zero())
    results.append(
        _result(sid, "the generating functional validates", True, validated)
    )
    results.append(
        _result(
            sid,
            "psi vanishes on every uF - F ubar relation",
            form_total,
            form_zero,
        )
    )
    return results


def scenario_c04(config: RunConfig, registry: Registry):
    """SU_q(3) at q = 1/2: a valid Gaussian cocycle with no generating functional."""
    sid = "C04"
    pres = build_presentation("su_q", 3, q="1/2")
    eta = scalar_gaussian_cocycle(
        pres,
        QMatrix(
            [[Qi(-1, -1), ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, I]], cols=3
        ),
    )
    det_rels = pres.determinant_relations()
    det_zero = sum(1 for _, r in det_rels if evaluate_cocycle(eta, r).is_zero())
    report = su_q3_obstruction(eta)
    rejected = False
    try:
        schurmann_functional(eta)
    except RelationViolation:
        rejected = True
    dim = solve_cocycles(counit_rep(pres, 1)).dimension
    return [
        _result(
            sid,
            "eta = diag(-1-i, 1, i) vanishes on all 6 twisted determinant relations",
            (len(det_rels), len(det_rels)),
            (len(det_rels), det_zero),
        ),
        _result(
            sid,
            "obstruction constants differ: C_id and C_(23)",
            (Qi(-2, 1), Qi(-2, -1), False),
            (
                report.values[(1, 2, 3)],
                report.values[(1, 3, 2)],
                report.constant,
            ),
        ),
        _result(sid, "the generating functional construction rejects eta", True, rejected),
        _result(sid, "Gaussian cocycle space has dimension 2", 2, dim),
    ]


def scenario_c05(config: RunConfig, registry: Registry):
    """U_2+: no functional for either part, one for the sum, and no splitting."""
    sid = "C05"
    pres, eta_g, eta_n = _u2_pair()
    total = direct_sum_cocycle(eta_g, eta_n)
    bm = b_matrices(total)
    three_eye = QMatrix.identity(2).scale(Qi(3))
    psi = schurmann_functional(total)
    registry.add_functional(f"{sid} direct sum", psi)
    lk = lk_decomposition(psi)
    return [
        _result(sid, "Gaussian part admits no generating functional", False, admits_gf_unitary(eta_g)),
        _result(sid, "anti-Gaussian part admits no generating functional", False, admits_gf_unitary(eta_n)),
        _result(sid, "the direct sum has B = B~ = 3 I_2", (three_eye, three_eye), (bm.b, bm.b_tilde)),
        _result(sid, "the direct sum admits a generating functional", True, admits_gf_unitary(total)),
        _result(sid, "that functional has no Gaussian/non-Gaussian splitting", False, lk.decomposable),
    ]


def scenario_c06(config: RunConfig, registry: Registry):
    """U_Q+ with Q = diag(1,1,2) inherits the U_2+ counterexamples."""
    sid = "C06"
    source = build_presentation("u_q", 3, q_diag=(1, 1, 2))
    target, eta_g, eta_n = _u2_pair()
    images = tuple(
        tuple(
            Element.generator(2, j, k)
            if j <= 2 and k <= 2
            else (Element.one(2) if j == k else Element.zero(2))
            for k in range(1, 4)
        )
        for j in range(1, 4)
    )
    sub = GeneratorSubstitution(source, target, images)
    lift_g = pullback_cocycle(eta_g, sub)
    lift_n = pullback_cocycle(eta_n, sub)
    total = direct_sum_cocycle(lift_g, lift_n)
    psi = admits_generating_functional(total)
    decomposable = None
    if psi is not None:
        registry.add_functional(f"{sid} lifted sum", psi)
        decomposable = lk_decomposition(psi).decomposable
    return [
        _result(sid, "both lifted cocycles validate", True, True),
        _result(
            sid,
            "neither lifted part admits a generating functional",
            (None, None),
            (
                admits_generating_functional(lift_g),
                admits_generating_functional(lift_n),
            ),
        ),
        _result(sid, "the lifted sum admits a generating functional", True, psi is not None),
        _result(sid, "that functional has no splitting", False, decomposable),
    ]


def scenario_c07(config: RunConfig, registry: Registry):
    """O_3+: no functional for either part, one for the sum, and no splitting."""
    sid = "C07"
    pres = build_presentation("o_plus", 3)
    eta_g = scalar_gaussian_cocycle(
        pres,
        QMatrix([[ZERO, ONE, ONE], [-ONE, ZERO, I], [-ONE, -I, ZERO]], cols=3),
    )
    gram_g = b_matrices(eta_g).b.conj()
    expect_g = QMatrix(
        [[Qi(2), -I, I], [I, Qi(2), ONE], [-I, ONE, Qi(2)]], cols=3
    )
    r_entries = [[-1, 0, 0], [0, 0, 1], [0, 1, 0]]
    gamma = representation(
        pres,
        [
            [QMatrix([[Qi(r_entries[j][k])]], cols=1) for k in range(3)]
            for j in range(3)
        ],
        1,
    )
    flip = [[I, ONE, -ONE], [ONE, ZERO, ZERO], [-ONE, ZERO, ZERO]]
    eta_n = cocycle_from_V(
        gamma, [[QVector((flip[j][k],)) for k in range(3)] for j in range(3)]
    )
    gram_n = b_matrices(eta_n).b.conj()
    expect_n = QMatrix(
        [[Qi(3), I, -I], [-I, ONE, -ONE], [I, -ONE, ONE]], cols=3
    )
    total = direct_sum_cocycle(eta_g, eta_n)
    b_total = b_matrices(total).b
    expect_b = QMatrix(
        [[Qi(5), ZERO, ZERO], [ZERO, Qi(3), ZERO], [ZERO, ZERO, Qi(3)]], cols=3
    )
    psi = schurmann_functional(total)
    registry.add_functional(f"{sid} direct sum", psi)
    lk = lk_decomposition(psi)
    return [
        _result(sid, "V V* of the Gaussian part matches exactly", expect_g, gram_g),
        _result(sid, "Gaussian part admits no generating functional", False, admits_gf_orth(eta_g)),
        _result(sid, "V V* of the anti-Gaussian part matches exactly", expect_n, gram_n),
        _result(sid, "anti-Gaussian part admits no generating functional", False, admits_gf_orth(eta_n)),
        _result(sid, "the direct sum has B = diag(5,3,3)", expect_b, b_total),
        _result(sid, "the direct sum admits a generating functional", True, admits_gf_orth(total)),
        _result(sid, "that functional has no splitting", False, lk.decomposable),
    ]


def scenario_c08(config: RunConfig, registry: Registry):
    """O_2+: every antisymmetric Gaussian cocycle admits a generating functional."""
    sid = "C08"
    pres = build_presentation("o_plus", 2)
    rng = _rng(config, sid)
    admitted = 0
    for i in range(50):
        n = 1 if i % 2 == 0 else 2
        z = QVector(tuple(random_coefficient(rng) for _ in range(n)))
        grid = [[QVector.zero(n), z], [-z, QVector.zero(n)]]
        eta = gaussian_cocycle(pres, grid)
        if admits_gf_orth(eta):
            admitted += 1
    return [
        _result(
            sid,
            "50 random antisymmetric Gaussian cocycles over C^1 and C^2 "
            "all admit generating functionals",
            50,
            admitted,
        )
    ]


def scenario_c09(config: RunConfig, registry: Registry):
    """O_4+: a non-real Gaussian cocycle whose functional is not a trace."""
    sid = "C09"
    pres = build_presentation("o_plus", 4)

    def pair(a, b):
        return QVector((a, b))

    z = ZERO
    grid = [
        [pair(z, z), pair(z, z), pair(ONE, z), pair(z, ONE)],
        [pair(z, z), pair(z, z), pair(I, z), pair(z, -I)],
        [pair(-ONE, z), pair(-I, z), pair(z, z), pair(z, z)],
        [pair(z, -ONE), pair(z, I), pair(z, z), pair(z, z)],
    ]
    eta = gaussian_cocycle(pres, grid)
    b = b_matrices(eta).b
    psi = schurmann_functional(eta)
    registry.add_functional(f"{sid} functional", psi)
    real, _witness = is_real_cocycle(eta)
    u23 = Element.generator(4, 2, 3)
    u31 = Element.generator(4, 3, 1)
    return [
        _result(sid, "B = 2 I_4", QMatrix.identity(4).scale(Qi(2)), b),
        _result(sid, "the generating functional validates", True, True),
        _result(sid, "the cocycle is not real", False, real),
        _result(
            sid,
            "reality fails at (u_23, u_31) with values (i, -i)",
            (I, -I),
            reality_pair(eta, u23, u31),
        ),
        _result(
            sid,
            "psi(u_23 u_31) = i differs from psi(u_31 u_23) = -i",
            (I, -I),
            (psi.value(u23 * u31), psi.value(u31 * u23)),
        ),
    ]


def scenario_c10(config: RunConfig, registry: Registry):
    """First cohomology dimensions for the free quantum groups."""
    sid = "C10"
    dims_u = tuple(
        solve_cocycles(counit_rep(build_presentation("u_plus", d), 1)).dimension
        for d in (2, 3)
    )
    dims_o = tuple(
        solve_cocycles(counit_rep(build_presentation("o_plus", d), 1)).dimension
        for d in (2, 3, 4)
    )
    return [
        _result(sid, "U_d+ Gaussian space has dimension d^2 for d = 2, 3", (4, 9), dims_u),
        _result(
            sid,
            "O_d+ Gaussian space has dimension d(d-1)/2 for d = 2, 3, 4",
            (1, 3, 6),
            dims_o,
        ),
    ]


def scenario_c11(config: RunConfig, registry: Registry):
    """Second cohomology of U_3+: defects of the pairing basis span sl(3)."""
    sid = "C11"
    pres = build_presentation("u_plus", 3)
    basis = basis_unitary(pres)
    for name, c in basis.items():
        registry.add_two_cocycle(f"{sid} {name}", c)
    off = sum(
        1
        for m in range(1, 4)
        for n in range(1, 4)
        if m != n and defect_unitary(basis[f"K_{m}_{n}"]) == matrix_unit(3, m, n)
    )
    sign = Qi(KP_DEFECT_SIGN)
    diag = sum(
        1
        for p in range(1, 3)
        if defect_unitary(basis[f"K_p_{p}"])
        == (matrix_unit(3, p, p) - matrix_unit(3, p + 1, p + 1)).scale(sign)
    )
    stacked = QMatrix(
        [
            [defect[r][s] for r in range(3) for s in range(3)]
            for defect in (defect_unitary(c) for c in basis.values())
        ],
        cols=9,
    )
    rng = _rng(config, sid)
    vanishing = 0
    psi = None
    for i in range(10):
        eta = scalar_gaussian_cocycle(pres, _random_hermitian(3, rng))
        try:
            psi = schurmann_functional(eta)
        except RelationViolation:
            continue
        registry.add_functional(f"{sid} random {i}", psi)
        boundary = coboundary1(psi)
        registry.add_two_cocycle(f"{sid} coboundary {i}", boundary)
        if defect_unitary(boundary).is_zero():
            vanishing += 1
    combo = CombinationCocycle(
        (
            (Qi(2), basis["K_1_2"]),
            (ONE, basis["K_p_1"]),
            (ONE, coboundary1(psi)),
        )
    )
    registry.add_two_cocycle(f"{sid} combination", combo)
    coords = class_coordinates(combo)
    highlighted = (coords.coefficients["K_1_2"], coords.coefficients["K_p_1"])
    others_zero = all(
        v.is_zero()
        for name, v in coords.coefficients.items()
        if name not in ("K_1_2", "K_p_1")
    )
    residual = CombinationCocycle(
        ((ONE, combo),)
        + tuple(
            (-coeff, basis[name])
            for name, coeff in coords.coefficients.items()
            if not coeff.is_zero()
        )
    )
    return [
        _result(sid, "defect of K_m_n is e_mn for all 6 off-diagonal pairs", 6, off),
        _result(
            sid,
            f"defect of K_p_p is {KP_DEFECT_SIGN} * (e_pp - e_p+1,p+1) for both p",
            2,
            diag,
        ),
        _result(
            sid,
            "the 8 basis defects are linearly independent, spanning the "
            "trace-zero matrices",
            8,
            rank(stacked),
        ),
        _result(
            sid,
            "the defect of the coboundary of 10 random validated functionals "
            "vanishes",
            10,
            vanishing,
        ),
        _result(
            sid,
            "class coordinates of 2 K_1_2 + K_p_1 + coboundary read off exactly",
            (Qi(2), ONE, True),
            (*highlighted, others_zero),
        ),
        _result(
            sid,
            "subtracting the coordinate combination leaves zero defect",
            True,
            defect_unitary(residual).is_zero(),
        ),
    ]


def scenario_c12(config: RunConfig, registry: Registry):
    """Second cohomology of O_d+: basis defects realize the antisymmetric matrices."""
    sid = "C12"
    pres3 = build_presentation("o_plus", 3)
    basis3 = basis_orthogonal(pres3)
    for name, c in basis3.items():
        registry.add_two_cocycle(f"{sid} {name}", c)
    matched = sum(
        1
        for m in range(1, 4)
        for n in range(m + 1, 4)
        if defect_orthogonal(basis3[f"Khat_{m}_{n}"])
        == matrix_unit(3, m, n) - matrix_unit(3, n, m)
    )
    pres2 = build_presentation("o_plus", 2)
    basis2 = basis_orthogonal(pres2)
    registry.add_two_cocycle(f"{sid} Kz", basis2["Kz"])
    kz_defect = defect_orthogonal(basis2["Kz"])
    expect_kz = QMatrix([[ZERO, Qi(2)], [Qi(-2), ZERO]], cols=2)
    return [
        _result(sid, "defect of Khat_m_n is e_mn - e_nm for all 3 pairs", 3, matched),
        _result(sid, "at d = 2 the anti-Gaussian pair has defect [[0,2],[-2,0]]", expect_kz, kz_defect),
    ]


def scenario_c13(config: RunConfig, registry: Registry):
    """Second cohomology of K<2> vanishes: pairing 2-cocycles are coboundaries."""
    sid = "C13"
    spaces = _k2_spaces()
    rng = _rng(config, sid)
    base = len(letters(2))
    words = sum(base**n for n in range(config.max_word_len + 1))
    built = 0
    clean = 0
    for i in range(10):
        space = spaces[i % 3]
        c = KPairCocycle(space.random_element(rng), space.random_element(rng))
        registry.add_two_cocycle(f"{sid} pair {i}", c)
        try:
            phi = primitive(c)
        except (ObstructionError, RelationViolation):
            continue
        built += 1
        checked, witness = verify_primitive_exhaustive(
            phi, max_len=config.max_word_len
        )
        if witness is None and checked == words * words:
            clean += 1
    return [
        _result(sid, "a primitive exists for 10 random pairing 2-cocycles", 10, built),
        _result(
            sid,
            f"each primitive reproduces its 2-cocycle on all {words * words} "
            f"word pairs of length <= {config.max_word_len}",
            10,
            clean,
        ),
    ]


def scenario_c14(config: RunConfig, registry: Registry):
    """Structural identities for every object registered by the suite."""
    sid = "C14"
    n_cocycles = len(registry.two_cocycles)
    square_zero = 0
    zero_sums = 0
    for _, c in registry.two_cocycles:
        if square_zero_on_letters(c) is None:
            square_zero += 1
        if all(v.is_zero() for v in sum_identity_defects(c).values()):
            zero_sums += 1
    n_functionals = len(registry.functionals)
    psd = sum(1 for _, psi in registry.functionals if gram_psd_check(psi))
    return [
        _result(
            sid,
            f"the degree-2 coboundary identity holds on all letter triples "
            f"for all {n_cocycles} registered 2-cocycles",
            n_cocycles,
            square_zero,
        ),
        _result(
            sid,
            f"the paired unitarity sums cancel exactly for all {n_cocycles} "
            f"registered 2-cocycles",
            n_cocycles,
            zero_sums,
        ),
        _result(
            sid,
            f"the Gram matrix over the short word pool is positive "
            f"semidefinite for all {n_functionals} registered functionals",
            n_functionals,
            psd,
        ),
    ]


SCENARIOS = (
    ("C01", scenario_c01),
    ("C02", scenario_c02),
    ("C03", scenario_c03),
    ("C04", scenario_c04),
    ("C05", scenario_c05),
    ("C06", scenario_c06),
    ("C07", scenario_c07),
    ("C08", scenario_c08),
    ("C09", scenario_c09),
    ("C10", scenario_c10),
    ("C11", scenario_c11),
    ("C12", scenario_c12),
    ("C13", scenario_c13),
    ("C14", scenario_c14),
)


def _run_one(sid, fn, config, registry):
    try:
        return fn(config, registry)
    except InputError:
        # a refused input (a table over budget) is no verdict on the claim
        raise
    except Exception as exc:  # a failing scenario must not halt the suite
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        failure = ScenarioResult(
            sid,
            "scenario completes without raising",
            "completion",
            f"{type(exc).__name__}: {exc} "
            f"(raised at {os.path.basename(frame.filename)}:{frame.lineno})",
            False,
        )
        return [failure]


def run_all(config: RunConfig | None = None) -> list[ScenarioResult]:
    """Run every scenario in table order; deterministic for a fixed config.

    All scenarios register into one registry.  The structural scenario
    comes last in the table because it consumes that registry.
    """
    config = config or RunConfig()
    registry = Registry()
    results = []
    for sid, fn in SCENARIOS:
        results.extend(_run_one(sid, fn, config, registry))
    return results


def format_results(results) -> str:
    """Fixed-width pass/fail table with a one-line summary at the end."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.scenario}  {status}  {r.claim}"
        if not r.passed:
            line += f"  [expected {r.expected}, computed {r.computed}]"
        lines.append(line)
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
