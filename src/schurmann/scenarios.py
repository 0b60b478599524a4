"""Deterministic end-to-end verification scenarios.

Each scenario builds explicit presentations, cocycles, functionals or
2-cocycles, computes exact values and returns one ``(claim, expected,
computed)`` row per claim; a row passes only when the two agree exactly.
``SCENARIOS`` pairs each scenario with its id.  Scenarios register
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
    cocycle_values,
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
    class_coordinates,
    coboundary1,
    defect,
    defect_basis,
    matrix_unit,
    primitive,
    require_sweep_len,
    square_zero_on_letters,
    sum_identity_defects,
    verify_primitive_exhaustive,
)
from .errors import InputError, ObstructionError, RelationViolation
from .functional import (
    admits_generating_functional,
    admits_gf_criterion,
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
        # C13's sweep, refused before any scenario runs
        require_sweep_len(self.max_word_len)


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


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(_fmt(v) for v in x) + ")"
    return repr(x)


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
    spaces = _k2_spaces()
    rng = _rng(config, "C01")
    plain = 0
    for i in range(20):
        psi = admits_generating_functional(spaces[i % 3].random_element(rng))
        if psi is not None:
            registry.functionals.append(psi)
            plain += 1
    offset = 0
    for i in range(5):
        eta = spaces[i % 3].random_element(rng)
        try:
            psi = schurmann_functional(eta, _random_hermitian(2, rng))
        except RelationViolation:
            continue
        registry.functionals.append(psi)
        offset += 1
    return [
        (
            "20 random cocycles over the three reference representations "
            "admit generating functionals",
            20,
            plain,
        ),
        ("5 random selfadjoint offsets H give valid functionals as well", 5, offset),
    ]


def scenario_c02(config: RunConfig, registry: Registry):
    """U_Q+ with Q = diag(1,2,3): only diagonal Gaussian cocycles, all generating."""
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
    for eta in space.basis:
        psi = admits_generating_functional(eta)
        if psi is None:
            continue
        generated += 1
        registry.functionals.append(psi)
        if all(
            psi.value(Element.generator(3, k, k))
            == -inner_product(eta.V[k - 1][k - 1], eta.V[k - 1][k - 1]) / Qi(2)
            for k in range(1, 4)
        ):
            diag_formula += 1
    return [
        ("Gaussian cocycle space has dimension 3", 3, space.dimension),
        ("every basis cocycle is diagonal", True, diagonal),
        ("a generating functional validates on each basis cocycle", space.dimension, generated),
        ("psi(u_kk) = -||eta(u_kk)||^2 / 2 on each basis cocycle", space.dimension, diag_formula),
    ]


def scenario_c03(config: RunConfig, registry: Registry):
    """O_F+ with F = [[0,1/2],[2,0]]: Gaussian cocycles mirror and generate."""
    f = QMatrix([[ZERO, Qi("1/2")], [Qi(2), ZERO]], cols=2)
    pres = build_presentation("o_f", 2, F=f)
    space = solve_cocycles(counit_rep(pres, 1))
    mirrored = all(eta.V[0][0] == -eta.V[1][1] for eta in space.basis)
    psi = admits_generating_functional(space.basis[0]) if space.basis else None
    form_zero, form_total = 0, 0
    if psi is not None:
        registry.functionals.append(psi)
        form_rels = [r for lbl, r in pres.relations if lbl.startswith("uF-Fubar")]
        form_total = len(form_rels)
        form_zero = sum(1 for r in form_rels if psi.value(r).is_zero())
    return [
        ("Gaussian cocycle space has dimension 1", 1, space.dimension),
        ("each basis cocycle has eta(u_11) = -eta(u_22)", True, mirrored),
        ("the generating functional validates", True, psi is not None),
        ("psi vanishes on every uF - F ubar relation", form_total, form_zero),
    ]


def scenario_c04(config: RunConfig, registry: Registry):
    """SU_q(3) at q = 1/2: a valid Gaussian cocycle with no generating functional."""
    pres = build_presentation("su_q", 3, q="1/2")
    eta = scalar_gaussian_cocycle(
        pres,
        QMatrix(
            [[Qi(-1, -1), ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, I]], cols=3
        ),
    )
    det_rels = pres.determinant_relations()
    det_zero = sum(1 for v in cocycle_values(eta, [r for _, r in det_rels]) if v.is_zero())
    report = su_q3_obstruction(eta)
    rejected = admits_generating_functional(eta) is None
    dim = solve_cocycles(counit_rep(pres, 1)).dimension
    return [
        (
            "eta = diag(-1-i, 1, i) vanishes on all 6 twisted determinant relations",
            (len(det_rels), len(det_rels)),
            (len(det_rels), det_zero),
        ),
        (
            "obstruction constants differ: C_id and C_(23)",
            (Qi(-2, 1), Qi(-2, -1), False),
            (report.values[(1, 2, 3)], report.values[(1, 3, 2)], report.constant),
        ),
        ("the generating functional construction rejects eta", True, rejected),
        ("Gaussian cocycle space has dimension 2", 2, dim),
    ]


def scenario_c05(config: RunConfig, registry: Registry):
    """U_2+: no functional for either part, one for the sum, and no splitting."""
    pres, eta_g, eta_n = _u2_pair()
    total = direct_sum_cocycle(eta_g, eta_n)
    bm = b_matrices(total)
    three_eye = QMatrix.identity(2).scale(Qi(3))
    psi = schurmann_functional(total)
    registry.functionals.append(psi)
    lk = lk_decomposition(psi)
    return [
        ("Gaussian part admits no generating functional", False, admits_gf_criterion(eta_g)),
        ("anti-Gaussian part admits no generating functional", False, admits_gf_criterion(eta_n)),
        ("the direct sum has B = B~ = 3 I_2", (three_eye, three_eye), (bm.b, bm.b_tilde)),
        ("the direct sum admits a generating functional", True, admits_gf_criterion(total)),
        ("that functional has no Gaussian/non-Gaussian splitting", False, lk.decomposable),
    ]


def scenario_c06(config: RunConfig, registry: Registry):
    """U_Q+ with Q = diag(1,1,2) inherits the U_2+ counterexamples."""
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
        registry.functionals.append(psi)
        decomposable = lk_decomposition(psi).decomposable
    return [
        ("both lifted cocycles validate", True, True),
        (
            "neither lifted part admits a generating functional",
            (None, None),
            (admits_generating_functional(lift_g), admits_generating_functional(lift_n)),
        ),
        ("the lifted sum admits a generating functional", True, psi is not None),
        ("that functional has no splitting", False, decomposable),
    ]


def scenario_c07(config: RunConfig, registry: Registry):
    """O_3+: no functional for either part, one for the sum, and no splitting."""
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
    registry.functionals.append(psi)
    lk = lk_decomposition(psi)
    return [
        ("V V* of the Gaussian part matches exactly", expect_g, gram_g),
        ("Gaussian part admits no generating functional", False, admits_gf_criterion(eta_g)),
        ("V V* of the anti-Gaussian part matches exactly", expect_n, gram_n),
        ("anti-Gaussian part admits no generating functional", False, admits_gf_criterion(eta_n)),
        ("the direct sum has B = diag(5,3,3)", expect_b, b_total),
        ("the direct sum admits a generating functional", True, admits_gf_criterion(total)),
        ("that functional has no splitting", False, lk.decomposable),
    ]


def scenario_c08(config: RunConfig, registry: Registry):
    """O_2+: every antisymmetric Gaussian cocycle admits a generating functional."""
    pres = build_presentation("o_plus", 2)
    rng = _rng(config, "C08")
    admitted = 0
    for i in range(50):
        n = 1 if i % 2 == 0 else 2
        z = QVector(tuple(random_coefficient(rng) for _ in range(n)))
        grid = [[QVector.zero(n), z], [-z, QVector.zero(n)]]
        eta = gaussian_cocycle(pres, grid)
        if admits_gf_criterion(eta):
            admitted += 1
    return [
        (
            "50 random antisymmetric Gaussian cocycles over C^1 and C^2 "
            "all admit generating functionals",
            50,
            admitted,
        )
    ]


def scenario_c09(config: RunConfig, registry: Registry):
    """O_4+: a non-real Gaussian cocycle whose functional is not a trace."""
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
    registry.functionals.append(psi)
    real, _witness = is_real_cocycle(eta)
    u23 = Element.generator(4, 2, 3)
    u31 = Element.generator(4, 3, 1)
    return [
        ("B = 2 I_4", QMatrix.identity(4).scale(Qi(2)), b),
        ("the generating functional validates", True, True),
        ("the cocycle is not real", False, real),
        ("reality fails at (u_23, u_31) with values (i, -i)", (I, -I), reality_pair(eta, u23, u31)),
        (
            "psi(u_23 u_31) = i differs from psi(u_31 u_23) = -i",
            (I, -I),
            (psi.value(u23 * u31), psi.value(u31 * u23)),
        ),
    ]


def scenario_c10(config: RunConfig, registry: Registry):
    """First cohomology dimensions for the free quantum groups."""
    dims_u = tuple(
        solve_cocycles(counit_rep(build_presentation("u_plus", d), 1)).dimension
        for d in (2, 3)
    )
    dims_o = tuple(
        solve_cocycles(counit_rep(build_presentation("o_plus", d), 1)).dimension
        for d in (2, 3, 4)
    )
    return [
        ("U_d+ Gaussian space has dimension d^2 for d = 2, 3", (4, 9), dims_u),
        ("O_d+ Gaussian space has dimension d(d-1)/2 for d = 2, 3, 4", (1, 3, 6), dims_o),
    ]


def scenario_c11(config: RunConfig, registry: Registry):
    """Second cohomology of U_3+: defects of the pairing basis span sl(3)."""
    pres = build_presentation("u_plus", 3)
    basis = defect_basis(pres)
    registry.two_cocycles.extend(basis.values())
    defects = {name: defect(c) for name, c in basis.items()}
    off = sum(
        1
        for m in range(1, 4)
        for n in range(1, 4)
        if m != n and defects[f"K_{m}_{n}"] == matrix_unit(3, m, n)
    )
    sign = Qi(KP_DEFECT_SIGN)
    diag = sum(
        1
        for p in range(1, 3)
        if defects[f"K_p_{p}"]
        == (matrix_unit(3, p, p) - matrix_unit(3, p + 1, p + 1)).scale(sign)
    )
    stacked = QMatrix(
        [[m[r][s] for r in range(3) for s in range(3)] for m in defects.values()],
        cols=9,
    )
    rng = _rng(config, "C11")
    vanishing = 0
    psi = None
    for _ in range(10):
        drawn = admits_generating_functional(scalar_gaussian_cocycle(pres, _random_hermitian(3, rng)))
        if drawn is None:
            continue
        psi = drawn
        registry.functionals.append(psi)
        boundary = coboundary1(psi)
        registry.two_cocycles.append(boundary)
        if defect(boundary).is_zero():
            vanishing += 1
    combo = CombinationCocycle(
        (
            (Qi(2), basis["K_1_2"]),
            (ONE, basis["K_p_1"]),
            (ONE, coboundary1(psi)),
        )
    )
    registry.two_cocycles.append(combo)
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
        ("defect of K_m_n is e_mn for all 6 off-diagonal pairs", 6, off),
        (f"defect of K_p_p is {KP_DEFECT_SIGN} * (e_pp - e_p+1,p+1) for both p", 2, diag),
        (
            "the 8 basis defects are linearly independent, spanning the trace-zero matrices",
            8,
            rank(stacked),
        ),
        ("the defect of the coboundary of 10 random validated functionals vanishes", 10, vanishing),
        (
            "class coordinates of 2 K_1_2 + K_p_1 + coboundary read off exactly",
            (Qi(2), ONE, True),
            (*highlighted, others_zero),
        ),
        (
            "subtracting the coordinate combination leaves zero defect",
            True,
            defect(residual).is_zero(),
        ),
    ]


def scenario_c12(config: RunConfig, registry: Registry):
    """Second cohomology of O_d+: basis defects realize the antisymmetric matrices."""
    pres3 = build_presentation("o_plus", 3)
    basis3 = defect_basis(pres3)
    registry.two_cocycles.extend(basis3.values())
    matched = sum(
        1
        for m in range(1, 4)
        for n in range(m + 1, 4)
        if defect(basis3[f"Khat_{m}_{n}"])
        == matrix_unit(3, m, n) - matrix_unit(3, n, m)
    )
    pres2 = build_presentation("o_plus", 2)
    basis2 = defect_basis(pres2)
    registry.two_cocycles.append(basis2["Kz"])
    kz_defect = defect(basis2["Kz"])
    expect_kz = QMatrix([[ZERO, Qi(2)], [Qi(-2), ZERO]], cols=2)
    return [
        ("defect of Khat_m_n is e_mn - e_nm for all 3 pairs", 3, matched),
        ("at d = 2 the anti-Gaussian pair has defect [[0,2],[-2,0]]", expect_kz, kz_defect),
    ]


def scenario_c13(config: RunConfig, registry: Registry):
    """Second cohomology of K<2> vanishes: pairing 2-cocycles are coboundaries."""
    spaces = _k2_spaces()
    rng = _rng(config, "C13")
    base = len(letters(2))
    words = sum(base**n for n in range(config.max_word_len + 1))
    built = 0
    clean = 0
    for i in range(10):
        space = spaces[i % 3]
        c = KPairCocycle(space.random_element(rng), space.random_element(rng))
        registry.two_cocycles.append(c)
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
        ("a primitive exists for 10 random pairing 2-cocycles", 10, built),
        (
            f"each primitive reproduces its 2-cocycle on all {words * words} "
            f"word pairs of length <= {config.max_word_len}",
            10,
            clean,
        ),
    ]


def scenario_c14(config: RunConfig, registry: Registry):
    """Structural identities for every object registered by the suite."""
    n_cocycles = len(registry.two_cocycles)
    square_zero = 0
    zero_sums = 0
    for c in registry.two_cocycles:
        if square_zero_on_letters(c) is None:
            square_zero += 1
        if all(v.is_zero() for v in sum_identity_defects(c).values()):
            zero_sums += 1
    n_functionals = len(registry.functionals)
    psd = sum(1 for psi in registry.functionals if gram_psd_check(psi))
    return [
        (
            f"the degree-2 coboundary identity holds on all letter triples "
            f"for all {n_cocycles} registered 2-cocycles",
            n_cocycles,
            square_zero,
        ),
        (
            f"the paired unitarity sums cancel exactly for all {n_cocycles} "
            f"registered 2-cocycles",
            n_cocycles,
            zero_sums,
        ),
        (
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


def run_all(config: RunConfig | None = None) -> list[ScenarioResult]:
    """Run every scenario in table order; deterministic for a fixed config.

    Each scenario returns its ``(claim, expected, computed)`` rows, and the
    table gives them its id.  All scenarios register into one registry; the
    structural scenario comes last in the table because it consumes it.
    """
    config = config or RunConfig()
    registry = Registry()
    results = []
    for sid, fn in SCENARIOS:
        try:
            results += [
                ScenarioResult(sid, claim, _fmt(expected), _fmt(computed), expected == computed)
                for claim, expected, computed in fn(config, registry)
            ]
        except InputError:
            # a refused input (a table or a word over budget) is no verdict on the claim
            raise
        except Exception as exc:  # a failing scenario must not halt the suite
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            results.append(
                ScenarioResult(
                    sid,
                    "scenario completes without raising",
                    "completion",
                    f"{type(exc).__name__}: {exc} "
                    f"(raised at {os.path.basename(frame.filename)}:{frame.lineno})",
                    False,
                )
            )
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
