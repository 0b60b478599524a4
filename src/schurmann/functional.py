"""Generating functionals built from cocycles by the Schurmann prescription.

psi is determined by its letter values and the recursion
    psi(a b) = psi(a) counit(b) + counit(a) psi(b) + <eta(a*), eta(b)>,
with psi(1) = 0: the letter recursion of `cohomology.LetterFunctional` with
first term +<eta(.*), eta(.)>, so d(psi) is minus that pairing.  The
canonical letter values are
    psi(u[j,k]) = -1/2 * b_tilde[j][k] + i H[j][k]
for a selfadjoint offset H, psi(u*[j,k]) = conj(psi(u[j,k])).  Validation
requires psi(r) = 0 on every relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple, Sequence

from .algebra import Element, Presentation, all_permutations, letters
from .cocycle import Cocycle, b_matrices, cocycle_general
from .cohomology import KPairCocycle, LetterFunctional, value_tables
from .errors import RelationViolation
from .linalg import PackedMatrix, QMatrix, inner_product, psd_check, project_onto_span
from .representation import counit_rep, gaussian_subspace
from .scalars import I, Qi
from .words import Layer, WordTables, gather, linear, pack, require_entries, step_groups


@dataclass(frozen=True)
class Functional(LetterFunctional):
    cocycle: Cocycle
    values: QMatrix
    star_values: QMatrix

    sign = 1

    @property
    def presentation(self) -> Presentation:
        return self.cocycle.presentation

    @cached_property
    def form(self) -> KPairCocycle:
        """<eta(a*), eta(b)>, the first term of the letter recursion."""
        return KPairCocycle(self.cocycle, self.cocycle)


def evaluate_functional(psi: Functional, a: Element) -> Qi:
    """psi(a), the same as psi.value(a)."""
    return psi.value(a)


def schurmann_functional(eta: Cocycle, H: QMatrix | None = None) -> Functional:
    """The canonical functional for eta with selfadjoint offset H (default 0).

    Raises RelationViolation listing every relation where psi fails to vanish.
    """
    d = eta.d
    if H is None:
        H = QMatrix.zero(d, d)
    if H.shape != (d, d) or not H.is_hermitian():
        raise ValueError("H must be a selfadjoint d x d matrix")
    bm = b_matrices(eta)
    half = Qi("-1/2")
    values = bm.b_tilde.scale(half) + H.scale(I)
    psi = Functional(eta, values, values.conj())
    violations = psi.relation_violations()
    if violations:
        raise RelationViolation("generating functional", violations)
    return psi


def admits_generating_functional(eta: Cocycle) -> Functional | None:
    """Operational test: does the canonical construction (H = 0) validate."""
    try:
        return schurmann_functional(eta)
    except RelationViolation:
        return None


def admits_gf_unitary(eta: Cocycle) -> bool:
    """u_plus criterion: a generating functional exists iff b_tilde = b^t."""
    if eta.presentation.kind != "u_plus":
        raise ValueError("admits_gf_unitary requires a u_plus presentation")
    bm = b_matrices(eta)
    return bm.b_tilde == bm.b.transpose()


def admits_gf_orth(eta: Cocycle) -> bool:
    """o_plus criterion: a generating functional exists iff b is real."""
    if eta.presentation.kind != "o_plus":
        raise ValueError("admits_gf_orth requires an o_plus presentation")
    bm = b_matrices(eta)
    return bm.b == bm.b.conj()


@dataclass(frozen=True)
class ObstructionReport:
    """C_tau per permutation; a functional can exist only if all values agree."""

    values: dict
    constant: bool


def su_q3_obstruction(eta: Cocycle) -> ObstructionReport:
    """For su_q with d = 3: C_tau = <eta_t1, eta_t2> + <eta_t2, eta_t3> + <eta_t1, eta_t3>
    over the diagonal letter values eta_k = eta(u[k,k])."""
    pres = eta.presentation
    if pres.kind != "su_q" or pres.d != 3:
        raise ValueError("su_q3_obstruction requires an su_q presentation with d = 3")
    diag = [eta.V[k][k] for k in range(3)]
    values: dict[tuple[int, ...], Qi] = {}
    for tau in all_permutations(3):
        t1, t2, t3 = (diag[t - 1] for t in tau)
        values[tau] = (
            inner_product(t1, t2) + inner_product(t2, t3) + inner_product(t1, t3)
        )
    vals = list(values.values())
    constant = all(v == vals[0] for v in vals[1:])
    return ObstructionReport(values, constant)


def hermitianize(values: QMatrix, star_values: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Letterwise hermitian part: v' = (v + conj(star)) / 2, star' = conj(v')."""
    if values.shape != star_values.shape:
        raise ValueError("shape mismatch")
    half = Qi("1/2")
    v2 = (values + star_values.conj()).scale(half)
    return v2, v2.conj()


def default_word_pool(d: int, max_len: int = 2) -> list:
    """Words of length <= max_len over unstarred letters, plus their stars."""
    unstarred = letters(d, starred=False)
    pool: list[tuple] = [()]
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [w + (l,) for w in layer for l in unstarred]
        pool.extend(layer)
    seen = set(pool)
    for w in list(pool):
        ws = tuple(l.adjoint() for l in reversed(w))
        if ws not in seen:
            pool.append(ws)
            seen.add(ws)
    return pool


def default_pool_size(d: int, max_len: int) -> int:
    """len(default_word_pool(d, max_len)), without building the pool."""
    return 2 * sum(d ** (2 * m) for m in range(max_len + 1)) - 1


def gram_psd_check(psi: Functional, pool: Sequence[tuple] | None = None, max_len: int = 2) -> bool:
    """Conditional positivity on a word pool: psd of (psi(a_i* a_j)) with
    a_i = w_i - counit(w_i) 1."""
    if pool is None:
        require_entries(default_pool_size(psi.d, max_len) ** 2, "the Gram matrix")
        pool = default_word_pool(psi.d, max_len)
    return psd_check(pool_gram_matrix(psi, pool))


class _PoolPlan(NamedTuple):
    """What a Gram build needs of its pool alone, shared by every functional
    over one (d, pool)."""

    top: int  # the longest word's length
    codes: list  # (length, code) of every pool word
    stars: list  # (length, code(w*)) of every pool word
    mask: list  # counit(w), 0 or 1, of every pool word
    counit: Layer  # the mask packed
    zero: Layer  # the zero layer of the pool
    peels: list  # the letters of w* as letter indices, every pool word w


@lru_cache(maxsize=8)
def _pool_plan(d: int, pool: tuple) -> _PoolPlan:
    t = WordTables(d)
    top = max(map(len, pool), default=0)
    codes = [(len(w), t.code(w)) for w in pool]
    eps_sets = [set(t.eps(m)) for m in range(top + 1)]
    mask = [int(c in eps_sets[m]) for m, c in codes]
    zeros = [0] * len(pool)
    return _PoolPlan(
        top,
        codes,
        [(m, t.star_codes(m)[c]) for m, c in codes],
        mask,
        pack(mask, zeros, 1),
        pack(zeros, zeros, 1),
        # peeling w* from the left visits the adjoints of w's letters in order
        [tuple(t.star[t.index[l]] for l in w) for w in pool],
    )


def pool_gram_matrix(psi: Functional, pool: Sequence[tuple]) -> PackedMatrix:
    """The matrix (psi(a_i* a_j)) with a_i = w_i - counit(w_i) 1 over a pool.

    Every entry needs psi(w_i* w_j), so the build replays the defining
    recursion: the states (eta(w), psi(w), counit(w)) of the pool words are
    read from the word tables, and the letters of w_i* are peeled onto them
    from the left, each state packed: a coordinate of eta(h w) is one
    `linear` sum rho(h)_kl eta(w)_l + eta(h)_k counit(w).  States for shared
    peel prefixes are computed once, which leaves one value step per row,
    summed with its pairing and its counit terms in one `linear`; psi(w_i*)
    enters those as numerators over the denominator of psi(w_j).  The parts
    that depend on the pool alone (codes, counits, peel sequences) are kept
    per (d, pool) in a small cache.  The rows leave packed, over one
    denominator and one slot width (`PackedMatrix`).  A row is zero where
    psi(a_i* a_j) = 0 for every j, which is common: 73 to 169 of the 181
    rows of the d = 3 and 401 of the 545 rows of the d = 4 Gram matrices of
    `reproduce-paper` (`psd_check` eliminates the nonzero rows only).
    """
    require_entries(len(pool) ** 2, "the Gram matrix")
    plan = _pool_plan(psi.d, tuple(map(tuple, pool)))
    size, eta = len(pool), psi.cocycle
    t = WordTables(psi.d)
    psis = value_tables(t, psi, plan.top)
    psi_pool = gather(psis, plan.codes)
    # each coordinate of eta on the pool, gathered from the packed coordinates of its layers
    layers = [t.coordinates(eta, m) for m in range(plan.top + 1)]
    coords = tuple(gather([layer[k] for layer in layers], plan.codes) for k in range(eta.n))
    den = lcm(*(layer.den for layer in t.eta(eta, plan.top)))
    # a state: the packed coordinates of eta and their denominator, psi, the counit
    base = (coords, den, psi_pool, plan.counit)
    # psi(w_i*), gathered from the same tables, over the denominator of psi_pool
    star_re, star_im = gather(psis, plan.stars).numerators(psi_pool.den)
    rho, (values, de) = eta.rep.action, eta.numerators
    # eta(letter h)_k as the pairs of a `linear` group: none for a zero entry
    letter_eta = [
        [[(a, b) for _, a, b in values[h * eta.n + k]] for k in range(eta.n)] for h in range(t.base)
    ]
    lins = [t.lin(eta, 1, h) for h in range(t.base)]
    psi_letter = [psi.letter_value(l) for l in t.alpha]

    def psi_groups(k, state):
        # psi(letter_k . w) for every state w, as the groups of `linear`
        coords, den, val, eps = state
        pairs, lin_den = lins[k]
        return [(pairs, lin_den * den, coords)] + step_groups(val, eps, t.diag[k], psi_letter[k])

    def extend(k, state):
        # states for w -> states for letter_k . w
        coords, den, _, eps = state
        move = tuple(
            linear([(row, rho.den * den, coords), (cells, de, [eps])], size)
            for row, cells in zip(rho.images[k], letter_eta[k])
        )
        val = linear(psi_groups(k, state), size)
        return move, lcm(rho.den * den, de), val, eps if t.diag[k] else plan.zero

    peeled: dict[tuple, tuple] = {(): base}

    def peeled_states(seq):
        st = peeled.get(seq)
        if st is None:
            st = extend(seq[-1], peeled_states(seq[:-1]))
            peeled[seq] = st
        return st

    rows = []
    for i, seq in enumerate(plan.peels):
        if seq:
            row = psi_groups(seq[-1], peeled_states(seq[:-1]))
        else:
            row = [([(1, 0)], psi_pool.den, [psi_pool])]
        # the counit terms -counit(w_i) psi(w_j) - psi(w_i*) counit(w_j) in the same sum
        counit_terms = [(-plan.mask[i], 0), (-star_re[i], -star_im[i])]
        rows.append(linear(row + [(counit_terms, psi_pool.den, [psi_pool, plan.counit])], size))
    return PackedMatrix(rows, size)


@dataclass(frozen=True)
class LKReport:
    """Split of a generating functional along the Gaussian subspace of rho."""

    gaussian_dim: int
    eta_g: Cocycle
    eta_n: Cocycle
    gf_exists_g: bool
    gf_exists_n: bool
    decomposable: bool


def lk_decomposition(psi: Functional) -> LKReport:
    """Project the cocycle onto the Gaussian subspace and test both parts.

    The projection commutes with rho, so eta_g is a Gaussian cocycle on the
    same carrier and eta_n = eta - eta_g is a cocycle for rho with values in
    the orthocomplement.  The functional decomposes iff the Gaussian part
    admits a generating functional.
    """
    eta = psi.cocycle
    d, n = eta.d, eta.n
    basis = gaussian_subspace(eta.rep)

    def project_grid(grid):
        return [
            [project_onto_span(basis, grid[j][k]) for k in range(d)] for j in range(d)
        ]

    vg, wg = project_grid(eta.V), project_grid(eta.W)
    eta_g = cocycle_general(counit_rep(eta.presentation, n), vg, wg)
    vn = [[eta.V[j][k] - vg[j][k] for k in range(d)] for j in range(d)]
    wn = [[eta.W[j][k] - wg[j][k] for k in range(d)] for j in range(d)]
    eta_n = cocycle_general(eta.rep, vn, wn)
    kind = eta.presentation.kind
    if kind == "u_plus":
        gf_g, gf_n = admits_gf_unitary(eta_g), admits_gf_unitary(eta_n)
    elif kind == "o_plus":
        gf_g, gf_n = admits_gf_orth(eta_g), admits_gf_orth(eta_n)
    else:
        gf_g = admits_generating_functional(eta_g) is not None
        gf_n = admits_generating_functional(eta_n) is not None
    return LKReport(
        gaussian_dim=len(basis),
        eta_g=eta_g,
        eta_n=eta_n,
        gf_exists_g=gf_g,
        gf_exists_n=gf_n,
        decomposable=gf_g,
    )
