"""Generating functionals built from cocycles by the Schurmann prescription.

psi is determined by its letter values and the recursion
    psi(a b) = psi(a) counit(b) + counit(a) psi(b) + <eta(a*), eta(b)>,
with psi(1) = 0.  The canonical letter values are
    psi(u[j,k]) = -1/2 * b_tilde[j][k] + i H[j][k]
for a selfadjoint offset H, psi(u*[j,k]) = conj(psi(u[j,k])).  Validation
requires psi(r) = 0 on every relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Sequence

from .algebra import Element, Letter, Presentation, all_permutations, letters
from .cocycle import (
    Cocycle,
    b_matrices,
    cocycle_general,
    _eta_word,
)
from .errors import RelationViolation
from .linalg import QMatrix, dot, inner_product, psd_check, project_onto_span
from .representation import counit_rep, gaussian_subspace
from .scalars import I, ZERO, Qi


@dataclass(frozen=True)
class Functional:
    cocycle: Cocycle
    values: QMatrix
    star_values: QMatrix
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Functional)
            and self.cocycle == other.cocycle
            and self.values == other.values
            and self.star_values == other.star_values
        )

    def __hash__(self):
        return hash((self.cocycle, self.values, self.star_values))

    @property
    def presentation(self) -> Presentation:
        return self.cocycle.presentation

    @property
    def d(self) -> int:
        return self.cocycle.d

    def letter_value(self, l: Letter) -> Qi:
        grid = self.star_values if l.star else self.values
        return grid[l.row - 1][l.col - 1]

    def value(self, a: Element) -> Qi:
        return evaluate_functional(self, a)


def evaluate_functional(psi: Functional, a: Element) -> Qi:
    if a.d != psi.d:
        raise ValueError(f"ambient size mismatch: element {a.d}, functional {psi.d}")
    acc = ZERO
    for w, c in a.terms.items():
        acc = acc + c * _psi_word(psi, w)
    return acc


def _psi_word(psi: Functional, w) -> Qi:
    cache = psi._cache
    v = cache.get(w)
    if v is not None:
        return v
    if not w:
        v = ZERO
    else:
        head, tail = w[0], w[1:]
        eta = psi.cocycle
        v = inner_product(
            eta.letter_value(head.adjoint()), _eta_word(eta, tail)
        )
        if all(l.row == l.col for l in tail):
            v = v + psi.letter_value(head)
        if head.row == head.col:
            v = v + _psi_word(psi, tail)
    cache[w] = v
    return v


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
    violations = [
        (lbl, val)
        for lbl, r in eta.presentation.relations
        if not (val := evaluate_functional(psi, r)).is_zero()
    ]
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


def gram_psd_check(psi: Functional, pool: Sequence[tuple] | None = None, max_len: int = 2) -> bool:
    """Conditional positivity on a word pool: psd of (psi(a_i* a_j)) with
    a_i = w_i - counit(w_i) 1."""
    if pool is None:
        pool = default_word_pool(psi.d, max_len)
    return psd_check(pool_gram_matrix(psi, pool))


def pool_gram_matrix(psi: Functional, pool: Sequence[tuple]) -> QMatrix:
    """The matrix (psi(a_i* a_j)) with a_i = w_i - counit(w_i) 1 over a pool.

    Every entry needs psi(w_i* w_j), so the build replays the defining
    recursion: a state (eta(w), psi(w), counit(w)) is kept per pool word and
    the letters of w_i* are peeled onto it from the left.  States for shared
    peel prefixes are computed once, which leaves a single inner product per
    entry.
    """
    eta = psi.cocycle
    alpha = letters(psi.d)
    index = {l: k for k, l in enumerate(alpha)}
    diag = [l.row == l.col for l in alpha]
    star_c = [eta.letter_value(l.adjoint()).conj().entries for l in alpha]
    eta_letter = [eta.letter_value(l).entries for l in alpha]
    images = [eta.rep.image(*l).data for l in alpha]
    psi_letter = [psi.letter_value(l) for l in alpha]

    def psi_of(k, state):
        # psi(letter_k . w) from the state of w
        vec, p, e = state
        v = dot(star_c[k], vec)
        if diag[k]:
            v = v + p
        if e:
            v = v + psi_letter[k]
        return v

    def extend(k, state):
        # state for w -> state for letter_k . w
        vec, _, e = state
        new = tuple(dot(row, vec) for row in images[k])
        if e:
            new = tuple(map(add, new, eta_letter[k]))
        return new, psi_of(k, state), e and diag[k]

    def state_for(w):
        st = ((ZERO,) * eta.n, ZERO, True)
        for l in reversed(w):
            st = extend(index[l], st)
        return st

    base = [state_for(w) for w in pool]
    psi_ws = [state_for(tuple(l.adjoint() for l in reversed(w)))[1] for w in pool]
    # peeling w_i* from the left visits the adjoints of w_i's letters in order
    peeled: dict[tuple, list] = {(): base}

    def peeled_states(seq):
        st = peeled.get(seq)
        if st is None:
            k = seq[-1]
            st = [extend(k, s) for s in peeled_states(seq[:-1])]
            peeled[seq] = st
        return st

    m = []
    for w, wsi, (_, _, eps_i) in zip(pool, psi_ws, base):
        seq = tuple(index[l.adjoint()] for l in w)
        if seq:
            k = seq[-1]
            row = [psi_of(k, s) for s in peeled_states(seq[:-1])]
        else:
            row = [p for _, p, _ in base]
        for j, (_, pj, eps_j) in enumerate(base):
            if eps_j:
                row[j] = row[j] - wsi
            if eps_i:
                row[j] = row[j] - pj
        m.append(row)
    return QMatrix(m, cols=len(pool))


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
