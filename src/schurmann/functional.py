"""Generating functionals built from cocycles by the Schurmann prescription.

psi is determined by its letter values and the recursion
    psi(a b) = psi(a) counit(b) + counit(a) psi(b) + <eta(a*), eta(b)>,
with psi(1) = 0: the letter recursion of `cohomology.LetterFunctional` with
first term +<eta(.*), eta(.)>, so d(psi) is minus that pairing.  The
canonical letter values are
    psi(u[j,k]) = -1/2 * b_tilde[j][k] + i H[j][k]
for a selfadjoint offset H, psi(u*[j,k]) = conj(psi(u[j,k])).  Validation
requires psi(r) = 0 on every relation.

Conditional positivity is checked on a word pool: the Gram matrix
(psi(a_i* a_j)) with a_i = w_i - counit(w_i) 1 is <eta(w_i), eta(w_j)>
(`pool_gram_matrix`), so the build reads eta on the pool's word set, never
a value of psi.  It is kept as its n x N factor, and its positivity is
decided on the s <= n pool words where the factor pivots
(`linalg.psd_check`); those s^2 entries are rechecked as -d(psi)(w_p*, w_q)
through `cohomology.CoboundaryCocycle`, that is psi's own recursion
(`gram_psd_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .algebra import Element, Presentation, WordSet, all_permutations, letters, require_entries, word_set
from .cocycle import Cocycle, b_matrices, cocycle_general
from .cohomology import CoboundaryCocycle, KPairCocycle, LetterFunctional, _star_word
from .errors import RelationViolation
from .linalg import Gram, QMatrix, inner_product, psd_check, project_onto_span
from .representation import counit_rep, gaussian_subspace
from .scalars import I, Qi, _qi
from .words import word_set_values


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
    """Words of length <= max_len over unstarred letters, plus their stars;
    built once per (d, max_len) and kept as a tuple, copied out as a list."""
    return list(_default_pool(d, max_len))


@lru_cache(maxsize=4)
def _default_pool(d: int, max_len: int) -> tuple:
    unstarred = letters(d, starred=False)
    pool: list[tuple] = [()]
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [w + (l,) for w in layer for l in unstarred]
        pool.extend(layer)
    seen = set(pool)
    for w in list(pool):
        ws = _star_word(w)
        if ws not in seen:
            pool.append(ws)
            seen.add(ws)
    return tuple(pool)


def default_pool_size(d: int, max_len: int) -> int:
    """len(default_word_pool(d, max_len)), without building the pool."""
    return 2 * sum(d ** (2 * m) for m in range(max_len + 1)) - 1


def gram_psd_check(psi: Functional, max_len: int = 2) -> bool:
    """Conditional positivity on `default_word_pool(d, max_len)`: psd of
    (psi(a_i* a_j)) with a_i = w_i - counit(w_i) 1, decided on the core of
    `pool_gram_matrix` (`linalg.psd_check`).

    The core entries are all the verdict reads, and they come from eta on
    the pool's word set.  The entry at (w_p, w_q) is psi(w_p* w_q) -
    eps(w_q) psi(w_p*) - eps(w_p) psi(w_q) = -d(psi)(w_p*, w_q), so each is
    rechecked against one `cohomology.CoboundaryCocycle.batch` call, which
    reads psi's letter values and the cuts of each word instead: a mismatch
    raises ArithmeticError.
    """
    _require_gram(default_pool_size(psi.d, max_len), max_len, psi.cocycle.n)
    pool = default_word_pool(psi.d, max_len)
    g = pool_gram_matrix(psi, pool)
    verdict = psd_check(g)
    core, re, im = g.core
    words = [pool[p] for p in core]
    at = [(i, j) for i in range(len(words)) for j in range(len(words))]
    values = CoboundaryCocycle(psi).batch([(_star_word(words[i]), words[j]) for i, j in at])
    den = g.z.den * g.h.den
    for (i, j), value in zip(at, values):
        if _qi(re[i][j], im[i][j], den) != -value:
            raise ArithmeticError(
                "a Gram core entry disagrees with the letter recursion of psi", words[i], words[j]
            )
    return verdict


def pool_gram_matrix(psi: Functional, pool: Sequence[tuple]) -> Gram:
    """The matrix (psi(a_i* a_j)) with a_i = w_i - counit(w_i) 1 over a pool,
    as G_ij = <eta(w_i), eta(w_j)>: no value of psi is evaluated.

    Unrolled, the letter recursion of psi sums over the cuts w = p h t with
    a diagonal prefix p: psi(w) = sum (<eta(h*), eta(t)> + eps(t) psi(h)).
    Split the cuts of u v between u and v, as in
    `cohomology.verify_primitive_exhaustive`; on a *-representation

        psi(u v) = <eta(u*), eta(v)> + eps(v) psi(u) + eps(u) psi(v),

    and with eps(w*) = eps(w) the entry psi(w_i* w_j) - eps(w_j) psi(w_i*)
    - eps(w_i) psi(w_j) is <eta(w_i), eta(w_j)>: the letter values of psi
    drop out.

    The matrix is a `linalg.Gram` G = H* H, kept as its factor H: eta on
    the pool, n coordinates by N words, read by `words.word_set_values` on
    the pool compiled as a word set, one element per word, as numerators
    over one denominator.  So G has rank at most n.  The budget is what the
    word set and the factor hold, the pool's letters and n coordinates per
    word, refused before the pool is compiled.
    """
    eta = psi.cocycle
    _require_gram(len(pool), max(map(len, pool), default=0), eta.n)
    h = word_set_values(_pool_words(psi.d, tuple(pool)), eta.rep.action, eta.n, eta.numerators)
    return Gram(h, h)


def _require_gram(size: int, max_len: int, n: int) -> None:
    """Refuse a Gram on a pool of this size and word length above the entry
    budget: every word's letters and its n coordinates of eta."""
    require_entries(size * (max_len + n), "the Gram factors on their pool")


@lru_cache(maxsize=4)
def _pool_words(d: int, pool: tuple) -> WordSet:
    """The pool compiled as a word set, one element per word, once per
    (d, pool)."""
    return word_set(d, [Element.from_word(d, w) for w in pool])


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
