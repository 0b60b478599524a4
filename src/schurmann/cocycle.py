"""rho-counit cocycles: linear maps eta with eta(ab) = rho(a)eta(b) + eta(a)counit(b).

A cocycle is stored by its letter values, the grids V[j][k] = eta(u[j,k]) and
W[j][k] = eta(u*[j,k]) of vectors in the carrier of rho.  Constructors
validate eta(r) = 0 on every relation of the presentation; vanishing on the
generating relations forces vanishing on the whole *-ideal, so validated
cocycles descend to the quotient.  Every catalogued presentation is unitary
(uu* = u*u = 1), so V and rho fix W: `cocycle_from_V` completes it by one
closed form on every kind.

Elements are evaluated on the suffix closure of their words (the relations
on `Presentation.relation_words`, compiled once per presentation), by
eta(h w) = rho(h) eta(w) + eps(w) eta(h) on Gaussian-integer numerators
(`words.word_set_values`); a relation is violated iff its sum is nonzero on
the integers, and only then is its value built as a `QVector`.  The same
evaluator, run on many columns of letter values at once, gives the cocycle
equations of `solve_cocycles` and checks its basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import Element, Letter, Presentation, antipode_element, letters, word_set
from .errors import InputError, RelationViolation
from .linalg import GaussianMatrix, QMatrix, QVector, inner_product, kernel_basis
from .representation import (
    GeneratorSubstitution,
    Representation,
    counit_rep,
    direct_sum_rep,
    pullback_rep,
)
from .scalars import ZERO, Qi, rational
from .words import columns, word_set_values

VGrid = tuple[tuple[QVector, ...], ...]

# The longest word `is_real_cocycle` samples.  Evaluation runs layer by layer
# without recursion; the bound keeps a sampled word's numerators, which grow
# with its length, small.
MAX_SAMPLED_WORD_LEN = 256


@dataclass(frozen=True)
class Cocycle:
    rep: Representation
    V: VGrid
    W: VGrid

    @property
    def presentation(self) -> Presentation:
        return self.rep.presentation

    @property
    def d(self) -> int:
        return self.rep.d

    @property
    def n(self) -> int:
        return self.rep.n

    def letter_value(self, l: Letter) -> QVector:
        grid = self.W if l.star else self.V
        return grid[l.row - 1][l.col - 1]

    @cached_property
    def numerators(self) -> tuple:
        """eta(letter h)_k at h * n + k over `letters(d)`, as one column of
        letter values (`words.columns`): the form that `words.letter_slots`
        packs for `words.layer_step`, on the word sets of
        `words.word_set_values`."""
        return columns([[z for l in letters(self.d) for z in self.letter_value(l)]])


def _as_vgrid(d: int, n: int, grid: Sequence[Sequence[QVector]], name: str) -> VGrid:
    if len(grid) != d or any(len(row) != d for row in grid):
        raise ValueError(f"{name} must be a {d} x {d} grid of vectors")
    for row in grid:
        for v in row:
            if len(v) != n:
                raise ValueError(f"{name} entries must have length {n}")
    return tuple(tuple(row) for row in grid)


def cocycle_columns(eta: Cocycle, elements: Sequence[Element]) -> GaussianMatrix:
    """eta(a) for every element, column e for element e, on one compiled
    word set."""
    for a in elements:
        if a.d != eta.d:
            raise ValueError(f"ambient size mismatch: element {a.d}, cocycle {eta.d}")
    ws = word_set(eta.d, elements)
    ws.require(eta.n, f"the values of a cocycle of dimension {eta.n}")
    return word_set_values(ws, eta.rep.action, eta.n, eta.numerators)


def cocycle_values(eta: Cocycle, elements: Sequence[Element]) -> list[QVector]:
    """eta(a) for every element, on one compiled word set."""
    sums = cocycle_columns(eta, elements)
    return [QVector(sums.column(e)) for e in range(len(elements))]


def evaluate_cocycle(eta: Cocycle, a: Element) -> QVector:
    """eta(a); words peel from the leftmost letter."""
    return cocycle_values(eta, [a])[0]


def cocycle_general(
    rep: Representation, V: Sequence[Sequence[QVector]], W: Sequence[Sequence[QVector]]
) -> Cocycle:
    """Validated cocycle from both letter-value grids."""
    d, n = rep.d, rep.n
    eta = Cocycle(rep, _as_vgrid(d, n, V, "V"), _as_vgrid(d, n, W, "W"))
    sums = word_set_values(rep.presentation.relation_words, rep.action, n, eta.numerators)
    violations = [
        (rep.presentation.relations[e][0], QVector(sums.column(e)))
        for e in sums.nonzero_columns()
    ]
    if violations:
        raise RelationViolation("cocycle", violations)
    return eta


def cocycle_from_V(rep: Representation, V: Sequence[Sequence[QVector]]) -> Cocycle:
    """Validated cocycle from its unstarred letter values alone.

    Premise: the presentation carries the unitarity relations
    uu*(j,k) = sum_p u[j,p] u*[k,p] - delta_jk and u*u(j,k), as every
    catalogued kind does.  By the cocycle rule
    eta(uu*(j,k)) = sum_p R[j][p] W[k][p] + V[j][k], so with X[p][k] = W[k][p]
    the relations uu* say R X = -V for the block matrix R.  rho(u*u) = 1
    makes R* R = 1, with block (q, j) of R* the adjoint of R[j][q], so
    X = -R* V: W[k][q] = -sum_j rho(u*[j,q]) V[j][k] is the only W that
    can complete V.  `cocycle_general` then checks V and that W on every
    relation, so a V that extends to no cocycle raises RelationViolation
    with the labels of the relations it breaks.
    """
    d, n = rep.d, rep.n
    grid = _as_vgrid(d, n, V, "V")
    W = [
        [
            -sum((rep.R_star[j][q].apply(grid[j][k]) for j in range(d)), QVector.zero(n))
            for q in range(d)
        ]
        for k in range(d)
    ]
    return cocycle_general(rep, grid, W)


def gaussian_cocycle(presentation: Presentation, V: Sequence[Sequence[QVector]]) -> Cocycle:
    """Cocycle for rho = counit * id, where `cocycle_from_V` completes
    W = -V^t, validated against all relations."""
    if not V or not V[0]:
        raise ValueError("V must be a nonempty grid")
    if not hasattr(V[0][0], "__len__"):
        raise TypeError(
            "V entries must be vectors; for a grid of scalars use scalar_gaussian_cocycle"
        )
    return cocycle_from_V(counit_rep(presentation, len(V[0][0])), V)


def scalar_gaussian_cocycle(presentation: Presentation, M: QMatrix) -> Cocycle:
    """Gaussian cocycle with one-dimensional carrier from a d x d scalar matrix."""
    d = presentation.d
    return gaussian_cocycle(
        presentation,
        [[QVector([M[j][k]]) for k in range(d)] for j in range(d)],
    )


@dataclass(frozen=True)
class BMatrices:
    """b[j][k] = sum_p <eta(u[j,p]), eta(u[k,p])>, b_tilde likewise on starred letters."""

    b: QMatrix
    b_tilde: QMatrix


def _letter_gram(grid: VGrid) -> QMatrix:
    """sum_p <grid[j][p], grid[k][p]> at (j, k)."""
    d = len(grid)
    return QMatrix(
        [
            [sum((inner_product(grid[j][p], grid[k][p]) for p in range(d)), ZERO) for k in range(d)]
            for j in range(d)
        ],
        cols=d,
    )


def b_matrices(eta: Cocycle) -> BMatrices:
    b, bt = _letter_gram(eta.V), _letter_gram(eta.W)
    if not (b.is_hermitian() and bt.is_hermitian()):
        raise ArithmeticError("b matrices must be Hermitian")
    return BMatrices(b, bt)


def direct_sum_cocycle(e1: Cocycle, e2: Cocycle) -> Cocycle:
    if e1.presentation != e2.presentation:
        raise ValueError("direct sum requires the same presentation")
    rep = direct_sum_rep(e1.rep, e2.rep)
    d = e1.d
    V = [[e1.V[j][k].direct_sum(e2.V[j][k]) for k in range(d)] for j in range(d)]
    W = [[e1.W[j][k].direct_sum(e2.W[j][k]) for k in range(d)] for j in range(d)]
    return cocycle_general(rep, V, W)


def pullback_cocycle(eta: Cocycle, sub: GeneratorSubstitution) -> Cocycle:
    """eta∘pi along a generator substitution; validated on the source relations."""
    if eta.presentation != sub.target:
        raise ValueError("cocycle does not live over the substitution target")
    rep = pullback_rep(eta.rep, sub)
    d = sub.source.d
    images = [img for row in sub.images for img in row]
    flat = cocycle_values(eta, images + [img.star() for img in images])
    V = [flat[j * d : (j + 1) * d] for j in range(d)]
    W = [flat[d * d + j * d : d * d + (j + 1) * d] for j in range(d)]
    return cocycle_general(rep, V, W)


def _reality_sides(eta: Cocycle, pool: list):
    """(i, j) -> the two sides of the reality condition at (pool[i], pool[j]),
    from eta(x), eta(S(x)*) and eta(S(x*)) for every x of the pool,
    evaluated on one word set."""
    if not eta.presentation.kac:
        raise ValueError("reality check requires a Kac presentation")
    k = len(pool)
    flat = cocycle_values(
        eta,
        pool
        + [antipode_element(x).star() for x in pool]
        + [antipode_element(x.star()) for x in pool],
    )

    def sides(i: int, j: int) -> tuple[Qi, Qi]:
        return inner_product(flat[i], flat[j]), inner_product(flat[k + j], flat[2 * k + i])

    return sides


def reality_pair(eta: Cocycle, a: Element, b: Element) -> tuple[Qi, Qi]:
    """The two sides <eta(a), eta(b)> and <eta(S(b)*), eta(S(a*))> of the
    reality condition at (a, b).  Requires a Kac presentation."""
    return _reality_sides(eta, [a, b])(0, 1)


def is_real_cocycle(
    eta: Cocycle,
    sample_words: Sequence[Element] | None = None,
    max_word_len: int = 3,
    seed: int = 0,
    samples: int = 12,
):
    """Check <eta(a), eta(b)> = <eta(S(b)*), eta(S(a*))> on letters and samples.

    Requires a Kac presentation (the antipode must exist).  Returns
    (True, None) or (False, (a, b, lhs, rhs)) with the first failing pair.
    A max_word_len above MAX_SAMPLED_WORD_LEN is refused with InputError.
    """
    if max_word_len > MAX_SAMPLED_WORD_LEN:
        raise InputError(
            f"sampled words of length up to {max_word_len} are above the word length "
            f"budget MAX_SAMPLED_WORD_LEN = {MAX_SAMPLED_WORD_LEN}"
        )
    pool: list[Element] = [
        Element.generator(eta.d, l.row, l.col, l.star) for l in letters(eta.d)
    ]
    if sample_words is None:
        rng = random.Random(seed)
        alpha = letters(eta.d)
        for _ in range(samples):
            n = rng.randint(1, max_word_len)
            w = tuple(rng.choice(alpha) for _ in range(n))
            pool.append(Element.from_word(eta.d, w))
    else:
        pool.extend(sample_words)
    sides = _reality_sides(eta, pool)
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            lhs, rhs = sides(i, j)
            if lhs != rhs:
                return False, (a, b, lhs, rhs)
    return True, None


def random_coefficient(rng: random.Random) -> Qi:
    """A small Gaussian rational, real part first, each part p/q with
    -3 <= p <= 3 and 1 <= q <= 3."""
    return Qi(
        rational(rng.randint(-3, 3)) / rng.randint(1, 3),
        rational(rng.randint(-3, 3)) / rng.randint(1, 3),
    )


@dataclass(frozen=True)
class CocycleSpace:
    """Exact basis of the space of (V, W) letter-value pairs for a fixed rho."""

    rep: Representation
    basis: tuple[Cocycle, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def random_element(self, rng: random.Random) -> Cocycle:
        """Random Q(i)-combination of the basis with small rational coefficients."""
        d, n = self.rep.d, self.rep.n
        V = [[QVector.zero(n) for _ in range(d)] for _ in range(d)]
        W = [[QVector.zero(n) for _ in range(d)] for _ in range(d)]
        for eta in self.basis:
            c = random_coefficient(rng)
            for j in range(d):
                for k in range(d):
                    V[j][k] = V[j][k] + eta.V[j][k].scale(c)
                    W[j][k] = W[j][k] + eta.W[j][k].scale(c)
        return cocycle_general(self.rep, V, W)


def _relation_sums(rep: Representation, eta, width: int, what: str) -> GaussianMatrix:
    """eta on the relations for `width` columns of letter values; over budget, InputError."""
    ws = rep.presentation.relation_words
    ws.require(rep.n * width, what)
    return word_set_values(ws, rep.action, rep.n, eta, width)


def _coefficient_rows(sums: GaussianMatrix, n: int, width: int) -> GaussianMatrix:
    """The rows of the relations with a nonzero cell, coordinate k of a
    relation being its cells v n + k."""
    nonzero = sums.nonzero_columns()
    re, im = (
        [list(cells[e][k::n]) for e in nonzero for k in range(n)]
        for cells in (list(zip(*sums.re)), list(zip(*sums.im)))
    )
    return GaussianMatrix(re, im, sums.den, width)


def solve_cocycles(rep: Representation) -> CocycleSpace:
    """All cocycles for rho, by exact kernel computation in the letter values.

    For fixed rho the map (V, W) -> (eta(r))_r is linear.  The word-set
    evaluator on the unit letter values (column h n + k has eta(letter h) =
    e_k) gives its coefficients: cell v n + k of relation r is that of
    unknown v in coordinate k of eta(r).  The space is the kernel of the rows
    of the relations with a nonzero cell; a second pass with the kernel
    vectors as columns checks every basis vector on every relation.
    """
    d, n = rep.d, rep.n
    width = 2 * d * d * n
    units = [[(v, 1, 0)] for v in range(width)], 1
    sums = _relation_sums(rep, units, width, "the cocycle coefficient matrix")
    kernel = kernel_basis(_coefficient_rows(sums, n, width))
    if kernel:
        sums = _relation_sums(rep, columns(kernel), len(kernel), "the cocycle basis check")
        bad = {e: sums.column(e) for e in sums.nonzero_columns()}
        if bad:
            # what cocycle_general reports for the first failing basis vector
            v = min(c // n for row in bad.values() for c, z in enumerate(row) if z)
            labels = [lbl for lbl, _ in rep.presentation.relations]
            values = [(labels[e], QVector(row[v * n : (v + 1) * n])) for e, row in bad.items()]
            raise RelationViolation("cocycle", [(lbl, x) for lbl, x in values if not x.is_zero()])

    def grids(vec: QVector) -> list:
        # unknown h n + k is coordinate k of the value of letter h of `letters(d)`
        values = [QVector(vec[i : i + n]) for i in range(0, width, n)]
        return [tuple(tuple(values[s + j * d :][:d]) for j in range(d)) for s in (0, d * d)]

    basis = tuple(Cocycle(rep, *grids(vec)) for vec in kernel)
    return CocycleSpace(rep, basis)
