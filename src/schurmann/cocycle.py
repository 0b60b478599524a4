"""rho-counit cocycles: linear maps eta with eta(ab) = rho(a)eta(b) + eta(a)counit(b).

A cocycle is stored by its letter values, the grids V[j][k] = eta(u[j,k]) and
W[j][k] = eta(u*[j,k]) of vectors in the carrier of rho.  `cocycle_general`
checks eta(r) = 0 on every relation; vanishing on the generating relations
forces vanishing on the whole *-ideal, so checked cocycles descend to the
quotient.  Direct sums and combinations of checked cocycles on one rho are
not checked again: their relation values are the parts', summed.  Every
catalogued presentation is unitary (uu* = u*u = 1), so V and rho fix W:
`cocycle_from_V` completes it by one closed form on every kind.

Elements are evaluated on the suffix closure of their words (the relations
on `Presentation.relation_words`, compiled once per presentation), by
eta(h w) = rho(h) eta(w) + eps(w) eta(h) on Gaussian-integer numerators
(`words.word_set_values`); a relation is violated iff its sum is nonzero on
the integers, and only then is its value built as a `QVector`.  The same
evaluator, run on many columns of letter values at once, gives the cocycle
equations of `solve_cocycles` and checks its basis.  The equations split
over the diagonal blocks of rho, Z^1(rho_1 + rho_2) = Z^1(rho_1) +
Z^1(rho_2), so `solve_cocycles` solves each distinct block of rho once and
checks the merged basis on the whole of rho.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from operator import itemgetter
from typing import Sequence

from .algebra import (
    Element,
    Letter,
    Presentation,
    antipode_element,
    letter_elements,
    letters,
    require_word_len,
    word_set,
)
from .errors import RelationViolation
from .linalg import GaussianMatrix, QMatrix, QVector, _paired, inner_product, kernel_basis
from .representation import (
    GeneratorSubstitution,
    Representation,
    counit_rep,
    direct_sum_rep,
    pullback_rep,
)
from .scalars import ZERO, Qi, _qi, rational
from .words import Action, columns, coordinate_blocks, layer_step, restrict, word_set_values

VGrid = tuple[tuple[QVector, ...], ...]


@dataclass(frozen=True)
class Cocycle:
    """eta by its letter values V and W, unchecked; `cocycle_general` checks."""

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
        """eta(letter h)_k at h * n + k over `letters(d)` (V, then W, row by
        row), one column of letter values (`words.columns`): what
        `words.letter_slots` packs for `words.word_set_values`."""
        return columns([[z for grid in (self.V, self.W) for row in grid for v in row for z in v]])

    @cached_property
    def letter_rows(self) -> tuple[list, list, int]:
        """`numerators` as (re, im, den), eta(letter h)_k at re[k][h] + i im[k][h]
        over `letters(d)` and a 0 last for the empty word: the letters of
        `cohomology._pairing_side`, `b_matrices` and `CocycleSpace.random_element`."""
        (values, den), n = self.numerators, self.n
        re, im = ([[c[0][p] if c else 0 for c in values[k::n]] + [0] for k in range(n)] for p in (1, 2))
        return re, im, den


def gaussian_numerators(values: Sequence[Qi]) -> tuple[list, list, int]:
    """(re, im, den) of `Qi` values over the lcm of their denominators."""
    den = lcm(*(z.den for z in values))
    return [z.a * (den // z.den) for z in values], [z.b * (den // z.den) for z in values], den


def combination_numerators(coeffs: Sequence[Qi], cols: Sequence, size: int) -> tuple[list, list, int]:
    """sum_i coeffs[i] cols[i] for numerator columns (re, im, den) of `size` entries."""
    den = lcm(*(c.den * f for c, (_, _, f) in zip(coeffs, cols)))
    re, im = [0] * size, [0] * size
    for c, (xr, xi, f) in zip(coeffs, cols):
        a, b = c.a * (den // (c.den * f)), c.b * (den // (c.den * f))
        re = [r + a * x - b * y for r, x, y in zip(re, xr, xi)]
        im = [s + a * y + b * x for s, x, y in zip(im, xr, xi)]
    return re, im, den


def _grids(d: int, n: int, vec: Sequence[Qi]) -> list:
    """(V, W) from the letter values at h * n + k over `letters(d)`."""
    values = [QVector(vec[i : i + n]) for i in range(0, 2 * d * d * n, n)]
    return [tuple(tuple(values[s + j * d :][:d]) for j in range(d)) for s in (0, d * d)]


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
    # item (k d + q) d + j is u*[j,q], letter (d + j) d + q, applied to V[j][k]
    items = [(k, q, j) for k in range(d) for q in range(d) for j in range(d)]
    vr, vi, den = gaussian_numerators([z for k, _, j in items for z in grid[j][k]])
    x = [vr[l::n] for l in range(n)], [vi[l::n] for l in range(n)]
    yr, yi = layer_step(rep.action, [(d + j) * d + q for _, q, j in items], *x, (), None, None, 1)
    den *= rep.action.den
    # W[k][q] = minus the sum of the d items from (k d + q) d on
    W = [
        QVector(_qi(-sum(r[i : i + d]), -sum(m[i : i + d]), den) for r, m in zip(yr, yi))
        for i in range(0, d**3, d)
    ]
    return cocycle_general(rep, grid, [W[k * d : (k + 1) * d] for k in range(d)])


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


def b_matrices(eta: Cocycle) -> BMatrices:
    """Row j of b (of b_tilde) pairs the d n `Cocycle.letter_rows` entries
    of u[j,p] (of u*[j,p]), p and the coordinate running, with those of each row k."""
    d, (re, im, den) = eta.d, eta.letter_rows
    rows = [[[x for r in part for x in r[i : i + d]] for part in (re, im)] for i in range(0, 2 * d * d, d)]
    # the coordinate lists of the rows of a block, row k in column k
    b, bt = (
        QMatrix([[_qi(*_paired(xr, xi, *ys, k), den * den) for k in range(d)] for xr, xi in block], cols=d)
        for block, ys in ((g, [list(zip(*part)) for part in zip(*g)]) for g in (rows[:d], rows[d:]))
    )
    if not (b.is_hermitian() and bt.is_hermitian()):
        raise ArithmeticError("b matrices must be Hermitian")
    return BMatrices(b, bt)


def direct_sum_cocycle(e1: Cocycle, e2: Cocycle) -> Cocycle:
    """eta_1 + eta_2, unchecked: its relation values are eta_1(r) + eta_2(r)."""
    if e1.presentation != e2.presentation:
        raise ValueError("direct sum requires the same presentation")
    V, W = (
        tuple(tuple(map(QVector.direct_sum, *rows)) for rows in zip(g1, g2))
        for g1, g2 in ((e1.V, e2.V), (e1.W, e2.W))
    )
    return Cocycle(direct_sum_rep(e1.rep, e2.rep), V, W)


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
):
    """Check <eta(a), eta(b)> = <eta(S(b)*), eta(S(a*))> on the letters and
    on 12 seeded words of 1 to max_word_len letters (or on sample_words).

    Requires a Kac presentation (the antipode must exist).  Returns
    (True, None) or (False, (a, b, lhs, rhs)) with the first failing pair.
    At max_word_len 0 only the letters are checked.  A max_word_len above
    `algebra.MAX_SAMPLED_WORD_LEN` is refused with InputError.
    """
    require_word_len(max_word_len, "sampled words")
    pool: list[Element] = list(letter_elements(eta.d))
    if sample_words is not None:
        pool.extend(sample_words)
    elif max_word_len > 0:
        rng = random.Random(seed)
        alpha = letters(eta.d)
        for _ in range(12):
            n = rng.randint(1, max_word_len)
            w = tuple(rng.choice(alpha) for _ in range(n))
            pool.append(Element.from_word(eta.d, w))
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
        """Random Q(i)-combination of the basis, one `random_coefficient` per
        basis vector in order; unchecked, as eta(r) is linear in (V, W)."""
        d, n = self.rep.d, self.rep.n
        coeffs = [random_coefficient(rng) for _ in self.basis]
        rows = [b.letter_rows for b in self.basis]
        # each basis vector's letter rows read at h * n + k, the empty word's n zeros last
        cols = [(list(chain(*zip(*re))), list(chain(*zip(*im))), f) for re, im, f in rows]
        re, im, den = combination_numerators(coeffs, cols, (2 * d * d + 1) * n)
        return Cocycle(self.rep, *_grids(d, n, list(map(_qi, re, im, repeat(den)))))


def _relation_sums(rep: Representation, eta, width: int, what: str) -> GaussianMatrix:
    """eta on the relations for `width` columns of letter values; over budget, InputError."""
    ws = rep.presentation.relation_words
    ws.require(rep.n * width, what)
    return word_set_values(ws, rep.action, rep.n, eta, width)


def _coefficient_rows(sums: GaussianMatrix, n: int, width: int) -> GaussianMatrix:
    """The rows of the relations with a nonzero cell, coordinate k of a
    relation being its cells v n + k; real sums give one row of zeros as im."""
    nonzero = sums.nonzero_columns()

    def rows(part: list) -> list:
        cells = list(zip(*part))
        return [list(cells[e][k::n]) for e in nonzero for k in range(n)]

    re = rows(sums.re)
    im = rows(sums.im) if any(map(any, sums.im)) else [[0] * width] * len(re)
    return GaussianMatrix(re, im, sums.den, width)


def _block_kernel(ws, rho: Action, d: int, m: int) -> list:
    """The kernel of the cocycle equations of rho on m coordinates: a unit
    column per unknown through the evaluator, then its coefficient rows."""
    width = 2 * d * d * m
    units = [[(v, 1, 0)] for v in range(width)], 1
    return kernel_basis(_coefficient_rows(word_set_values(ws, rho, m, units, width), m, width))


def _action_key(rho: Action) -> tuple:
    """rho's den and numerators, hashable: equal keys, equal cocycle equations."""
    return rho.den, tuple(tuple((l, tuple(cr), ci and tuple(ci)) for l, cr, ci in row) for row in rho.by_head)


def _merged_kernel(rep: Representation, blocks: list) -> list:
    """The kernel of the whole coefficient matrix from its diagonal blocks:
    each distinct restricted action's kernel, once, placed at h n + block[k]
    for its local unknown h m + k, all sorted by their free column, the last
    nonzero entry of an RREF kernel vector."""
    d, n = rep.d, rep.n
    width, ws, solved, found = 2 * d * d * n, rep.presentation.relation_words, {}, []
    for block in blocks:
        rho = restrict(rep.action, block)
        key = _action_key(rho)
        if key not in solved:
            solved[key] = _block_kernel(ws, rho, d, len(block))
        at = [h * n + k for h in range(2 * d * d) for k in block]
        for vec in solved[key]:
            v = [ZERO] * width
            for i, z in zip(at, vec):
                v[i] = z
            found.append((at[max(i for i, z in enumerate(vec) if z)], v))
    return [v for _, v in sorted(found, key=itemgetter(0))]


def solve_cocycles(rep: Representation) -> CocycleSpace:
    """All cocycles for rho, by exact kernel computation in the letter values.

    For fixed rho the map (V, W) -> (eta(r))_r is linear.  The word-set
    evaluator on the unit letter values (column h n + k has eta(letter h) =
    e_k) gives its coefficients: cell v n + k of relation r is that of
    unknown v in coordinate k of eta(r).  The space is the kernel of the rows
    of the relations with a nonzero cell.  The cocycle identity splits over
    the diagonal blocks of rho, Z^1(rho_1 + rho_2) = Z^1(rho_1) + Z^1(rho_2)
    (so Z^1(eps I_n) = Z^1(eps)^n): on the finest blocks
    (`words.coordinate_blocks`) the matrix is block diagonal up to a column
    permutation, and its RREF kernel basis is the union of the blocks'
    taken in free-column order.  So the equations are built and eliminated
    once per distinct restricted action (`words.restrict`).  The budget is
    checked on the whole matrix, n coordinates of 2 d^2 n columns, before
    any row is built.  A second pass with the kernel vectors as columns, on
    the whole of rho, checks every basis vector on every relation, and the
    first one that fails raises what `cocycle_general` raises for it.
    """
    d, n = rep.d, rep.n
    rep.presentation.relation_words.require(n * 2 * d * d * n, "the cocycle coefficient matrix")
    kernel = _merged_kernel(rep, coordinate_blocks(rep.action))
    if kernel:
        sums = _relation_sums(rep, columns(kernel), len(kernel), "the cocycle basis check")
        # row v n + k holds coordinate k of basis vector v on every relation
        failing = [c // n for c, (re, im) in enumerate(zip(sums.re, sums.im)) if any(re) or any(im)]
        if failing:
            cocycle_general(rep, *_grids(d, n, kernel[failing[0]]))
            raise ArithmeticError("a basis vector fails the check but passes cocycle_general")
    basis = tuple(Cocycle(rep, *_grids(d, n, vec)) for vec in kernel)
    return CocycleSpace(rep, basis)
