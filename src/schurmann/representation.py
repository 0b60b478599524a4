"""Finite dimensional *-representations of the presented algebras.

A representation is a d x d grid R of n x n matrices over Q(i), with
rho(u[j,k]) = R[j][k] and rho(u*[j,k]) = adjoint(R[j][k]), extended
multiplicatively to words and linearly to elements.  Construction is eager:
every relation of the presentation must evaluate to the zero matrix.

Elements are evaluated on the suffix closure of their words (the relations
on `Presentation.relation_words`, compiled once per presentation), by
rho(h w) = rho(h) rho(w) on Gaussian-integer numerators
(`words.word_set_values`); a relation is violated iff its sum is nonzero on
the integers, and only then is its value built as a `QMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .algebra import Element, Presentation, WordSet, counit, letters, word_set
from .errors import RelationViolation
from .linalg import GaussianMatrix, QMatrix, QVector, kernel_basis
from .scalars import ONE, ZERO, Qi
from .words import Action, action, word_set_values

Grid = tuple[tuple[QMatrix, ...], ...]


@dataclass(frozen=True)
class Representation:
    presentation: Presentation
    n: int
    R: Grid
    R_star: Grid = field(repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.presentation.d

    def image(self, row: int, col: int, star: bool = False) -> QMatrix:
        """rho of the letter u[row,col] (or u*[row,col]); 1-indexed."""
        grid = self.R_star if star else self.R
        return grid[row - 1][col - 1]

    @cached_property
    def action(self) -> Action:
        """rho of `letters(d)` as numerator rows over one denominator."""
        return action([self.image(*l) for l in letters(self.d)])

    @cached_property
    def dual(self) -> "Representation":
        """sigma(l) = adjoint(rho(l*)), unvalidated: the grid of adjoint
        R_star, its starred grid adjoint R.  The representation itself when
        the grids agree, as they do whenever R_star is adjoint R."""
        grid = tuple(tuple(m.adjoint() for m in row) for row in self.R_star)
        if grid == self.R:
            return self
        star = tuple(tuple(m.adjoint() for m in row) for row in self.R)
        return Representation(self.presentation, self.n, grid, star)


def _as_grid(presentation: Presentation, blocks: Sequence[Sequence[QMatrix]], n: int) -> Grid:
    d = presentation.d
    if len(blocks) != d or any(len(row) != d for row in blocks):
        raise ValueError(f"R must be a {d} x {d} grid")
    for row in blocks:
        for m in row:
            if m.shape != (n, n):
                raise ValueError(f"each block must be {n} x {n}, got {m.shape}")
    return tuple(tuple(row) for row in blocks)


def _matrix(cells: list, n: int) -> QMatrix:
    return QMatrix([[cells[c * n + k] for c in range(n)] for k in range(n)], cols=n)


def _values(rep: Representation, ws: WordSet) -> GaussianMatrix:
    return word_set_values(ws, rep.action, rep.n)


def rep_values(rep: Representation, elements: Sequence[Element]) -> list[QMatrix]:
    """rho(a) for every element, on one compiled word set."""
    for a in elements:
        if a.d != rep.d:
            raise ValueError(f"ambient size mismatch: element {a.d}, representation {rep.d}")
    ws = word_set(rep.d, elements)
    ws.require(rep.n * rep.n, f"the values of a representation of dimension {rep.n}")
    sums = _values(rep, ws)
    return [_matrix(sums.column(e), rep.n) for e in range(len(elements))]


def evaluate_rep(rep: Representation, a: Element) -> QMatrix:
    """rho(a) as an n x n matrix; words multiply left to right."""
    return rep_values(rep, [a])[0]


def _require_budget(presentation: Presentation, n: int) -> None:
    what = f"the relation values of a representation of dimension {n}"
    presentation.relation_words.require(n * n, what)


def representation(
    presentation: Presentation, blocks: Sequence[Sequence[QMatrix]], n: int | None = None
) -> Representation:
    """Validated representation; raises RelationViolation listing failures,
    and InputError before any evaluation if n is above the entry budget."""
    if n is None:
        n = blocks[0][0].rows if blocks and blocks[0] else 0
    _require_budget(presentation, n)
    grid = _as_grid(presentation, blocks, n)
    star = tuple(tuple(m.adjoint() for m in row) for row in grid)
    rep = Representation(presentation, n, grid, star)
    sums = _values(rep, presentation.relation_words)
    violations = [
        (presentation.relations[e][0], _matrix(sums.column(e), n))
        for e in sums.nonzero_columns()
    ]
    if violations:
        raise RelationViolation("representation", violations)
    return rep


def counit_rep(presentation: Presentation, n: int = 1) -> Representation:
    """The Gaussian representation rho = counit * id on a carrier of dimension n.

    Validated once per (presentation, n) and kept on the presentation; the
    entry budget is checked on every call."""
    _require_budget(presentation, n)
    rep = presentation.counit_reps.get(n)
    if rep is None:
        d = presentation.d
        eye = QMatrix.identity(n)
        zero = QMatrix.zero(n, n)
        rep = representation(
            presentation,
            [[eye if j == k else zero for k in range(d)] for j in range(d)],
            n,
        )
        presentation.counit_reps[n] = rep
    return rep


def sign_rep(presentation: Presentation, n: int = 1) -> Representation:
    """rho(u[j,k]) = -delta_jk id; valid on every kind but su_q at odd d."""
    d = presentation.d
    eye = QMatrix.identity(n).scale(Qi(-1))
    zero = QMatrix.zero(n, n)
    return representation(
        presentation,
        [[eye if j == k else zero for k in range(d)] for j in range(d)],
        n,
    )


def direct_sum_rep(r1: Representation, r2: Representation) -> Representation:
    if r1.presentation != r2.presentation:
        raise ValueError("direct sum requires the same presentation")
    d = r1.d
    blocks = [
        [QMatrix.block_diag(r1.R[j][k], r2.R[j][k]) for k in range(d)]
        for j in range(d)
    ]
    return representation(r1.presentation, blocks, r1.n + r2.n)


@dataclass(frozen=True)
class GeneratorSubstitution:
    """A unital *-morphism candidate source -> target, given on generators.

    images[j][k] is the target element replacing u[j,k]; starred letters map
    to the starred image.  Counit compatibility counit(images[j][k]) = delta_jk
    is enforced at construction; relation compatibility is checked only on
    the pulled back objects.
    """

    source: Presentation
    target: Presentation
    images: tuple[tuple[Element, ...], ...]

    def __post_init__(self):
        d = self.source.d
        if len(self.images) != d or any(len(row) != d for row in self.images):
            raise ValueError(f"images must be a {d} x {d} grid")
        for j in range(d):
            for k in range(d):
                img = self.images[j][k]
                if img.d != self.target.d:
                    raise ValueError("image elements must live over the target size")
                expected = ONE if j == k else ZERO
                if counit(img) != expected:
                    raise ValueError(
                        f"counit(images[{j + 1}][{k + 1}]) must be {expected!r}"
                    )


def pullback_rep(rep: Representation, sub: GeneratorSubstitution) -> Representation:
    """The representation rho∘pi on the source presentation; validated eagerly."""
    if rep.presentation != sub.target:
        raise ValueError("representation does not live over the substitution target")
    d = sub.source.d
    flat = rep_values(rep, [img for row in sub.images for img in row])
    blocks = [flat[j * d : (j + 1) * d] for j in range(d)]
    return representation(sub.source, blocks, rep.n)


def gaussian_subspace(rep: Representation) -> list[QVector]:
    """Exact basis of {v : rho(a) v = counit(a) v for all a}.

    Equals the joint kernel of R[j][k] - delta_jk and adjoint(R[j][k]) - delta_jk
    over all letters.
    """
    n = rep.n
    eye = QMatrix.identity(n)
    rows: list = []
    for j in range(rep.d):
        for k in range(rep.d):
            delta = eye if j == k else QMatrix.zero(n, n)
            for m in (rep.R[j][k] - delta, rep.R_star[j][k] - delta):
                rows.extend(m.data)
    if not rows:
        return kernel_basis(QMatrix.identity(n) - QMatrix.identity(n))
    return kernel_basis(QMatrix(rows, cols=n))
