"""Finite dimensional *-representations of the presented algebras.

A representation is a d x d grid R of n x n matrices over Q(i), with
rho(u[j,k]) = R[j][k] and rho(u*[j,k]) = adjoint(R[j][k]), extended
multiplicatively to words and linearly to elements.  The *-structure is
part of the type: R is all a representation holds, so rho(w*) =
adjoint(rho(w)) on every word.  The evaluator's letter images (`action`)
take the starred ones as conjugate transposes of R's numerators.
`representation()` checks that every relation evaluates to the zero matrix;
a direct sum of checked summands is not checked again, as (rho_1 +
rho_2)(r) = rho_1(r) + rho_2(r).

Elements are evaluated on the suffix closure of their words (the relations
on `Presentation.relation_words`, compiled once per presentation), by
rho(h w) = rho(h) rho(w) on Gaussian-integer numerators
(`words.word_set_values`); a relation is violated iff its sum is nonzero on
the integers, and only then is its value built as a `QMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import Element, Presentation, counit, letter_elements, letters, word_set
from .errors import RelationViolation
from .linalg import QMatrix, QVector, kernel_basis
from .scalars import ONE, ZERO, Qi
from .words import Action, action, word_set_values

Grid = tuple[tuple[QMatrix, ...], ...]


@dataclass(frozen=True)
class Representation:
    """rho by its letter images R, unchecked; `representation()` checks."""

    presentation: Presentation
    n: int
    R: Grid

    @property
    def d(self) -> int:
        return self.presentation.d

    @cached_property
    def action(self) -> Action:
        """rho of `letters(d)` as numerator rows over one denominator, the
        starred images conjugate transposed on the numerators of R."""
        return action([m for row in self.R for m in row])


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


def rep_values(rep: Representation, elements: Sequence[Element]) -> list[QMatrix]:
    """rho(a) for every element, on one compiled word set."""
    for a in elements:
        if a.d != rep.d:
            raise ValueError(f"ambient size mismatch: element {a.d}, representation {rep.d}")
    ws = word_set(rep.d, elements)
    ws.require(rep.n * rep.n, f"the values of a representation of dimension {rep.n}")
    sums = word_set_values(ws, rep.action, rep.n)
    return [_matrix(sums.column(e), rep.n) for e in range(len(elements))]


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
    rep = Representation(presentation, n, _as_grid(presentation, blocks, n))
    sums = word_set_values(presentation.relation_words, rep.action, n)
    violations = [
        (presentation.relations[e][0], _matrix(sums.column(e), n))
        for e in sums.nonzero_columns()
    ]
    if violations:
        raise RelationViolation("representation", violations)
    return rep


def _diagonal_grid(d: int, block: QMatrix) -> list[list[QMatrix]]:
    """The d x d grid with block on the diagonal and zero blocks off it."""
    zero = QMatrix.zero(block.rows, block.cols)
    return [[block if j == k else zero for k in range(d)] for j in range(d)]


def counit_rep(presentation: Presentation, n: int = 1) -> Representation:
    """The Gaussian representation rho = counit * id on a carrier of dimension n.

    Validated once per (presentation, n) and kept on the presentation; the
    entry budget is checked on every call."""
    _require_budget(presentation, n)
    rep = presentation.counit_reps.get(n)
    if rep is None:
        rep = representation(presentation, _diagonal_grid(presentation.d, QMatrix.identity(n)), n)
        presentation.counit_reps[n] = rep
    return rep


def sign_rep(presentation: Presentation, n: int = 1) -> Representation:
    """rho(u[j,k]) = -delta_jk id; valid on every kind but su_q at odd d."""
    return representation(presentation, _diagonal_grid(presentation.d, QMatrix.identity(n).scale(Qi(-1))), n)


def direct_sum_rep(r1: Representation, r2: Representation) -> Representation:
    """rho_1 + rho_2, unchecked: its relation values are rho_1(r) + rho_2(r)."""
    if r1.presentation != r2.presentation:
        raise ValueError("direct sum requires the same presentation")
    R = tuple(tuple(map(QMatrix.block_diag, *rows)) for rows in zip(r1.R, r2.R))
    return Representation(r1.presentation, r1.n + r2.n, R)


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

    Equals the joint kernel of rho(l) - counit(l) over all letters l, in
    `letters(d)` order, each rho(l) read through `rep_values` on the
    one-letter element l from `algebra.letter_elements`.
    """
    alpha = letters(rep.d)
    images = rep_values(rep, letter_elements(rep.d))
    eye = QMatrix.identity(rep.n)
    rows = [row for l, m in zip(alpha, images) for row in (m - eye if l.row == l.col else m).data]
    return kernel_basis(QMatrix(rows, cols=rep.n))
