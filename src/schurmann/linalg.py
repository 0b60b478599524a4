"""Exact linear algebra over Q(i): vectors, matrices, kernels, projections, PSD.

The inner product is conjugate-linear in the FIRST argument,
    <x, y> = sum_i conj(x_i) * y_i,
and every routine below is exact.  Kernels, ranks, solves and the PSD
check run one Gauss-Jordan on Gaussian-integer numerator rows (`_rref`,
`_row_step`), each distinct row up to sign and content once; a `Qi` is
built only for a nonzero reduced-form entry that is read back; `_rref`
never computes a zero imaginary part, so a real matrix costs one part.  A
`GaussianMatrix` is the grid of such numerators over one denominator: the
word evaluator's vector layers and word-set values and the coefficient
matrices are of this type, and `kernel_basis` takes its rows as they are
(`_grid`).  A `Gram` is the matrix z* h of two such grids with n rows and
N columns, kept as its factors (`functional.pool_gram_matrix`): `psd_check`
takes this type only and decides on the s x s core G[Q, Q], Q the s <= 2 n
pivot columns of the stacked factors, since G = R* G[Q, Q] R for their
reduced row echelon form R.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Qi, _qi


class QVector:
    """Immutable vector over Q(i); length n >= 0."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Qi]):
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Qi:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "QVector") -> "QVector":
        _same_length(self, other)
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        _same_length(self, other)
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def scale(self, c: Qi) -> "QVector":
        return QVector(c * a for a in self.entries)

    def direct_sum(self, other: "QVector") -> "QVector":
        return QVector(self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(map(repr, self.entries)) + ")"

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector([ZERO] * n)


def _same_length(x: QVector, y: QVector) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")


def inner_product(x: QVector, y: QVector) -> Qi:
    """<x, y> = sum conj(x_i) y_i, conjugate-linear in the first argument."""
    _same_length(x, y)
    return sum(map(mul, map(Qi.conj, x.entries), y.entries), ZERO)


class QMatrix:
    """Immutable matrix over Q(i); rows, cols >= 0 (possibly zero-dimensional)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Qi]], cols: int | None = None):
        rows = tuple(tuple(row) for row in data)
        ncols = len(rows[0]) if rows else (cols if cols is not None else 0)
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    def __getitem__(self, i: int):
        return self.data[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._same_shape(other)
        return QMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            cols=self.cols,
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-a for a in row] for row in self.data], cols=self.cols)

    def scale(self, c: Qi) -> "QMatrix":
        return QMatrix([[c * a for a in row] for row in self.data], cols=self.cols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    acc = acc + self.data[i][k] * other.data[k][j]
                row.append(acc)
            out.append(row)
        return QMatrix(out, cols=other.cols)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def conj(self) -> "QMatrix":
        return QMatrix([[a.conj() for a in row] for row in self.data], cols=self.cols)

    def adjoint(self) -> "QMatrix":
        return self.transpose().conj()

    def trace(self) -> Qi:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.data[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.data for a in row)

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        # entries are in lowest terms, so x = conj(y) iff their numerators agree
        data = self.data
        return all(
            x.a == y.a and x.b == -y.b and x.den == y.den
            for i, row in enumerate(data)
            for x, y in zip(row[i:], (r[i] for r in data[i:]))
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self) -> str:
        return "[" + "; ".join(", ".join(map(repr, row)) for row in self.data) + "]"

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)], cols=n
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix([[ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def block_diag(a: "QMatrix", b: "QMatrix") -> "QMatrix":
        out = []
        for i in range(a.rows):
            out.append(list(a.data[i]) + [ZERO] * b.cols)
        for i in range(b.rows):
            out.append([ZERO] * a.cols + list(b.data[i]))
        return QMatrix(out, cols=a.cols + b.cols)

    def _same_shape(self, other: "QMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def _numerators(rows: Sequence[Sequence[Qi]]) -> tuple[list[list[int]], list[list[int]]]:
    """Gaussian-integer numerators (re, im) of Qi rows over their lcm denominator."""
    den = lcm(*(z.den for row in rows for z in row))
    re = [[z.a * (den // z.den) for z in row] for row in rows]
    im = [[z.b * (den // z.den) for z in row] for row in rows]
    return re, im


def _row_step(p: int, f: tuple[int, int], x: tuple, y: tuple) -> tuple[list, list | None]:
    """The step of `_rref` and `psd_check`: the row (p x - f y) / g for
    numerator rows x = (re, im) and y, an integer p > 0, a Gaussian integer
    f = (re, im) and g > 0 the integer gcd of the parts of p x - f y.  The
    pivot p is real, so no Gaussian factor (such as 2 + i) that the integer
    gcd cannot remove piles up in a row.  An im of None is a zero imaginary
    part: for x, y and f real only the real part is computed (im None)."""
    (fr, fi), (xr, xi), (yr, yi) = f, x, y
    if xi is None and yi is None and not fi:
        re = [p * a - fr * c for a, c in zip(xr, yr)]
        g = gcd(*re)
        return ([a // g for a in re] if g > 1 else re), None
    xi = repeat(0) if xi is None else xi
    yi = repeat(0) if yi is None else yi
    re = [p * a - fr * c + fi * d for a, c, d in zip(xr, yr, yi)]
    im = [p * b - fr * d - fi * c for b, c, d in zip(xi, yr, yi)]
    g = gcd(*re, *im)
    if g > 1:
        re = [a // g for a in re]
        im = [b // g for b in im]
    return re, im


def _primitive_rows(re: Sequence[list], im: Sequence[list]) -> list[tuple]:
    """The distinct nonzero rows (re[r], im[r]) up to sign and content, in
    order of first occurrence: each divided by the integer gcd of its parts,
    negated if the first nonzero entry of (*re, *im) is negative, zero rows
    dropped.  A row with a zero imaginary part comes back as (re, None),
    keyed by re alone, which no (twice as long) complex key can equal.  A
    raw row met before is skipped before its gcd and sign are taken."""
    seen: dict[tuple, tuple] = {}
    raw: set[tuple] = set()
    for x, y in zip(re, im):
        real = not any(y)
        flat = tuple(x) if real else (*x, *y)
        if flat in raw:
            continue
        raw.add(flat)
        g = gcd(*flat)
        if not g:
            continue
        if next(filter(None, flat)) < 0:
            g = -g
        if g != 1:
            flat = tuple(map(g.__rfloordiv__, flat))  # v // g for each v
        if flat not in seen:
            seen[flat] = (list(flat), None) if real else (list(flat[: len(x)]), list(flat[len(x) :]))
    return list(seen.values())


def _rref(re: Sequence[list], im: Sequence[list], ncols: int) -> tuple[list[tuple], list[int]]:
    """Gauss-Jordan by `_row_step` on the numerator rows (re[r], im[r]), a
    row x taking p = |y[c]|^2 and f = x[c] conj(y[c]) from the pivot row y;
    returns (numerator rows, pivot column indices), row r a nonzero multiple
    of row r of the reduced row echelon form.  Scaling an input row by a
    nonzero integer changes neither the kernel nor any reduced entry, so the
    rows are first deduplicated up to sign and content and zero rows are
    dropped (`_primitive_rows`): fewer rows than were given may come back,
    each pivot row first, then the rows eliminated to zero.  A zero
    imaginary part is never computed: a row read as real stays real through
    steps with real pivot rows, and comes back with an im of zeros."""
    out = _primitive_rows(re, im)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(out)) if out[k][0][c] or out[k][1] and out[k][1][c]), None)
        if k is None:
            continue
        out[r], out[k] = out[k], out[r]
        y = out[r]
        pr, pi = y[0][c], y[1][c] if y[1] else 0
        for i, x in enumerate(out):
            fr, fi = x[0][c], x[1][c] if x[1] else 0
            if i != r and (fr or fi):
                f = fr * pr + fi * pi, fi * pr - fr * pi
                out[i] = _row_step(pr * pr + pi * pi, f, x, y)
        pivots.append(c)
        if r + 1 == len(out):
            break
    return [(x, [0] * len(x) if y is None else y) for x, y in out], pivots


def _entry(row: tuple, col: int, pivot: int) -> Qi:
    """The reduced row echelon entry at col of a numerator row: row[col] / row[pivot]."""
    a, b, pr, pi = row[0][col], row[1][col], row[0][pivot], row[1][pivot]
    return _qi(a * pr + b * pi, b * pr - a * pi, pr * pr + pi * pi)


def _grid(m: "QMatrix | GaussianMatrix") -> tuple[list, list]:
    """The numerator rows (re, im) of a `GaussianMatrix` as they are, or of a
    `QMatrix` over the lcm of its denominators."""
    return (m.re, m.im) if isinstance(m, GaussianMatrix) else _numerators(m.data)


def kernel_basis(m: "QMatrix | GaussianMatrix") -> list[QVector]:
    """Exact basis of {v : m v = 0}; empty list iff the kernel is {0}."""
    rows, pivots = _rref(*_grid(m), m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, c in zip(rows, pivots):
            if row[0][f] or row[1][f]:
                v[c] = -_entry(row, f, c)
        basis.append(QVector(v))
    return basis


def rank(m: QMatrix) -> int:
    return len(_rref(*_numerators(m.data), m.cols)[1])


def solve(m: QMatrix, b: QVector) -> QVector | None:
    """One exact solution of m x = b, or None if the system is inconsistent."""
    if m.rows != len(b):
        raise ValueError("incompatible right-hand side")
    rows, pivots = _rref(*_numerators([r + (z,) for r, z in zip(m.data, b.entries)]), m.cols)
    if any(re[-1] or im[-1] for re, im in rows[len(pivots) :]):
        return None
    x = [ZERO] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = _entry(row, m.cols, c)
    return QVector(x)


class GaussianMatrix:
    """Matrix with entries (re[i][j] + i im[i][j]) / den: rows of Python
    ints over one positive denominator, `cols` columns (square unless
    given, also with no rows).  Rows index to `Qi`, and `column` reads a
    column as `Qi`.  A vector layer is one row per coordinate and one column
    per word; word-set values are one column per element.  Rows are read,
    never written in place, so one row of zeros may stand for several."""

    __slots__ = ("re", "im", "den", "cols")

    def __init__(self, re: list, im: list, den: int, cols: int | None = None):
        cols = len(re) if cols is None else cols
        if len(im) != len(re) or any(len(row) != cols for row in chain(re, im)):
            raise ValueError("GaussianMatrix needs two numerator grids of one shape")
        if den <= 0:
            raise ValueError("GaussianMatrix needs a positive denominator")
        self.re, self.im, self.den, self.cols = re, im, den, cols

    @classmethod
    def unchecked(cls, re: list, im: list, den: int, cols: int) -> "GaussianMatrix":
        """The grid without the shape and denominator checks, for a builder
        whose rows have `cols` entries and whose den is positive by
        construction."""
        m = cls.__new__(cls)
        m.re, m.im, m.den, m.cols = re, im, den, cols
        return m

    @property
    def rows(self) -> int:
        return len(self.re)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, i: int) -> list:
        return list(map(_qi, self.re[i], self.im[i], repeat(self.den)))

    def column(self, j: int) -> list:
        den = self.den
        return [_qi(r[j], m[j], den) if r[j] or m[j] else ZERO for r, m in zip(self.re, self.im)]

    def nonzero_columns(self) -> list:
        """Indices of the columns with a nonzero entry, in order."""
        rows = chain(self.re, self.im) if any(map(any, self.im)) else self.re
        return [j for j, cells in enumerate(zip(*rows)) if any(cells)]


def _paired(xr, xi, yr, yi, j: int) -> tuple[int, int]:
    """conj(x) . y on numerators: x = (xr, xi) one int per coordinate, y
    column j of the coordinate lists (yr, yi)."""
    # conj(x_k) y_k = (xr yr + xi yi) + i (xr yi - xi yr)
    re = sum(a * r[j] + b * m[j] for a, b, r, m in zip(xr, xi, yr, yi))
    im = sum(a * m[j] - b * r[j] for a, b, r, m in zip(xr, xi, yr, yi))
    return re, im


class Gram:
    """The N x N matrix G_ij = <z_i, h_j> held as its two n x N
    `GaussianMatrix` factors z and h, n >= 0: z_i and h_i are column i of
    each (z is h for G = H* H).  Rows index to `Qi`, computed from the
    factors; `core` is what `psd_check` decides on."""

    def __init__(self, z: GaussianMatrix, h: GaussianMatrix):
        if z.shape != h.shape:
            raise ValueError("Gram needs two factors of one shape")
        self.z, self.h = z, h

    @property
    def rows(self) -> int:
        return self.h.cols

    cols = rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, i: int) -> list:
        z, h = self.z, self.h
        xr, xi, den = [r[i] for r in z.re], [m[i] for m in z.im], z.den * h.den
        return [_qi(*_paired(xr, xi, h.re, h.im, j), den) for j in range(self.cols)]

    @cached_property
    def core(self) -> tuple[list, list, list]:
        """(Q, re, im): the pivot columns Q of the stacked numerator rows
        [z; h] (`_rref`), s <= 2 n of them, and the numerators over z.den
        h.den of the s x s matrix M = G[Q, Q] = z_Q* h_Q, row by row."""
        z, h = self.z, self.h
        _, pivots = _rref(z.re + h.re, z.im + h.im, self.cols)
        re, im = [], []
        for p in pivots:
            xr, xi = [r[p] for r in z.re], [m[p] for m in z.im]
            row = [_paired(xr, xi, h.re, h.im, q) for q in pivots]
            re.append([a for a, _ in row])
            im.append([b for _, b in row])
        return pivots, re, im


def psd_check(g: Gram) -> bool:
    """Exact positive semidefiniteness of a Hermitian `Gram` (TypeError for
    any other type, ValueError if it is not Hermitian), decided on its s x s
    core M = G[Q, Q] (`Gram.core`).

    Every row of z and of h is its entries at Q times R, the reduced row
    echelon form of the stacked rows [z; h]: z = z_Q R, h = h_Q R, so
    G = z* h = R* M R.  R has full row rank and R_Q is the identity, so
    v -> R v is onto: G is Hermitian iff M is, and PSD iff M is.

    M is decided by Hermitian elimination on `_row_step`: the first positive
    diagonal entry p of the remaining rows is the pivot, and every other
    remaining row x becomes (p x - x[c] y) / g for the pivot row y, its
    column c and g the gcd of the row.  p and g are positive, so each row is
    a positive multiple of its row of the Schur complement S: the remaining
    block is D S for a positive diagonal D, its diagonal has the signs of
    S's and it vanishes iff S does.  A negative diagonal entry means not
    PSD.  Once no diagonal entry is positive the block must vanish, else a
    2 x 2 principal minor is negative.  The eliminated columns are zero in
    the remaining rows, so the rows keep their length and positions.
    """
    if not isinstance(g, Gram):
        raise TypeError(f"psd_check takes a Gram, not a {type(g).__name__}")
    _, re, im = g.core
    s = len(re)
    if any(re[i][j] != re[j][i] or im[i][j] != -im[j][i] for i in range(s) for j in range(i, s)):
        raise ValueError("psd_check requires a Hermitian matrix")
    # (the row's diagonal position, re, im)
    rows = list(zip(range(s), re, im))
    while rows:
        diagonal = [x[c] for c, x, _ in rows]
        if min(diagonal) < 0:
            return False
        i = next((i for i, p in enumerate(diagonal) if p > 0), None)
        if i is None:
            return not any(any(x) or any(y) for _, x, y in rows)
        c, *y = rows.pop(i)
        rows = [(j, *_row_step(diagonal[i], (x[c], xi[c]), (x, xi), y)) for j, x, xi in rows]
    return True


def gram_matrix(vectors: Sequence[QVector]) -> QMatrix:
    return QMatrix(
        [[inner_product(v, w) for w in vectors] for v in vectors],
        cols=len(vectors),
    )


def project_onto_span(vectors: Sequence[QVector], x: QVector) -> QVector:
    """Orthogonal projection of x onto span(vectors), exactly in Q(i).

    Solves the Gram system G c = (<v_j, x>)_j; the system is always
    consistent, any solution gives the same projection sum c_j v_j.
    """
    if not vectors:
        return QVector.zero(len(x))
    g = gram_matrix(vectors)
    b = QVector([inner_product(v, x) for v in vectors])
    c = solve(g, b)
    if c is None:  # impossible for a Gram system; guard anyway
        raise ArithmeticError("inconsistent Gram system")
    out = QVector.zero(len(x))
    for cj, v in zip(c, vectors):
        out = out + v.scale(cj)
    return out
