"""Exact linear algebra over Q(i): vectors, matrices, kernels, projections, PSD.

The inner product is conjugate-linear in the FIRST argument,
    <x, y> = sum_i conj(x_i) * y_i,
and every routine below is exact.  Kernels, ranks and solves run one
Gauss-Jordan on Gaussian-integer numerator rows (`_rref`, `_row_step`),
each distinct row up to sign and content once; a `Qi` is built only for a
nonzero reduced-form entry that is read back.  A
`GaussianMatrix` is the grid of such numerators over one denominator: the
word evaluator's vector layers and word-set values and the coefficient
matrices are of this type, and `kernel_basis` takes its rows as they are
(`_grid`).  A `PackedMatrix` holds each row packed (`packed.Layer`): the
Gram matrix is built in this form (`functional.pool_gram_matrix`), and
`psd_check` takes this type only and runs its Hermitian test and a
fraction-free (Bareiss) elimination on the packed rows.  The two eliminations share no code: on
the cocycle kernels a packed Bareiss Gauss-Jordan was measured far slower
than the list rows with a gcd per step.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterable, Sequence

from .packed import Layer, _ones, _repacked, _scaled, _unpack, _width, _within
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

    def conj(self) -> "QVector":
        return QVector(a.conj() for a in self.entries)

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


def dot(xs: Sequence[Qi], ys: Sequence[Qi]) -> Qi:
    """sum x_i y_i over two scalar sequences of equal length, no conjugation."""
    return sum(map(mul, xs, ys), ZERO)


def inner_product(x: QVector, y: QVector) -> Qi:
    """<x, y> = sum conj(x_i) y_i, conjugate-linear in the first argument."""
    _same_length(x, y)
    return dot(map(Qi.conj, x.entries), y.entries)


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

    def apply(self, v: QVector) -> QVector:
        if self.cols != len(v):
            raise ValueError(f"shape mismatch: {self.shape} applied to len {len(v)}")
        return QVector(dot(row, v.entries) for row in self.data)

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


def _row_step(p: int, f: tuple[int, int], x: tuple, y: tuple) -> tuple[list, list]:
    """The step of `_rref`: the row (p x - f y) / g for numerator rows x =
    (re, im) and y, an integer p > 0, a Gaussian integer f = (re, im) and
    g > 0 the integer gcd of the parts of p x - f y.  The pivot p is real,
    so no Gaussian factor (such as 2 + i) that the integer gcd cannot remove
    piles up in a row."""
    (fr, fi), (xr, xi), (yr, yi) = f, x, y
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
    dropped."""
    seen: dict[tuple, tuple] = {}
    for x, y in zip(re, im):
        flat = (*x, *y)
        g = gcd(*flat)
        if not g:
            continue
        if next(filter(None, flat)) < 0:
            g = -g
        if g != 1:
            flat = tuple(map(g.__rfloordiv__, flat))  # v // g for each v
        if flat not in seen:
            seen[flat] = (list(flat[: len(x)]), list(flat[len(x) :]))
    return list(seen.values())


def _rref(re: Sequence[list], im: Sequence[list], ncols: int) -> tuple[list[tuple], list[int]]:
    """Gauss-Jordan by `_row_step` on the numerator rows (re[r], im[r]), a
    row x taking p = |y[c]|^2 and f = x[c] conj(y[c]) from the pivot row y;
    returns (numerator rows, pivot column indices), row r a nonzero multiple
    of row r of the reduced row echelon form.  Scaling an input row by a
    nonzero integer changes neither the kernel nor any reduced entry, so the
    rows are first deduplicated up to sign and content and zero rows are
    dropped (`_primitive_rows`): fewer rows than were given may come back,
    each pivot row first, then the rows eliminated to zero."""
    out = _primitive_rows(re, im)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(out)) if out[k][0][c] or out[k][1][c]), None)
        if k is None:
            continue
        out[r], out[k] = out[k], out[r]
        y = out[r]
        pr, pi = y[0][c], y[1][c]
        for i, x in enumerate(out):
            fr, fi = x[0][c], x[1][c]
            if i != r and (fr or fi):
                f = fr * pr + fi * pi, fi * pr - fr * pi
                out[i] = _row_step(pr * pr + pi * pi, f, x, y)
        pivots.append(c)
        if r + 1 == len(out):
            break
    return out, pivots


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
    per word; word-set values are one column per element."""

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
        return [j for j, cells in enumerate(zip(*self.re, *self.im)) if any(cells)]


class PackedMatrix:
    """Matrix with entries (re + i im) / den whose row i is packed
    (`packed.Layer`): re[i] and im[i] are ints of `cols` slots `width`
    bits wide, every numerator at most `bound` in absolute value.  Built
    from row layers brought to one denominator and one slot width; rows
    index to `Qi`."""

    __slots__ = ("re", "im", "den", "cols", "width", "bound")

    def __init__(self, layers: Sequence[Layer], cols: int):
        if any(t.size != cols for t in layers):
            raise ValueError("PackedMatrix needs rows of `cols` entries")
        den = lcm(*(t.den for t in layers))
        bound = max((t.bound * (den // t.den) for t in layers), default=0)
        width = _width(bound)
        layers = [_scaled(t, den // t.den, width) for t in layers]
        self.re, self.im = [t.re for t in layers], [t.im for t in layers]
        self.den, self.cols, self.width, self.bound = den, cols, width, bound

    @property
    def rows(self) -> int:
        return len(self.re)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> Layer:
        return Layer(self.re[i], self.im[i], self.den, self.cols, self.width, self.bound)

    def __getitem__(self, i: int) -> list:
        return self.row(i).qis()


def _require_hermitian(m: PackedMatrix, live: list) -> None:
    """ValueError unless re is symmetric and im antisymmetric; ArithmeticError
    if a decoded slot is above the bound.  live lists the nonzero rows: only
    they are written out or decoded, and a zero row's column must be 0."""
    n = m.rows
    if _width(2 * m.bound) == 64:
        # Hermitian iff (re + im)^T = re - im: re^T - re is antisymmetric and
        # im^T + im symmetric, so their sum is 0 only if both are.  The slots
        # go to bytes biased by 2^63, nonnegative: equal bytes, equal entries.
        # Column j of re + im is the stride j::n of its slots, row after row.
        # A zero row is its bias in both buffers; its column is compared with
        # it too, since one side of a pair checks only re + im against re - im.
        top, size = _ones(n, 64) << 63, 8 * n
        bias = top.to_bytes(size, "little")
        plus, minus = bytearray(bias) * n, [bias] * n
        for i in live:
            x, y = m.re[i] + top, m.im[i]
            plus[i * size : (i + 1) * size] = (x + y).to_bytes(size, "little")
            minus[i] = (x - y).to_bytes(size, "little")
        slots = memoryview(plus).cast("Q")
        hermitian = all(slots[j::n].tobytes() == row for j, row in enumerate(minus))
    else:
        zero = [0] * n
        re, im = [zero] * n, [zero] * n
        for i in live:
            row = m.row(i)
            re[i], im[i] = _unpack(row.re, row), _unpack(row.im, row)
        # every nonzero row against its column, re and im apart
        hermitian = all(
            re[i] == [r[i] for r in re] and not any(map(add, im[i], [r[i] for r in im])) for i in live
        )
    if not hermitian:
        raise ValueError("psd_check requires a Hermitian matrix")


def _slot(x: int, k: int, top: int, width: int, bound: int) -> int:
    """Entry k of a packed row x, top holding 2^(width - 1) in every slot;
    ArithmeticError if it is above the bound."""
    v = (((x + top) >> (width * k)) & ((1 << width) - 1)) - (1 << (width - 1))
    if abs(v) > bound:
        raise ArithmeticError(f"a packed entry is above its layer's bound {bound}")
    return v


def _minor_bound(k: int, bound: int) -> int:
    """A bound on |det| of any k x k matrix whose entries have parts of at
    most `bound` in absolute value (Hadamard: rows of norm <= sqrt(2 k) bound)."""
    return isqrt((2 * k * bound * bound) ** k) + 1


def psd_check(m: PackedMatrix) -> bool:
    """Exact positive semidefiniteness of a Hermitian `PackedMatrix`
    (TypeError for any other type).

    A zero row of a Hermitian matrix has a zero column, so it stays zero
    through every step and is never a pivot: only the nonzero rows are
    eliminated (most rows of the Gram matrices are zero).  Hermitian
    elimination on the packed rows, fraction-free (Bareiss): the first
    nonzero diagonal entry p is the pivot and must be positive, and every
    remaining row x becomes (p x - x[c] y) / prev for the pivot row y, its
    column c and the previous pivot prev (1 at first), also when x[c] = 0.
    By Sylvester's identity the division is exact and the remaining block is
    prev times the Schur complement, prev > 0 a principal minor, so its
    diagonal keeps the signs of the Schur complement's.  Once the remaining
    diagonal is zero the remaining block must vanish (else a 2x2 principal
    minor is negative).  The eliminated columns are zero in the remaining
    rows, so the rows keep their length and original positions.  The
    remaining block is Hermitian (the input was checked to be), so column c
    of the remaining rows is read as the conjugate of the pivot row y, one
    bound-checked decode of y per pivot.
    """
    if not isinstance(m, PackedMatrix):
        raise TypeError(f"psd_check takes a PackedMatrix, not a {type(m).__name__}")
    if m.rows != m.cols:
        raise ValueError("psd_check requires a Hermitian matrix")
    live = [i for i, (x, y) in enumerate(zip(m.re, m.im)) if x or y]
    _require_hermitian(m, live)
    n, width, bound, prev = m.rows, m.width, m.bound, 1
    # a zero row has a zero column: it stays zero and is never a pivot
    rows = [(i, m.re[i], m.im[i]) for i in live]
    while rows:
        top = _ones(n, width) << (width - 1)
        # the diagonal stays real: the block is a positive multiple of a Hermitian one
        for i, (j, x, _) in enumerate(rows):
            p = _slot(x, j, top, width, bound)
            if p:
                break
        else:
            return not any(x or y for _, x, y in rows)
        if p < 0:
            return False
        c, yr, yi = rows.pop(i)
        y = Layer(yr, yi, 1, n, width, bound)
        # column c of the remaining rows: the conjugate of the pivot row
        pr, pi = _unpack(yr, y), _unpack(yi, y)
        fs = [(pr[j], -pi[j]) for j, _, _ in rows]
        # the slots hold twice the bound of p x - f y; its quotient by prev
        # is a minor of m of one order more than the len(live) - len(rows)
        # pivots so far
        written = (p + max((abs(a) + abs(b) for a, b in fs), default=0)) * bound
        if _width(2 * written) > width:
            wide = _width(2 * written)
            yr, yi = _repacked(y, wide)[:2]
            rows = [(j, *_repacked(y._replace(re=xr, im=xi), wide)[:2]) for j, xr, xi in rows]
            width = wide
        bound = min(written // prev, _minor_bound(len(live) - len(rows) + 1, m.bound))
        for k, ((j, xr, xi), (fr, fi)) in enumerate(zip(rows, fs)):
            xr, xi = p * xr - fr * yr + fi * yi, p * xi - fr * yi - fi * yr
            if prev > 1:
                (xr, a), (xi, b) = divmod(xr, prev), divmod(xi, prev)
                if a or b:
                    raise ArithmeticError("a fraction-free elimination step left a remainder")
                # p x - f y and prev times the quotient differ by less than
                # a slot can hold, so they are equal slot by slot
                _within(xr, n, width, bound)
                _within(xi, n, width, bound)
            rows[k] = j, xr, xi
        prev = p
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
