"""Length-layered word tables on Gaussian-integer numerators.

Words over the 2 d^2 letters of ``letters(d)`` are coded as integers in base
|alphabet| with the first letter most significant, so the words of length m
fill the codes 0 .. base**m - 1, the code of a concatenation is
code(u) * base**len(v) + code(v), and prepending the letter h to the words
of length m gives the codes h * base**m + code(w).

A layer holds one quantity on a list of words (all words of one length, or a
word pool) as Gaussian-integer numerators re[i] + i im[i] over one positive
denominator, so building it costs integer products only; values leave as
`Qi`.  Every table follows the letter recursions of the package:

    rho(h w) = rho(h) rho(w)
    eps(h w) = [h diagonal] eps(w)
    eta(h w) = rho(h) eta(w) + eps(w) eta(h)
    v(h w)   = first(h, w) + [h diagonal] v(w) + eps(w) v(h),    v(1) = 0

The last one is the shared value step of every letter functional: first(h,
w) = sign c(h, w) for a 2-cocycle c, the pairing <eta(h*), eta(w)> with sign
+1 for a generating functional psi, the primitive's own 2-cocycle with sign
-1 for a primitive (`cohomology.value_tables`).

Tables serve the dense sweeps (Gram matrices, letter triples, exhaustive
word pairs).  Sparse elements, the relations of a presentation among them,
are compiled onto the suffix closure of their words (`algebra.WordSet`), and
`word_set_values` evaluates rho or eta on it layer by layer with the same
`rho_step` the eta tables use, then sums each element on the numerators, so
a relation check is a zero test on integers.  Letter values come as columns
(`columns`): one for a cocycle, a unit column per unknown for the cocycle
equations, one per basis vector to check a solved space.  Functionals and
2-cocycles on sparse elements evaluate their batches of words on the same
word sets (`cohomology.LetterFunctional.batch`).
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import lcm
from operator import add, mul, sub
from typing import NamedTuple

# MAX_TABLE_ENTRIES stays importable from here, next to the tables it bounds.
from .algebra import MAX_TABLE_ENTRIES, WordSet, letters, require_entries  # noqa: F401
from .linalg import QVector
from .scalars import ONE, ZERO, Qi, _qi


class Layer(NamedTuple):
    """Scalars (re[i] + i im[i]) / den."""

    re: list
    im: list
    den: int

    def qi(self, i: int) -> Qi:
        return _qi(self.re[i], self.im[i], self.den)

    def qis(self) -> list:
        return list(map(_qi, self.re, self.im, repeat(self.den)))

    def first_nonzero(self):
        """Index of the first nonzero entry, or None."""
        return next((i for i, (a, b) in enumerate(zip(self.re, self.im)) if a or b), None)


class VecLayer(NamedTuple):
    """Vectors with coordinates (re[k][i] + i im[k][i]) / den, k < n."""

    re: tuple
    im: tuple
    den: int
    size: int

    def vector(self, i: int) -> QVector:
        return QVector(_qi(r[i], m[i], self.den) for r, m in zip(self.re, self.im))


def _over(values, den: int) -> list:
    return [(z.a * (den // z.den), z.b * (den // z.den)) for z in values]


def gaussian(values) -> tuple:
    """(numerator pairs, common denominator) of a sequence of Qi."""
    den = lcm(*(z.den for z in values))
    return _over(values, den), den


def scaled(xs: list, f: int) -> list:
    return xs[:] if f == 1 else [x * f for x in xs]


def dots(lin, vec: VecLayer) -> Layer:
    """sum_k lin_k vec_k(w) for every w of the layer, lin = (pairs, den) with
    no conjugation applied here."""
    pairs, den = lin
    re = im = None
    for (a, b), xr, xi in zip(pairs, vec.re, vec.im):
        if not (a or b):
            continue
        if not b:
            tr, ti = [a * x for x in xr], [a * y for y in xi]
        else:
            tr = [a * x - b * y for x, y in zip(xr, xi)]
            ti = [a * y + b * x for x, y in zip(xr, xi)]
        if re is None:
            re, im = tr, ti
        else:
            re, im = list(map(add, re, tr)), list(map(add, im, ti))
    if re is None:
        re, im = [0] * vec.size, [0] * vec.size
    return Layer(re, im, den * vec.den)


def step(first: Layer, val: Layer, eps, diag: bool, vh: Qi) -> Layer:
    """The shared value step: first(w) + [diag] val(w) + eps(w) vh for every
    w of the layer, eps the indices with eps(w) = 1.  The lists of `first`
    are reused for the result."""
    den = lcm(first.den, val.den, vh.den)
    f = den // first.den
    re, im = first.re, first.im
    if f != 1:
        re, im = [x * f for x in re], [x * f for x in im]
    if diag:
        g = den // val.den
        re = [x + g * y for x, y in zip(re, val.re)]
        im = [x + g * y for x, y in zip(im, val.im)]
    e = den // vh.den
    vr, vi = vh.a * e, vh.b * e
    if eps and (vr or vi):
        for i in eps:
            re[i] += vr
            im[i] += vi
    return Layer(re, im, den)


def concat(parts) -> Layer:
    """The layers one after another, over their common denominator."""
    den = lcm(*(p.den for p in parts))
    re, im = [], []
    for p in parts:
        f = den // p.den
        re += p.re if f == 1 else [x * f for x in p.re]
        im += p.im if f == 1 else [x * f for x in p.im]
    return Layer(re, im, den)


def combine(terms) -> Layer:
    """sum of coeff * layer over (Qi coefficient, Layer) pairs of equal size."""
    den = lcm(*(t.den for _, t in terms))
    vec = VecLayer(
        tuple(t.re for _, t in terms), tuple(t.im for _, t in terms), den, len(terms[0][1].re)
    )
    return dots(gaussian([c * Qi(den // t.den) for c, t in terms]), vec)


def first_difference(x: Layer, y: Layer):
    """Index of the first entry where the two layers differ, or None."""
    den = lcm(x.den, y.den)
    f, g = den // x.den, den // y.den
    xr, xi, yr, yi = (scaled(v, s) for v, s in ((x.re, f), (x.im, f), (y.re, g), (y.im, g)))
    if xr == yr and xi == yi:
        return None
    return next(i for i, t in enumerate(zip(xr, xi, yr, yi)) if t[0] != t[2] or t[1] != t[3])


def gather(layers, picks):
    """Entries (length, code) taken from per-length layers, over one denominator."""
    den = lcm(*(layer.den for layer in layers))
    f = [den // layer.den for layer in layers]
    if isinstance(layers[0], VecLayer):
        n = len(layers[0].re)
        re = tuple([layers[m].re[k][c] * f[m] for m, c in picks] for k in range(n))
        im = tuple([layers[m].im[k][c] * f[m] for m, c in picks] for k in range(n))
        return VecLayer(re, im, den, len(picks))
    re = [layers[m].re[c] * f[m] for m, c in picks]
    im = [layers[m].im[c] * f[m] for m, c in picks]
    return Layer(re, im, den)


class Action(NamedTuple):
    """rho on the letters of `letters(d)`: images[h] holds the rows of
    rho(letter h) as numerator pairs over den."""

    images: list
    den: int


def action(matrices) -> Action:
    """The letter images, in the order of `letters(d)`, over one denominator."""
    den = lcm(*(z.den for m in matrices for row in m.data for z in row))
    return Action([[_over(row, den) for row in m.data] for m in matrices], den)


def rho_step(rho: Action, h: int, vec: VecLayer, eps=(), eta=((), 1)) -> VecLayer:
    """x(h w) = rho(h) x(w) + eps(w) eta(h) for every vector x(w) of the
    layer, column by column: the entry of column v of the word at offset i
    sits at i + v, eps holds the offsets of the words with eps(w) = 1 and
    eta = (letter values, den) lists at h * n + k the nonzero columns
    (v, re, im) of eta(letter h)_k as numerators over den (`columns`).
    Without eps this is rho(h) x(w); the denominator is lcm(rho.den *
    vec.den, eta den) either way, so the layers of one step share it."""
    images, dr = rho
    values, de = eta
    n = len(images[h])
    den = lcm(dr * vec.den, de)
    f, g = den // (dr * vec.den), den // de
    re, im = [], []
    for k, row in enumerate(images[h]):
        m = dots((row, dr), vec)
        xr, xi = (m.re, m.im) if f == 1 else ([x * f for x in m.re], [x * f for x in m.im])
        if eps:
            for v, a, b in values[h * n + k]:
                a, b = a * g, b * g
                for i in eps:
                    xr[i + v] += a
                    xi[i + v] += b
        re.append(xr)
        im.append(xi)
    return VecLayer(tuple(re), tuple(im), den, vec.size)


def columns(vectors) -> tuple:
    """The letter values of `rho_step` with one column per vector: (at every
    index j the nonzero (v, re, im) of entry j of vector v, den)."""
    den = lcm(*(z.den for vec in vectors for z in vec))
    return [
        [(v, z.a * (den // z.den), z.b * (den // z.den)) for v, z in enumerate(zs) if z.a or z.b]
        for zs in zip(*vectors)
    ], den


def zero_vectors(n: int) -> VecLayer:
    """eta(1) = 0: the layer of the empty word."""
    return VecLayer(tuple([0] for _ in range(n)), tuple([0] for _ in range(n)), 1, 1)


def stack(parts, size: int) -> VecLayer:
    """Vector layers of one denominator one after another (size entries in
    all); a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    n = len(parts[0].re)
    re = tuple(list(chain.from_iterable(p.re[k] for p in parts)) for k in range(n))
    im = tuple(list(chain.from_iterable(p.im[k] for p in parts)) for k in range(n))
    return VecLayer(re, im, parts[0].den, size)


class Sums(NamedTuple):
    """Values of the elements of a word set: cell c of element e is
    (re[c][e] + i im[c][e]) / (dens[e] den)."""

    re: list
    im: list
    den: int
    dens: list

    def nonzero(self) -> list:
        """Indices of the elements with a nonzero cell, in order."""
        return [e for e, cells in enumerate(zip(*self.re, *self.im)) if any(cells)]

    def qis(self, e: int) -> list:
        """The cells of element e."""
        den = self.dens[e] * self.den
        return [_qi(r[e], m[e], den) if r[e] or m[e] else ZERO for r, m in zip(self.re, self.im)]


def word_set_values(ws: WordSet, rho: Action, n: int, eta=None, width: int = 1) -> Sums:
    """The value of every element of the word set, as numerator sums.

    The layers hold `width` columns: without eta rho(w) e_v, v < width = n,
    so rho(a); with eta = (letter values, den) as in `rho_step`, eta(w) for
    `width` cocycles at once.  Cell v n + k of an element is coordinate k of
    its column v.  Layer m + 1 is built run by run from layer m by `rho_step`
    over a multiple of layer m's denominator.  The layers follow one another
    in one list per coordinate, column v of the word numbered g at g width +
    v, where the terms read them.  A relation holds iff all its cells are 0.
    """
    counit_terms = eta is not None
    if counit_terms:
        # eta(1) = 0
        re, im = [[0] * width for _ in range(n)], [[0] * width for _ in range(n)]
    else:
        # rho(1) = id, one column per entry; no counit terms
        width, eta = n, ((), 1)
        re, im = [[int(k == c) for c in range(n)] for k in range(n)], [[0] * n for _ in range(n)]
    dens, first = [1], 0
    for runs, prev_size in zip(ws.layers, ws.sizes):
        parts = []
        for h, tails, eps in runs:
            if width == 1:
                picks, offsets = [first + t for t in tails], eps
            else:
                picks = [(first + t) * width + c for t in tails for c in range(width)]
                offsets = [e * width for e in eps]
            tails_layer = VecLayer(
                tuple(list(map(r.__getitem__, picks)) for r in re),
                tuple(list(map(r.__getitem__, picks)) for r in im),
                dens[-1],
                len(picks),
            )
            parts.append(rho_step(rho, h, tails_layer, offsets if counit_terms else (), eta))
        for k in range(n):
            re[k] += chain.from_iterable(p.re[k] for p in parts)
            im[k] += chain.from_iterable(p.im[k] for p in parts)
        first += prev_size
        dens.append(parts[0].den)
    # the coefficients of the terms over the last layer's denominator
    den = dens[-1]
    scale = list(chain.from_iterable(map(repeat, (den // d for d in dens), ws.sizes)))
    at_scale = list(map(scale.__getitem__, ws.at))
    a, b = list(map(mul, ws.re, at_scale)), list(map(mul, ws.im, at_scale))
    complex_coeffs = any(b)
    # sum the products term by term, then take each element's stretch
    starts, ends = ws.bounds[:-1], ws.bounds[1:]
    out_re, out_im = [], []
    for v in range(width):
        picks = ws.at if width == 1 else [g * width + v for g in ws.at]
        for rows_re, rows_im in zip(re, im):
            xr, xi = list(map(rows_re.__getitem__, picks)), list(map(rows_im.__getitem__, picks))
            pr, pi = map(mul, a, xr), map(mul, a, xi)
            if complex_coeffs:
                pr, pi = map(sub, pr, map(mul, b, xi)), map(add, pi, map(mul, b, xr))
            for out, p in ((out_re, pr), (out_im, pi)):
                p = list(accumulate(p, initial=0))
                out.append(list(map(sub, map(p.__getitem__, ends), map(p.__getitem__, starts))))
    return Sums(out_re, out_im, den, ws.dens)


class WordTables:
    """Tables over the words of one ambient size d, built on demand and kept
    for the lifetime of the object; quantities are keyed by the object they
    belong to."""

    def __init__(self, d: int):
        self.alpha = letters(d)
        self.base = len(self.alpha)
        self.index = {l: i for i, l in enumerate(self.alpha)}
        self.diag = [l.row == l.col for l in self.alpha]
        self.star = [self.index[l.adjoint()] for l in self.alpha]
        self._eps = [[0]]
        self._stars = [[0]]
        self._eta = {}
        self._values = {}

    # -- codes ------------------------------------------------------------

    def require(self, length: int, width: int = 1) -> None:
        require_entries(self.base**length * width, f"a table of words of length {length}")

    def code(self, w) -> int:
        out = 0
        for l in w:
            out = out * self.base + self.index[l]
        return out

    def word(self, length: int, code: int) -> tuple:
        out = []
        for _ in range(length):
            code, r = divmod(code, self.base)
            out.append(self.alpha[r])
        return tuple(reversed(out))

    def eps(self, length: int) -> list:
        """Sorted codes of the words of this length with counit 1."""
        while len(self._eps) <= length:
            prev, size = self._eps[-1], self.base ** (len(self._eps) - 1)
            self._eps.append([h * size + c for h, dg in enumerate(self.diag) if dg for c in prev])
        return self._eps[length]

    def star_codes(self, length: int) -> list:
        """code(w*) for every code w of this length."""
        while len(self._stars) <= length:
            prev, base = self._stars[-1], self.base
            self._stars.append([c * base + self.star[h] for h in range(base) for c in prev])
        return self._stars[length]

    # -- eta through the rho action -----------------------------------------

    def eta(self, eta, length: int) -> list:
        """Layers 0 .. length of eta."""
        entry = self._eta.get(id(eta))
        if entry is None:
            entry = self._eta[id(eta)] = (eta, [zero_vectors(eta.n)])
        layers = entry[1]
        while len(layers) <= length:
            m = len(layers) - 1
            self.require(m + 1, eta.n)
            prev, eps = layers[-1], self.eps(m)
            rho, values = eta.rep.action, eta.numerators
            parts = [rho_step(rho, h, prev, eps, values) for h in range(self.base)]
            layers.append(stack(parts, self.base * prev.size))
        return layers

    # -- values -------------------------------------------------------------

    def lin(self, eta, length: int, code: int, sign: int = 1):
        """sign * conj eta(w*) for the word w = (length, code), as a lin of `dots`."""
        layer = self.eta(eta, length)[length]
        s = self.star_codes(length)[code]
        return [(sign * r[s], -sign * m[s]) for r, m in zip(layer.re, layer.im)], layer.den

    def pairing(self, eta1, eta2, p: int, q: int) -> Layer:
        """<eta1(u*), eta2(v)> for all |u| = p, |v| = q, coded as the word u v."""
        self.require(p + q)
        right = self.eta(eta2, q)[q]
        return concat([dots(self.lin(eta1, p, cu), right) for cu in range(self.base**p)])

    def values(self, key, letter_value, first, length: int) -> list:
        """Layers 0 .. length of v(h w) = first(h, w) + [h diagonal] v(w)
        + eps(w) v(h) with v(1) = 0; first(m) is the layer of first(h, w) over
        the words h w of length m + 1 and letter_value(l) = v(l)."""
        entry = self._values.get(id(key))
        if entry is None:
            entry = (key, [Layer([0], [0], 1)])
            self._values[id(key)] = entry
        layers = entry[1]
        while len(layers) <= length:
            m = len(layers) - 1
            self.require(m + 1)
            f, prev, eps, size = first(m), layers[-1], self.eps(m), self.base**m
            parts = []
            for h, l in enumerate(self.alpha):
                lo = h * size
                part = Layer(f.re[lo : lo + size], f.im[lo : lo + size], f.den)
                parts.append(step(part, prev, eps, self.diag[h], letter_value(l)))
            layers.append(concat(parts))
        return layers

    def eps_left(self, layer: Layer, p: int) -> Layer:
        """eps(u) layer(v) on the words u v with |u| = p."""
        size = len(layer.re)
        re, im = [0] * (self.base**p * size), [0] * (self.base**p * size)
        for cu in self.eps(p):
            re[cu * size : (cu + 1) * size] = layer.re
            im[cu * size : (cu + 1) * size] = layer.im
        return Layer(re, im, layer.den)

    def eps_right(self, layer: Layer, q: int) -> Layer:
        """layer(u) eps(v) on the words u v with |v| = q."""
        size = self.base**q
        re, im = [0] * (len(layer.re) * size), [0] * (len(layer.re) * size)
        for cv in self.eps(q):
            re[cv::size] = layer.re
            im[cv::size] = layer.im
        return Layer(re, im, layer.den)

    def counit(self, length: int) -> Layer:
        return self.eps_left(Layer([1], [0], 1), length)

    def coboundary(self, phi: list, p: int, q: int) -> Layer:
        """eps(u) phi(v) - phi(u v) + phi(u) eps(v) for all |u| = p, |v| = q,
        from the value layers phi of a functional."""
        return combine(
            [(-ONE, phi[p + q]), (ONE, self.eps_left(phi[q], p)), (ONE, self.eps_right(phi[p], q))]
        )
