"""Length-layered word tables on Gaussian-integer numerators.

Words over the 2 d^2 letters of ``letters(d)`` are coded as integers in base
|alphabet| with the first letter most significant, so the words of length m
fill the codes 0 .. base**m - 1, the code of a concatenation is
code(u) * base**len(v) + code(v), and prepending the letter h to the words
of length m gives the codes h * base**m + code(w).

A scalar layer (`packed.Layer`) holds one quantity on a list of words (all
words of one length, or a word pool) as Gaussian-integer numerators re_i +
i im_i over one positive denominator, each part packed into one Python int
sum_i x_i 2^(W i) of slots W bits wide (Kronecker substitution).  A sum of
layers times Gaussian integers (`_sum`; `linear` first brings its terms'
denominators to one, so a value step's pairing row and its other terms
are one sum) is then a few big-int products and additions instead of a
loop over the entries.  Each table is written once, in the layout its
reader needs.  A pairing table is its rows one after another (`concat`)
or, when the first word is the longer, its columns transposed into place.
A counit term copies a layer into the blocks or strides of its words
(`WordTables.eps_left` / `eps_right`).  Concatenations, transposes and
copies all go by strided slice assignment into one buffer, over the
layers' common denominator and slot width (`scatter`).  Every value step
is one `linear` sum: the groups of its first term and `step_groups`.  A
pairing row enters it as a group of `linear` (`WordTables.pairing_rows`),
never summed on its own first.  Every operation first bounds its result's
entries from its operands' bounds and picks the slot width (a multiple of
64) from that bound, so no slot overflows into the next; decoding checks
the entries against the bound.
Values leave as lists or `Qi` only at the witnesses and `.qi`.  Every
table follows the letter recursions of the package:

    rho(h w) = rho(h) rho(w)
    eps(h w) = [h diagonal] eps(w)
    eta(h w) = rho(h) eta(w) + eps(w) eta(h)
    v(h w)   = first(h, w) + [h diagonal] v(w) + eps(w) v(h),    v(1) = 0

The last one is the shared value step of every letter functional: first(h,
w) = sign c(h, w) for a 2-cocycle c, the pairing <eta(h*), eta(w)> with sign
+1 for a generating functional psi, the primitive's own 2-cocycle with sign
-1 for a primitive (`cohomology.value_tables`).

Tables serve the Gram matrices and the letter-triple check of coboundary
and combination 2-cocycles.  On a pairing, the letter-triple check and the
exhaustive primitive sweep read eta alone: on letters, or on eta tables up
to the sweep's word length (`cohomology.square_zero_on_letters`,
`cohomology.verify_primitive_exhaustive`).  Vector layers (eta) and the values of word sets are
`linalg.GaussianMatrix` grids of ints, one row per coordinate (or cell) and
one column per word (or element); `word_set_values` keeps its layers as one
list of ints per coordinate and reads them at arbitrary tail positions,
which an int packed along the words serves only by decoding, so none of
these is packed along the words (a word-packed evaluator was slower in a
prototype: a dead end).  A vector layer is packed row by row once
(`WordTables.coordinates`, a tuple of `Layer`s) where scalar layers read
it.  The Gram build reads eta on its word pool from the lists and packs
each coordinate once along the pool (`functional.pool_gram_matrix`).  One
function steps eta, eta(h w) =
rho(h) eta(w) + eps(w) eta(h), on numerator lists, a whole layer at a time
(`layer_step`, one gather pass per coordinate pair).  A table layer is
every word of its length (`WordTables.eta`).  Sparse elements, the
relations of a presentation among them, are compiled onto the suffix
closure of their words (`algebra.WordSet`, each layer as flat lists of
head letters and tail numbers); `word_set_values` steps rho or eta on it,
then sums each element on the numerators, so a relation check is a
zero test on integers.  Letter values come as columns (`columns`):
one for a cocycle, a unit column per unknown for the cocycle equations,
one per basis vector to check a solved space.  The columns are packed:
all the columns of one word and coordinate ride in one int, so a layer
entry and a term of a sum cost one big-int operation however many columns
there are.  Functionals and 2-cocycles on sparse elements evaluate
their batches of words on the same word sets
(`cohomology.LetterFunctional.batch`).
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import lcm
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

# MAX_TABLE_ENTRIES stays importable from here, next to the tables it bounds.
from .algebra import MAX_TABLE_ENTRIES, WordSet, letters, require_entries  # noqa: F401
from .linalg import GaussianMatrix
from .packed import Layer, _decode, _ones, _repacked, _scaled, _strided, _width, pack
from .scalars import ONE, Qi


def _sum(terms, den: int, size: int) -> Layer:
    """sum of (a + i b) t over the terms (a, b, t): Gaussian-integer
    coefficients and layers of `size` entries, the numerators over den."""
    bound = 0
    for a, b, t in terms:
        bound += (abs(a) + abs(b)) * t.bound
    width = _width(bound)
    re = im = 0
    for a, b, t in terms:
        if t.width != width:
            t = _repacked(t, width)
        if a == 1:
            re += t.re
            im += t.im
        elif a:
            re += a * t.re
            im += a * t.im
        if b:
            re -= b * t.im
            im += b * t.re
    return Layer(re, im, den, size, width, bound)


def linear(groups, size: int) -> Layer:
    """sum of (a + i b) t / den over the groups (pairs, den, layers), each
    Gaussian-integer pair (a, b) taken with the numerators of its layer t of
    `size` entries: every term over the one denominator lcm(den), then one
    `_sum`."""
    den = lcm(*map(itemgetter(1), groups))
    terms = [
        (a * f, b * f, t)
        for pairs, d, layers in groups
        for f in (den // d,)
        for (a, b), t in zip(pairs, layers)
        if (a or b) and (t.re or t.im)
    ]
    return _sum(terms, den, size)


def _over(values, den: int) -> list:
    return [(z.a * (den // z.den), z.b * (den // z.den)) for z in values]


def step_groups(val: Layer, eps: Layer, diag: bool, vh: Qi) -> list:
    """[diag] val(w) + eps(w) vh as groups of `linear`, eps the counit layer
    (0 or 1 over 1): the terms of the shared value step v(h w) = first(h, w)
    + [h diagonal] v(w) + eps(w) v(h) that follow first(h, w), whose groups
    the caller puts in the same `linear` sum."""
    return [([(int(diag), 0)], val.den, [val]), ([(vh.a, vh.b)], vh.den, [eps])]


def concat(parts) -> Layer:
    """The layers one after another, over their common denominator: one
    stride-1 `scatter` at the running offsets."""
    starts = accumulate((p.size for p in parts), initial=0)
    return scatter(parts, [[(a, 1)] for a in starts], sum(p.size for p in parts))


def split(layer: Layer, k: int) -> list:
    """The layer cut into k consecutive layers of equal size."""
    size, width = layer.size // k, layer.width
    top, part_top = (_ones(n, width) << (width - 1) for n in (layer.size, size))
    chunk = width // 8 * size
    re, im = ((x + top).to_bytes(chunk * k, "little") for x in (layer.re, layer.im))
    cuts = [(j * chunk, (j + 1) * chunk) for j in range(k)]
    return [
        layer._replace(
            re=int.from_bytes(re[a:b], "little") - part_top,
            im=int.from_bytes(im[a:b], "little") - part_top,
            size=size,
        )
        for a, b in cuts
    ]


def combine(terms) -> Layer:
    """sum of coeff * layer over (Qi coefficient, Layer) pairs of equal size."""
    groups = [([(c.a, c.b)], c.den * t.den, [t]) for c, t in terms]
    return linear(groups, terms[0][1].size)


def scatter(layers, places, size: int) -> Layer:
    """A layer of `size` entries, 0 but for copies of the layers over their
    common denominator: entry i of layers[j] goes to start + i stride for
    every (start, stride) of places[j].  Each part is brought to that
    denominator and to one slot width, then written once, by strided copies
    into one buffer (`packed._strided`)."""
    den = lcm(*(t.den for t in layers))
    bound = max((t.bound * (den // t.den) for t in layers), default=0)
    width = _width(bound)
    layers = [_scaled(t, den // t.den, width) for t in layers]
    re, im = (
        _strided(size, width, [(x, t.size, at) for x, t, at in zip(part, layers, places)])
        for part in ([t.re for t in layers], [t.im for t in layers])
    )
    return Layer(re, im, den, size, width, bound)


class Action(NamedTuple):
    """rho on the letters of `letters(d)`: images[h] holds the rows of
    rho(letter h) as numerator pairs over den; norm is the largest row sum
    of |re| + |im| over the images, which bounds the entries of rho(h) x
    by norm max |x|.  by_head[k] lists, for every l with rho(h)_kl nonzero
    for some letter h, (l, the real numerators of rho(h)_kl indexed by h,
    the imaginary ones or None if they are all 0): the coefficients that
    `layer_step` gathers by head letter."""

    images: list
    den: int
    norm: int
    by_head: list


def action(matrices) -> Action:
    """The letter images, in the order of `letters(d)`, over one denominator."""
    den = lcm(*(z.den for m in matrices for row in m.data for z in row))
    images = [[_over(row, den) for row in m.data] for m in matrices]
    norm = max((sum(abs(a) + abs(b) for a, b in row) for image in images for row in image), default=0)
    n = len(images[0]) if images else 0
    by_head = [[] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            re = [image[k][l][0] for image in images]
            im = [image[k][l][1] for image in images]
            if any(re) or any(im):
                by_head[k].append((l, re, im if any(im) else None))
    return Action(images, den, norm, by_head)


def columns(vectors) -> tuple:
    """The letter values of `word_set_values` with one column per vector:
    (at every index j the nonzero (v, re, im) of entry j of vector v, den)."""
    den = lcm(*(z.den for vec in vectors for z in vec))
    return [
        [(v, z.a * (den // z.den), z.b * (den // z.den)) for v, z in enumerate(zs) if z.a or z.b]
        for zs in zip(*vectors)
    ], den


def letter_slots(values, slot: int) -> tuple[list, list]:
    """The letter values of `columns` packed along the columns: at h * n + k
    eta(letter h)_k, column v in the slot 2^(slot v), real and imaginary
    numerators apart."""
    re, im = [0] * len(values), [0] * len(values)
    for j, cells in enumerate(values):
        for v, x, y in cells:
            re[j] += x << slot * v
            im[j] += y << slot * v
    return re, im


def layer_step(rho: Action, heads, xr, xi, eps, eta_re, eta_im, g: int) -> tuple[list, list]:
    """The coordinates (re, im) of rho(h) x(w) + eps(w) eta(h) for every word
    h w of one layer: heads[i] the letter index of word i, xr[l] and xi[l]
    coordinate l of x at its tail w, eps the positions whose tail has counit
    1, eta(letter h)_k at h * n + k of `letter_slots` and g the factor that
    brings it to the layer's denominator.  rho(h) x(w) takes no factor: the
    caller keeps x over a denominator that rho's multiplies into the
    layer's, or x = 0.  For every coordinate pair (k, l) with a nonzero
    letter image, the tails' coordinate l times rho(h)_kl gathered by head
    letter (`Action.by_head`) is one product over the layer."""
    re, im = [], []
    n = len(rho.by_head)
    for k, row in enumerate(rho.by_head):
        yr = yi = None
        for l, cr, ci in row:
            c = list(map(cr.__getitem__, heads))
            pr, pi = map(mul, c, xr[l]), map(mul, c, xi[l])
            if ci is not None:
                c = list(map(ci.__getitem__, heads))
                pr, pi = map(sub, pr, map(mul, c, xi[l])), map(add, pi, map(mul, c, xr[l]))
            if yr is None:
                yr, yi = list(pr), list(pi)
            else:
                yr, yi = list(map(add, yr, pr)), list(map(add, yi, pi))
        if yr is None:
            yr, yi = [0] * len(heads), [0] * len(heads)
        for i in eps:
            j = heads[i] * n + k
            yr[i] += eta_re[j] * g
            yi[i] += eta_im[j] * g
        re.append(yr)
        im.append(yi)
    return re, im


def _layer_bounds(ws: WordSet, rho: Action, eta: tuple, start: int) -> tuple[list, list]:
    """(denominators, entry bounds) of layers 0 .. of the word set, layer 0
    bounded by `start`: layer m + 1 is over lcm(rho.den den_m, eta den) and
    bounded by f rho.norm B_m + g max |eta numerator|, f and g the factors
    that bring rho(h) x(w) and eta(h) to that denominator."""
    values, de = eta
    parts = chain.from_iterable(map(itemgetter(1, 2), chain.from_iterable(values)))
    top = max(map(abs, parts), default=0)
    dens, bounds = [1], [start]
    for _ in ws.layers:
        den = lcm(rho.den * dens[-1], de)
        bounds.append(den // (rho.den * dens[-1]) * rho.norm * bounds[-1] + den // de * top)
        dens.append(den)
    return dens, bounds


def _cells(sums: list, width: int, slot: int, bound: int) -> list:
    """The `width` slots of every packed sum, one sum after another, joined
    through bytes and decoded at once (`packed._decode`, whose size no cache
    keeps); ArithmeticError if a slot is outside the bound."""
    bias = _ones(width, slot) << (slot - 1)
    try:
        raw = b"".join(
            map(int.to_bytes, map(add, sums, repeat(bias)), repeat(slot // 8 * width), repeat("little"))
        )
    except OverflowError:
        raise ArithmeticError(f"a packed entry is above its layer's bound {bound}") from None
    return _decode(raw, slot, bound)


def word_set_values(ws: WordSet, rho: Action, n: int, eta=None, width: int = 1) -> GaussianMatrix:
    """The value of every element of the word set: column e holds element e.

    The layers hold `width` columns: without eta rho(w) e_v, v < width = n,
    so rho(a); with eta = (letter values, den) as `columns` gives them,
    eta(w) for `width` cocycles at once.  Cell v n + k of an element is
    coordinate k of its column v.  One int per word and coordinate (and
    part) carries all the columns, column v in the slot 2^(W v) (Kronecker
    substitution along the columns); W is picked once, before anything is
    packed, from the bounds of the layers (`_layer_bounds`) and of the
    element sums.  The layers follow one another in one list per
    coordinate, where the terms read them.  Layer m + 1 is one `layer_step`
    on layer m read at its tails.  Each element's sum is
    one product per term and coordinate, and the sums of a coordinate and
    part are decoded together and checked against their bound
    (ArithmeticError).  The sums are over ws.den times the last layer's
    denominator.  A relation holds iff all its cells are 0.
    """
    counit_terms = eta is not None
    if not counit_terms:
        # rho(1) = id, one column per entry; no counit terms
        width, eta = n, ((), 1)
    dens, bounds = _layer_bounds(ws, rho, eta, 0 if counit_terms else 1)
    # the coefficients of the terms over the last layer's denominator
    den = dens[-1]
    at_scale = list(map([den // d for d in dens].__getitem__, ws.lengths))
    a, b = list(map(mul, ws.re, at_scale)), list(map(mul, ws.im, at_scale))
    starts, ends = ws.starts, ws.ends
    # each element's bound: sum over its terms of |coefficient| B_len(word)
    terms = map(mul, map(add, map(abs, a), map(abs, b)), map(bounds.__getitem__, ws.lengths))
    p = list(accumulate(terms, initial=0))
    bound = max(map(sub, map(p.__getitem__, ends), map(p.__getitem__, starts)), default=0)
    slot = _width(max(bound, *bounds))
    values, de = eta
    eta_re, eta_im = letter_slots(values, slot)
    if counit_terms:
        # eta(1) = 0
        re, im = [[0] for _ in range(n)], [[0] for _ in range(n)]
    else:
        # rho(1) e_v = e_v: slot k of coordinate k
        re, im = [[1 << slot * k] for k in range(n)], [[0] for _ in range(n)]
    # rho(h) x(w) needs no factor: past layer 1 every layer's denominator is
    # a multiple of de, and under eta the tails of layer 1 (the unit) are 0
    for (heads, tails, eps), layer_den in zip(ws.layers, dens[1:]):
        g = layer_den // de
        xr = [list(map(r.__getitem__, tails)) for r in re]
        xi = [list(map(r.__getitem__, tails)) for r in im]
        yr, yi = layer_step(rho, heads, xr, xi, eps if counit_terms else (), eta_re, eta_im, g)
        for k in range(n):
            re[k] += yr[k]
            im[k] += yi[k]
    # sum the products term by term, then take each element's stretch
    complex_coeffs = any(b)
    out_re, out_im = [None] * (width * n), [None] * (width * n)
    for k, (rows_re, rows_im) in enumerate(zip(re, im)):
        xr, xi = list(map(rows_re.__getitem__, ws.at)), list(map(rows_im.__getitem__, ws.at))
        pr, pi = map(mul, a, xr), map(mul, a, xi)
        if complex_coeffs:
            pr, pi = map(sub, pr, map(mul, b, xi)), map(add, pi, map(mul, b, xr))
        for out, p in ((out_re, pr), (out_im, pi)):
            p = list(accumulate(p, initial=0))
            sums = list(map(sub, map(p.__getitem__, ends), map(p.__getitem__, starts)))
            cells = _cells(sums, width, slot, bound)
            for v in range(width):
                out[v * n + k] = cells[v::width]
    return GaussianMatrix.unchecked(out_re, out_im, ws.den * den, len(starts))


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
        self._coordinates = {}
        self._values = {}
        self._counit = []

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
        """Layers 0 .. length of eta, each one `layer_step`: layer m + 1 has
        the words h w in code order, base**m per head letter h, and the tails
        w are layer m repeated once per head.  Layer m + 1 is over
        lcm(rho.den den_m, eta den)."""
        entry = self._eta.get(id(eta))
        if entry is None:
            # eta(1) = 0; one column of letter values, its slot 2^0 whatever the width
            zero = GaussianMatrix.unchecked([[0] for _ in range(eta.n)], [[0] for _ in range(eta.n)], 1, 1)
            entry = self._eta[id(eta)] = (eta, [zero], letter_slots(eta.numerators[0], 0))
        _, layers, (eta_re, eta_im) = entry
        rho, de, base = eta.rep.action, eta.numerators[1], self.base
        while len(layers) <= length:
            m = len(layers) - 1
            self.require(m + 1, eta.n)
            prev, size = layers[-1], base**m
            den = lcm(rho.den * prev.den, de)
            heads = [h for h in range(base) for _ in range(size)]
            eps = [h * size + c for h in range(base) for c in self.eps(m)]
            xr, xi = [r * base for r in prev.re], [r * base for r in prev.im]
            re, im = layer_step(rho, heads, xr, xi, eps, eta_re, eta_im, den // de)
            layers.append(GaussianMatrix.unchecked(re, im, den, size * base))
        return layers

    # -- values -------------------------------------------------------------

    def lin(self, eta, length: int, code: int, sign: int = 1):
        """sign * conj eta(w*) for the word w = (length, code): the pairs and
        the denominator of a group of `linear` over packed coordinates."""
        layer = self.eta(eta, length)[length]
        s = self.star_codes(length)[code]
        return [(sign * r[s], -sign * m[s]) for r, m in zip(layer.re, layer.im)], layer.den

    def coordinates(self, eta, length: int) -> tuple:
        """The coordinates of layer `length` of eta packed, once."""
        key = (id(eta), length)
        out = self._coordinates.get(key)
        if out is None:
            vec = self.eta(eta, length)[length]
            out = tuple(pack(r, m, vec.den) for r, m in zip(vec.re, vec.im))
            self._coordinates[key] = out
        return out

    def pairing_rows(self, eta1, eta2, p: int, q: int, sign: int = 1) -> list:
        """sign <eta1(u*), eta2(v)> for all |v| = q as groups of `linear`, one
        per word u of length p in code order: the pairs of `lin` over the
        packed coordinates of layer q of eta2."""
        self.require(p + q)
        den, right = self.eta(eta2, q)[q].den, self.coordinates(eta2, q)
        lins = (self.lin(eta1, p, cu, sign) for cu in range(self.base**p))
        return [(pairs, lin_den * den, right) for pairs, lin_den in lins]

    def pairing(self, eta1, eta2, p: int, q: int) -> Layer:
        """<eta1(u*), eta2(v)> for all |u| = p, |v| = q, coded as the word u v.

        For p <= q the rows of `pairing_rows` one after another.  For p > q
        one `linear` per word v over layer p of eta1, conjugated and permuted
        by the star codes so that entry u holds conj eta1(u*), gives the
        column of v; the columns are transposed into the codes u v at once
        (`scatter`)."""
        size = self.base**q
        if p <= q:
            return concat([linear([row], size) for row in self.pairing_rows(eta1, eta2, p, q)])
        self.require(p + q)
        vec, right, stars = self.eta(eta1, p)[p], self.eta(eta2, q)[q], self.star_codes(p)
        left = tuple(
            pack([r[s] for s in stars], [-m[s] for s in stars], vec.den) for r, m in zip(vec.re, vec.im)
        )
        den = right.den * vec.den
        cols = [
            linear([([(r[cv], m[cv]) for r, m in zip(right.re, right.im)], den, left)], vec.cols)
            for cv in range(size)
        ]
        return scatter(cols, [[(cv, size)] for cv in range(size)], vec.cols * size)

    def values(self, key, letter_value, first, length: int) -> list:
        """Layers 0 .. length of v(h w) = first(h, w) + [h diagonal] v(w)
        + eps(w) v(h) with v(1) = 0; first(m) lists, one group of `linear`
        per head letter h in the order of the alphabet, first(h, w) over the
        words w of length m, and letter_value(l) = v(l).  Each head letter's
        step is one `linear` sum of that group and `step_groups`."""
        entry = self._values.get(id(key))
        if entry is None:
            entry = (key, [pack([0], [0], 1)])
            self._values[id(key)] = entry
        layers = entry[1]
        while len(layers) <= length:
            m = len(layers) - 1
            self.require(m + 1)
            prev, eps = layers[-1], self.counit(m)
            parts = [
                linear([group] + step_groups(prev, eps, dg, letter_value(l)), prev.size)
                for group, dg, l in zip(first(m), self.diag, self.alpha)
            ]
            layers.append(concat(parts))
        return layers

    def counit(self, length: int) -> Layer:
        """eps(w) for the words of this length."""
        while len(self._counit) <= length:
            xs = [0] * self.base ** len(self._counit)
            for c in self.eps(len(self._counit)):
                xs[c] = 1
            self._counit.append(pack(xs, [0] * len(xs), 1))
        return self._counit[length]

    def eps_left(self, layer: Layer, p: int) -> Layer:
        """eps(u) layer(v) on the words u v with |u| = p: the layer copied
        into the block of each u with eps(u) = 1 (`scatter`)."""
        n = layer.size
        return scatter([layer], [[(cu * n, 1) for cu in self.eps(p)]], self.base**p * n)

    def eps_right(self, layer: Layer, q: int) -> Layer:
        """layer(u) eps(v) on the words u v with |v| = q: the entries of the
        layer base**q apart, once from each v with eps(v) = 1 (`scatter`)."""
        size = self.base**q
        return scatter([layer], [[(cv, size) for cv in self.eps(q)]], layer.size * size)

    def coboundary(self, phi: list, p: int, q: int) -> Layer:
        """eps(u) phi(v) - phi(u v) + phi(u) eps(v) for all |u| = p, |v| = q,
        from the value layers phi of a functional."""
        return combine(
            [(-ONE, phi[p + q]), (ONE, self.eps_left(phi[q], p)), (ONE, self.eps_right(phi[p], q))]
        )
