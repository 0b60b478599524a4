"""The word-set evaluator on Gaussian-integer numerators.

Every evaluation here follows the letter recursions of the package:

    rho(h w) = rho(h) rho(w)
    eps(h w) = [h diagonal] eps(w)
    eta(h w) = rho(h) eta(w) + eps(w) eta(h)

Sparse elements, the relations of a presentation among them, are compiled
onto the suffix closure of their words (`algebra.WordSet`, each layer as
flat lists of head letters and tail numbers); `word_set_values` steps rho
or eta on it, a whole layer at a time (`layer_step`, one gather pass per
coordinate pair), then sums each element on the numerators, so a relation
check is a zero test on integers.  It is the one evaluator of rho and eta:
the Gram factor (`functional.pool_gram_matrix`) compiles its pool as a
word set, one element per word.  Letter values come as columns (`columns`): one for a cocycle, a unit
column per unknown for the cocycle equations, one per basis vector to
check a solved space.  The columns are packed: all the columns of one word
and coordinate ride in one int, column v in the slot 2^(W v) (Kronecker
substitution), so a layer entry and a term of a sum cost one big-int
operation however many columns there are.  W is a multiple of 64 bits
picked from bounds on the layers and the sums (`_width`), so no slot
overflows into the next; the sums are written out biased by 2^(W - 1) and
decoded at once, every slot checked against the bound (`_decode`,
ArithmeticError).  Packing along the words instead was slower in a
prototype (a dead end).

No functional or 2-cocycle is tabulated.  Functionals and 2-cocycles
evaluate their batches of words on word sets, through the cuts of the
letter recursion (`cohomology.LetterFunctional.batch`).
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import lcm
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

from .algebra import WordSet
from .linalg import GaussianMatrix

_BIG_ENDIAN = sys.byteorder == "big"


def _width(bound: int) -> int:
    """The narrowest slot width, a multiple of 64 bits, holding every x with
    |x| <= bound in two's complement."""
    return (bound.bit_length() + 64) // 64 * 64


@lru_cache(maxsize=256)
def _ones(size: int, width: int) -> int:
    """1 in each of `size` slots of `width` bits."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * size, "little")


def _signed(raw: bytes, width: int) -> list:
    """The slots of little-endian bytes, `width` bits each in two's complement."""
    if width == 64:
        a = array("q")
        a.frombytes(raw)
        if _BIG_ENDIAN:
            a.byteswap()
        return a.tolist()
    n = width // 8
    return [int.from_bytes(raw[i : i + n], "little", signed=True) for i in range(0, len(raw), n)]


def _decode(raw: bytes, width: int, bound: int) -> list:
    """The slots of little-endian bytes, each `width` bits holding x +
    2^(width - 1); ArithmeticError unless every x lies in [-2^k, 2^k), k the
    bit length of the bound, and 2^k fits a slot.  For sizes met once (a word
    set's sums): the slot constants are built here, not kept by `_ones`."""
    size = len(raw) * 8 // width
    ones = _ones.__wrapped__(size, width)
    top, biased = ones << (width - 1), int.from_bytes(raw, "little")
    # x + 2^k in every slot carries into no other slot iff every x is in range:
    # then y is nonnegative, stays within the slots and is below 2^(k + 1) in each
    k = bound.bit_length()
    y = biased - top + (ones << k)
    high = (ones << width) - (ones << (k + 1))
    if k >= width or y < 0 or y.bit_length() > width * size or y & high:
        raise ArithmeticError(f"a packed entry is above its layer's bound {bound}")
    return _signed((biased ^ top).to_bytes(len(raw), "little"), width)


def _over(values, den: int) -> list:
    return [(z.a * (den // z.den), z.b * (den // z.den)) for z in values]


class Action(NamedTuple):
    """rho on the letters of `letters(d)`, over den: norm is the largest
    row sum of |re| + |im| of the letter images' numerators, which bounds
    the entries of rho(h) x by norm max |x|.  by_head[k] lists, for
    every l with rho(h)_kl nonzero for some letter h, (l, the real
    numerators of rho(h)_kl indexed by h, the imaginary ones or None if
    they are all 0): the coefficients that `layer_step` gathers by head
    letter."""

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
    return Action(den, norm, by_head)


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
    """The `width` slots of every packed sum, decoded at once through bytes
    (`_decode`, whose size no cache keeps), or one column's sums as they
    are; ArithmeticError if a slot is outside the bound (`_decode`'s test)."""
    if width == 1:
        k = bound.bit_length()
        if k >= slot or min(sums, default=0) < -(1 << k) or max(sums, default=0) >= 1 << k:
            raise ArithmeticError(f"an entry is above its layer's bound {bound}")
        return sums
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
    coordinate, where the terms read them.  Each layer m + 1 is one
    `layer_step` on layer m read at its tails.  Each element's sum is one
    product per term and coordinate; the sums of a coordinate and part are
    decoded together (one column, alone in slot 0, skips the pack) and
    checked against their bound (`_cells`, ArithmeticError).  The sums are
    over ws.den times the last layer's denominator.  A relation holds iff
    all its cells are 0.
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
