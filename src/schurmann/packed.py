"""Gaussian-integer numerators packed into one Python int per part.

A `Layer` holds entries (re_i + i im_i) / den for i < size with each part
packed as the int sum_i x_i 2^(W i) of slots W bits wide (Kronecker
substitution).  Packing is linear, so a sum of layers times integers is a
few big-int products and additions; the slot width is a multiple of 64
chosen from a bound on the entries (`_width`), so no slot overflows into
the next, and decoding checks the entries against that bound (`_within`,
ArithmeticError).  Two readers use these primitives: the Gram rows of
`linalg.PackedMatrix`, packed along the pool words
(`functional.pool_gram_matrix`) and eliminated by `linalg.psd_check`, and
the element sums of `words.word_set_values`, packed along the columns and
decoded at once (`_decode`).
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from .scalars import _qi

_BIG_ENDIAN = sys.byteorder == "big"


def _width(bound: int) -> int:
    """The narrowest slot width, a multiple of 64 bits, holding every x with
    |x| <= bound in two's complement."""
    return (bound.bit_length() + 64) // 64 * 64


@lru_cache(maxsize=256)
def _ones(size: int, width: int) -> int:
    """1 in each of `size` slots of `width` bits."""
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * size, "little")


def _window_of(ones: int, width: int, k: int) -> tuple[int, int]:
    """(2^k in every slot, the bits k + 1 .. width - 1 of every slot) for
    ones holding 1 in every slot."""
    return ones << k, (ones << width) - (ones << (k + 1))


def _fits(x: int, size: int, width: int, window: tuple[int, int]) -> bool:
    """Whether every slot of x lies in [-2^k, 2^k), k < width, for the
    `_window_of` k: then x + 2^k in every slot carries into no other slot."""
    low, high = window
    y = x + low
    return y >= 0 and y.bit_length() <= width * size and not y & high


def _within(x: int, size: int, width: int, bound: int, ones: int | None = None) -> None:
    """ArithmeticError unless every slot of x lies in [-2^k, 2^k), k the bit
    length of the bound, and 2^k fits a slot.  ones (1 in every slot) is
    `_ones` unless the caller built it for a size no cache keeps.  The window
    is built per call: k follows the bound, which varies from layer to layer
    and pivot to pivot, and a window cached per k held ints of every size."""
    k = bound.bit_length()
    ones = _ones(size, width) if ones is None else ones
    if k >= width or not _fits(x, size, width, _window_of(ones, width, k)):
        raise ArithmeticError(f"a packed entry is above its layer's bound {bound}")


def _pack(xs: list, width: int) -> int:
    """sum_i xs[i] 2^(width i); every |xs[i]| < 2^(width - 1)."""
    if not any(xs):
        return 0
    top = _ones(len(xs), width) << (width - 1)
    if width == 64:
        a = array("q", xs)
        if _BIG_ENDIAN:
            a.byteswap()
        raw = a.tobytes()
    else:
        raw = b"".join(x.to_bytes(width // 8, "little", signed=True) for x in xs)
    return (int.from_bytes(raw, "little") ^ top) - top


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


def _unpack(x: int, layer: "Layer") -> list:
    """The slots of x, one part of the layer; ArithmeticError if a slot is
    outside [-2^k, 2^k), k the bit length of the layer's bound."""
    size, width = layer.size, layer.width
    _within(x, size, width, layer.bound)
    if not x:
        return [0] * size
    top = _ones(size, width) << (width - 1)
    return _signed(((x + top) ^ top).to_bytes(width // 8 * size, "little"), width)


def _decode(raw: bytes, width: int, bound: int) -> list:
    """The slots of little-endian bytes, each `width` bits holding x +
    2^(width - 1); ArithmeticError unless every x lies in [-2^k, 2^k), k the
    bit length of the bound, as in `_within`.  For sizes met once (a word
    set's sums): the slot constants are built here, not kept by `_ones`."""
    size = len(raw) * 8 // width
    ones = _ones.__wrapped__(size, width)
    top, biased = ones << (width - 1), int.from_bytes(raw, "little")
    _within(biased - top, size, width, bound, ones)
    return _signed((biased ^ top).to_bytes(len(raw), "little"), width)


class Layer(NamedTuple):
    """Scalars (re_i + i im_i) / den for i < size, packed: re is the int
    sum_i re_i 2^(width i), im likewise, with every |re_i|, |im_i| <= bound
    < 2^(width - 1)."""

    re: int
    im: int
    den: int
    size: int
    width: int
    bound: int

    def numerators(self, den: int) -> tuple[list, list]:
        """The lists (re_i), (im_i) of the entries over den, a multiple of
        the layer's denominator."""
        f = den // self.den
        t = _scaled(self, f, _width(self.bound * f))
        return _unpack(t.re, t), _unpack(t.im, t)

    def qis(self) -> list:
        re, im = self.numerators(self.den)
        return list(map(_qi, re, im, repeat(self.den)))


def _repacked(t: Layer, width: int) -> Layer:
    """t with slots of the given width, which must hold t.bound."""
    if t.width == width:
        return t
    re, im = _unpack(t.re, t), _unpack(t.im, t)
    return Layer(_pack(re, width), _pack(im, width), t.den, t.size, width, t.bound)


def _scaled(t: Layer, f: int, width: int) -> Layer:
    """t over f t.den, in slots of the given width, which must hold f t.bound."""
    t = _repacked(t, width)
    if f == 1:
        return t
    return Layer(t.re * f, t.im * f, t.den * f, t.size, width, t.bound * f)
