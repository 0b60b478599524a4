"""Packed scalar layers against plain lists of numerators.

A `packed.Layer` is built here from its numerator lists with `packed._pack`
and read back, on entries that fill a 64-bit slot to the last bit, need
128-bit or wider slots, and change sign from slot to slot (borrows and
carries across slots), on one-slot and zero-length layers and on
denominators other than 1.  These are the operations the Gram rows of
`linalg.PackedMatrix` and the sums of `words.word_set_values` rest on.
"""

from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from conftest import packed_layer
from schurmann.packed import Layer, _repacked, _scaled, _width
from schurmann.scalars import Qi

TOP = 2**63
entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([TOP - 1, -(TOP - 1), TOP // 2, -TOP // 2, TOP, -TOP, 2 * TOP + 1]),
    st.integers(-(2**130), 2**130),
)
dens = st.integers(1, 12)


class Plain(NamedTuple):
    re: list
    im: list
    den: int


def plain_layer(data, size) -> Plain:
    re, im = (data.draw(st.lists(entries, min_size=size, max_size=size)) for _ in "ri")
    return Plain(re, im, data.draw(dens))


def packed(p: Plain, width=None) -> Layer:
    return packed_layer(p.re, p.im, p.den, width)


def assert_same(layer: Layer, want: Plain):
    assert layer.den == want.den
    assert layer.size == len(want.re)
    assert layer.numerators(layer.den) == (want.re, want.im)
    assert layer.width % 64 == 0
    assert max(map(abs, want.re + want.im), default=0) <= layer.bound < 2 ** (layer.width - 1)


@given(st.data())
def test_pack_round_trips(data):
    # the narrowest width, then 64-, 128- and 256-bit slots wherever they
    # hold the entries, and the repacking between any two of them
    size = data.draw(st.integers(0, 6))
    p = plain_layer(data, size)
    narrow = packed(p)
    layers = [narrow] + [packed(p, w) for w in (64, 128, 256) if w >= narrow.width]
    for layer in layers:
        assert_same(layer, p)
        assert layer.qis() == [Qi(a, b) / Qi(p.den) for a, b in zip(p.re, p.im)]
        for other in layers:
            assert _repacked(layer, other.width) == other
    # over a multiple of the denominator
    f = data.draw(dens)
    assert narrow.numerators(p.den * f) == ([x * f for x in p.re], [y * f for y in p.im])


def test_slot_widths():
    assert _width(0) == _width(TOP - 1) == 64
    assert _width(TOP) == 128
    assert _width(2**127 - 1) == 128 and _width(2**127) == 192
    assert _width(2**200) == 256
    assert packed(Plain([], [], 1)) == Layer(0, 0, 1, 0, 64, 0)
    # entries just inside a 64-bit slot, doubled, move to 128 bits
    near = packed(Plain([TOP // 2, -(TOP // 2)], [1, -1], 1))
    assert near.width == 64
    twice = _scaled(near, 2, _width(2 * near.bound))
    assert twice.width == 128
    assert twice.numerators(2) == ([TOP, -TOP], [2, -2])


def test_decode_guard_refuses_an_understated_bound():
    wide = packed(Plain([2**70, -3], [0, 1], 1))
    assert wide.width == 128
    for layer in (
        wide._replace(bound=5),
        # a slot past the top of the layer
        Layer(5 * 2**64, 0, 1, 1, 64, 2**62),
        # a bound that does not fit the slots
        Layer(1, 0, 1, 1, 64, TOP),
    ):
        with pytest.raises(ArithmeticError, match="above its layer's bound"):
            layer.qis()
        with pytest.raises(ArithmeticError):
            _repacked(layer, layer.width + 64)
