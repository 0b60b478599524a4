"""The slot decoding of `words.word_set_values` against plain lists.

`words._decode` reads the element sums of a word set packed along the
columns: each slot holds x + 2^(width - 1) in `width` bits, little-endian.
Slots are written here from plain lists at the narrowest width and at 64,
128 and 256 bits, on entries that fill a 64-bit slot to the last bit, need
128-bit or wider slots, and change sign from slot to slot (borrows and
carries across slots), and read back; an understated bound, a bound the
slots cannot hold and a slot past the top are refused.
"""

import pytest
from hypothesis import given, strategies as st

from schurmann.words import _decode, _width

TOP = 2**63
entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([TOP - 1, -(TOP - 1), TOP // 2, -TOP // 2, TOP, -TOP, 2 * TOP + 1]),
    st.integers(-(2**130), 2**130),
)


def biased(xs, width) -> bytes:
    """The slots x + 2^(width - 1) of xs, `width` bits each, little-endian."""
    return b"".join((x + 2 ** (width - 1)).to_bytes(width // 8, "little") for x in xs)


@given(st.lists(entries, max_size=6), st.booleans())
def test_pack_round_trips(xs, alternate):
    # every slot width from the narrowest on that holds the entries;
    # alternate makes the sign change from slot to slot
    if alternate:
        xs = [-abs(x) if i % 2 else abs(x) for i, x in enumerate(xs)]
    bound = max(map(abs, xs), default=0)
    for width in sorted({_width(bound), 64, 128, 256}):
        if width >= _width(bound):
            assert _decode(biased(xs, width), width, bound) == xs


def test_slot_widths():
    assert _width(0) == _width(TOP - 1) == 64
    assert _width(TOP) == 128
    assert _width(2**127 - 1) == 128 and _width(2**127) == 192
    assert _width(2**200) == 256
    assert _decode(b"", 64, 0) == []
    # entries just inside a 64-bit slot, and doubled in 128 bits
    assert _decode(biased([TOP - 1, -TOP], 64), 64, TOP - 1) == [TOP - 1, -TOP]
    assert _decode(biased([2 * TOP, -2 * TOP], 128), 128, 2 * TOP) == [2 * TOP, -2 * TOP]


def test_decode_guard_refuses_an_understated_bound():
    for raw, width, bound in (
        (biased([2**70, -3], 128), 128, 5),
        (biased([-3, 2**70], 128), 128, 2**69),
        # a slot past the top: one byte more than one 64-bit slot
        (biased([1], 64) + b"\x01", 64, 1),
        # a bound the slots cannot hold
        (biased([1], 64), 64, TOP),
    ):
        with pytest.raises(ArithmeticError, match="above its layer's bound"):
            _decode(raw, width, bound)
