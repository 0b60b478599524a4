"""Packed scalar layers against plain lists of numerators.

Every operation of `schurmann.words` on packed layers is compared with a
reference on (re list, im list, den) triples written here, on entries that
fill a 64-bit slot to the last bit, need 128-bit or wider slots, and change
sign from slot to slot (borrows and carries across slots), on one-slot and
zero-length layers and on denominators other than 1.
"""

from math import lcm
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from conftest import first_difference, qi_scalars
from schurmann.scalars import Qi
from schurmann.words import (
    Layer,
    WordTables,
    combine,
    concat,
    linear,
    pack,
    split,
    step_groups,
)

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


def packed(p: Plain) -> Layer:
    return pack(p.re, p.im, p.den)


def assert_same(layer: Layer, want: Plain):
    assert layer.den == want.den
    assert layer.size == len(want.re)
    assert layer.numerators(layer.den) == (want.re, want.im)
    assert layer.width % 64 == 0
    assert max(map(abs, want.re + want.im), default=0) <= layer.bound < 2 ** (layer.width - 1)


def over(p: Plain, den: int) -> tuple[list, list]:
    f = den // p.den
    return [x * f for x in p.re], [x * f for x in p.im]


def plain_sum(terms, den, size) -> Plain:
    """sum of (a + i b) t over (a, b, t), the numerators taken as they are."""
    re, im = [0] * size, [0] * size
    for a, b, t in terms:
        for i in range(size):
            re[i] += a * t.re[i] - b * t.im[i]
            im[i] += a * t.im[i] + b * t.re[i]
    return Plain(re, im, den)


@given(st.data())
def test_pack_round_trips(data):
    size = data.draw(st.integers(0, 6))
    p = plain_layer(data, size)
    layer = packed(p)
    assert_same(layer, p)
    assert layer.qis() == [Qi(a, b) / Qi(p.den) for a, b in zip(p.re, p.im)]
    for i in range(size):
        assert layer.qi(i) == Qi(p.re[i], p.im[i]) / Qi(p.den)
    nonzero = [i for i in range(size) if p.re[i] or p.im[i]]
    assert layer.first_nonzero() == (nonzero[0] if nonzero else None)


def test_slot_widths():
    assert pack([TOP - 1, -(TOP - 1)], [0, 0], 1).width == 64
    assert pack([TOP, 0], [0, 0], 1).width == 128
    assert pack([0], [-TOP], 1).width == 128
    assert pack([2**200], [0], 1).width == 256
    assert pack([], [], 1) == Layer(0, 0, 1, 0, 64, 0)
    # a sum of two entries just inside a 64-bit slot moves to 128 bits
    near = pack([TOP // 2, -(TOP // 2)], [1, -1], 1)
    twice = combine([(Qi(1), near), (Qi(1), near)])
    assert twice.width == 128
    assert twice.numerators(1) == ([TOP, -TOP], [2, -2])


def pairing_group(data, size: int, n: int):
    """(a group of `linear` as `WordTables.pairing_rows` builds it, its sum
    as lists): n coordinates over one denominator vden, packed, and n
    Gaussian-integer pairs over lin_den, the group over lin_den vden."""
    vden, lin_den = data.draw(dens), data.draw(dens)
    coords = [plain_layer(data, size)._replace(den=vden) for _ in range(n)]
    pairs = [(data.draw(entries), data.draw(entries)) for _ in range(n)]
    want = plain_sum([(a, b, c) for (a, b), c in zip(pairs, coords)], lin_den * vden, size)
    return (pairs, lin_den * vden, tuple(map(packed, coords))), want


@given(st.data())
def test_dots_and_combine_match_lists(data):
    # a pairing row: the pairs of `lin` over packed coordinates, one `linear`
    size, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
    group, want = pairing_group(data, size, n)
    assert_same(linear([group], size), want)
    # no coordinates: the zero layer over the group's denominator
    empty = ([], group[1], ())
    assert_same(linear([empty], size), Plain([0] * size, [0] * size, group[1]))

    layers = [plain_layer(data, size) for _ in range(data.draw(st.integers(1, 3)))]
    coeffs = [data.draw(qi_scalars) for _ in layers]
    den = lcm(*(t.den for t in layers))
    scaled = [c * Qi(den // t.den) for c, t in zip(coeffs, layers)]
    cden = lcm(*(z.den for z in scaled))
    terms = [(z.a * (cden // z.den), z.b * (cden // z.den), t) for z, t in zip(scaled, layers)]
    got = combine([(c, packed(t)) for c, t in zip(coeffs, layers)])
    assert_same(got, plain_sum(terms, cden * den, size))


@given(st.data())
def test_step_matches_lists(data):
    # first(w) + [diag] val(w) + eps(w) vh: one `linear` of the first term's
    # group and `step_groups`, the first term a pairing row over n >= 0
    # coordinates (`WordTables.pairing_rows`) or a signed layer (a
    # non-pairing form in `cohomology.value_tables`), diag off and on
    size, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
    row, row_sum = pairing_group(data, size, n)
    layer, sign = plain_layer(data, size), data.draw(st.sampled_from([1, -1]))
    signed = Plain([sign * x for x in layer.re], [sign * y for y in layer.im], layer.den)
    firsts = [(row, row_sum), (([(sign, 0)], layer.den, [packed(layer)]), signed)]
    val = plain_layer(data, size)
    mask = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    # vh over a denominator of its own
    vh = Qi(data.draw(entries), data.draw(entries)) / Qi(data.draw(dens))
    for (group, first), diag in ((f, dg) for f in firsts for dg in (False, True)):
        den = lcm(first.den, val.den, vh.den)
        re, im = over(first, den)
        if diag:
            for i, (a, b) in enumerate(zip(*over(val, den))):
                re[i] += a
                im[i] += b
        e = den // vh.den
        for i in range(size):
            re[i] += mask[i] * vh.a * e
            im[i] += mask[i] * vh.b * e
        steps = step_groups(packed(val), pack(mask, [0] * size, 1), diag, vh)
        assert_same(linear([group] + steps, size), Plain(re, im, den))


@given(st.data())
def test_concat_split_and_first_difference_match_lists(data):
    sizes = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    parts = [plain_layer(data, n) for n in sizes]
    den = lcm(*(p.den for p in parts))
    want = Plain([], [], den)
    for p in parts:
        re, im = over(p, den)
        want.re.extend(re)
        want.im.extend(im)
    whole = concat([packed(p) for p in parts])
    assert_same(whole, want)
    # scaled to the common denominator 15, the first part needs 128-bit
    # slots; the zero-size part in the middle moves no offset
    narrow = [pack([TOP - 1, 1], [0, -(TOP - 1)], 1), pack([], [], 5), pack([2], [3], 3)]
    assert {p.width for p in narrow} == {64}
    wide = concat(narrow)
    assert wide.width == 128
    assert_same(wide, Plain([15 * (TOP - 1), 15, 10], [0, -15 * (TOP - 1), 15], 15))
    assert_same(concat([pack([], [], 2)]), Plain([], [], 2))

    k, size = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    p = plain_layer(data, k * size)
    for j, part in enumerate(split(packed(p), k)):
        cut = slice(j * size, (j + 1) * size)
        assert_same(part, Plain(p.re[cut], p.im[cut], p.den))

    # y: x over another denominator, with an entry changed or not
    x = plain_layer(data, data.draw(st.integers(0, 5)))
    f = data.draw(dens)
    y = Plain([a * f for a in x.re], [b * f for b in x.im], x.den * f)
    if x.re and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(x.re) - 1))
        y.re[i] += data.draw(st.sampled_from([1, -1, TOP, -(2**100)]))
    changed = [i for i in range(len(x.re)) if x.re[i] * f != y.re[i]]
    assert first_difference(packed(x), packed(y)) == (changed[0] if changed else None)


def drawn_layer(data, size) -> Plain:
    """`plain_layer` for sizes too large to draw entry by entry: seeded
    entries up to 3, 2^63 or 2^130 in absolute value (64-, 128- and 192-bit
    slots), about a third of them 0."""
    if size <= 8:
        return plain_layer(data, size)
    rng = data.draw(st.randoms(use_true_random=False))
    top = data.draw(st.sampled_from([3, TOP, 2**130]))
    re, im = ([rng.choice([0, rng.randint(-top, top), top]) for _ in range(size)] for _ in "ri")
    return Plain(re, im, data.draw(dens))


@given(st.data())
def test_counit_terms_match_lists(data):
    # d = 2: eight letters, four of them diagonal, layers of words up to
    # length 1; d = 3: eighteen letters, six of them diagonal, so the codes
    # with eps = 1 are not evenly spaced, layers up to length 2
    d = data.draw(st.sampled_from([2, 3]))
    top = d - 1
    t = WordTables(d)
    p = data.draw(st.integers(0, top))
    layer = drawn_layer(data, t.base ** data.draw(st.integers(0, top)))
    eps = [int(c in t.eps(p)) for c in range(t.base**p)]
    assert_same(t.counit(p), Plain(eps, [0] * len(eps), 1))
    size = len(layer.re)
    left = Plain([e * x for e in eps for x in layer.re], [e * y for e in eps for y in layer.im], layer.den)
    right = Plain([x * e for x in layer.re for e in eps], [y * e for y in layer.im for e in eps], layer.den)
    assert_same(t.eps_left(packed(layer), p), left)
    assert_same(t.eps_right(packed(layer), p), right)
    assert size * len(eps) == len(left.re) == len(right.re)


def test_decode_guard_refuses_an_understated_bound():
    wide = pack([2**70, -3], [0, 1], 1)
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
            first_difference(layer, pack([0] * layer.size, [0] * layer.size, 1))
