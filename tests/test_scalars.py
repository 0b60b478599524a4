"""Field arithmetic in Q(i) and the scalar wire format."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import nonzero_qi, q, qi_scalars
from schurmann import I, ONE, Qi, ZERO, rational
from schurmann.scalars import scalar_from_json, scalar_to_json


def test_constants():
    assert ZERO == Qi(rational(0))
    assert ONE == Qi(rational(1))
    assert I * I == -ONE


def test_string_parsing():
    assert q("1/2") + q("1/2") == ONE
    assert q(("3", "-1/4")) == Qi(rational(3), rational("-1/4"))


def test_repr_round_samples():
    assert repr(q(("1/2", "3/4"))) == "1/2+3/4*i"
    assert repr(-ONE) == "-1"
    assert repr(I) == "1*i"
    assert repr(ZERO) == "0"


def test_division_exact():
    x = q(("1", "1"))
    assert x / x == ONE
    assert (ONE / q("3")) * q("3") == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(qi_scalars, qi_scalars, qi_scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(qi_scalars)
def test_conjugation_involution(a):
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.im == rational(0)
    assert (norm.re >= 0) or a.is_zero()


@given(nonzero_qi)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@given(qi_scalars)
def test_json_roundtrip(a):
    out = scalar_to_json(a)
    assert set(out) == {"re", "im"}
    assert scalar_from_json(out) == a


def test_json_rejects_zero_denominator():
    with pytest.raises(ValueError):
        scalar_from_json({"re": "1/0", "im": "0"})


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        scalar_from_json({"re": "one", "im": "0"})
    with pytest.raises(ValueError):
        scalar_from_json("1")


# -- oracle: Qi against a plain (Fraction, Fraction) model ---------------------

small_parts = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
large_parts = st.lists(
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    min_size=8,
    max_size=8,
).map(lambda fs: math.prod(fs, start=Fraction(1)))
model_pairs = st.tuples(
    st.one_of(small_parts, large_parts), st.one_of(small_parts, large_parts)
)


def model_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def model_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def model_repr(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'' if im < 0 else '+'}{im}*i"


def model_json_bytes(x):
    re, im = x
    wire = {
        "re": f"{re.numerator}/{re.denominator}",
        "im": f"{im.numerator}/{im.denominator}",
    }
    return json.dumps(wire).encode()


def parts(z):
    # the stored form is canonical: positive denominator, lowest terms
    assert z.den > 0 and math.gcd(z.a, z.b, z.den) == 1
    return z.re, z.im


@settings(max_examples=500)
@given(model_pairs, model_pairs)
def test_qi_matches_fraction_pair_model(x, y):
    zx, zy = Qi(*x), Qi(*y)
    assert parts(zx) == x
    assert parts(zx + zy) == (x[0] + y[0], x[1] + y[1])
    assert parts(zx - zy) == (x[0] - y[0], x[1] - y[1])
    assert parts(-zx) == (-x[0], -x[1])
    assert parts(zx * zy) == model_mul(x, y)
    assert parts(zx.conj()) == (x[0], -x[1])
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            zx / zy
    else:
        assert parts(zx / zy) == model_div(x, y)
        # the same value reached by another route is equal and hashes equal
        back = (zx * zy) / zy
        assert back == zx and hash(back) == hash(zx)
    assert (zx == zy) == (x == y)
    if zx == zy:
        assert hash(zx) == hash(zy)
    assert zx.is_zero() == (x == (0, 0))
    assert (zx.conj() == zx) == (x[1] == 0)
    assert repr(zx) == model_repr(x)
    assert json.dumps(scalar_to_json(zx)).encode() == model_json_bytes(x)
    assert scalar_from_json(scalar_to_json(zx)) == zx
