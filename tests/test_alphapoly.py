from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from jackpoly.alphapoly import AlphaFrac, AlphaPoly, ExactnessError

A = AlphaPoly.ALPHA

alpha_polys = st.lists(st.integers(-9, 9), max_size=5).map(AlphaPoly)
linear = st.tuples(st.integers(-6, 6), st.integers(-4, 4).filter(bool)).map(AlphaPoly)
# a denominator as the list of its factors: nonzero ints and linear polynomials
factor_lists = st.lists(st.one_of(linear, st.integers(-6, 6).filter(bool)), max_size=4)


def test_normalization_drops_leading_zeros():
    assert AlphaPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert AlphaPoly((0, 0)).coeffs == ()
    assert not AlphaPoly(0)
    assert AlphaPoly(7).constant == 7


def test_int_coercion_and_equality():
    assert A + 1 == AlphaPoly((1, 1))
    assert 1 + A == A + 1
    assert A - A == 0
    assert 3 == AlphaPoly(3)
    assert A != 0


def test_product_expands():
    assert (A + 1) * (A + 2) == AlphaPoly((2, 3, 1))
    assert (A + 1) ** 2 == AlphaPoly((1, 2, 1))
    assert (A * 0) * (A + 5) == 0


def test_degree_and_leading():
    assert AlphaPoly.ZERO.degree == -1
    assert (2 * A * A + 1).degree == 2
    assert (2 * A * A + 1).leading == 2


def test_exact_scalar_div():
    assert AlphaPoly((2, 4)).exact_scalar_div(2) == 2 * A + 1
    with pytest.raises(ExactnessError):
        AlphaPoly((1, 2)).exact_scalar_div(2)
    with pytest.raises(ZeroDivisionError):
        AlphaPoly((2,)).exact_scalar_div(0)


def test_evaluate():
    p = 2 * A * A + A + 1
    assert p.evaluate(0) == 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(2)
    assert AlphaPoly.ZERO.evaluate(5) == 0


def test_format():
    assert str(A + 1) == "a+1"
    assert str(2 * A * A - A) == "2a^2-a"
    assert str(AlphaPoly.ZERO) == "0"
    assert str(AlphaPoly(-3)) == "-3"


def test_json_round_trip():
    p = AlphaPoly((10**30, -2, 3))
    assert p.to_json() == [str(10**30), "-2", "3"]


@given(alpha_polys, alpha_polys, alpha_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# -- fractions ---------------------------------------------------------------


def test_frac_canonical_examples():
    half = AlphaFrac(2, 2 * A + 2)
    assert half.num == 1 and half.den == A + 1
    assert AlphaFrac(A * A - 1, A + 1) == A - 1
    # sign lives in the numerator
    neg = AlphaFrac(1, -A - 1)
    assert neg.num == -1 and neg.den == A + 1
    # contents reduce but stay integral
    f = AlphaFrac(2, 4 * A + 2)
    assert f.num == 1 and f.den == 2 * A + 1


def test_frac_zero_and_errors():
    assert not AlphaFrac(0, A + 1)
    assert AlphaFrac(0, A + 1).den == 1
    with pytest.raises(ZeroDivisionError):
        AlphaFrac(1, 0)


def test_frac_arithmetic():
    inv = AlphaFrac(1, A + 1)
    assert inv + AlphaFrac(A, A + 1) == 1
    assert inv * (A + 1) == 1
    assert (1 / inv) == A + 1
    assert inv - inv == 0
    assert -inv == AlphaFrac(-1, A + 1)
    assert AlphaFrac(A, A + 2) / AlphaFrac(A, A + 2) == 1


def test_frac_evaluate():
    assert AlphaFrac(1, A + 1).evaluate(1) == Fraction(1, 2)
    assert AlphaFrac(A, A + 2).evaluate(Fraction(1, 2)) == Fraction(1, 5)


def test_frac_format():
    assert str(AlphaFrac(1, A + 1)) == "1/(a+1)"
    assert str(AlphaFrac(A + 1, 1)) == "a+1"
    assert str(AlphaFrac(-A, A + 1)) == "(-a)/(a+1)"


def test_frac_json_round_trip():
    f = AlphaFrac(A + 3, 2 * A + 1)
    assert f.to_json() == {"num": ["3", "1"], "den": ["1", "2"]}


@given(alpha_polys, factor_lists, factor_lists)
def test_frac_canonical_form_unique(num, den, scale):
    # the same fraction built two ways has an identical representation
    direct = AlphaFrac(num, den)
    scaled = AlphaFrac(num * prod(scale, start=AlphaPoly.ONE), den + scale)
    assert direct.num == scaled.num and direct.den == scaled.den


@given(alpha_polys, factor_lists, alpha_polys, factor_lists)
def test_frac_field_ops(a, b, c, d):
    x = AlphaFrac(a, b)
    y = AlphaFrac(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y.num.degree >= 2:
        # its numerator would become a denominator of degree >= 2
        with pytest.raises(ValueError):
            x / y
    elif y:
        assert (x / y) * y == x
