from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jackpoly.alphapoly import AlphaFrac, AlphaPoly
from jackpoly.mpoly import (
    MPoly,
    divide_coefficients,
    divided_transposition,
    specialize_alpha,
)
from jackpoly import permutations as perm

A = AlphaPoly.ALPHA


def x(n, i):
    return MPoly.variable(n, i)


@st.composite
def small_polys(draw, n=None, max_exp=3, max_terms=4):
    if n is None:
        n = draw(st.integers(2, 4))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_exp)] * n), st.integers(-5, 5)),
        max_size=max_terms))
    return MPoly(n, terms)


def test_ring_op_examples():
    n = 2
    assert (x(n, 1) + x(n, 2)) * (x(n, 1) - x(n, 2)) == \
        MPoly(n, {(2, 0): 1, (0, 2): -1})
    f = MPoly(n, {(1, 0): A + 1})
    assert f + MPoly.zero(n) == f
    assert f * f == MPoly(n, {(2, 0): A * A + 2 * A + 1})


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) * x(3, 1)
    with pytest.raises(ValueError):
        MPoly(2, {(1,): 1})


def test_scale_and_neg():
    f = x(2, 1) + x(2, 2)
    assert f.scale(0) == MPoly.zero(2)
    assert f.scale(A) == MPoly(2, {(1, 0): A, (0, 1): A})
    assert -(-f) == f
    assert (A + 1) * f == f.scale(A + 1)


def test_act_examples():
    s1 = perm.simple(2, 1)
    assert x(2, 1).act(s1) == x(2, 2)
    assert (x(2, 1) * x(2, 2)).act(s1) == x(2, 1) * x(2, 2)
    f = MPoly(3, {(2, 1, 0): 1})
    assert f.act(perm.simple(3, 2)) == MPoly(3, {(2, 0, 1): 1})


@settings(max_examples=60)
@given(small_polys(n=4), st.permutations(range(4)), st.permutations(range(4)))
def test_act_is_group_action(f, w, v):
    w, v = tuple(w), tuple(v)
    assert f.act(v).act(w) == f.act(perm.compose(w, v))


@settings(max_examples=40)
@given(small_polys(n=3), small_polys(n=3, max_terms=3), small_polys(n=3, max_terms=3))
def test_mul_commutative_associative(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_divided_transposition_examples():
    n = 2
    assert divided_transposition(1, 2, MPoly(n, {(2, 0): 1})) == x(n, 1) + x(n, 2)
    assert divided_transposition(1, 2, x(n, 1) * x(n, 2)) == MPoly.zero(n)
    assert divided_transposition(1, 2, x(n, 1)) == MPoly.one(n)
    with pytest.raises(ValueError):
        divided_transposition(1, 1, x(n, 1))


@settings(max_examples=80)
@given(small_polys(), st.data())
def test_divided_transposition_is_exact(f, data):
    n = f.n
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n).filter(lambda v: v != i))
    quotient = divided_transposition(i, j, f)
    binomial = x(n, i) - x(n, j)
    assert binomial * quotient == f - f.swap(i, j)


def test_substitute_zero():
    n = 2
    assert (x(n, 1) + x(n, 2)).substitute_zero([1]) == x(n, 2)
    assert (x(n, 1) * x(n, 2)).substitute_zero([2]) == MPoly.zero(n)
    f = MPoly(n, {(1, 0): A + 1, (0, 1): 1})
    assert f.substitute_zero([2]) == MPoly(n, {(1, 0): A + 1})
    laurent = MPoly(n, {(-1, 0): 1})
    with pytest.raises(ValueError):
        laurent.substitute_zero([1])
    assert laurent.substitute_zero([2]) == laurent


def test_constant_term():
    n = 2
    f = MPoly(n, {(0, 0): 2, (1, -1): -1, (-1, 1): -1})
    assert f.constant_term() == 2
    assert x(n, 1).constant_term() == 0
    assert MPoly.one(n, 5).constant_term() == 5


def test_invert_and_drop():
    g = MPoly(3, {(1, 2, 0): 1})
    assert g.drop_last_variable() == MPoly(2, {(1, 2): 1})
    with pytest.raises(ValueError):
        MPoly(3, {(1, 0, 1): 1}).drop_last_variable()


def test_divide_coefficients():
    n = 2
    f = MPoly(n, {(1, 0): A + 1, (0, 1): AlphaPoly.ONE})
    e = divide_coefficients(f, A + 1)
    assert e == MPoly(n, {(1, 0): AlphaFrac(1), (0, 1): AlphaFrac(1, A + 1)})
    g = MPoly(n, {(0, 1): A + 2})
    assert divide_coefficients(g, A + 2) == MPoly(n, {(0, 1): AlphaFrac(1)})
    assert divide_coefficients(f, AlphaPoly.ONE) == f
    with pytest.raises(ZeroDivisionError):
        divide_coefficients(f, AlphaPoly.ZERO)


def test_specialize_alpha():
    f = MPoly(2, {(1, 0): A + 1, (0, 1): AlphaFrac(1, A + 1)})
    g = specialize_alpha(f, 1)
    assert g == MPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 2)})
    assert specialize_alpha(f, Fraction(1, 2)).coefficient((0, 1)) == Fraction(2, 3)


def test_sorted_terms_graded_lex_descending():
    f = MPoly(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 0): 1})
    assert [e for e, _ in f.sorted_terms()] == [(2, 0), (1, 1), (0, 1), (0, 0)]


def test_multiply_variable():
    f = x(2, 1) + MPoly.one(2)
    assert f.multiply_variable(2) == x(2, 1) * x(2, 2) + x(2, 2)
    assert f.multiply_variable(1, 2) == MPoly(2, {(3, 0): 1, (2, 0): 1})
