"""AlphaFrac with linear-factor denominators, against the general gcd.

Every AlphaFrac denominator is a product of linear factors, reduced by
synthetic division.  These tests compare the result with a reference
reduced by a general polynomial gcd, which lives here and not in the
package, check that a denominator of degree >= 2 is refused, and pin the
integer-only evaluation and pairing against the Fraction arithmetic they
replace.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from jackpoly.alphapoly import AlphaFrac, AlphaPoly
from jackpoly.cherednik import pairing_context, scalar_product
from jackpoly.compositions import compositions_up_to
from jackpoly.mpoly import MPoly, clear_denominators, divide_coefficients
from jackpoly.recursion import e_poly

A = AlphaPoly.ALPHA

polys = st.lists(st.integers(-9, 9), max_size=5).map(AlphaPoly)
linear = st.tuples(st.integers(-6, 6), st.integers(-4, 4).filter(bool)).map(AlphaPoly)
factor_lists = st.lists(st.one_of(linear, st.integers(-6, 6).filter(bool)), max_size=10)


@st.composite
def fractions(draw):
    """(numerator, factor list): a random numerator times a random part of
    the factors, so that reduction has something to cancel."""
    factors = draw(factor_lists)
    shared = draw(st.integers(0, len(factors)))
    num = draw(polys) * prod(factors[:shared], start=AlphaPoly.ONE)
    return num, factors


# -- the general gcd, as a reference ---------------------------------------------


def _primitive_part(p: AlphaPoly) -> AlphaPoly:
    c = gcd(*p.coeffs)
    return p if c <= 1 else p.exact_scalar_div(c)


def _pseudo_rem(f: tuple, g: tuple) -> tuple:
    """Pseudo-remainder of dense integer coefficient lists: lc(g)^(df-dg+1) f mod g."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        lr = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lg for c in r]
        for i, gc in enumerate(g):
            r[shift + i] -= lr * gc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _poly_gcd(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    """Primitive gcd with positive leading coefficient (of the primitive parts)."""
    if not f:
        f, g = g, f
    f, g = _primitive_part(f).coeffs, _primitive_part(g).coeffs
    while g:
        f, g = g, _primitive_part(AlphaPoly(_pseudo_rem(f, g))).coeffs
    return AlphaPoly(tuple(-c for c in f) if f and f[-1] < 0 else f)


def _exact_poly_div(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    """The quotient f / g in Z[alpha], by integer long division; asserts
    that the division is exact."""
    rem = list(f.coeffs)
    gc = g.coeffs
    dg = len(gc) - 1
    quot = [0] * (len(rem) - dg)
    for shift in range(len(rem) - 1 - dg, -1, -1):
        q, r = divmod(rem[shift + dg], gc[-1])
        assert not r
        quot[shift] = q
        for i in range(dg + 1):
            rem[shift + i] -= q * gc[i]
    assert not any(rem)
    return AlphaPoly(quot)


def reference(num: AlphaPoly, den: AlphaPoly) -> tuple[AlphaPoly, AlphaPoly]:
    """num / den reduced the general way: polynomial gcd, content, sign."""
    if not num:
        return AlphaPoly.ZERO, AlphaPoly.ONE
    g = _poly_gcd(num, den)
    num, den = _exact_poly_div(num, g), _exact_poly_div(den, g)
    c = gcd(*num.coeffs, *den.coeffs)
    num, den = num.exact_scalar_div(c), den.exact_scalar_div(c)
    return (-num, -den) if den.leading < 0 else (num, den)


def assert_reduced(frac: AlphaFrac, num: AlphaPoly, den: AlphaPoly) -> None:
    assert (frac.num, frac.den) == reference(num, den)


@settings(max_examples=300, deadline=None)
@given(fractions())
def test_linear_factors_reduce_like_the_general_gcd(x):
    num, factors = x
    den = prod(factors, start=AlphaPoly.ONE)
    assert_reduced(AlphaFrac(num, factors), num, den)


@settings(max_examples=300, deadline=None)
@given(fractions(), fractions(), st.one_of(linear, st.integers(-6, 6).filter(bool)))
def test_field_operations_reduce_like_the_general_gcd(x, y, top):
    # a quotient turns the divisor's numerator into a denominator, so the
    # divisor's numerator is an int or linear
    divisor = AlphaFrac(top, y[1])
    x, y = AlphaFrac(*x), AlphaFrac(*y)
    assert_reduced(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
    assert_reduced(x - y, x.num * y.den - y.num * x.den, x.den * y.den)
    assert_reduced(x * y, x.num * y.num, x.den * y.den)
    assert_reduced(x / divisor, x.num * divisor.den, x.den * divisor.num)


def test_a_denominator_of_degree_two_is_refused():
    with pytest.raises(ValueError, match=r"a\^2\+1.*linear factors as a list"):
        AlphaFrac(1, A * A + 1)
    with pytest.raises(ValueError, match=r"a\^2\+1.*linear factors as a list"):
        AlphaFrac(1) / AlphaFrac(A * A + 1)
    # the same degree as the list of its factors
    frac = AlphaFrac(1, [A + 1, A + 3])
    assert frac.den == A * A + 4 * A + 3
    assert str(frac) == "1/(a^2+4a+3)"


def test_sums_and_products_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    a = sympy.Symbol("a")

    def expr(p: AlphaPoly):
        return sum((sympy.Integer(c) * a ** k for k, c in enumerate(p.coeffs)), sympy.Integer(0))

    @settings(max_examples=60, deadline=None)
    @given(fractions(), fractions())
    def check(x, y):
        x, y = AlphaFrac(*x), AlphaFrac(*y)
        ex, ey = expr(x.num) / expr(x.den), expr(y.num) / expr(y.den)
        for ours, theirs in ((x + y, ex + ey), (x * y, ex * ey)):
            num, den = sympy.fraction(sympy.cancel(theirs))
            assert sympy.expand(num * expr(ours.den) - den * expr(ours.num)) == 0
            assert sympy.degree(den, a) == ours.den.degree

    check()


def test_hook_lists_divide_like_the_hook_product():
    from jackpoly.compositions import (lower_hook_product, lower_hooks,
                                       upper_hook_product, upper_hooks)
    for lam in compositions_up_to(3, 5):
        assert prod(upper_hooks(lam), start=AlphaPoly.ONE) == upper_hook_product(lam)
        assert prod(lower_hooks(lam), start=AlphaPoly.ONE) == lower_hook_product(lam)
        assert all(h.degree == 1 for h in upper_hooks(lam))


# -- clearing denominators -------------------------------------------------------


def test_clear_denominators_round_trips_e():
    for lam in list(compositions_up_to(3, 5)) + [(0, 3, 3, 0, 1), (2, 0, 1, 2)]:
        e = e_poly(lam)
        d, g = clear_denominators(e)
        assert all(isinstance(c, AlphaPoly) for c in g.terms.values())
        assert divide_coefficients(g, d) == e
        # the lead coefficient of E is 1, so D itself is a coefficient
        assert g.coefficient(lam) == prod(d, start=AlphaPoly.ONE)


def test_clear_denominators_takes_the_lcm():
    f = MPoly(2, {(1, 0): AlphaFrac(1, [A + 1, A + 1]), (0, 1): AlphaFrac(A, [2, A + 1]),
                  (1, 1): A + 3})
    d, g = clear_denominators(f)
    assert prod(d, start=AlphaPoly.ONE) == 2 * (A + 1) ** 2
    assert divide_coefficients(g, d) == f


# -- integer evaluation and pairing -----------------------------------------------


def fraction_horner(p: AlphaPoly, value):
    """Horner's rule with a Fraction at every step, as evaluate did before."""
    result = value * 0
    for c in reversed(p.coeffs):
        result = result * value + c
    return result


values = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-5, max_value=5, max_denominator=12))


@given(polys, values)
def test_poly_evaluate_matches_fraction_horner(p, value):
    got, want = p.evaluate(value), fraction_horner(p, value)
    assert got == want and type(got) is type(want)


@given(fractions(), values)
def test_frac_evaluate_matches_fraction_horner(x, value):
    frac = AlphaFrac(*x)
    value = Fraction(value)
    den = fraction_horner(frac.den, value)
    if not den:
        with pytest.raises(ZeroDivisionError):
            frac.evaluate(value)
        return
    assert frac.evaluate(value) == fraction_horner(frac.num, value) / den


@st.composite
def rational_polys(draw, n):
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * n),
                                    st.fractions(-3, 3, max_denominator=6)),
                          max_size=5))
    return MPoly(n, terms)


@settings(deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(st.just(n), rational_polys(n),
                                                     rational_polys(n))),
       st.integers(1, 2))
def test_scalar_product_matches_fraction_sum(case, k):
    n, f, g = case
    assume(f and g)
    ctx = pairing_context(n, k)
    want = Fraction(0)
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            want += cf * cg * ctx.weight_coefficient(tuple(b - a for a, b in zip(ef, eg)))
    got = scalar_product(f, g, ctx)
    assert got == want and isinstance(got, Fraction)
