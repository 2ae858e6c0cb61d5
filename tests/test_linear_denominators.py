"""AlphaFrac with linear-factor denominators, against the general gcd.

Every denominator the package builds is a product of linear factors, and
AlphaFrac reduces those by synthetic division instead of the general
polynomial gcd.  These tests compare the result with a reference reduced
by poly_gcd, check that the package paths never call poly_gcd, and pin the
integer-only evaluation and pairing against the Fraction arithmetic they
replace.
"""

import contextlib
import io
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from jackpoly import alphapoly, cli
from jackpoly.alphapoly import AlphaFrac, AlphaPoly, exact_poly_div, poly_gcd
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


def reference(num: AlphaPoly, den: AlphaPoly) -> tuple[AlphaPoly, AlphaPoly]:
    """num / den reduced the general way: polynomial gcd, content, sign."""
    if not num:
        return AlphaPoly.ZERO, AlphaPoly.ONE
    g = poly_gcd(num, den)
    num, den = exact_poly_div(num, g), exact_poly_div(den, g)
    c = gcd(num.content(), den.content())
    num, den = num.exact_scalar_div(c), den.exact_scalar_div(c)
    return (-num, -den) if den.leading < 0 else (num, den)


def assert_reduced(frac: AlphaFrac, num: AlphaPoly, den: AlphaPoly) -> None:
    assert (frac.num, frac.den) == reference(num, den)


@settings(max_examples=300, deadline=None)
@given(fractions())
def test_linear_factors_reduce_like_the_general_gcd(x):
    num, factors = x
    den = prod(factors, start=AlphaPoly.ONE)
    frac = AlphaFrac(num, factors)
    assert_reduced(frac, num, den)
    # the expanded denominator takes the general path and lands on the
    # same canonical form, so the two compare and hash alike
    general = AlphaFrac(num, den)
    assert general == frac and hash(general) == hash(frac)
    assert str(general) == str(frac)


@settings(max_examples=300, deadline=None)
@given(fractions(), fractions())
def test_field_operations_reduce_like_the_general_gcd(x, y):
    x, y = AlphaFrac(*x), AlphaFrac(*y)
    assert_reduced(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
    assert_reduced(x - y, x.num * y.den - y.num * x.den, x.den * y.den)
    assert_reduced(x * y, x.num * y.num, x.den * y.den)
    if y:
        assert_reduced(x / y, x.num * y.den, x.den * y.num)


@settings(max_examples=100, deadline=None)
@given(fractions(), fractions(), polys.filter(lambda p: p.degree >= 2))
def test_linear_factors_mix_with_a_general_remainder(x, y, extra):
    # a denominator of degree >= 2 goes through poly_gcd; mixing it with
    # linear factors must still give the canonical form
    x = AlphaFrac(*x)
    y = AlphaFrac(y[0], y[1] + [extra])
    assert_reduced(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
    assert_reduced(x * y, x.num * y.num, x.den * y.den)


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


# -- no gcd on the package paths -------------------------------------------------


@pytest.mark.parametrize("argv", [
    "verify eigen --n-max 3 --deg-max 4",
    "verify swap --n-max 4 --deg-max 4",
    "verify orthogonality --n-max 3 --deg-max 3",
    "compute E --lambda 0,3,3,0,1,0,1 --n 7",
    "compute P --lambda 3,3,2 --n 8",
    "compute P --lambda 3,2,1 --n 4 --basis m-tilde",
    "compute P --lambda 2,2,1 --n 4 --basis monomial-of-x",
])
def test_package_paths_make_no_gcd_call(argv, monkeypatch):
    calls = []
    monkeypatch.setattr(alphapoly, "poly_gcd", lambda *args: calls.append(args))
    monkeypatch.setattr(alphapoly, "exact_poly_div", lambda *args: calls.append(args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0
    assert calls == []


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
                  (1, 1): A + 3, (0, 0): AlphaFrac(1, A * A + 1)})
    d, g = clear_denominators(f)
    assert prod(d, start=AlphaPoly.ONE) == 2 * (A + 1) ** 2 * (A * A + 1)
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
