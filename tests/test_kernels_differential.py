"""Differential tests: the integer kernels against the code they replaced.

Each reference below is a verbatim copy of the earlier implementation:
long division over Fraction, the raising step over AlphaPoly objects, and
the orbit-subtracting monomial expansion.  The default run covers n <= 6 and
degree <= 6; the ``slow`` group (``pytest -m slow``) widens the same
comparisons.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jackpoly.alphapoly import AlphaPoly, ExactnessError, exact_poly_div
from jackpoly.compositions import (
    compositions_up_to,
    length,
    partitions,
    raising_scalar,
    star_shape,
)
from jackpoly.mpoly import MPoly
from jackpoly.recursion import (
    CacheFormatError,
    RecursionCache,
    _digit_bound,
    cache_document,
    f_poly,
    load_cache_document,
)
from jackpoly.symmetric import expand_monomial, j_poly, monomial_symmetric, p_poly


# -- the replaced implementations -----------------------------------------------


def fraction_poly_div(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return AlphaPoly.ZERO
    rem = [Fraction(c) for c in f.coeffs]
    dg = g.degree
    lg = g.leading
    quot = [Fraction(0)] * (len(rem) - dg)
    while len(rem) - 1 >= dg:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        q = rem[-1] / lg
        shift = len(rem) - 1 - dg
        quot[shift] = q
        for i, gc in enumerate(g.coeffs):
            rem[shift + i] -= q * gc
        rem.pop()
    if any(rem) or any(q.denominator != 1 for q in quot):
        raise ExactnessError(f"({f}) is not divisible by ({g})")
    return AlphaPoly(tuple(int(q) for q in quot))


def object_apply_raising(lam, f: MPoly) -> MPoly:
    n = len(lam)
    m = length(lam)
    scal = raising_scalar(lam)
    acc = {}
    for k in range(m, n + 1):
        weighted = k == m
        for e, c in f.terms.items():
            exp = e[1:k] + (e[0] + 1,) + e[k:]
            if weighted:
                c = c * scal
            prev = acc.get(exp)
            s = c if prev is None else prev + c
            if s:
                acc[exp] = s
            elif exp in acc:
                del acc[exp]
    out = MPoly(n)
    out.terms = acc
    return out


def object_f_poly(lam, memo: dict) -> MPoly:
    lam = tuple(lam)
    pending = []
    cur = lam
    while cur not in memo and length(cur):
        pending.append(cur)
        cur = star_shape(cur)
    f = memo.get(cur) or MPoly.one(len(lam), AlphaPoly.ONE)
    while pending:
        cur = pending.pop()
        f = memo[cur] = object_apply_raising(cur, f)
    return f


def orbit_expand_monomial(f: MPoly) -> dict:
    for i in range(1, f.n):
        if f.swap(i, i + 1) != f:
            raise ValueError(f"input is not symmetric (fails at positions {i}, {i + 1})")
    remaining = MPoly(f.n)
    remaining.terms = dict(f.terms)
    entries: dict = {}
    while remaining.terms:
        tops = [e for e in remaining.terms if all(e[i] >= e[i + 1] for i in range(len(e) - 1))]
        if not tops:
            raise ArithmeticError("no partition-shaped term left: internal error")
        mu = max(tops)
        v = remaining.terms[mu]
        key = tuple(x for x in mu if x)
        entries[key] = v
        remaining = remaining - monomial_symmetric(key, f.n).scale(v)
    return entries


# -- exact division ---------------------------------------------------------------

small_polys = st.lists(st.integers(-12, 12), max_size=5).map(AlphaPoly)
nonzero_polys = small_polys.filter(bool)


def _outcome(fn, f, g):
    try:
        return fn(f, g)
    except ExactnessError:
        return ExactnessError


@settings(max_examples=200, deadline=None)
@given(small_polys, nonzero_polys, small_polys, st.booleans())
def test_exact_division_matches_fraction_division(f, g, r, exact):
    # half the pairs are exact multiples; the rest are mostly inexact
    if exact:
        f = f * g
    else:
        f = f * g + r
    got = _outcome(exact_poly_div, f, g)
    want = _outcome(fraction_poly_div, f, g)
    assert got is want if want is ExactnessError else got == want


def test_exact_division_non_monic_cases():
    a = AlphaPoly.ALPHA
    g = 2 * a + 3
    assert exact_poly_div((2 * a + 3) * (a - 5), g) == a - 5
    # divisible over Q but not over Z: the first quotient digit is 1/2
    for fn in (exact_poly_div, fraction_poly_div):
        with pytest.raises(ExactnessError):
            fn(a * a + 3 * a, 2 * a + 6)
        with pytest.raises(ExactnessError):
            fn(a + 1, 3 * a * a)
    assert exact_poly_div(AlphaPoly.ZERO, g) == 0
    with pytest.raises(ZeroDivisionError):
        exact_poly_div(a, AlphaPoly.ZERO)


# -- packed recursion -----------------------------------------------------------------


def _check_f_three_ways(n_max: int, deg_max: int) -> None:
    memo: dict = {}
    shapes = [lam for n in range(1, n_max + 1) for lam in compositions_up_to(n, deg_max)]
    expected = {lam: object_f_poly(lam, memo) for lam in shapes}

    shared = RecursionCache()
    for lam in shapes:
        assert f_poly(lam) == expected[lam], lam
        assert f_poly(lam, shared) == expected[lam], lam

    # start from loaded entries: only the lower half of each chain is on disk
    seeded = RecursionCache()
    for lam in shapes:
        if sum(lam) <= deg_max // 2:
            seeded.put(lam, expected[lam])
    loaded = RecursionCache()
    for n in seeded.variable_counts():
        load_cache_document(json.loads(json.dumps(cache_document(seeded, n))), loaded)
    assert len(loaded) == len(seeded)
    for lam in shapes:
        assert f_poly(lam, loaded) == expected[lam], lam


def test_packed_recursion_matches_object_recursion():
    _check_f_three_ways(6, 6)


@pytest.mark.slow
def test_packed_recursion_matches_object_recursion_wide():
    _check_f_three_ways(8, 7)


def test_packed_recursion_refuses_negative_start():
    cache = RecursionCache()
    cache.put((1, 0), MPoly(2, {(1, 0): AlphaPoly((-7,)), (0, 1): AlphaPoly.ONE}))
    with pytest.raises(CacheFormatError):
        f_poly((2, 0), cache)


def test_digit_bound_is_the_final_digit_sum():
    # the bound is exact: with no cancellation, the digit sum of the final F
    # is the product of the per-step factors, and every digit is below it
    for lam in [(1, 1, 1, 1, 1, 1), (0, 3, 0, 2, 1), (4, 0, 0, 2), (2, 2, 2, 0, 0)]:
        chain = []
        cur = lam
        while length(cur):
            chain.append(cur)
            cur = star_shape(cur)
        bound = _digit_bound(MPoly.one(len(lam), AlphaPoly.ONE), chain)
        digits = [d for c in f_poly(lam).terms.values() for d in c.coeffs]
        assert min(digits) >= 0
        assert sum(digits) == bound
        assert max(digits) < 2 ** bound.bit_length()


# -- read-off monomial expansion ---------------------------------------------------


def _check_expansions(deg_max: int, n_max: int) -> None:
    cache = RecursionCache()
    for d in range(deg_max + 1):
        for lam in partitions(d):
            for n in range(max(len(lam), 1), n_max + 1):
                for poly in (j_poly(lam, n, cache), p_poly(lam, n, cache)):
                    got = expand_monomial(poly).entries
                    want = orbit_expand_monomial(poly)
                    assert got == want, (lam, n)
                    assert list(got) == list(want), (lam, n)


def test_read_off_expansion_matches_orbit_subtraction():
    _check_expansions(6, 6)


@pytest.mark.slow
def test_read_off_expansion_matches_orbit_subtraction_wide():
    _check_expansions(8, 8)


def test_read_off_expansion_rejects_non_symmetric_input():
    f = f_poly((2, 1, 0))
    for fn in (expand_monomial, orbit_expand_monomial):
        with pytest.raises(ValueError):
            fn(f)
    # symmetric in every adjacent pair but one
    g = monomial_symmetric((2, 1), 3) + MPoly(3, {(0, 1, 2): 1})
    with pytest.raises(ValueError):
        expand_monomial(g)
