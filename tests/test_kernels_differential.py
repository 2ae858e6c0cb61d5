"""Differential tests: the integer kernels against the code they replaced.

Each reference below is a verbatim copy of the earlier implementation:
the raising step over AlphaPoly objects, the orbit-subtracting monomial
expansion and the Fraction Gauss-Jordan solve.  The tail-symmetric walk is
compared with the restriction route, which the package keeps as an oracle.
The default run covers n <= 6 and degree <= 6 (n <= 7 for the walk); the
``slow`` group (``pytest -m slow``) widens the same comparisons.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from jackpoly.alphapoly import AlphaPoly
from jackpoly.cherednik import monomial_pairing, pairing_context
from jackpoly.compositions import (
    Ordering,
    compare,
    compositions,
    compositions_up_to,
    length,
    partitions,
    raising_scalar,
    star_shape,
)
from jackpoly.mpoly import MPoly
from jackpoly.recursion import RecursionCache, _digit_bound, f_poly
from jackpoly.symmetric import (
    _solve_integer_system,
    expand_monomial,
    j_expansion,
    j_poly,
    j_via_restriction,
    monomial_symmetric,
    p_poly,
)


# -- the replaced implementations -----------------------------------------------


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


def gauss_jordan_solve(matrix, rhs):
    size = len(rhs)
    aug = [row[:] + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular pairing system: the scalar product "
                                  "degenerates at this alpha")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


# -- packed recursion -----------------------------------------------------------------


def _check_f_three_ways(n_max: int, deg_max: int) -> None:
    memo: dict = {}
    shapes = [lam for n in range(1, n_max + 1) for lam in compositions_up_to(n, deg_max)]
    expected = {lam: object_f_poly(lam, memo) for lam in shapes}

    shared = RecursionCache()
    for lam in shapes:
        assert f_poly(lam) == expected[lam], lam
        assert f_poly(lam, shared) == expected[lam], lam

    # start from seeded entries: only the lower half of each chain is memoized
    seeded = RecursionCache()
    for lam in shapes:
        if sum(lam) <= deg_max // 2:
            seeded.put(lam, expected[lam])
    for lam in shapes:
        assert f_poly(lam, seeded) == expected[lam], lam


def test_packed_recursion_matches_object_recursion():
    _check_f_three_ways(6, 6)


@pytest.mark.slow
def test_packed_recursion_matches_object_recursion_wide():
    _check_f_three_ways(8, 7)


def test_packed_recursion_refuses_negative_start():
    cache = RecursionCache()
    cache.put((1, 0), MPoly(2, {(1, 0): AlphaPoly((-7,)), (0, 1): AlphaPoly.ONE}))
    with pytest.raises(ValueError, match="negative coefficient"):
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
    for d in range(deg_max + 1):
        for lam in partitions(d):
            for n in range(max(len(lam), 1), n_max + 1):
                for poly in (j_poly(lam, n), p_poly(lam, n)):
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


# -- tail-symmetric walk ---------------------------------------------------------------


def _check_walk(deg_max: int, n_max: int) -> None:
    cache = RecursionCache()
    for d in range(deg_max + 1):
        for lam in partitions(d):
            for n in range(max(len(lam), 1), n_max + 1):
                restricted = j_via_restriction(lam, n + len(lam), cache)
                want = expand_monomial(restricted)
                got = j_expansion(lam, n)
                assert got == want, (lam, n)
                assert list(got.entries) == list(want.entries), (lam, n)
                assert j_poly(lam, n) == restricted, (lam, n)


def test_walk_matches_restriction():
    _check_walk(6, 7)


@pytest.mark.slow
def test_walk_matches_restriction_wide():
    _check_walk(8, 8)


def test_walk_edge_cases():
    assert j_poly((), 3) == MPoly.one(3, AlphaPoly.ONE)
    assert j_expansion((), 1).entries == {(): AlphaPoly.ONE}
    assert j_expansion((2, 1, 0), 3) == j_expansion((2, 1), 3)
    with pytest.raises(ValueError):
        j_poly((1, 1, 1), 2)
    with pytest.raises(ValueError):
        j_expansion((1, 2), 3)


# -- fraction-free solve -----------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def square_systems(draw):
    size = draw(st.integers(1, 5))
    rows = [draw(st.lists(fractions, min_size=size, max_size=size)) for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        # a multiple of another row makes the system singular
        c = draw(fractions)
        rows[-1] = [c * a for a in rows[0]]
    rhs = draw(st.lists(fractions, min_size=size, max_size=size))
    return rows, rhs


def _solve_outcome(fn, *system):
    try:
        return fn(*system)
    except ArithmeticError:
        return ArithmeticError


def _integer_rows(matrix, rhs):
    """The rows [A | b] of a rational system, each scaled to integers."""
    rows = []
    for row, b in zip(matrix, rhs):
        row = row + [b]
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rows


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_fraction_free_solve_matches_gauss_jordan(system):
    matrix, rhs = system
    want = _solve_outcome(gauss_jordan_solve, matrix, rhs)
    got = _solve_outcome(_solve_integer_system, _integer_rows(matrix, rhs))
    assert got == want


@st.composite
def integer_systems(draw):
    size = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-9, 9), min_size=size + 1, max_size=size + 1))
            for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        rows[-1] = [2 * a for a in rows[0][:size]] + [rows[-1][size]]
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_integer_rows_solve_like_the_fraction_path(rows):
    matrix = [[Fraction(a) for a in row[:-1]] for row in rows]
    rhs = [Fraction(row[-1]) for row in rows]
    want = _solve_outcome(gauss_jordan_solve, matrix, rhs)
    assert _solve_outcome(_solve_integer_system, [row[:] for row in rows]) == want


def test_pairing_systems_solve_like_the_fraction_path():
    # the systems gram_schmidt_e builds, in both forms
    for lam, k in [((2, 1, 0), 1), ((0, 2, 1), 2), ((1, 2, 1), 3), ((2, 0, 1, 1), 2)]:
        ctx = pairing_context(len(lam), k)
        lower = sorted((mu for mu in compositions(len(lam), sum(lam))
                        if compare(mu, lam) is Ordering.LESS), reverse=True)
        rows = [[monomial_pairing(ctx, mu, nu) for mu in lower]
                + [-monomial_pairing(ctx, lam, nu)] for nu in lower]
        matrix = [[Fraction(a) for a in row[:-1]] for row in rows]
        rhs = [Fraction(row[-1]) for row in rows]
        assert _solve_integer_system(rows) == gauss_jordan_solve(matrix, rhs)
