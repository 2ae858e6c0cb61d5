"""Differential tests for the work the verify sweeps reuse.

The l2l3 sweep computes each tableau sum once and hands the memo to the
witnesses; orthogonality_check scales each side to integer terms once and
pairs them with every smaller monomial.  Each is compared with the direct
computation it replaces, at bounds past the acceptance suite; the widest
runs are in the ``slow`` group (``pytest -m slow``).
"""

from fractions import Fraction

import pytest

from jackpoly import verify
from jackpoly.cherednik import (
    _integer_terms,
    _pair_with_monomials,
    pairing_context,
    scalar_product,
)
from jackpoly.compositions import (
    Ordering,
    compare,
    compositions,
    compositions_up_to,
    is_partition,
    lower_hook_product,
    partitions,
)
from jackpoly.mpoly import MPoly, specialize_alpha
from jackpoly.recursion import RecursionCache, e_poly
from jackpoly.symmetric import j_poly, monomial_symmetric
from jackpoly.tableaux import shift_identity_witness, swap_identity_witness


def _check_l2l3(monkeypatch, n_max, deg_max):
    """Run the l2l3 sweep, keep every witness it builds with its memo, and
    rebuild each one without the memo."""
    seen = []

    def recording(witness):
        def recorded(*args, **kwargs):
            result = witness(*args, **kwargs)
            seen.append((witness, args, kwargs, result))
            return result
        return recorded

    monkeypatch.setattr(verify, "swap_identity_witness", recording(swap_identity_witness))
    monkeypatch.setattr(verify, "shift_identity_witness", recording(shift_identity_witness))
    verdict = verify.l2l3(n_max, deg_max)
    assert verdict.passed and verdict.cases == len(seen)
    assert all("comb" in kwargs for _, _, kwargs, _ in seen)
    for witness, args, _, memoized in seen:
        direct = witness(*args)
        assert (memoized.holds, memoized.lhs, memoized.rhs) == \
            (direct.holds, direct.lhs, direct.rhs), args


def test_l2l3_memo_matches_direct_sums(monkeypatch):
    _check_l2l3(monkeypatch, 3, 5)


@pytest.mark.slow
def test_l2l3_memo_matches_direct_sums_wide(monkeypatch):
    _check_l2l3(monkeypatch, 4, 6)


def _check_pairings(n_max, deg_max, ks):
    cache = RecursionCache()
    for n in range(1, n_max + 1):
        for k in ks:
            ctx = pairing_context(n, k)
            weight = ctx.delta.terms
            alpha = Fraction(1, k)
            for lam in compositions_up_to(n, deg_max):
                e_spec = specialize_alpha(e_poly(lam, cache), alpha)
                d, terms = _integer_terms(e_spec)
                for mu in compositions(n, sum(lam)):
                    if compare(mu, lam) is Ordering.LESS:
                        got = Fraction(_pair_with_monomials(terms, (mu,), weight), d)
                        assert got == scalar_product(e_spec, MPoly.monomial(n, mu), ctx)
                if not is_partition(lam):
                    continue
                hooks = lower_hook_product(lam).evaluate(alpha)
                p_spec = specialize_alpha(j_poly(lam, n), alpha).map_coefficients(
                    lambda c: c / hooks)
                d, terms = _integer_terms(p_spec)
                for mu in partitions(sum(lam), max_len=n):
                    m_mu = monomial_symmetric(mu, n)
                    got = Fraction(_pair_with_monomials(terms, m_mu.terms, weight), d)
                    assert got == scalar_product(p_spec, m_mu, ctx)


def test_hoisted_pairings_match_scalar_product():
    _check_pairings(3, 5, (1, 2, 3))


@pytest.mark.slow
def test_hoisted_pairings_match_scalar_product_wide():
    _check_pairings(4, 5, (1, 2, 3))
