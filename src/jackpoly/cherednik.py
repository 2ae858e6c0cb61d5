"""Differential-reflection operators and the constant-term scalar product.

The i-th operator is an alpha-scaled Euler term in x_i plus divided
differences against every other variable, ordered as: difference after
multiplication for earlier variables, multiplication after difference for
later ones.  The monic polynomials of the recursion engine form its
simultaneous eigenbasis.

The scalar product of two polynomials is the constant term of
f(x) g(1/x) delta with the weight delta expanded exactly at a reciprocal
integer value of alpha; it is only defined there, and every check reports
per-k results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .alphapoly import AlphaPoly
from .compositions import (
    compare,
    eigenvalue,
    is_partition,
    lower_hook_product,
    Ordering,
)
from .mpoly import MPoly, divided_transposition, specialize_alpha
from .recursion import RecursionCache, e_poly, phi_k


def xi_apply(i: int, f: MPoly) -> MPoly:
    """Apply the i-th commuting operator; the coefficient ring must contain
    alpha (AlphaPoly or AlphaFrac)."""
    n = f.n
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} out of range for n={n}")
    out = MPoly(n)
    acc = out.terms
    for e, c in f.terms.items():
        k = e[i - 1]
        if k:
            acc[e] = c * AlphaPoly((0, k))
    for j in range(1, i):
        part = divided_transposition(i, j, f.multiply_variable(j))
        out = out + part
    for j in range(i + 1, n + 1):
        part = divided_transposition(i, j, f).multiply_variable(j)
        out = out + part
    return out


def eigen_check(lam: Sequence[int], cache: RecursionCache | None = None) -> list[bool]:
    """Whether the i-th operator scales E[lam] by its spectral value, per i."""
    lam = tuple(lam)
    e = e_poly(lam, cache)
    return [xi_apply(i, e) == e.scale(eigenvalue(lam, i))
            for i in range(1, len(lam) + 1)]


def _monomials_up_to(n: int, max_degree: int):
    from .compositions import compositions_up_to
    for exp in compositions_up_to(n, max_degree):
        yield MPoly.monomial(n, exp, AlphaPoly.ONE)


def hecke_relations_check(n: int, max_degree: int) -> dict | None:
    """Verify the commutation relations between the operators, the adjacent
    reflections and the cycling operator on every monomial of bounded degree.
    Returns None on success, else a dict describing the first failure.
    """
    for f in _monomials_up_to(n, max_degree):
        exp = next(iter(f.terms))
        for i in range(1, n):
            si = lambda g, _i=i: g.swap(_i, _i + 1)
            if xi_apply(i, si(f)) - si(xi_apply(i + 1, f)) != f:
                return {"relation": "xi_i s_i - s_i xi_{i+1} = 1", "i": i, "exp": list(exp)}
            if xi_apply(i + 1, si(f)) - si(xi_apply(i, f)) != -f:
                return {"relation": "xi_{i+1} s_i - s_i xi_i = -1", "i": i, "exp": list(exp)}
            for j in range(1, n):
                if j in (i - 1, i):
                    continue
                sj = f.swap(j, j + 1)
                if xi_apply(i, sj) != xi_apply(i, f).swap(j, j + 1):
                    return {"relation": "xi_i s_j = s_j xi_i", "i": i, "j": j, "exp": list(exp)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if xi_apply(i, xi_apply(j, f)) != xi_apply(j, xi_apply(i, f)):
                    return {"relation": "[xi_i, xi_j] = 0", "i": i, "j": j, "exp": list(exp)}
        shifted = phi_k(n, f)
        for i in range(1, n):
            if xi_apply(i, shifted) != phi_k(n, xi_apply(i + 1, f)):
                return {"relation": "xi_i Phi = Phi xi_{i+1}", "i": i, "exp": list(exp)}
        # the constant in the last intertwining is alpha: the Euler part of
        # xi_n picks up alpha once per application of the cycling operator
        if xi_apply(n, shifted) != phi_k(n, xi_apply(1, f) + f.scale(AlphaPoly.ALPHA)):
            return {"relation": "xi_n Phi = Phi (xi_1 + alpha)", "exp": list(exp)}
    return None


# -- the scalar product -------------------------------------------------------


@dataclass(frozen=True)
class PairingContext:
    """Expanded weight for the constant-term pairing at alpha = 1/k."""

    n: int
    k: int
    delta: MPoly = field(compare=False)

    def weight_coefficient(self, exp: tuple[int, ...]) -> int:
        return self.delta.terms.get(exp, 0)


@lru_cache(maxsize=4)
def pairing_context(n: int, k: int) -> PairingContext:
    """Expand prod over i != j of (1 - x_i / x_j)^k exactly.

    Memoized: a sweep asks for the same few (n, k) many times.  The context
    is shared, so callers must not modify its weight."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    delta = MPoly.one(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            exp = [0] * n
            exp[i - 1] = 1
            exp[j - 1] = -1
            factor = MPoly.one(n) - MPoly.monomial(n, exp)
            for _ in range(k):
                delta = delta * factor
    return PairingContext(n, k, delta)


def scalar_product(f: MPoly, g: MPoly, ctx: PairingContext) -> Fraction:
    """Constant term of f(x) g(1/x) delta, in exact rational arithmetic.

    Coefficients of f and g must already be numeric (alpha specialized).
    """
    if f.n != ctx.n or g.n != ctx.n:
        raise ValueError("variable count mismatch with the pairing context")
    if f.is_laurent() or g.is_laurent():
        raise ValueError("the pairing is defined for ordinary polynomials")
    total = Fraction(0)
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            d = ctx.weight_coefficient(tuple(b - a for a, b in zip(ef, eg)))
            if d:
                total += Fraction(cf) * Fraction(cg) * d
    return total


def monomial_pairing(ctx: PairingContext, mu: Sequence[int], nu: Sequence[int]) -> int:
    """Pairing of two monomials: one coefficient of the expanded weight."""
    return ctx.weight_coefficient(tuple(b - a for a, b in zip(mu, nu)))


def orthogonality_check(lam: Sequence[int], ctx: PairingContext,
                        cache: RecursionCache | None = None) -> dict | None:
    """E[lam] at alpha = 1/k must pair to zero with every strictly smaller
    monomial; for partitions, the monic symmetric polynomial must pair to
    zero with every strictly smaller monomial symmetric function.
    Returns None on success, else the first failing pair.
    """
    from .compositions import compositions, degree, partitions as partition_iter
    from .symmetric import j_poly, monomial_symmetric

    lam = tuple(lam)
    alpha = Fraction(1, ctx.k)
    e_spec = specialize_alpha(e_poly(lam, cache), alpha)
    for mu in compositions(len(lam), degree(lam)):
        if compare(mu, lam) is not Ordering.LESS:
            continue
        val = scalar_product(e_spec, MPoly.monomial(ctx.n, mu), ctx)
        if val:
            return {"side": "nonsymmetric", "mu": list(mu), "value": str(val)}
    if is_partition(lam):
        hooks = lower_hook_product(lam).evaluate(alpha)
        j_spec = specialize_alpha(j_poly(lam, ctx.n), alpha)
        p_spec = j_spec.map_coefficients(lambda c: c / hooks)
        for mu in partition_iter(degree(lam), max_len=ctx.n):
            mu_padded = mu + (0,) * (ctx.n - len(mu))
            if compare(mu_padded, lam) is not Ordering.LESS:
                continue
            val = scalar_product(p_spec, monomial_symmetric(mu, ctx.n), ctx)
            if val:
                return {"side": "symmetric", "mu": list(mu), "value": str(val)}
    return None


def self_adjoint_check(i: int, f: MPoly, g: MPoly, ctx: PairingContext) -> bool:
    """The operators are symmetric for the pairing: <xi f, g> == <f, xi g>.

    f and g carry alpha-polynomial coefficients; alpha is specialized to the
    context's 1/k after applying the operator.
    """
    alpha = Fraction(1, ctx.k)
    lhs = scalar_product(specialize_alpha(xi_apply(i, f), alpha),
                         specialize_alpha(g, alpha), ctx)
    rhs = scalar_product(specialize_alpha(f, alpha),
                         specialize_alpha(xi_apply(i, g), alpha), ctx)
    return lhs == rhs
