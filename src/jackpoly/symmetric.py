"""Symmetric polynomials: routes from the non-symmetric engine,
monomial-basis expansions, and independent desk oracles.

The production route is the tail-symmetric star-chain walk of the recursion
module, which yields the monomial expansion directly.  The restriction route
pads a partition with zeros, computes the whole integral non-symmetric
polynomial, kills the first block of variables and reindexes; it is kept as
an oracle.  The symmetrization route averages the full group orbit of an
iterated cycling image; it is exponential in n and guarded accordingly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .alphapoly import AlphaFrac, AlphaPoly, ExactnessError
from .compositions import (
    compare,
    compositions,
    degree,
    distinct_permutations,
    is_partition,
    length,
    lower_hook_product,
    multiplicity_factorial,
    Ordering,
    zero_shape,
)
from .mpoly import MPoly, divide_coefficients
from .recursion import RecursionCache, f_poly, j_monomial_coefficients, phi_k
from . import permutations as perm


class PositivityViolation(ArithmeticError):
    """An expansion coefficient failed the integrality the theory guarantees."""


SYMMETRIZATION_LIMIT = 6


def j_via_restriction(lam: Sequence[int], n: int,
                      cache: RecursionCache | None = None) -> MPoly:
    """Integral symmetric polynomial via restriction: embed the partition in
    the first slots of an n-vector, kill x_1..x_m with m the partition
    length, and reindex.  The result lives in n - m variables; needs
    n >= 2m."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    m = length(lam)
    if n < 2 * m:
        raise ValueError(f"need at least {2 * m} variables, got {n}")
    padded = lam[:m] + (0,) * (n - m)
    f = f_poly(padded, cache)
    restricted = f.substitute_zero(range(1, m + 1)) if m else f
    if m == 0:
        return restricted
    out = MPoly(n - m)
    out.terms = {e[m:]: c for e, c in restricted.terms.items()}
    return out


def j_expansion(lam: Sequence[int], n: int) -> MonomialExpansion:
    """Monomial symmetric expansion of the integral symmetric polynomial of a
    partition in n variables, from the tail-symmetric star-chain walk."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    lam = lam[:length(lam)]
    if len(lam) > n:
        raise ValueError(f"partition {lam} needs at least {len(lam)} variables")
    return MonomialExpansion(n, j_monomial_coefficients(lam, n))


def j_poly(lam: Sequence[int], n: int) -> MPoly:
    """Integral symmetric polynomial of a partition in n variables, rebuilt
    from j_expansion."""
    return j_expansion(lam, n).reconstruct()


def j_via_symmetrization(lam: Sequence[int], n: int,
                         cache: RecursionCache | None = None) -> MPoly:
    """Integral symmetric polynomial via the full group sum: apply the cycling
    operator length-many times to F of the reversed-and-lowered shape, sum
    over all n! variable permutations, divide by (n - m)!.

    The division is exact; a remainder signals a bug.  Cost grows as n!, so
    n is capped; the restriction route is the production path.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if n > SYMMETRIZATION_LIMIT:
        raise ValueError(f"symmetrization route is limited to n <= {SYMMETRIZATION_LIMIT}")
    m = length(lam)
    if m > n:
        raise ValueError(f"partition {lam} needs at least {m} variables")
    base = zero_shape(lam[:m] + (0,) * (n - m)) if m else (0,) * n
    g = f_poly(base, cache)
    for _ in range(m):
        g = phi_k(n, g)
    total = MPoly(n)
    for w in perm.all_permutations(n):
        total = total + g.act(w)
    div = factorial(n - m)
    return total.map_coefficients(lambda c: c.exact_scalar_div(div))


def p_poly(lam: Sequence[int], n: int) -> MPoly:
    """Monic symmetric polynomial: the integral one divided by the product of
    lower hooks.  Leading monomial coefficient is exactly 1."""
    lam = tuple(lam)[:length(lam)]
    j = j_poly(lam, n)
    hooks = lower_hook_product(lam)
    p = divide_coefficients(j, hooks)
    lead = p.coefficient(lam + (0,) * (n - len(lam)))
    if lead != 1:
        raise ArithmeticError(f"leading coefficient of P[{lam}] is {lead}, not 1")
    return p


# -- monomial bases ------------------------------------------------------------


def monomial_symmetric(mu: Sequence[int], n: int) -> MPoly:
    """Sum of the distinct monomials with exponent a rearrangement of mu."""
    mu = tuple(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    mu = mu[:length(mu)]
    if len(mu) > n:
        return MPoly.zero(n)
    out = MPoly(n)
    for exp in distinct_permutations(mu + (0,) * (n - len(mu))):
        out.terms[exp] = 1
    return out


def partial_monomial(mu: Sequence[int], m: int, n: int) -> MPoly:
    """Head-fixed, tail-symmetrized monomial sum: the first m exponents stay
    mu_1..mu_m, the tail runs over distinct rearrangements of the rest."""
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError(f"need a full exponent vector of length {n}")
    head, tail = mu[:m], mu[m:]
    out = MPoly(n)
    for t in distinct_permutations(tail):
        out.terms[head + t] = 1
    return out


@dataclass(frozen=True)
class MonomialExpansion:
    """Expansion of a symmetric polynomial over monomial symmetric functions,
    keyed by partitions without trailing zeros."""

    n: int
    entries: dict

    def augmented(self) -> dict:
        """Coefficients against the augmented basis: each entry divided by the
        multiplicity factorial of its partition.  For integral input the
        division must stay in Z[alpha]; a failure is surfaced loudly."""
        out = {}
        for mu, v in self.entries.items():
            u = multiplicity_factorial(mu)
            if isinstance(v, AlphaPoly):
                try:
                    out[mu] = v.exact_scalar_div(u)
                except ExactnessError as exc:
                    raise PositivityViolation(
                        f"coefficient at {mu} is not divisible by {u}: {v}") from exc
            else:
                out[mu] = v * AlphaFrac(1, u) if isinstance(v, AlphaFrac) else v / u
        return out

    def reconstruct(self) -> MPoly:
        """The polynomial: every rearrangement of each mu carries the entry
        itself, one coefficient object shared by the whole orbit."""
        out = MPoly(self.n)
        for mu, v in self.entries.items():
            if v and len(mu) <= self.n:
                for exp in distinct_permutations(mu + (0,) * (self.n - len(mu))):
                    out.terms[exp] = v
        return out


def expand_monomial(f: MPoly) -> MonomialExpansion:
    """Unique expansion of a symmetric polynomial over monomial symmetric
    functions.  Once the input is known to be symmetric, the coefficient of
    m_mu is the coefficient of the single term x^mu; entries are keyed in
    lexicographically descending order of mu."""
    terms = f.terms
    for i in range(f.n - 1):
        # f equals its image under x_i <-> x_{i+1} iff every term meets its
        # swapped partner with the same coefficient
        for e, c in terms.items():
            if e[i] != e[i + 1] and terms.get(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) != c:
                raise ValueError(
                    f"input is not symmetric (fails at positions {i + 1}, {i + 2})")
    tops = sorted((e for e in terms if all(a >= b for a, b in zip(e, e[1:]))),
                  reverse=True)
    entries = {tuple(x for x in mu if x): terms[mu] for mu in tops}
    return MonomialExpansion(f.n, entries)


@dataclass(frozen=True)
class PartialSymExpansion:
    """Expansion over augmented head-fixed monomial sums: keys are full
    exponent vectors whose tail past the split index is a partition."""

    n: int
    split: int
    entries: dict

    def reconstruct(self) -> MPoly:
        out = MPoly(self.n)
        for mu, a in self.entries.items():
            u = multiplicity_factorial(mu[self.split:])
            out = out + partial_monomial(mu, self.split, self.n).scale(a * u)
        return out


def expand_partial_sym(f: MPoly, m: int) -> PartialSymExpansion:
    """Unique expansion of a polynomial symmetric in x_{m+1}..x_n over the
    augmented head-fixed monomial sums."""
    n = f.n
    if not 0 <= m <= n:
        raise ValueError(f"split index {m} out of range")
    for i in range(m + 1, n):
        if f.swap(i, i + 1) != f:
            raise ValueError(f"input is not symmetric in the tail block (fails at {i}, {i + 1})")
    entries: dict = {}
    for e, c in f.terms.items():
        tail = tuple(sorted(e[m:], reverse=True))
        if e[m:] != tail:
            continue
        mu = e[:m] + tail
        u = multiplicity_factorial(tail)
        if isinstance(c, AlphaPoly):
            try:
                entries[mu] = c.exact_scalar_div(u)
            except ExactnessError as exc:
                raise PositivityViolation(
                    f"coefficient at {mu} is not divisible by {u}: {c}") from exc
        else:
            entries[mu] = c / u
    return PartialSymExpansion(n, m, entries)


# -- independent oracles ---------------------------------------------------------


def schur_poly(lam: Sequence[int], n: int) -> MPoly:
    """Schur polynomial by semistandard tableau enumeration: rows weakly
    increase, columns strictly increase, entries bounded by n."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    lam = lam[:length(lam)]
    if len(lam) > n:
        return MPoly.zero(n)
    out = MPoly(n)
    if not lam:
        out.terms[(0,) * n] = 1
        return out
    rows = len(lam)
    grid = [[0] * lam[i] for i in range(rows)]
    weight = [0] * n

    def rec(r: int, c: int):
        if r == rows:
            exp = tuple(weight)
            out.terms[exp] = out.terms.get(exp, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = grid[r][c - 1] if c else 1
        if r and c < lam[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            grid[r][c] = v
            weight[v - 1] += 1
            rec(nr, nc)
            weight[v - 1] -= 1

    rec(0, 0)
    return out


def elementary_poly(k: int, n: int) -> MPoly:
    """Elementary symmetric polynomial e_k in n variables."""
    out = MPoly(n)
    if k == 0:
        out.terms[(0,) * n] = 1
        return out
    if k > n:
        return out
    for subset in itertools.combinations(range(n), k):
        exp = [0] * n
        for i in subset:
            exp[i] = 1
        out.terms[tuple(exp)] = 1
    return out


def elementary_product(parts: Sequence[int], n: int) -> MPoly:
    """Product of elementary symmetric polynomials e_{parts_1} e_{parts_2} ..."""
    out = MPoly.one(n)
    for k in parts:
        out = out * elementary_poly(k, n)
    return out


def _solve_fraction_system(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square system by fraction-free (Bareiss) elimination: each
    row is scaled to integers, every elimination step divides exactly by the
    previous pivot, and only the back substitution uses Fraction."""
    size = len(rhs)
    aug = []
    for r, row in enumerate(matrix):
        row = [Fraction(x) for x in row] + [Fraction(rhs[r])]
        scale = lcm(*(x.denominator for x in row))
        aug.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular pairing system: the scalar product "
                                  "degenerates at this alpha")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(col + 1, size):
            row = aug[r]
            f = row[col]
            aug[r] = [0] * (col + 1) + [(p * a - f * b) // prev
                                        for a, b in zip(row[col + 1:], top[col + 1:])]
        prev = p
    out = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        row = aug[r]
        out[r] = (row[size] - sum(row[j] * out[j] for j in range(r + 1, size))) / Fraction(row[r])
    return out


def gram_schmidt_e(lam: Sequence[int], k: int) -> MPoly:
    """From-definition construction of the monic non-symmetric polynomial at
    alpha = 1/k: the unique x^lam plus strictly smaller terms orthogonal to
    every strictly smaller monomial.  Desk-scale only."""
    from .cherednik import monomial_pairing, pairing_context

    lam = tuple(lam)
    n = len(lam)
    ctx = pairing_context(n, k)
    lower = sorted((mu for mu in compositions(n, degree(lam))
                    if compare(mu, lam) is Ordering.LESS), reverse=True)
    out = MPoly(n)
    out.terms[lam] = Fraction(1)
    if not lower:
        return out
    matrix = [[Fraction(monomial_pairing(ctx, mu, nu)) for mu in lower] for nu in lower]
    rhs = [-Fraction(monomial_pairing(ctx, lam, nu)) for nu in lower]
    coeffs = _solve_fraction_system(matrix, rhs)
    for mu, c in zip(lower, coeffs):
        if c:
            out.terms[mu] = c
    return out
