"""Verification sweeps over desk-scale parameter ranges.

Every sweep returns a Verdict carrying the check name, a stable identifier
of the mathematical statement it exercises, the parameters, the number of
cases checked, and the first counterexample if one exists.  All comparisons
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .cherednik import (
    eigen_check,
    hecke_relations_check,
    orthogonality_check,
    pairing_context,
)
from .compositions import (
    compositions,
    compositions_up_to,
    conjugate,
    length,
    lower_hook_product,
    partitions,
)
from .mpoly import specialize_alpha
from .recursion import RecursionCache, cyclic_identity, e_poly, f_poly, swap_adjacent
from .symmetric import (
    PositivityViolation,
    elementary_product,
    expand_partial_sym,
    gram_schmidt_e,
    j_expansion,
    j_poly,
    j_via_restriction,
    j_via_symmetrization,
    schur_poly,
)
from .tableaux import f_comb, j_comb, shift_identity_witness, swap_identity_witness


@dataclass
class Verdict:
    check: str
    theorem: str
    params: dict
    passed: bool
    cases: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "theorem": self.theorem,
            "params": self.params,
            "pass": self.passed,
            "cases": self.cases,
            "counterexample": self.counterexample,
        }


def engine_equivalence(n_max: int, deg_max: int,
                       cache: RecursionCache | None = None) -> Verdict:
    """The recursion and the tableau sum produce identical polynomials."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    for n in range(1, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            cases += 1
            if f_poly(lam, cache) != f_comb(lam):
                return Verdict("oracle-equivalence", "combinatorial-formula",
                               {"n_max": n_max, "deg_max": deg_max}, False, cases,
                               {"lambda": list(lam)})
    return Verdict("oracle-equivalence", "combinatorial-formula",
                   {"n_max": n_max, "deg_max": deg_max}, True, cases)


def eigenfunctions(n_max: int, deg_max: int,
                   cache: RecursionCache | None = None) -> Verdict:
    """Each monic polynomial is a simultaneous eigenfunction with the
    prescribed spectral values."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    for n in range(1, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            results = eigen_check(lam, cache)
            cases += len(results)
            if not all(results):
                bad = results.index(False) + 1
                return Verdict("eigen", "commuting-operator-eigenbasis",
                               {"n_max": n_max, "deg_max": deg_max}, False, cases,
                               {"lambda": list(lam), "i": bad})
    return Verdict("eigen", "commuting-operator-eigenbasis",
                   {"n_max": n_max, "deg_max": deg_max}, True, cases)


def hecke(n_max: int, deg_max: int) -> Verdict:
    """Graded Hecke relations plus the cycling-operator intertwinings."""
    cases = 0
    for n in range(2, n_max + 1):
        failure = hecke_relations_check(n, deg_max)
        cases += 1
        if failure is not None:
            failure["n"] = n
            return Verdict("hecke", "graded-hecke-relations",
                           {"n_max": n_max, "deg_max": deg_max}, False, cases, failure)
    return Verdict("hecke", "graded-hecke-relations",
                   {"n_max": n_max, "deg_max": deg_max}, True, cases)


def orthogonality(n_max: int, deg_max: int, ks: Sequence[int] = (1, 2),
                  cache: RecursionCache | None = None) -> Verdict:
    """Strictly smaller monomials pair to zero, and the from-definition
    construction reproduces the recursion engine at each reciprocal-integer
    alpha."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max, "k_list": list(ks)}
    for n in range(1, n_max + 1):
        for k in ks:
            ctx = pairing_context(n, k)
            for lam in compositions_up_to(n, deg_max):
                cases += 1
                failure = orthogonality_check(lam, ctx, cache)
                if failure is not None:
                    failure.update({"lambda": list(lam), "n": n, "k": k})
                    return Verdict("orthogonality", "triangular-orthogonality",
                                   params, False, cases, failure)
                if specialize_alpha(e_poly(lam, cache), Fraction(1, k)) != gram_schmidt_e(lam, k):
                    return Verdict("orthogonality", "triangular-orthogonality",
                                   params, False, cases,
                                   {"lambda": list(lam), "n": n, "k": k,
                                    "detail": "gram-schmidt oracle disagrees"})
    return Verdict("orthogonality", "triangular-orthogonality", params, True, cases)


def j_positivity(n: int, deg_max: int,
                 cache: RecursionCache | None = None) -> Verdict:
    """Augmented monomial coefficients of the integral symmetric polynomial
    are polynomials in alpha with non-negative integer coefficients.  The
    cache is accepted for compatibility but not consulted (see j_poly)."""
    cases = 0
    params = {"n": n, "deg_max": deg_max}
    for d in range(deg_max + 1):
        for lam in partitions(d, max_len=n):
            expansion = j_expansion(lam, n)
            try:
                augmented = expansion.augmented()
            except PositivityViolation as exc:
                return Verdict("positivity", "positive-integral-expansion",
                               params, False, cases,
                               {"lambda": list(lam), "detail": str(exc)})
            for mu, coef in augmented.items():
                cases += 1
                if not coef.is_nonnegative():
                    return Verdict("positivity", "positive-integral-expansion",
                                   params, False, cases,
                                   {"lambda": list(lam), "mu": list(mu),
                                    "coef": coef.to_json()})
    return Verdict("positivity", "positive-integral-expansion", params, True, cases)


def f_positivity(n_max: int, deg_max: int,
                 cache: RecursionCache | None = None) -> Verdict:
    """Expansion of the integral non-symmetric polynomial over augmented
    head-fixed monomial sums (split at the composition length) has
    non-negative integer alpha-coefficients."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for n in range(1, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            try:
                expansion = expand_partial_sym(f_poly(lam, cache), length(lam))
            except PositivityViolation as exc:
                return Verdict("positivity", "partially-symmetric-positivity",
                               params, False, cases,
                               {"lambda": list(lam), "detail": str(exc)})
            for mu, coef in expansion.entries.items():
                cases += 1
                if not coef.is_nonnegative():
                    return Verdict("positivity", "partially-symmetric-positivity",
                                   params, False, cases,
                                   {"lambda": list(lam), "mu": list(mu),
                                    "coef": coef.to_json()})
    return Verdict("positivity", "partially-symmetric-positivity", params, True, cases)


def coeff_identities(deg_ns: int, deg_sym: int, length_cap: int = 4,
                     cache: RecursionCache | None = None) -> Verdict:
    """Square-free normalization constants: with d the degree, the first
    square-free monomial past the support carries d! in the non-symmetric
    polynomial, and the all-ones monomial carries d! in the symmetric one."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"deg_ns": deg_ns, "deg_sym": deg_sym, "length_cap": length_cap}
    for d in range(1, deg_ns + 1):
        target = factorial(d)
        for m in range(1, length_cap + 1):
            for head in compositions(m, d):
                if head[-1] == 0:
                    continue
                n = m + d
                lam = head + (0,) * d
                exp = (0,) * m + (1,) * d
                cases += 1
                if f_poly(lam, cache).coefficient(exp) != target:
                    return Verdict("coeff-identities", "square-free-coefficients",
                                   params, False, cases,
                                   {"side": "nonsymmetric", "lambda": list(lam)})
    for d in range(1, deg_sym + 1):
        target = factorial(d)
        for lam in partitions(d):
            cases += 1
            if j_poly(lam, d, cache).coefficient((1,) * d) != target:
                return Verdict("coeff-identities", "square-free-coefficients",
                               params, False, cases,
                               {"side": "symmetric", "lambda": list(lam)})
    return Verdict("coeff-identities", "square-free-coefficients", params, True, cases)


def stability_symmetry(n_max: int, deg_max: int,
                       cache: RecursionCache | None = None) -> Verdict:
    """Setting the last variable to zero restricts E to the shorter index,
    and equal adjacent parts make E symmetric in those variables."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for n in range(2, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            e = e_poly(lam, cache)
            if lam[-1] == 0:
                cases += 1
                restricted = e.substitute_zero([n]).drop_last_variable()
                if restricted != e_poly(lam[:-1], cache):
                    return Verdict("stability", "restriction-stability",
                                   params, False, cases, {"lambda": list(lam)})
            for i in range(1, n):
                if lam[i - 1] == lam[i]:
                    cases += 1
                    if e.swap(i, i + 1) != e:
                        return Verdict("stability", "equal-part-symmetry",
                                       params, False, cases,
                                       {"lambda": list(lam), "i": i})
    return Verdict("stability", "restriction-stability-and-symmetry",
                   params, True, cases)


def sym_routes(n_max: int, deg_max: int,
               cache: RecursionCache | None = None) -> Verdict:
    """Restriction, full symmetrization and the tableau sum agree on the
    integral symmetric polynomial; so does the production star-chain walk,
    checked within the same case."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for d in range(deg_max + 1):
        for lam in partitions(d):
            m = length(lam)
            for n in range(max(m, 1), n_max + 1):
                cases += 1
                reference = j_comb(lam, n)
                if j_via_restriction(lam, n + m, cache) != reference:
                    return Verdict("sym-routes", "symmetrization-routes",
                                   params, False, cases,
                                   {"lambda": list(lam), "n": n, "route": "restriction"})
                if j_poly(lam, n) != reference:
                    return Verdict("sym-routes", "symmetrization-routes",
                                   params, False, cases,
                                   {"lambda": list(lam), "n": n, "route": "walk"})
                if j_via_symmetrization(lam, n, cache) != reference:
                    return Verdict("sym-routes", "symmetrization-routes",
                                   params, False, cases,
                                   {"lambda": list(lam), "n": n, "route": "symmetrization"})
    return Verdict("sym-routes", "symmetrization-routes", params, True, cases)


def swap_consistency(n_max: int, deg_max: int,
                     cache: RecursionCache | None = None) -> Verdict:
    """The adjacent-swap operator maps E of the swapped index back to E."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for n in range(2, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            for i in range(1, n):
                if lam[i - 1] > lam[i]:
                    cases += 1
                    swapped = lam[: i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
                    produced = swap_adjacent(lam, i, e_poly(swapped, cache))
                    if produced != e_poly(lam, cache):
                        return Verdict("swap", "adjacent-swap-recurrence",
                                       params, False, cases,
                                       {"lambda": list(lam), "i": i})
    return Verdict("swap", "adjacent-swap-recurrence", params, True, cases)


def cyclic_consistency(n_max: int, deg_max: int,
                       cache: RecursionCache | None = None) -> Verdict:
    """E of a shape with nonzero last part equals the cycled image of E of
    the unshifted shape."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for n in range(1, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            if lam[-1] == 0:
                continue
            cases += 1
            if not cyclic_identity(lam, cache).holds:
                return Verdict("cyclic", "cyclic-creation-identity",
                               params, False, cases, {"lambda": list(lam)})
    return Verdict("cyclic", "cyclic-creation-identity", params, True, cases)


def l2l3(n_max: int, deg_max: int) -> Verdict:
    """The two raw tableau-sum recurrences: swapping a zero part below a
    nonzero one, and cycling with a raise."""
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for n in range(1, n_max + 1):
        for lam in compositions_up_to(n, deg_max):
            for i in range(1, n):
                if lam[i - 1] == 0 and lam[i] > 0:
                    cases += 1
                    if not swap_identity_witness(lam, i).holds:
                        return Verdict("l2l3", "tableau-sum-recurrences",
                                       params, False, cases,
                                       {"identity": "swap", "lambda": list(lam), "i": i})
            cases += 1
            if not shift_identity_witness(lam).holds:
                return Verdict("l2l3", "tableau-sum-recurrences",
                               params, False, cases,
                               {"identity": "shift", "lambda": list(lam)})
    return Verdict("l2l3", "tableau-sum-recurrences", params, True, cases)


def specializations(n_max: int, deg_max: int,
                    cache: RecursionCache | None = None) -> Verdict:
    """At alpha = 1 the integral symmetric polynomial is the lower-hook
    product times the Schur polynomial; at alpha = 0 it is proportional to
    the product of elementary symmetric polynomials of the conjugate."""
    cache = cache if cache is not None else RecursionCache()
    cases = 0
    params = {"n_max": n_max, "deg_max": deg_max}
    for d in range(deg_max + 1):
        for lam in partitions(d):
            for n in range(max(length(lam), 1), n_max + 1):
                cases += 1
                j = j_poly(lam, n, cache)
                hooks_at_one = lower_hook_product(lam).evaluate(1)
                if specialize_alpha(j, 1) != schur_poly(lam, n).scale(hooks_at_one):
                    return Verdict("specializations", "classical-specializations",
                                   params, False, cases,
                                   {"lambda": list(lam), "n": n, "alpha": 1})
                j_zero = specialize_alpha(j, 0)
                elem = elementary_product(conjugate(lam), n)
                lead = elem.sorted_terms()[0][0]
                ce = elem.coefficient(lead)
                cj = j_zero.coefficient(lead)
                if not cj or j_zero.scale(ce) != elem.scale(cj):
                    return Verdict("specializations", "classical-specializations",
                                   params, False, cases,
                                   {"lambda": list(lam), "n": n, "alpha": 0})
    return Verdict("specializations", "classical-specializations", params, True, cases)
