"""Verification sweeps over desk-scale parameter ranges.

Each sweep yields its cases, in order, to one driver that counts them, stops
at the first counterexample and returns a Verdict: the check name, a stable
identifier of the mathematical statement exercised (the same on pass and on
failure), the parameters, the number of cases checked, and the first
counterexample if one exists.  All comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


class Verdict(NamedTuple):
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


def _verdict(check: str, theorem: str, params: dict, outcomes: Iterable) -> Verdict:
    """Count the cases of a sweep and build its verdict.  outcomes yields
    (cases, counterexample or None) in sweep order; a case that makes
    several checks yields its count with the first and 0 with the others.
    Nothing past the first counterexample is evaluated."""
    cases, counterexample = 0, None
    for counted, counterexample in outcomes:
        cases += counted
        if counterexample is not None:
            break
    return Verdict(check, theorem, params, counterexample is None, cases, counterexample)


def _memo(cache: RecursionCache | None) -> RecursionCache:
    """The caller's memo store, or a fresh one.  An empty store is falsy, so
    a shared one is told apart from None by identity, not by truth."""
    return cache if cache is not None else RecursionCache()


def _compositions(n_min: int, n_max: int, deg_max: int) -> Iterator:
    """Every composition of degree <= deg_max into n parts, for n from n_min
    to n_max, with n outermost."""
    for n in range(n_min, n_max + 1):
        yield from compositions_up_to(n, deg_max)


def _partitions(n_max: int, deg_max: int) -> Iterator:
    """(lam, n) for every partition of degree <= deg_max and every variable
    count from its length (at least 1) to n_max, with the degree outermost."""
    for d in range(deg_max + 1):
        for lam in partitions(d):
            for n in range(max(length(lam), 1), n_max + 1):
                yield lam, n


def _nonnegative(lam: tuple, expand: Callable[[], dict]) -> Iterator:
    """One case per coefficient of expand(), failing at the first negative
    one; an expansion that raises PositivityViolation fails with no case."""
    try:
        coefficients = expand()
    except PositivityViolation as exc:
        yield 0, {"lambda": list(lam), "detail": str(exc)}
        return
    for mu, coef in coefficients.items():
        yield 1, None if coef.is_nonnegative() else {
            "lambda": list(lam), "mu": list(mu), "coef": coef.to_json()}


def engine_equivalence(n_max: int, deg_max: int,
                       cache: RecursionCache | None = None) -> Verdict:
    """The recursion and the tableau sum produce identical polynomials."""
    cache = _memo(cache)

    def outcomes():
        for lam in _compositions(1, n_max, deg_max):
            yield 1, None if f_poly(lam, cache) == f_comb(lam) else {"lambda": list(lam)}

    return _verdict("oracle-equivalence", "combinatorial-formula",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def eigenfunctions(n_max: int, deg_max: int,
                   cache: RecursionCache | None = None) -> Verdict:
    """Each monic polynomial is a simultaneous eigenfunction with the
    prescribed spectral values."""
    cache = _memo(cache)

    def outcomes():
        for lam in _compositions(1, n_max, deg_max):
            results = eigen_check(lam, cache)
            yield len(results), None if all(results) else {
                "lambda": list(lam), "i": results.index(False) + 1}

    return _verdict("eigen", "commuting-operator-eigenbasis",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def hecke(n_max: int, deg_max: int) -> Verdict:
    """Graded Hecke relations plus the cycling-operator intertwinings."""

    def outcomes():
        for n in range(2, n_max + 1):
            failure = hecke_relations_check(n, deg_max)
            yield 1, None if failure is None else {**failure, "n": n}

    return _verdict("hecke", "graded-hecke-relations",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def orthogonality(n_max: int, deg_max: int, ks: Sequence[int] = (1, 2),
                  cache: RecursionCache | None = None) -> Verdict:
    """Strictly smaller monomials pair to zero, and the from-definition
    construction reproduces the recursion engine at each reciprocal-integer
    alpha."""
    cache = _memo(cache)

    def outcomes():
        for n in range(1, n_max + 1):
            for k in ks:
                ctx = pairing_context(n, k)
                for lam in compositions_up_to(n, deg_max):
                    where = {"lambda": list(lam), "n": n, "k": k}
                    failure = orthogonality_check(lam, ctx, cache)
                    yield 1, None if failure is None else {**failure, **where}
                    e_at_k = specialize_alpha(e_poly(lam, cache), Fraction(1, k))
                    yield 0, None if e_at_k == gram_schmidt_e(lam, k) else {
                        **where, "detail": "gram-schmidt oracle disagrees"}

    return _verdict("orthogonality", "triangular-orthogonality",
                    {"n_max": n_max, "deg_max": deg_max, "k_list": list(ks)}, outcomes())


def j_positivity(n: int, deg_max: int,
                 cache: RecursionCache | None = None) -> Verdict:
    """Augmented monomial coefficients of the integral symmetric polynomial
    are polynomials in alpha with non-negative integer coefficients.  The
    cache is accepted for a uniform signature but not consulted: the
    star-chain walk behind j_expansion memoizes nothing."""

    def outcomes():
        for d in range(deg_max + 1):
            for lam in partitions(d, max_len=n):
                yield from _nonnegative(lam, lambda: j_expansion(lam, n).augmented())

    return _verdict("positivity", "positive-integral-expansion",
                    {"n": n, "deg_max": deg_max}, outcomes())


def f_positivity(n_max: int, deg_max: int,
                 cache: RecursionCache | None = None) -> Verdict:
    """Expansion of the integral non-symmetric polynomial over augmented
    head-fixed monomial sums (split at the composition length) has
    non-negative integer alpha-coefficients."""
    cache = _memo(cache)

    def outcomes():
        for lam in _compositions(1, n_max, deg_max):
            yield from _nonnegative(
                lam, lambda: expand_partial_sym(f_poly(lam, cache), length(lam)).entries)

    return _verdict("positivity", "partially-symmetric-positivity",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def coeff_identities(deg_ns: int, deg_sym: int, length_cap: int = 4,
                     cache: RecursionCache | None = None) -> Verdict:
    """Square-free normalization constants: with d the degree, the first
    square-free monomial past the support carries d! in the non-symmetric
    polynomial, and the all-ones monomial carries d! in the symmetric one."""
    cache = _memo(cache)

    def outcomes():
        for d in range(1, deg_ns + 1):
            for m in range(1, length_cap + 1):
                for head in compositions(m, d):
                    if head[-1] == 0:
                        continue
                    lam = head + (0,) * d
                    exp = (0,) * m + (1,) * d
                    holds = f_poly(lam, cache).coefficient(exp) == factorial(d)
                    yield 1, None if holds else {"side": "nonsymmetric", "lambda": list(lam)}
        for d in range(1, deg_sym + 1):
            for lam in partitions(d):
                holds = j_poly(lam, d).coefficient((1,) * d) == factorial(d)
                yield 1, None if holds else {"side": "symmetric", "lambda": list(lam)}

    return _verdict("coeff-identities", "square-free-coefficients",
                    {"deg_ns": deg_ns, "deg_sym": deg_sym, "length_cap": length_cap},
                    outcomes())


def stability_symmetry(n_max: int, deg_max: int,
                       cache: RecursionCache | None = None) -> Verdict:
    """Setting the last variable to zero restricts E to the shorter index,
    and equal adjacent parts make E symmetric in those variables."""
    cache = _memo(cache)

    def outcomes():
        for lam in _compositions(2, n_max, deg_max):
            n = len(lam)
            e = e_poly(lam, cache)
            if lam[-1] == 0:
                restricted = e.substitute_zero([n]).drop_last_variable()
                yield 1, None if restricted == e_poly(lam[:-1], cache) else {
                    "identity": "restriction", "lambda": list(lam)}
            for i in range(1, n):
                if lam[i - 1] == lam[i]:
                    yield 1, None if e.swap(i, i + 1) == e else {
                        "identity": "equal-part-symmetry", "lambda": list(lam), "i": i}

    return _verdict("stability", "restriction-stability-and-symmetry",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def sym_routes(n_max: int, deg_max: int,
               cache: RecursionCache | None = None) -> Verdict:
    """Restriction, full symmetrization and the tableau sum agree on the
    integral symmetric polynomial; so does the production star-chain walk,
    checked within the same case."""
    cache = _memo(cache)

    def outcomes():
        for lam, n in _partitions(n_max, deg_max):
            reference = j_comb(lam, n)
            where = {"lambda": list(lam), "n": n}
            restricted = j_via_restriction(lam, n + length(lam), cache)
            yield 1, None if restricted == reference else {**where, "route": "restriction"}
            yield 0, None if j_poly(lam, n) == reference else {**where, "route": "walk"}
            symmetrized = j_via_symmetrization(lam, n, cache)
            yield 0, None if symmetrized == reference else {**where, "route": "symmetrization"}

    return _verdict("sym-routes", "symmetrization-routes",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def swap_consistency(n_max: int, deg_max: int,
                     cache: RecursionCache | None = None) -> Verdict:
    """The adjacent-swap operator maps E of the swapped index back to E."""
    cache = _memo(cache)

    def outcomes():
        for lam in _compositions(2, n_max, deg_max):
            for i in range(1, len(lam)):
                if lam[i - 1] > lam[i]:
                    swapped = lam[: i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
                    produced = swap_adjacent(lam, i, e_poly(swapped, cache))
                    yield 1, None if produced == e_poly(lam, cache) else {
                        "lambda": list(lam), "i": i}

    return _verdict("swap", "adjacent-swap-recurrence",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def cyclic_consistency(n_max: int, deg_max: int,
                       cache: RecursionCache | None = None) -> Verdict:
    """E of a shape with nonzero last part equals the cycled image of E of
    the unshifted shape."""
    cache = _memo(cache)

    def outcomes():
        for lam in _compositions(1, n_max, deg_max):
            if lam[-1] != 0:
                yield 1, None if cyclic_identity(lam, cache).holds else {"lambda": list(lam)}

    return _verdict("cyclic", "cyclic-creation-identity",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def l2l3(n_max: int, deg_max: int) -> Verdict:
    """The two raw tableau-sum recurrences: swapping a zero part below a
    nonzero one, and cycling with a raise.  Each tableau sum is computed
    once per sweep; the memo goes with the sweep."""

    def outcomes():
        sums: dict = {}

        def comb(lam):
            f = sums.get(lam)
            if f is None:
                f = sums[lam] = f_comb(lam)
            return f

        for lam in _compositions(1, n_max, deg_max):
            for i in range(1, len(lam)):
                if lam[i - 1] == 0 and lam[i] > 0:
                    yield 1, None if swap_identity_witness(lam, i, comb=comb).holds else {
                        "identity": "swap", "lambda": list(lam), "i": i}
            yield 1, None if shift_identity_witness(lam, comb=comb).holds else {
                "identity": "shift", "lambda": list(lam)}

    return _verdict("l2l3", "tableau-sum-recurrences",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())


def specializations(n_max: int, deg_max: int,
                    cache: RecursionCache | None = None) -> Verdict:
    """At alpha = 1 the integral symmetric polynomial is the lower-hook
    product times the Schur polynomial; at alpha = 0 it is proportional to
    the product of elementary symmetric polynomials of the conjugate.  The
    cache is accepted for a uniform signature but not consulted."""

    def outcomes():
        for lam, n in _partitions(n_max, deg_max):
            where = {"lambda": list(lam), "n": n}
            j = j_poly(lam, n)
            hooks_at_one = lower_hook_product(lam).evaluate(1)
            holds = specialize_alpha(j, 1) == schur_poly(lam, n).scale(hooks_at_one)
            yield 1, None if holds else {**where, "alpha": 1}
            j_zero = specialize_alpha(j, 0)
            elem = elementary_product(conjugate(lam), n)
            lead = elem.sorted_terms()[0][0]
            ce = elem.coefficient(lead)
            cj = j_zero.coefficient(lead)
            holds = cj and j_zero.scale(ce) == elem.scale(cj)
            yield 0, None if holds else {**where, "alpha": 0}

    return _verdict("specializations", "classical-specializations",
                    {"n_max": n_max, "deg_max": deg_max}, outcomes())
