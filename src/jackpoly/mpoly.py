"""Sparse multivariate (Laurent) polynomials over exact coefficient rings.

Terms are a dict from fixed-length exponent tuples to nonzero coefficients.
Coefficients may be ints, Fractions, AlphaPoly or AlphaFrac values; mixed
int arithmetic coerces through the coefficient type's operators.  Negative
exponents are allowed (Laurent terms); operations that require ordinary
polynomial exponents check and refuse.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .alphapoly import AlphaFrac, AlphaPoly, over_common_denominator
from . import permutations as perm


def _grevord(exp: tuple[int, ...]):
    # graded lexicographic descending sort key
    return (-sum(exp), tuple(-e for e in exp))


class MPoly:
    """Sparse polynomial in x_1 .. x_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], object] = {}
        if terms:
            for exp, coef in (terms.items() if hasattr(terms, "items") else terms):
                if coef:
                    exp = tuple(exp)
                    if len(exp) != n:
                        raise ValueError(f"exponent {exp} has wrong length for n={n}")
                    prev = clean.get(exp)
                    coef = coef if prev is None else prev + coef
                    if coef:
                        clean[exp] = coef
                    elif exp in clean:
                        del clean[exp]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int, coef=1) -> "MPoly":
        return cls.monomial(n, (0,) * n, coef)

    @classmethod
    def monomial(cls, n: int, exp: Sequence[int], coef=1) -> "MPoly":
        out = cls(n)
        if coef:
            out.terms[tuple(exp)] = coef
        return out

    @classmethod
    def variable(cls, n: int, i: int) -> "MPoly":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        exp = [0] * n
        exp[i - 1] = 1
        return cls.monomial(n, exp)

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return f"MPoly({self.n}, 0)"
        body = " + ".join(
            f"({coef})*x^{list(exp)}" for exp, coef in self.sorted_terms()
        )
        return f"MPoly({self.n}, {body})"

    def coefficient(self, exp: Sequence[int]):
        """Coefficient of the given exponent vector (0 if absent)."""
        return self.terms.get(tuple(exp), 0)

    def constant_term(self):
        return self.terms.get((0,) * self.n, 0)

    def is_laurent(self) -> bool:
        return any(any(x < 0 for x in e) for e in self.terms)

    def sorted_terms(self) -> list:
        """Terms in graded lexicographic descending order (deterministic)."""
        return sorted(self.terms.items(), key=lambda t: _grevord(t[0]))

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            prev = out.get(exp)
            s = coef if prev is None else prev + coef
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        result = MPoly(self.n)
        result.terms = out
        return result

    def __neg__(self):
        result = MPoly(self.n)
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = out.get(exp)
                s = c if prev is None else prev + c
                if s:
                    out[exp] = s
                elif exp in out:
                    del out[exp]
        result = MPoly(self.n)
        result.terms = out
        return result

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, coef) -> "MPoly":
        if not coef:
            return MPoly(self.n)
        result = MPoly(self.n)
        result.terms = {e: c * coef for e, c in self.terms.items()}
        return result

    def map_coefficients(self, fn: Callable) -> "MPoly":
        result = MPoly(self.n)
        result.terms = {e: v for e, c in self.terms.items() if (v := fn(c))}
        return result

    # -- variable operations ---------------------------------------------------

    def act(self, word: Sequence[int]) -> "MPoly":
        """Permute variables: the entry at position k moves to position word[k]."""
        if len(word) != self.n:
            raise ValueError("permutation size mismatch")
        result = MPoly(self.n)
        result.terms = {perm.apply_to_tuple(word, e): c for e, c in self.terms.items()}
        return result

    def swap(self, i: int, j: int) -> "MPoly":
        """Exchange variables x_i and x_j (1-based)."""
        return self.act(perm.transposition(self.n, i, j))

    def multiply_variable(self, i: int, power: int = 1) -> "MPoly":
        """Multiply by x_i^power."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range")
        result = MPoly(self.n)
        result.terms = {
            e[: i - 1] + (e[i - 1] + power,) + e[i:]: c for e, c in self.terms.items()
        }
        return result

    def substitute_zero(self, variables: Iterable[int]) -> "MPoly":
        """Set the listed (1-based) variables to zero: drop every term with a
        positive exponent there; a negative exponent is an error."""
        idx = sorted(set(variables))
        for i in idx:
            if not 1 <= i <= self.n:
                raise ValueError(f"variable index {i} out of range")
        result = MPoly(self.n)
        for e, c in self.terms.items():
            for i in idx:
                x = e[i - 1]
                if x < 0:
                    raise ValueError(f"cannot set x_{i} = 0 in a term with exponent {x}")
                if x > 0:
                    break
            else:
                result.terms[e] = c
        return result

    def drop_last_variable(self) -> "MPoly":
        """Restrict to the first n-1 variables; every term must be free of x_n."""
        if self.n == 1:
            raise ValueError("cannot drop the only variable")
        result = MPoly(self.n - 1)
        for e, c in self.terms.items():
            if e[-1]:
                raise ValueError("term still involves the last variable")
            result.terms[e[:-1]] = c
        return result


def divided_transposition(i: int, j: int, f: MPoly) -> MPoly:
    """(f - f with x_i, x_j exchanged) / (x_i - x_j), exactly.

    The numerator is antisymmetric under the exchange, so the quotient is a
    polynomial: each antisymmetric pair of terms contributes a finite
    geometric sum.  A surviving diagonal term would mean the division is
    inexact, which cannot happen and aborts.
    """
    if i == j:
        raise ValueError("indices must differ")
    g = f - f.swap(i, j)
    ii, jj = i - 1, j - 1
    out = MPoly(f.n)
    acc = out.terms
    for e, c in g.terms.items():
        a, b = e[ii], e[jj]
        if a == b:
            raise ArithmeticError("inexact divided difference: internal error")
        if a < b:
            continue
        base = list(e)
        for t in range(a - b):
            base[ii] = b + t
            base[jj] = a - 1 - t
            exp = tuple(base)
            prev = acc.get(exp)
            s = c if prev is None else prev + c
            if s:
                acc[exp] = s
            elif exp in acc:
                del acc[exp]
    return out


def divide_coefficients(f: MPoly, d) -> MPoly:
    """Divide every coefficient by d, landing in AlphaFrac.  d is anything
    AlphaFrac takes as a denominator; pass a product of linear factors (such
    as hooks) as the list of its factors, so that reduction needs no gcd."""
    inverse = AlphaFrac(1, d)
    quotients: dict = {}

    def divide(c):
        # equal coefficients are common (and often one shared object), so
        # each distinct value is reduced once
        q = quotients.get(c)
        if q is None:
            q = quotients[c] = inverse * c
        return q

    return f.map_coefficients(divide)


def clear_denominators(f: MPoly) -> tuple[list, MPoly]:
    """(D, D * f): D is the lcm of the coefficient denominators, as the
    factor list divide_coefficients takes, and D * f has coefficients in
    Z[alpha].  divide_coefficients(D * f, D) gives f back."""
    d, coeffs = over_common_denominator(f.terms.values())
    result = MPoly(f.n)
    result.terms = dict(zip(f.terms, coeffs))
    return d, result


def specialize_alpha(f: MPoly, value) -> MPoly:
    """Substitute a numeric value for alpha in every coefficient."""
    return f.map_coefficients(
        lambda c: c.evaluate(value) if isinstance(c, (AlphaPoly, AlphaFrac)) else c
    )
