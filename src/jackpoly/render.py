"""Deterministic text, LaTeX and JSON rendering of polynomials and
expansion tables.

Terms are always emitted in graded lexicographic descending order.  Text
and LaTeX share one renderer, driven by a row of ``STYLES``; the deformation
parameter prints as ``a`` in text and ``\\alpha`` in LaTeX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .alphapoly import AlphaFrac, AlphaPoly
from .mpoly import MPoly


@dataclass(frozen=True)
class Style:
    alpha: str                        # the deformation parameter
    frac: Callable[[AlphaFrac], str]  # a coefficient that is not a polynomial
    var: str                          # variable i, from str.format(i)
    power: str                        # a power, from str.format(variable, exponent)
    mono_sep: str                     # between the variables of a monomial
    poly_join: str                    # coefficient, then monomial
    expansion_join: str               # coefficient, then basis label
    bases: dict                       # basis name -> printed name
    label: str                        # a basis label, from str.format(name, parts)


STYLES = {
    "text": Style(
        alpha="a", frac=lambda c: f"({c.format('a')})", var="x{}", power="{}^{}",
        mono_sep="*", poly_join="*", expansion_join=" ",
        bases={"m": "m", "m-tilde": "mt"}, label="{}[{}]"),
    "latex": Style(
        alpha="\\alpha",
        frac=lambda c: "\\frac{%s}{%s}" % (c.num.format("\\alpha"), c.den.format("\\alpha")),
        var="x_{{{}}}", power="{}^{{{}}}", mono_sep=" ", poly_join="\\, ",
        expansion_join="\\, ", bases={"m": "m", "m-tilde": "\\tilde m"}, label="{}_{{{}}}"),
}


def coef_json(c):
    return (AlphaPoly(c) if isinstance(c, int) else c).to_json()


def poly_json(f: MPoly) -> dict:
    """JSON document of a polynomial.  Exponents stay tuples (json writes
    them as lists), and equal coefficients share one JSON value: a
    symmetric polynomial repeats each coefficient over a whole orbit."""
    coefs = {}
    terms = []
    for e, c in f.sorted_terms():
        key = (type(c), c)
        value = coefs.get(key)
        if value is None:
            value = coefs[key] = coef_json(c)
        terms.append({"exp": e, "coef": value})
    return {"kind": "polynomial", "n": f.n, "terms": terms}


def _coef(c, frac: Callable, alpha: str) -> tuple[str, bool]:
    """Return (rendered coefficient, needs parentheses when multiplied)."""
    if isinstance(c, int):
        c = AlphaPoly(c)
    elif isinstance(c, AlphaFrac):
        if not c.is_polynomial():
            return frac(c), False
        c = c.num
    return c.format(alpha), sum(1 for x in c.coeffs if x) > 1


def format_poly(f: MPoly, style: str) -> str:
    """A polynomial in the "text" or "latex" style."""
    if not f:
        return "0"
    s = STYLES[style]
    frac, alpha, sep, join = s.frac, s.alpha, s.mono_sep, s.poly_join
    # the printed powers of each variable, by exponent
    powers = [{1: s.var.format(i)} for i in range(1, f.n + 1)]
    chunks = []
    for exp, coef in f.sorted_terms():
        ctext, parens = _coef(coef, frac, alpha)
        mono = sep.join([row.get(e) or row.setdefault(e, s.power.format(row[1], e))
                         for row, e in zip(powers, exp) if e])
        negative = ctext.startswith("-")
        if parens:
            ctext = f"({ctext})"
            negative = False
        elif negative:
            ctext = ctext[1:]
        if not mono:
            body = ctext
        elif ctext == "1":
            body = mono
        else:
            body = f"{ctext}{join}{mono}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def _expansion_rows(entries: dict) -> list:
    return sorted(entries.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))


def expansion_json(lam, basis: str, entries: dict) -> dict:
    return {
        "lambda": list(lam),
        "basis": basis,
        "entries": [{"mu": list(mu), "coef": coef_json(c)}
                    for mu, c in _expansion_rows(entries)],
    }


def format_expansion(basis: str, entries: dict, style: str) -> str:
    """A basis expansion in the "text" or "latex" style."""
    if not entries:
        return "0"
    s = STYLES[style]
    frac, alpha, join, label = s.frac, s.alpha, s.expansion_join, s.label
    name = s.bases.get(basis, basis)
    chunks = []
    for mu, coef in _expansion_rows(entries):
        ctext, parens = _coef(coef, frac, alpha)
        if parens:
            ctext = f"({ctext})"
        text = label.format(name, ",".join(map(str, mu)))
        chunks.append(text if ctext == "1" else f"{ctext}{join}{text}")
    return " + ".join(chunks)
