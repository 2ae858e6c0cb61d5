"""Deterministic text, LaTeX and JSON rendering of polynomials and
expansion tables.

Terms are always emitted in graded lexicographic descending order, and the
deformation parameter prints as ``a`` in text and ``\\alpha`` in LaTeX.
"""

from __future__ import annotations

from .alphapoly import AlphaFrac, AlphaPoly
from .mpoly import MPoly


def _coerce_coef(c):
    if isinstance(c, int):
        return AlphaPoly(c)
    return c


def coef_json(c):
    c = _coerce_coef(c)
    if isinstance(c, AlphaFrac):
        return c.to_json()
    return c.to_json()


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


def _coef_text(c, symbol: str, power_op: str) -> tuple[str, bool]:
    """Return (rendered coefficient, needs parentheses when multiplied)."""
    c = _coerce_coef(c)
    if isinstance(c, AlphaFrac):
        if c.is_polynomial():
            return _coef_text(c.num, symbol, power_op)
        text = c.format(symbol, power_op)
        return f"({text})", False
    text = c.format(symbol, power_op)
    terms = sum(1 for x in c.coeffs if x)
    return text, terms > 1


def _monomial_text(exp, var: str, power_op: str, sep: str) -> str:
    parts = []
    for i, e in enumerate(exp, start=1):
        if e == 0:
            continue
        name = f"{var}{i}"
        parts.append(name if e == 1 else f"{name}{power_op}{e}")
    return sep.join(parts)


def poly_text(f: MPoly) -> str:
    if not f:
        return "0"
    chunks = []
    for exp, coef in f.sorted_terms():
        ctext, parens = _coef_text(coef, "a", "^")
        mono = _monomial_text(exp, "x", "^", "*")
        negative = ctext.startswith("-")
        if negative and not parens:
            ctext = ctext[1:]
        if parens:
            ctext = f"({ctext})"
            negative = False
        if not mono:
            body = ctext
        elif ctext == "1":
            body = mono
        else:
            body = f"{ctext}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def _latex_alpha_poly(c: AlphaPoly) -> str:
    return c.format("\\alpha", "^")


def _coef_latex(c) -> tuple[str, bool]:
    c = _coerce_coef(c)
    if isinstance(c, AlphaFrac):
        if c.is_polynomial():
            return _coef_latex(c.num)
        return (f"\\frac{{{_latex_alpha_poly(c.num)}}}{{{_latex_alpha_poly(c.den)}}}", False)
    text = _latex_alpha_poly(c)
    return text, sum(1 for x in c.coeffs if x) > 1


def poly_latex(f: MPoly) -> str:
    if not f:
        return "0"
    chunks = []
    for exp, coef in f.sorted_terms():
        ctext, parens = _coef_latex(coef)
        mono = " ".join(
            (f"x_{{{i}}}" if e == 1 else f"x_{{{i}}}^{{{e}}}")
            for i, e in enumerate(exp, start=1) if e
        )
        negative = ctext.startswith("-")
        if negative and not parens:
            ctext = ctext[1:]
        if parens:
            ctext = f"({ctext})"
            negative = False
        if not mono:
            body = ctext
        elif ctext == "1":
            body = mono
        else:
            body = f"{ctext}\\, {mono}"
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


def expansion_text(basis: str, entries: dict) -> str:
    if not entries:
        return "0"
    name = {"m": "m", "m-tilde": "mt"}.get(basis, basis)
    chunks = []
    for mu, coef in _expansion_rows(entries):
        ctext, parens = _coef_text(coef, "a", "^")
        if parens:
            ctext = f"({ctext})"
        label = f"{name}[{','.join(str(x) for x in mu)}]"
        chunks.append(label if ctext == "1" else f"{ctext} {label}")
    return " + ".join(chunks)


def expansion_latex(basis: str, entries: dict) -> str:
    if not entries:
        return "0"
    name = {"m": "m", "m-tilde": "\\tilde m"}.get(basis, basis)
    chunks = []
    for mu, coef in _expansion_rows(entries):
        ctext, parens = _coef_latex(coef)
        if parens:
            ctext = f"({ctext})"
        label = f"{name}_{{{','.join(str(x) for x in mu)}}}"
        chunks.append(label if ctext == "1" else f"{ctext}\\, {label}")
    return " + ".join(chunks)
