"""Creation-operator recursion for non-symmetric Jack polynomials.

The integral normalization F is computed by walking the star chain of a
composition down to zero and applying, at each step, the raising operator

    (eigenvalue(lam, m) + m) * Phi_m + Phi_{m+1} + ... + Phi_n

where m is the length of lam and Phi_k cycles the first k exponents while
adding a box in position k.  The monic normalization E is F divided by the
product of upper hooks over the diagram.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .alphapoly import AlphaFrac, AlphaPoly
from .compositions import (
    Composition,
    eigenvalue,
    length,
    phi_unshift,
    raising_scalar,
    star_shape,
    upper_hook_product,
)
from .mpoly import MPoly, divide_coefficients
from . import permutations as perm

CACHE_FORMAT_VERSION = 1


class CacheFormatError(ValueError):
    """A cache document has the wrong version or inconsistent contents."""


class RecursionCache:
    """Memo of computed F polynomials, keyed by composition.

    Purely an accelerator: results are identical with a warm, cold or absent
    cache, provided every entry is the true F (entries are trusted).
    """

    def __init__(self):
        self._data: dict[tuple[int, Composition], MPoly] = {}

    def get(self, lam: Composition) -> MPoly | None:
        return self._data.get((len(lam), lam))

    def put(self, lam: Composition, poly: MPoly) -> None:
        self._data.setdefault((len(lam), lam), poly)

    def __len__(self) -> int:
        return len(self._data)

    def variable_counts(self) -> list[int]:
        return sorted(self.entry_counts())

    def entry_counts(self) -> dict[int, int]:
        """The number of entries per variable count."""
        counts: dict[int, int] = {}
        for n, _ in self._data:
            counts[n] = counts.get(n, 0) + 1
        return counts

    def entries(self, n: int) -> list[tuple[Composition, MPoly]]:
        items = [(lam, f) for (nn, lam), f in self._data.items() if nn == n]
        items.sort(key=lambda t: (sum(t[0]), t[0]))
        return items


def cache_document(cache: RecursionCache, n: int) -> dict:
    """Serialize the n-variable slice of a cache to its JSON document."""
    entries = []
    for lam, f in cache.entries(n):
        entries.append({
            "lambda": list(lam),
            "poly": [{"exp": list(e), "coef": c.to_json()} for e, c in f.sorted_terms()],
        })
    return {"version": CACHE_FORMAT_VERSION, "n": n, "entries": entries}


_DECIMAL = re.compile(r"-?[0-9]+")


def _json_ints(items) -> tuple[int, ...]:
    """Integers from a JSON list whose items are JSON integers or decimal
    strings.  Floats and bools are refused rather than truncated or read as
    0/1."""
    if type(items) is not list:
        raise CacheFormatError(f"expected a list of integers, got {items!r}")
    for x in items:
        if type(x) is not int and not (type(x) is str and _DECIMAL.fullmatch(x)):
            raise CacheFormatError(f"expected an integer, got {x!r}")
    return tuple(map(int, items))


def load_cache_document(doc: dict, cache: RecursionCache) -> int:
    """Install entries from a JSON cache document; returns its variable count.

    Rejects version mismatches, entries inconsistent with the declared n,
    numbers that are not integers, and negative coefficient digits (every
    coefficient of F is a non-negative polynomial, and the recursion relies
    on that).  A well-formed entry with wrong positive values is not caught.
    """
    if not isinstance(doc, dict):
        raise CacheFormatError("cache document is not an object")
    if doc.get("version") != CACHE_FORMAT_VERSION:
        raise CacheFormatError(
            f"unsupported cache version {doc.get('version')!r}, want {CACHE_FORMAT_VERSION}")
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise CacheFormatError("cache document has an invalid variable count")
    try:
        for entry in doc["entries"]:
            lam = _json_ints(entry["lambda"])
            if len(lam) != n or any(x < 0 for x in lam):
                raise CacheFormatError(f"entry {lam} inconsistent with n={n}")
            terms = {}
            for term in entry["poly"]:
                exp = _json_ints(term["exp"])
                if len(exp) != n:
                    raise CacheFormatError(f"exponent {exp} inconsistent with n={n}")
                coef = AlphaPoly(_json_ints(term["coef"]))
                if not coef.is_nonnegative():
                    raise CacheFormatError(f"entry {lam} has a negative coefficient {coef}")
                terms[exp] = coef
            cache.put(lam, MPoly(n, terms))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CacheFormatError):
            raise
        raise CacheFormatError(f"corrupt cache document: {exc}") from exc
    return n


# -- the raising operators ---------------------------------------------------


def phi_k(k: int, f: MPoly) -> MPoly:
    """Cycling creation operator: on an exponent vector nu it produces
    (nu_2, ..., nu_k, nu_1 + 1, nu_{k+1}, ..., nu_n), extended linearly.

    For k = n this is multiplication by x_n after a full cyclic shift.
    """
    if not 1 <= k <= f.n:
        raise ValueError(f"operator index {k} out of range for n={f.n}")
    out = MPoly(f.n)
    out.terms = {e[1:k] + (e[0] + 1,) + e[k:]: c for e, c in f.terms.items()}
    return out


class _Packing:
    """Kronecker packing of non-negative Z[alpha] coefficients at alpha = 2^bits.

    Exact as long as every digit stays below 2^bits (see _digit_bound).
    Unpacked values are shared between terms with equal coefficients, and
    remembered by identity so that the next step packs each with a lookup.
    """

    __slots__ = ("bits", "polys", "packed")

    def __init__(self, bits: int):
        self.bits = bits
        self.polys: dict[int, AlphaPoly] = {}
        self.packed: dict[int, int] = {}


def _pack(c: AlphaPoly, bits: int) -> int:
    p = 0
    for d in reversed(c.coeffs):
        p = (p << bits) | d
    return p


def _unpack(p: int, bits: int) -> AlphaPoly:
    mask = (1 << bits) - 1
    digits = []
    while p:
        digits.append(p & mask)
        p >>= bits
    return AlphaPoly(digits)


def _digit_bound(start: MPoly, pending: list[Composition]) -> int:
    """A bound on every coefficient digit along the pending steps.

    All coefficients stay non-negative, so the digit sum of a polynomial is
    its value at alpha = 1.  A step maps each term to n - m + 1 terms, one
    of them weighted by the raising scalar, so it multiplies that value by
    raising_scalar(1) + n - m; no single digit can exceed the final value.
    """
    total = 0
    for c in start.terms.values():
        if any(d < 0 for d in c.coeffs):
            raise CacheFormatError(
                f"F has a negative coefficient {c}; the recursion cannot continue from it")
        total += sum(c.coeffs)
    for lam in pending:
        total *= raising_scalar(lam).evaluate(1) + len(lam) - length(lam)
    return total


def _apply_raising(lam: Composition, f: MPoly, packing: _Packing) -> MPoly:
    n = len(lam)
    m = length(lam)
    bits = packing.bits
    polys = packing.polys
    packed = packing.packed
    scal = _pack(raising_scalar(lam), bits)
    vals = [packed.get(id(c)) or _pack(c, bits) for c in f.terms.values()]
    acc: dict[tuple[int, ...], object] = {}
    get = acc.get
    for e, p in zip(f.terms, vals):
        exp = e[1:m] + (e[0] + 1,) + e[m:]
        acc[exp] = get(exp, 0) + p * scal
    for k in range(m + 1, n + 1):
        for e, p in zip(f.terms, vals):
            exp = e[1:k] + (e[0] + 1,) + e[k:]
            acc[exp] = get(exp, 0) + p
    del vals  # free before unpacking, so the peak holds one packed copy
    # unpack in place: the step's own dict becomes its AlphaPoly result
    for exp, p in acc.items():
        c = polys.get(p)
        if c is None:
            c = polys[p] = _unpack(p, bits)
            packed[id(c)] = p
        acc[exp] = c
    out = MPoly(n)
    out.terms = acc
    return out


def j_monomial_coefficients(lam: Composition, n: int) -> dict[Composition, AlphaPoly]:
    """Coefficients of the integral symmetric polynomial of the partition lam
    (no trailing zeros, len(lam) <= n) over the monomial symmetric functions
    in n variables, keyed by partitions without trailing zeros in
    lexicographically descending order.

    The restriction route reads them off F of (lam, 0^n) at the exponents
    (0^m | mu).  Every shape on the star chain of (lam, 0^n) is zero past
    position m = len(lam), so every F on the chain is symmetric in its last
    n variables, and this walk stores only the exponents whose tail is
    sorted in descending order.  A step on a shape of length L maps a stored
    exponent e, with head h = e[:m] and tail t, to:

    * Phi_k e for k = L..m, weighted by the raising scalar when k = L; the
      tail does not move;
    * for each distinct tail value u, the exponent with head (h_2, ..., h_m, u)
      and tail sorted(t - {u} + {h_1 + 1}).  This gathers the Phi_k images,
      k > m, of every rearrangement of t that lands on a sorted tail, so it
      is weighted by the multiplicity of h_1 + 1 in the new tail.

    The coefficients are packed as in f_poly, at the width _digit_bound
    proves for the full F.
    """
    m = len(lam)
    if m == 0:
        return {(): AlphaPoly.ONE}
    pending = []
    shape = lam + (0,) * n
    while length(shape):
        pending.append(shape)
        shape = star_shape(shape)
    bits = _digit_bound(MPoly.one(n + m, AlphaPoly.ONE), pending).bit_length()
    f: dict[tuple[int, ...], int] = {(0,) * (n + m): 1}
    while pending:
        shape = pending.pop()
        low = length(shape)
        scal = _pack(raising_scalar(shape), bits)
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for e, p in f.items():
            exp = e[1:low] + (e[0] + 1,) + e[low:]
            acc[exp] = get(exp, 0) + p * scal
            for k in range(low + 1, m + 1):
                exp = e[1:k] + (e[0] + 1,) + e[k:]
                acc[exp] = get(exp, 0) + p
            head = e[1:m]
            tail = e[m:]
            raised = e[0] + 1
            for i, u in enumerate(tail):
                if i and u == tail[i - 1]:
                    continue
                rest = tail[:i] + tail[i + 1:]
                exp = head + (u,) + tuple(sorted(rest + (raised,), reverse=True))
                acc[exp] = get(exp, 0) + p * (rest.count(raised) + 1)
        f = acc
    zero_head = (0,) * m
    polys: dict[int, AlphaPoly] = {}
    out = {}
    for e in sorted((e for e in f if e[:m] == zero_head), reverse=True):
        p = f[e]
        c = polys.get(p)
        if c is None:
            c = polys[p] = _unpack(p, bits)
        out[tuple(x for x in e[m:] if x)] = c
    return out


def f_poly(lam: Sequence[int], cache: RecursionCache | None = None) -> MPoly:
    """The integral non-symmetric polynomial indexed by lam, with coefficients
    in Z[alpha].  F of the zero composition is 1.

    The steps run on coefficients packed into one int each (see _Packing),
    with a digit width proved wide enough by _digit_bound."""
    lam = tuple(lam)
    n = len(lam)
    pending: list[Composition] = []
    cur = lam
    f: MPoly | None = None
    while True:
        if cache is not None:
            hit = cache.get(cur)
            if hit is not None:
                f = hit
                break
        if length(cur) == 0:
            f = MPoly.one(n, AlphaPoly.ONE)
            break
        pending.append(cur)
        cur = star_shape(cur)
    if not pending:
        return f
    packing = _Packing(_digit_bound(f, pending).bit_length())
    while pending:
        cur = pending.pop()
        f = _apply_raising(cur, f, packing)
        if cache is not None:
            cache.put(cur, f)
    return f


def e_poly(lam: Sequence[int], cache: RecursionCache | None = None) -> MPoly:
    """The monic non-symmetric polynomial: F divided by the upper-hook product.

    The coefficient of x^lam is exactly 1.
    """
    lam = tuple(lam)
    f = f_poly(lam, cache)
    e = divide_coefficients(f, upper_hook_product(lam))
    lead = e.coefficient(lam)
    if lead != 1:
        raise ArithmeticError(f"leading coefficient of E[{lam}] is {lead}, not 1")
    return e


# -- auxiliary operators, exposed for verification ---------------------------


def swap_adjacent(lam: Sequence[int], i: int, f: MPoly) -> MPoly:
    """Produce E[lam] from f = E[s_i lam] when lam_i > lam_{i+1}:
    apply (x s_i + 1) / x with x the spectral gap at positions i, i+1."""
    lam = tuple(lam)
    if not 1 <= i <= len(lam) - 1:
        raise ValueError(f"index {i} out of range")
    if lam[i - 1] <= lam[i]:
        raise ValueError(f"need lam_{i} > lam_{i + 1}")
    gap = eigenvalue(lam, i) - eigenvalue(lam, i + 1)
    if not gap:
        raise ArithmeticError("vanishing spectral gap")
    return f.swap(i, i + 1) + f.scale(AlphaFrac(1, gap))


def creation_apply(lam: Sequence[int], f: MPoly) -> MPoly:
    """Apply the creation operator attached to lam: a raising-scalar-weighted
    descending chain of adjacent swaps plus the shorter chains.

    When f is E of the sharp shape of lam, the result is raising_scalar(lam)
    times E[lam]; for length(lam) = n it degenerates to plain scaling.
    """
    lam = tuple(lam)
    n = len(lam)
    m = length(lam)
    if m == 0:
        raise ValueError("zero composition")
    scal = raising_scalar(lam)
    out = f.act(perm.descending_chain(n, m)).scale(scal)
    for i in range(m + 1, n + 1):
        out = out + f.act(perm.descending_chain(n, i))
    return out


@dataclass(frozen=True)
class EqualityWitness:
    holds: bool
    lhs: MPoly
    rhs: MPoly


def cyclic_identity(lam: Sequence[int], cache: RecursionCache | None = None) -> EqualityWitness:
    """Check E[lam] == Phi_n applied to E of the unshifted shape (lam_n > 0)."""
    lam = tuple(lam)
    if lam[-1] == 0:
        raise ValueError("last part must be nonzero")
    lhs = e_poly(lam, cache)
    rhs = phi_k(len(lam), e_poly(phi_unshift(lam), cache))
    return EqualityWitness(lhs == rhs, lhs, rhs)
