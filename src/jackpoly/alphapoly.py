"""Exact arithmetic in the deformation parameter.

``AlphaPoly`` is an integer polynomial in the formal parameter alpha, stored
densely by increasing power.  ``AlphaFrac`` is a reduced quotient of two such
polynomials, i.e. an element of the rational-function field Q(alpha).  Both
are immutable values with arbitrary-precision arithmetic; ints coerce freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class ExactnessError(ArithmeticError):
    """A division that must be exact left a remainder."""


class AlphaPoly:
    """Integer polynomial in alpha.

    >>> a = AlphaPoly.ALPHA
    >>> str((a + 1) * (a + 2))
    'a^2+3a+2'
    >>> (a + 1) - (a + 1)
    AlphaPoly(())
    """

    __slots__ = ("coeffs",)

    ZERO: "AlphaPoly"
    ONE: "AlphaPoly"
    ALPHA: "AlphaPoly"

    def __init__(self, coeffs=()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in alpha; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_nonnegative(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, AlphaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == AlphaPoly(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, AlphaPoly):
            return other
        if isinstance(other, int):
            return AlphaPoly(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return AlphaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return AlphaPoly.ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return AlphaPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = AlphaPoly.ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- content and exact division --------------------------------------

    def content(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self) -> "AlphaPoly":
        c = self.content()
        if c <= 1:
            return self
        return AlphaPoly(tuple(x // c for x in self.coeffs))

    def exact_scalar_div(self, k: int) -> "AlphaPoly":
        if k == 0:
            raise ZeroDivisionError("division by zero scalar")
        for c in self.coeffs:
            if c % k:
                raise ExactnessError(f"{self} is not divisible by {k}")
        return AlphaPoly(tuple(c // k for c in self.coeffs))

    def evaluate(self, value):
        """Evaluate at a numeric value (int or Fraction) by Horner's rule."""
        result = value * 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    # -- presentation ----------------------------------------------------

    def __repr__(self):
        return f"AlphaPoly({self.coeffs!r})"

    def __str__(self):
        return self.format()

    def format(self, symbol: str = "a", power_op: str = "^") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mon = symbol if k == 1 else f"{symbol}{power_op}{k}"
                body = mon if abs(c) == 1 else f"{abs(c)}{mon}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "AlphaPoly":
        return cls(tuple(int(c) for c in data))


AlphaPoly.ZERO = AlphaPoly(())
AlphaPoly.ONE = AlphaPoly((1,))
AlphaPoly.ALPHA = AlphaPoly((0, 1))


def _pseudo_rem(f: tuple, g: tuple) -> tuple:
    """Pseudo-remainder of dense integer coefficient lists: lc(g)^(df-dg+1) f mod g."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        lr = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lg for c in r]
        for i, gc in enumerate(g):
            r[shift + i] -= lr * gc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


@lru_cache(maxsize=None)
def _gcd_coeffs(a: tuple, b: tuple) -> tuple:
    if not a:
        f = AlphaPoly(b).primitive_part()
        return tuple(-c for c in f.coeffs) if f.leading < 0 else f.coeffs
    if not b:
        return _gcd_coeffs(b, a)
    f = AlphaPoly(a).primitive_part().coeffs
    g = AlphaPoly(b).primitive_part().coeffs
    while g:
        f, g = g, AlphaPoly(_pseudo_rem(f, g)).primitive_part().coeffs
    if f[-1] < 0:
        f = tuple(-c for c in f)
    return f


def poly_gcd(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    """Primitive gcd with positive leading coefficient (of the primitive parts)."""
    return AlphaPoly(_gcd_coeffs(f.coeffs, g.coeffs))


def exact_poly_div(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    """Exact polynomial quotient f / g in Z[alpha]; raises if inexact.

    Integer long division with divmod.  It raises at the first quotient
    digit that is not an integer, or on a nonzero remainder: exactly the
    cases in which long division over Q gives a quotient outside Z[alpha]
    or leaves a remainder.
    """
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return AlphaPoly.ZERO
    rem = list(f.coeffs)
    gc = g.coeffs
    dg = len(gc) - 1
    lg = gc[-1]
    quot = [0] * (len(rem) - dg)
    for shift in range(len(rem) - 1 - dg, -1, -1):
        top = rem[shift + dg]
        if not top:
            continue
        q, r = divmod(top, lg)
        if r:
            raise ExactnessError(f"({f}) is not divisible by ({g})")
        quot[shift] = q
        for i in range(dg):
            rem[shift + i] -= q * gc[i]
    if any(rem[:dg]):
        raise ExactnessError(f"({f}) is not divisible by ({g})")
    return AlphaPoly(quot)


class AlphaFrac:
    """Reduced quotient of integer polynomials in alpha.

    The canonical form is unique: numerator and denominator have no common
    polynomial factor over Q, their integer contents are coprime, and the
    denominator has a positive leading coefficient.

    >>> a = AlphaPoly.ALPHA
    >>> AlphaFrac(a * a - 1, a + 1) == a - 1
    True
    >>> str(AlphaFrac(2, 2 * a + 2))
    '1/(a+1)'
    """

    __slots__ = ("num", "den")

    ZERO: "AlphaFrac"
    ONE: "AlphaFrac"

    def __init__(self, num, den=1):
        num = num if isinstance(num, AlphaPoly) else AlphaPoly(num)
        den = den if isinstance(den, AlphaPoly) else AlphaPoly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = AlphaPoly.ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = exact_poly_div(num, g)
                den = exact_poly_div(den, g)
            c = gcd(num.content(), den.content())
            if c > 1:
                num = num.exact_scalar_div(c)
                den = den.exact_scalar_div(c)
            if den.leading < 0:
                num = -num
                den = -den
        self.num = num
        self.den = den

    # -- queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den == AlphaPoly.ONE

    def as_poly(self) -> AlphaPoly:
        if not self.is_polynomial():
            raise ExactnessError(f"{self} is not a polynomial")
        return self.num

    def __eq__(self, other):
        if isinstance(other, AlphaFrac):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (AlphaPoly, int)):
            return self.den == AlphaPoly.ONE and self.num == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    # -- field operations --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, AlphaFrac):
            return other
        if isinstance(other, (AlphaPoly, int)):
            return AlphaFrac(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return AlphaFrac(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(AlphaFrac)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return AlphaFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return AlphaFrac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def evaluate(self, value) -> Fraction:
        num = self.num.evaluate(Fraction(value))
        den = self.den.evaluate(Fraction(value))
        return Fraction(num, den)

    # -- presentation ----------------------------------------------------

    def __repr__(self):
        return f"AlphaFrac({self.num.coeffs!r}, {self.den.coeffs!r})"

    def __str__(self):
        return self.format()

    def format(self, symbol: str = "a", power_op: str = "^") -> str:
        ns = self.num.format(symbol, power_op)
        if self.is_polynomial():
            return ns
        ds = self.den.format(symbol, power_op)
        if self.num.degree > 0 or self.num.leading < 0:
            ns = f"({ns})"
        if self.den.degree > 0:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "AlphaFrac":
        return cls(AlphaPoly.from_json(data["num"]), AlphaPoly.from_json(data["den"]))


AlphaFrac.ZERO = AlphaFrac(0)
AlphaFrac.ONE = AlphaFrac(1)
