"""Exact arithmetic in the deformation parameter.

``AlphaPoly`` is an integer polynomial in the formal parameter alpha, stored
densely by increasing power.  ``AlphaFrac`` is a reduced quotient of such a
polynomial by a product of factors linear in alpha.  Both are immutable
values with arbitrary-precision arithmetic; ints coerce freely.

Every denominator in the paper's formulas is such a product: hooks,
spectral gaps and integers.  So an ``AlphaFrac`` keeps its denominator as
an integer content times a sorted tuple of primitive linear factors, and
nothing else.  A fraction is reduced by trial-dividing its numerator by
each linear factor, sums are taken over the lcm of the two factor
multisets, and the expanded ``den`` is built only when something reads it.
A denominator polynomial of degree >= 2 is refused with ``ValueError``;
pass its linear factors as a list instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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

    # -- exact division --------------------------------------------------

    def exact_scalar_div(self, k: int) -> "AlphaPoly":
        if k == 0:
            raise ZeroDivisionError("division by zero scalar")
        for c in self.coeffs:
            if c % k:
                raise ExactnessError(f"{self} is not divisible by {k}")
        return AlphaPoly(tuple(c // k for c in self.coeffs))

    def evaluate(self, value):
        """Evaluate at an int (giving an int) or a Fraction (giving a
        Fraction).  Horner's rule runs in integers on the homogenised
        polynomial, and the one division happens at the end."""
        if isinstance(value, int):
            return _horner(self.coeffs, value, 1)
        d = value.denominator
        return Fraction(_horner(self.coeffs, value.numerator, d), d ** max(self.degree, 0))

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


AlphaPoly.ZERO = AlphaPoly(())
AlphaPoly.ONE = AlphaPoly((1,))
AlphaPoly.ALPHA = AlphaPoly((0, 1))


def _horner(coeffs: tuple, n: int, d: int) -> int:
    """sum c_k n^k d^(deg-k): d^deg times the value at n/d."""
    total, dk = 0, 1
    for c in reversed(coeffs):
        total = total * n + c * dk
        dk *= d
    return total


# -- denominators split into linear factors ------------------------------------
#
# A linear factor is a pair (q, p) standing for p*alpha + q, primitive, with
# p > 0.  A factor tuple is sorted, so equal multisets are equal tuples.


def _times_linear(coeffs, factor) -> list:
    q, p = factor
    out = [q * c for c in coeffs]
    out.append(0)
    for k, c in enumerate(coeffs):
        out[k + 1] += p * c
    return out


def _div_linear(coeffs: tuple, factor):
    """The quotient of a polynomial of degree >= 1 by a linear factor, or
    None when it does not divide.  Synthetic division from the top stops at
    the first digit that is not an integer; as the factor is primitive,
    division over Q is exact exactly when it is exact over Z."""
    q, p = factor
    out = [0] * (len(coeffs) - 1)
    digit = 0
    for k in range(len(coeffs) - 1, 0, -1):
        digit, r = divmod(coeffs[k] - q * digit, p)
        if r:
            return None
        out[k - 1] = digit
    return tuple(out) if coeffs[0] == q * digit else None


def _cancel(coeffs: tuple, lin: tuple) -> tuple[tuple, tuple]:
    """Divide out each factor of lin that divides the polynomial:
    (quotient, the factors left)."""
    left = []
    failed = None
    for factor in lin:
        if factor != failed and len(coeffs) > 1:
            quotient = _div_linear(coeffs, factor)
            if quotient is not None:
                coeffs = quotient
                continue
            failed = factor
        left.append(factor)
    return coeffs, tuple(left)


def _lcm(a: tuple, b: tuple) -> tuple[tuple, list, list]:
    """The lcm of two factor tuples, with the factors each one lacks."""
    if a == b:
        return a, [], []
    missing_a, missing_b = list(b), []
    for factor in a:
        if factor in missing_a:
            missing_a.remove(factor)
        else:
            missing_b.append(factor)
    return tuple(sorted(a + tuple(missing_a))), missing_a, missing_b


def _split(den) -> tuple[int, list]:
    """(c, linear factors) with den = c * prod(factors), for den an int, an
    AlphaPoly or a sequence of them.  c is a nonzero int carrying the sign.
    A polynomial of degree >= 2 raises ValueError."""
    if isinstance(den, (list, tuple)):
        c, lin = 1, []
        for factor in den:
            fc, fl = _split(factor)
            c *= fc
            lin += fl
        return c, lin
    coeffs = den.coeffs if isinstance(den, AlphaPoly) else (den,) if den else ()
    if not coeffs:
        raise ZeroDivisionError("zero denominator")
    if len(coeffs) == 1:
        return coeffs[0], []
    if len(coeffs) > 2:
        raise ValueError(f"denominator {AlphaPoly(coeffs)} has degree {len(coeffs) - 1}: "
                         "pass its linear factors as a list")
    g = gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return g, [(coeffs[0] // g, coeffs[1] // g)]


def _reduced(num, c: int, lin: tuple) -> tuple:
    """The canonical parts of num / (c * prod(lin)), given c > 0 and a
    numerator (a coefficient sequence) with no factor in lin."""
    num = AlphaPoly(num)
    if not num:
        return num, 1, ()
    k = gcd(c, *num.coeffs)
    if k > 1:
        num = AlphaPoly(tuple(x // k for x in num.coeffs))
        c //= k
    return num, c, lin


def _new(num: AlphaPoly, c: int, lin: tuple, den=None) -> "AlphaFrac":
    """An AlphaFrac from parts already in canonical form."""
    return object.__new__(AlphaFrac)._set(num, c, lin, den)


def _widen(x: "AlphaFrac", c: int, factors) -> AlphaPoly:
    """x's numerator brought over the denominator c * (x's linear factors)
    * factors; c is a multiple of x's content."""
    k = c // x._c
    coeffs = [k * v for v in x.num.coeffs]
    for factor in factors:
        coeffs = _times_linear(coeffs, factor)
    return AlphaPoly(coeffs)


class AlphaFrac:
    """Reduced quotient of an integer polynomial in alpha by a product of
    linear factors.

    The canonical form is unique: the numerator has no factor in common with
    the denominator, their integer contents are coprime, and the denominator
    has a positive leading coefficient.  The denominator may be given as an
    int, an AlphaPoly of degree <= 1, or a sequence of them (for instance
    hook factors).  A polynomial of degree >= 2 raises ValueError, whether
    it is passed as a denominator or reached by dividing by a fraction whose
    numerator it is; pass its linear factors as a list instead.

    >>> a = AlphaPoly.ALPHA
    >>> AlphaFrac(a * a - 1, a + 1) == a - 1
    True
    >>> str(AlphaFrac(2, 2 * a + 2))
    '1/(a+1)'
    >>> str(AlphaFrac(a + 1, [a + 1, 2 * a + 1]))
    '1/(2a+1)'
    """

    __slots__ = ("num", "_c", "_lin", "_den")

    ZERO: "AlphaFrac"
    ONE: "AlphaFrac"

    def __init__(self, num, den=1):
        num = num if isinstance(num, AlphaPoly) else AlphaPoly(num)
        c, lin = _split(den)
        coeffs = num.coeffs
        if c < 0:
            c = -c
            coeffs = tuple(-x for x in coeffs)
        lin = tuple(sorted(lin))
        if lin and coeffs:
            coeffs, lin = _cancel(coeffs, lin)
        self._set(*_reduced(coeffs, c, lin))

    def _set(self, num, c, lin, den=None) -> "AlphaFrac":
        self.num, self._c, self._lin, self._den = num, c, lin, den
        return self

    @property
    def den(self) -> AlphaPoly:
        """The expanded denominator, built on first use."""
        if self._den is None:
            coeffs = (self._c,)
            for factor in self._lin:
                coeffs = _times_linear(coeffs, factor)
            self._den = AlphaPoly(coeffs)
        return self._den

    # -- queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self._c == 1 and not self._lin

    def __eq__(self, other):
        if isinstance(other, AlphaFrac):
            # the linear factorisation of a denominator is unique
            return self._lin == other._lin and self._c == other._c and self.num == other.num
        if isinstance(other, (AlphaPoly, int)):
            return self.is_polynomial() and self.num == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    # -- field operations --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, AlphaFrac):
            return other
        if isinstance(other, int):
            other = AlphaPoly(other)
        if isinstance(other, AlphaPoly):
            return _new(other, 1, (), AlphaPoly.ONE)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        lin, to_self, to_other = _lcm(self._lin, other._lin)
        c = lcm(self._c, other._c)
        total = _widen(self, c, to_self) + _widen(other, c, to_other)
        coeffs, lin = _cancel(total.coeffs, lin)
        return _new(*_reduced(coeffs, c, lin))

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.num, self._c, self._lin, self._den)

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
        if not self.num or not other.num:
            return AlphaFrac.ZERO
        # each numerator is already free of its own denominator's factors
        left, lin_other = _cancel(self.num.coeffs, other._lin)
        right, lin_self = _cancel(other.num.coeffs, self._lin)
        return _new(*_reduced((AlphaPoly(left) * AlphaPoly(right)).coeffs,
                              self._c * other._c, tuple(sorted(lin_self + lin_other))))

    __rmul__ = __mul__

    def _inverse(self) -> "AlphaFrac":
        # numerator and denominator are coprime, so swapping them needs no
        # reduction; only the sign moves back to the numerator
        c, lin = _split(self.num)
        return _new(self.den if c > 0 else -self.den, abs(c), tuple(lin))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._inverse()

    def evaluate(self, value) -> Fraction:
        """The value at an int or Fraction, as a Fraction: integer Horner on
        the homogenised numerator and the factored denominator, divided
        once."""
        value = Fraction(value)
        n, d = value.numerator, value.denominator
        top = _horner(self.num.coeffs, n, d)
        bottom = self._c
        for q, p in self._lin:
            bottom *= p * n + q * d
        # top / d^deg(num) over bottom / d^deg(den)
        shift = len(self._lin) + 1 - len(self.num.coeffs)
        if shift >= 0:
            return Fraction(top * d ** shift, bottom)
        return Fraction(top, bottom * d ** -shift)

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


AlphaFrac.ZERO = AlphaFrac(0)
AlphaFrac.ONE = AlphaFrac(1)


def over_common_denominator(values) -> tuple[list, list[AlphaPoly]]:
    """(D, [D * v for v in values]) with D the lcm of the denominators of
    values (AlphaFrac, AlphaPoly or int), so every product lies in
    Z[alpha].  D is a factor list that AlphaFrac takes as a denominator: an
    int, then linear factors."""
    fracs = [v if isinstance(v, AlphaFrac) else AlphaFrac(v) for v in values]
    c = lcm(1, *(x._c for x in fracs))
    lin = ()
    for x in fracs:
        lin = _lcm(lin, x._lin)[0]
    out = [_widen(x, c, _lcm(x._lin, lin)[1]) for x in fracs]
    return [c, *(AlphaPoly(f) for f in lin)], out
