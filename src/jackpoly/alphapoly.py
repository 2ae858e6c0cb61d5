"""Exact arithmetic in the deformation parameter.

``AlphaPoly`` is an integer polynomial in the formal parameter alpha, stored
densely by increasing power.  ``AlphaFrac`` is a reduced quotient of two such
polynomials, i.e. an element of the rational-function field Q(alpha).  Both
are immutable values with arbitrary-precision arithmetic; ints coerce freely.

Every denominator the package builds is a product of factors linear in
alpha: hooks, spectral gaps and integers.  So an ``AlphaFrac`` keeps its
denominator split into an integer content, a sorted tuple of primitive
linear factors and a primitive remainder.  A fraction is reduced by
trial-dividing its numerator by each linear factor, sums are taken over the
lcm of the two factor multisets, and the expanded ``den`` is built only when
something reads it.  The remainder is 1 unless a caller divides by a
polynomial of degree >= 2; only such a remainder goes through the general
pseudo-remainder gcd, ``poly_gcd``.
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

    # -- content and exact division --------------------------------------

    def content(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        return gcd(*self.coeffs)

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

    @classmethod
    def from_json(cls, data) -> "AlphaPoly":
        return cls(tuple(int(c) for c in data))


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


def poly_gcd(f: AlphaPoly, g: AlphaPoly) -> AlphaPoly:
    """Primitive gcd with positive leading coefficient (of the primitive parts)."""
    if not f:
        f, g = g, f
    f, g = f.primitive_part().coeffs, g.primitive_part().coeffs
    while g:
        f, g = g, AlphaPoly(_pseudo_rem(f, g)).primitive_part().coeffs
    return AlphaPoly(tuple(-c for c in f) if f and f[-1] < 0 else f)


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


# -- denominators split into linear factors ------------------------------------
#
# A linear factor is a pair (q, p) standing for p*alpha + q, primitive, with
# p > 0.  A factor tuple is sorted, so equal multisets are equal tuples.

_ONE = (1,)


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


def _split(den) -> tuple[int, list, tuple]:
    """(c, linear factors, remainder) with den = c * prod(factors) *
    remainder, for den an int, an AlphaPoly or a sequence of them.  c is a
    nonzero int carrying the sign; the remainder is primitive with a
    positive leading coefficient."""
    if isinstance(den, (list, tuple)):
        c, lin, rem = 1, [], _ONE
        for factor in den:
            fc, fl, fr = _split(factor)
            c *= fc
            lin += fl
            if fr != _ONE:
                rem = (AlphaPoly(rem) * AlphaPoly(fr)).coeffs
        return c, lin, rem
    coeffs = den.coeffs if isinstance(den, AlphaPoly) else (den,) if den else ()
    if not coeffs:
        raise ZeroDivisionError("zero denominator")
    if len(coeffs) == 1:
        return coeffs[0], [], _ONE
    g = gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    prim = tuple(x // g for x in coeffs)
    return (g, [prim], _ONE) if len(coeffs) == 2 else (g, [], prim)


def _reduced(num, c: int, lin: tuple, rem: tuple) -> tuple:
    """The canonical parts of num / (c * prod(lin) * rem), given c > 0 and a
    numerator (a coefficient sequence) with no factor in lin."""
    num = AlphaPoly(num)
    if not num:
        return num, 1, (), _ONE
    if rem != _ONE:
        g = poly_gcd(num, AlphaPoly(rem))
        if g.degree > 0:
            num = exact_poly_div(num, g)
            rem = exact_poly_div(AlphaPoly(rem), g).coeffs
    k = gcd(c, *num.coeffs)
    if k > 1:
        num = AlphaPoly(tuple(x // k for x in num.coeffs))
        c //= k
    return num, c, lin, rem


def _new(num: AlphaPoly, c: int, lin: tuple, rem: tuple, den=None) -> "AlphaFrac":
    """An AlphaFrac from parts already in canonical form."""
    return object.__new__(AlphaFrac)._set(num, c, lin, rem, den)


def _widen(x: "AlphaFrac", c: int, factors) -> AlphaPoly:
    """x's numerator brought over the denominator c * (x's linear factors)
    * factors; c is a multiple of x's content."""
    k = c // x._c
    coeffs = [k * v for v in x.num.coeffs]
    for factor in factors:
        coeffs = _times_linear(coeffs, factor)
    return AlphaPoly(coeffs)


class AlphaFrac:
    """Reduced quotient of integer polynomials in alpha.

    The canonical form is unique: numerator and denominator have no common
    polynomial factor over Q, their integer contents are coprime, and the
    denominator has a positive leading coefficient.  The denominator may be
    given as an int, an AlphaPoly, or a sequence of them (for instance hook
    factors); a degree-1 polynomial is a known linear factor.

    >>> a = AlphaPoly.ALPHA
    >>> AlphaFrac(a * a - 1, a + 1) == a - 1
    True
    >>> str(AlphaFrac(2, 2 * a + 2))
    '1/(a+1)'
    >>> str(AlphaFrac(a + 1, [a + 1, 2 * a + 1]))
    '1/(2a+1)'
    """

    __slots__ = ("num", "_c", "_lin", "_rem", "_den")

    ZERO: "AlphaFrac"
    ONE: "AlphaFrac"

    def __init__(self, num, den=1):
        num = num if isinstance(num, AlphaPoly) else AlphaPoly(num)
        c, lin, rem = _split(den)
        coeffs = num.coeffs
        if c < 0:
            c = -c
            coeffs = tuple(-x for x in coeffs)
        lin = tuple(sorted(lin))
        if lin and coeffs:
            coeffs, lin = _cancel(coeffs, lin)
        self._set(*_reduced(coeffs, c, lin, rem))

    def _set(self, num, c, lin, rem, den=None) -> "AlphaFrac":
        self.num, self._c, self._lin, self._rem, self._den = num, c, lin, rem, den
        return self

    @property
    def den(self) -> AlphaPoly:
        """The expanded denominator, built on first use."""
        if self._den is None:
            coeffs = self._rem
            for factor in self._lin:
                coeffs = _times_linear(coeffs, factor)
            c = self._c
            self._den = AlphaPoly(tuple(c * x for x in coeffs))
        return self._den

    # -- queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self._c == 1 and not self._lin and self._rem == _ONE

    def __eq__(self, other):
        if isinstance(other, AlphaFrac):
            if self._rem == other._rem == _ONE:
                # the linear factorisation of a denominator is unique
                return (self._lin == other._lin and self._c == other._c
                        and self.num == other.num)
            return self.num == other.num and self.den == other.den
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
            return _new(other, 1, (), _ONE, AlphaPoly.ONE)
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
        left, right = _widen(self, c, to_self), _widen(other, c, to_other)
        rem = self._rem
        if other._rem != rem:
            left, right = left * AlphaPoly(other._rem), right * AlphaPoly(rem)
            rem = (AlphaPoly(rem) * AlphaPoly(other._rem)).coeffs
        coeffs, lin = _cancel((left + right).coeffs, lin)
        return _new(*_reduced(coeffs, c, lin, rem))

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.num, self._c, self._lin, self._rem, self._den)

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
        if self._rem == _ONE or other._rem == _ONE:
            rem = other._rem if self._rem == _ONE else self._rem
        else:
            rem = (AlphaPoly(self._rem) * AlphaPoly(other._rem)).coeffs
        return _new(*_reduced((AlphaPoly(left) * AlphaPoly(right)).coeffs,
                              self._c * other._c, tuple(sorted(lin_self + lin_other)), rem))

    __rmul__ = __mul__

    def _inverse(self) -> "AlphaFrac":
        # numerator and denominator are coprime, so swapping them needs no
        # reduction; only the sign moves back to the numerator
        c, lin, rem = _split(self.num)
        return _new(self.den if c > 0 else -self.den, abs(c), tuple(lin), rem)

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
        the homogenised numerator and denominator, divided once."""
        value = Fraction(value)
        n, d = value.numerator, value.denominator
        top = _horner(self.num.coeffs, n, d)
        bottom = self._c * _horner(self._rem, n, d)
        for q, p in self._lin:
            bottom *= p * n + q * d
        # top / d^deg(num) over bottom / d^deg(den)
        shift = len(self._lin) + len(self._rem) - len(self.num.coeffs)
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

    @classmethod
    def from_json(cls, data) -> "AlphaFrac":
        return cls(AlphaPoly.from_json(data["num"]), AlphaPoly.from_json(data["den"]))


AlphaFrac.ZERO = AlphaFrac(0)
AlphaFrac.ONE = AlphaFrac(1)


def over_common_denominator(values) -> tuple[list, list[AlphaPoly]]:
    """(D, [D * v for v in values]) with D the lcm of the denominators of
    values (AlphaFrac, AlphaPoly or int), so every product lies in
    Z[alpha].  D is a factor list that AlphaFrac takes as a denominator: an
    int, then linear factors.  A remainder of degree >= 2 enters D once per
    distinct value: a common multiple, not always the least."""
    fracs = [v if isinstance(v, AlphaFrac) else AlphaFrac(v) for v in values]
    c = lcm(1, *(x._c for x in fracs))
    lin = ()
    for x in fracs:
        lin = _lcm(lin, x._lin)[0]
    rem = AlphaPoly.ONE
    for r in dict.fromkeys(x._rem for x in fracs if x._rem != _ONE):
        rem = rem * AlphaPoly(r)
    out = [_widen(x, c, _lcm(x._lin, lin)[1]) for x in fracs]
    factors = [c, *(AlphaPoly(f) for f in lin)]
    if rem != 1:
        out = [num * exact_poly_div(rem, AlphaPoly(x._rem)) for num, x in zip(out, fracs)]
        factors.append(rem)
    return factors, out
