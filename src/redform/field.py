"""Exact arithmetic tower: Gaussian rationals, univariate polynomials and
rational functions over Q(i).

All values are immutable; every operation returns a new object.  Rational
functions are kept normalized (coprime numerator/denominator, monic
denominator) so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction as Q

__all__ = ["Q", "GaussRational", "UniPoly", "RatFunc", "Ring", "QI_RING", "RF_RING"]


class GaussRational:
    """Element of Q(i), stored as a pair of reduced rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Q(re)
        self.im = Q(im)

    def __add__(self, other):
        if type(other) is GaussRational:
            out = object.__new__(GaussRational)
            out.re = self.re + other.re
            out.im = self.im + other.im
            return out
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussRational:
            out = object.__new__(GaussRational)
            out.re = self.re - other.re
            out.im = self.im - other.im
            return out
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is GaussRational:
            out = object.__new__(GaussRational)
            if self.im or other.im:
                out.re = self.re * other.re - self.im * other.im
                out.im = self.re * other.im + self.im * other.re
            else:
                out.re = self.re * other.re
                out.im = self.im
            return out
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, int):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational(self.re / n, -self.im / n)

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def _coerce(v):
    if isinstance(v, GaussRational):
        return v
    if isinstance(v, (int, Q)):
        return GaussRational(v)
    return NotImplemented


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class UniPoly:
    """Dense univariate polynomial over Q(i), coefficients in ascending degree.

    No trailing zeros; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, GaussRational) else GaussRational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GaussRational):
            return UniPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for ia, ca in enumerate(a):
            if not ca:
                continue
            for ib, cb in enumerate(b):
                out[ia + ib] = out[ia + ib] + ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = UniPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [GR_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading().inverse()
        dd = other.degree
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c * dlead
            quo[k - dd] = q
            for j, oc in enumerate(other.coeffs):
                rem[k - dd + j] = rem[k - dd + j] - q * oc
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self * self.leading().inverse()

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def inverse_mod(self, p):
        """Inverse of self modulo p, of degree below deg p (extended Euclid)."""
        a, b = p, self % p
        s0, s1 = UniPoly(), UniPoly([1])
        while not b.is_zero():
            q, r = a.divmod(b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
        # a = gcd(p, self) with a = s0 * self mod p
        if a.degree != 0:
            raise ZeroDivisionError("no inverse modulo a common factor")
        return (s0 * a.coeffs[0].inverse()) % p

    def lcm(self, other):
        if self.is_zero() or other.is_zero():
            return UniPoly()
        return ((self * other) // self.gcd(other)).monic()

    def derivative(self):
        return UniPoly([GaussRational(k) * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, z):
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def shift(self, z0):
        """Composition p(x + z0)."""
        out = UniPoly()
        xz = UniPoly([z0, 1])
        for c in reversed(self.coeffs):
            out = out * xz + UniPoly.const(c)
        return out

    def compose_power(self, k):
        """Composition p(x^k)."""
        if k == 1:
            return self
        out = [GR_ZERO] * (len(self.coeffs) * k)
        for j, c in enumerate(self.coeffs):
            out[j * k] = c
        return UniPoly(out)

    def reverse(self, at_degree=None):
        """Reversal x^d * p(1/x) padded to the given degree."""
        d = self.degree if at_degree is None else at_degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        out = [GR_ZERO] * (d + 1)
        for j, c in enumerate(self.coeffs):
            out[d - j] = c
        return UniPoly(out)

    def multiplicity(self, p):
        """Multiplicity of the factor p in self (self nonzero)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        m, cur = 0, self
        while True:
            q, r = cur.divmod(p)
            if not r.is_zero():
                return m
            m, cur = m + 1, q

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        return "UniPoly(" + " + ".join(
            f"({c!r})*x^{k}" for k, c in enumerate(self.coeffs) if c
        ) + ")"


UP_ZERO = UniPoly()
UP_ONE = UniPoly([1])


class RatFunc:
    """Normalized fraction of univariate polynomials over Q(i).

    Invariants: nonzero denominator, gcd(num, den) = 1, den monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=UP_ONE):
        if isinstance(num, (int, GaussRational)):
            num = UniPoly.const(num)
        if isinstance(den, (int, GaussRational)):
            den = UniPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            self.num, self.den = UP_ZERO, UP_ONE
            return
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead = den.leading()
        if lead != GR_ONE:
            inv = lead.inverse()
            num, den = num * inv, den * inv
        self.num, self.den = num, den

    @classmethod
    def const(cls, c):
        return cls(UniPoly.const(c))

    @classmethod
    def x(cls):
        return cls(UniPoly.x())

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.den == UP_ONE and self.num.degree <= 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.coeffs[0] if self.num.coeffs else GR_ZERO

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __pow__(self, n):
        if n < 0:
            return (RatFunc.const(1) / self) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def derivative(self):
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def eval(self, z):
        dv = self.den.eval(z)
        if not dv:
            raise ZeroDivisionError(f"evaluation at a pole ({z!r})")
        return self.num.eval(z) * dv.inverse()

    def digits(self, p, count):
        """The first `count` p-adic digits of self, polynomials of degree below
        deg p; for p = x - z0 they are the Taylor coefficients at z0.  Raises
        ZeroDivisionError when self has a pole at p."""
        num, den = self.num, self.den
        inv = den.inverse_mod(p)
        out = []
        for _ in range(count):
            c = (num * inv) % p
            out.append(c)
            num = (num - c * den) // p
        return out

    def compose_power(self, k):
        """Substitution x -> x^k."""
        return RatFunc(self.num.compose_power(k), self.den.compose_power(k))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _coerce_rf(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, GaussRational)):
        return RatFunc.const(v)
    return NotImplemented


RF_ZERO = RatFunc.const(0)
RF_ONE = RatFunc.const(1)


class Ring:
    """Minimal ring descriptor consumed by the generic matrix code."""

    __slots__ = ("zero", "one", "has_division", "name")

    def __init__(self, zero, one, has_division, name):
        self.zero = zero
        self.one = one
        self.has_division = has_division
        self.name = name

    def __repr__(self):
        return f"Ring({self.name})"


QI_RING = Ring(GR_ZERO, GR_ONE, True, "Q(i)")
RF_RING = Ring(RF_ZERO, RF_ONE, True, "Q(i)(x)")
