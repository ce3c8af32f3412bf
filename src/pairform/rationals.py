"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every coefficient in this package is a Gaussian rational, so equality of
expressions is decidable and matrix ranks are exact integers.

A value is stored as three Python ints ``(a, b, d)`` meaning ``(a + b*i)/d``,
always in canonical form: ``d > 0`` and ``gcd(a, b, d) == 1`` (zero is
``(0, 0, 1)``).  Canonical form makes equality a comparison of three ints.
Sums and products take one int operation per component and one ``math.gcd``,
skipped when the denominator is 1; integer and ``Fraction`` operands never
build a Fraction.  ``.re`` and ``.im`` return the parts as ``Fraction``.
A new value's three slots are filled through their slot descriptors, which
skip the class's ``__setattr__`` guard without the generic
``object.__setattr__`` lookup.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """Wrap parts that are already canonical."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def from_parts(a: int, b: int, d: int = 1) -> "GaussianRational":
    """The value (a + b*i)/d for ints a, b and d != 0, brought to canonical form."""
    if d < 0:
        a, b, d = -a, -b, -d
    elif not d:
        raise ZeroDivisionError("division by zero in Q(i)")
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _coerce(other):
    """An int or Fraction operand as a Gaussian rational (no Fraction built), else None."""
    if isinstance(other, int):
        return _make(int(other), 0, 1)
    if isinstance(other, Fraction):
        return _make(other.numerator, 0, other.denominator)
    return None


def _add(a1, b1, d1, a2, b2, d2) -> "GaussianRational":
    """Canonical sum of two canonical values (Knuth's reduced-fraction sum)."""
    if d1 == d2:
        a, b = a1 + a2, b1 + b2
        if d1 == 1:
            return _make(a, b, 1)
        g = gcd(a, b, d1)
        if g == 1:
            return _make(a, b, d1)
        return _make(a // g, b // g, d1 // g)
    g = gcd(d1, d2)
    if g == 1:
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    g2 = gcd(a, b, g)
    if g2 == 1:
        return _make(a, b, s * d2)
    return _make(a // g2, b // g2, s * (d2 // g2))


def _mul(a1, b1, d1, a2, b2, d2) -> "GaussianRational":
    a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
    if d == 1:
        return _make(a, b, 1)
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _div(a1, b1, d1, a2, b2, d2) -> "GaussianRational":
    n = a2 * a2 + b2 * b2
    if not n:
        raise ZeroDivisionError("division by zero in Q(i)")
    return from_parts((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)


class GaussianRational:
    """The immutable value (a + b*i)/d; see the module docstring."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        return gq(re, im)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return gq, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    @property
    def is_real(self) -> bool:
        return not self.b

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self.a, self.b, self.d, other.a, other.b, other.d)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self.a, self.b, self.d, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(other.a, other.b, other.d, -self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is int:
            # gcd(a*n, b*n, d) == gcd(n, d) because gcd(a, b, d) == 1
            d = self.d
            if d != 1:
                g = gcd(other, d)
                if g != 1:
                    other, d = other // g, d // g
            return _make(self.a * other, self.b * other, d)
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _mul(self.a, self.b, self.d, other.a, other.b, other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _div(self.a, self.b, self.d, other.a, other.b, other.d)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _div(other.a, other.b, other.d, self.a, self.b, self.d)

    def __str__(self) -> str:
        if not self:
            return "0"
        re, im = self.re, self.im
        if not im:
            return str(re)
        imag = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
        if not re:
            return imag
        sign = "+" if im > 0 else ""
        return f"({re}{sign}{imag})"


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def gq(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or fraction strings."""
    if type(re) is int and type(im) is int:
        return _make(re, im, 1)
    re, im = _fraction(re), _fraction(im)
    # the lcm of two reduced denominators leaves gcd(a, b, d) == 1
    d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    return _make(re.numerator * (d // re.denominator),
                 im.numerator * (d // im.denominator), d)


ZERO = gq(0)
ONE = gq(1)
I = gq(0, 1)
