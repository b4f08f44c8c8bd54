"""Coefficient domains for the series layer.

Series coefficients are duck-typed: anything with ring arithmetic
(+, -, *, /) and equality against 0 works.  Exact computations use
``fractions.Fraction`` or :class:`GaussianRational`; float-mode
computations use Python ``complex``/``float``; small polynomial rings
(see :mod:`exactwkb.polyring`) slot in for computations with symbolic
parameters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any


class GaussianRational:
    """Exact complex rational a + b*i with Fraction components.

    Closed under +, -, *, / (exact, no rounding).  Interoperates with
    int and Fraction on either side.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def conjugate(self):
        return GaussianRational(self.re, -self.im)


def lift(value: Any) -> Any:
    """Normalize a scalar for use as a series coefficient.

    Ints become Fractions so that coefficient division stays exact;
    everything else passes through untouched.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a series coefficient")
    if isinstance(value, int):
        return Fraction(value)
    return value


def is_exact(value: Any) -> bool:
    """True for coefficient types with exact (rounding-free) arithmetic."""
    return isinstance(value, (int, Fraction, GaussianRational))


def coeff_is_zero(value: Any) -> bool:
    try:
        return value == 0
    except TypeError:
        return False


def to_complex(value: Any) -> complex:
    """Numeric image of a coefficient (exact kinds included)."""
    return complex(value)
