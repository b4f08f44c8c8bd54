"""Coefficient domains for the series layer.

Series coefficients are duck-typed: anything with ring arithmetic
(+, -, *, /) and equality against 0 works.  Exact computations use
``fractions.Fraction`` or :class:`GaussianRational`, which keeps a
Gaussian rational as three ints over one common denominator rather than
as two Fractions; float-mode computations use Python ``complex``/``float``;
small polynomial rings (see :mod:`exactwkb.polyring`) slot in for
computations with symbolic parameters.

Each exact value has one form: a real one is always a ``Fraction``, and a
``GaussianRational`` always has a nonzero imaginary part.  A series of
exact coefficients does not keep them: it is built from :func:`clear`'s
rows (their numerators over one denominator), and ``_gauss(a, b, d)``
builds a coefficient back when one is read.

A :class:`~exactwkb.series.PuiseuxSeries` is itself a coefficient (the
eps-series of the formal layers have z-series coefficients) through the
two hooks the series layer needs beyond ring arithmetic: the zero test
:func:`coeff_is_zero` (a series equals a scalar only as that exact
constant, so an eps-series keeps ``0 + O(z^T)`` with its z-truncation and
drops an exact 0), and ``series._coeff_root(c, r)``, ``c.pow_rational(r)``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Any


def _gauss(a: int, b: int, d: int):
    """(a + b*i)/d in canonical form, for d > 0 (every operation's d is a
    product of positive denominators and sums of squares): Fraction(a, d)
    if b = 0, else a GaussianRational with the one gcd."""
    if not b:
        return Fraction(a, d)
    g = gcd(a, b, d)
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = a // g, b // g, d // g
    return out


def _add(a, b, d, c, e, f):
    return _gauss(a * f + c * d, b * f + e * d, d * f)


def _sub(a, b, d, c, e, f):
    return _gauss(a * f - c * d, b * f - e * d, d * f)


def _mul(a, b, d, c, e, f):
    return _gauss(a * c - b * e, a * e + b * c, d * f)


def _div(a, b, d, c, e, f):
    if not (c or e):
        raise ZeroDivisionError("division by zero GaussianRational")
    return _gauss((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))


def _op(fn):
    """Forward and reflected methods applying fn to the (a, b, d) of both
    operands.  Only an int or Fraction left operand reaches the reflected
    one: a GaussianRational on the left takes the forward method."""
    def forward(self, other):
        if isinstance(other, GaussianRational):
            return fn(self._a, self._b, self._d, other._a, other._b, other._d)
        if isinstance(other, (int, Fraction)):
            return fn(self._a, self._b, self._d, other.numerator, 0, other.denominator)
        return NotImplemented

    def reflected(self, other):
        if isinstance(other, (int, Fraction)):
            return fn(other.numerator, 0, other.denominator, self._a, self._b, self._d)
        return NotImplemented
    return forward, reflected


class GaussianRational:
    """Exact complex rational (a + b*i)/d stored as three ints, b != 0.

    The form is canonical: d > 0 and gcd(a, b, d) = 1, so each of
    +, -, *, / costs one normalising gcd (Knuth, TAOCP vol. 2, 4.5.1).
    A real value is a Fraction, never a GaussianRational: the constructor
    and every operation return a Fraction when the imaginary part is 0, so
    a GaussianRational is never zero and never equals an int or Fraction.
    ``re`` and ``im`` read the parts back as Fractions.  Interoperates
    with int and Fraction on either side.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        if not im:
            return re
        # over the lcm of the reduced denominators gcd(a, b, d) is already 1
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self = object.__new__(cls)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d
        return self

    def __reduce__(self):       # copy and pickle: __new__ takes the parts
        return GaussianRational, (self.re, self.im)

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))

    __add__, __radd__ = _op(_add)
    __sub__, __rsub__ = _op(_sub)
    __mul__, __rmul__ = _op(_mul)
    __truediv__, __rtruediv__ = _op(_div)

    def __neg__(self):
        return _gauss(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self._a, self._b, self._d) == (other._a, other._b, other._d)
        if isinstance(other, (float, complex)):     # exactly, as Fraction == float
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):     # hash(complex(re, im)) for an equal complex
        w = 1 << sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im) + w // 2) % w - w // 2
        return -2 if h == -1 else h

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def conjugate(self):
        return _gauss(self._a, -self._b, self._d)


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
    # an exact scalar's truth is its numerator's: no Fraction.__eq__
    if isinstance(value, (Fraction, GaussianRational)):
        return not value
    try:
        return value == 0
    except TypeError:
        return False


def clear(values) -> tuple | None:
    """``values`` over one common denominator, or None unless each is a
    Fraction or a GaussianRational: (d, rows), where row i is (a_i, b_i)
    with values[i] = (a_i + b_i i)/d; ``_gauss(a, b, d)`` reads a row back."""
    if not all(type(c) in (Fraction, GaussianRational) for c in values):
        return None
    ps = [(c.numerator, 0, c.denominator) if type(c) is Fraction else (c._a, c._b, c._d)
          for c in values]
    d = lcm(*(e for _, _, e in ps))
    return d, [(a * (d // e), b * (d // e)) for a, b, e in ps]
