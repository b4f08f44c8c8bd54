"""Multivariate polynomials over Q, usable as series coefficients.

Just enough ring structure to run the formal pipelines with free
parameters (e.g. potential coefficients v2, v3) and read off exact
polynomial identities.  Division is by nonzero ints and Fractions only,
which is all the series kernel asks of a coefficient ring.
Only outside input runs ``QPoly.__init__``; results are built in normal
form by the trusted :func:`_poly`, a product over one integer denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .coefficients import clear


def _poly(terms: dict) -> "QPoly":     # trusted: sorted monomials to nonzero Fractions
    out = object.__new__(QPoly)
    object.__setattr__(out, "terms", terms)
    return out


class QPoly:
    """Polynomial in named generators with Fraction coefficients.

    Terms are a map ``(("v2", 2), ("v3", 1)) -> Fraction``; the key is a
    sorted tuple of (name, power) pairs, () for the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | int | Fraction = ()):
        if isinstance(terms, (int, Fraction)):
            terms = {(): Fraction(terms)} if terms != 0 else {}
        data = {}
        for mono, c in dict(terms).items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = tuple(sorted((n, p) for n, p in mono if p != 0))
            data[mono] = data.get(mono, Fraction(0)) + c
            if data[mono] == 0:
                del data[mono]
        object.__setattr__(self, "terms", data)

    def __setattr__(self, *a):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def gen(cls, name: str) -> "QPoly":
        return cls({((name, 1),): Fraction(1)})

    @staticmethod
    def _coerce(other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        data = dict(self.terms)
        for m, c in o.terms.items():
            data[m] = data[m] + c if m in data else c
        return _poly({m: c for m, c in data.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):    # a nonzero scalar keeps every monomial
            return _poly({m: c * other for m, c in self.terms.items() if other})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (dx, xs), (dy, ys) = clear(self.terms.values()), clear(o.terms.values())
        acc: dict = {}
        for m1, (a, _) in zip(self.terms, xs):
            d1 = dict(m1)
            for m2, (b, _) in zip(o.terms, ys):
                m = tuple(sorted({**d1, **{n: d1.get(n, 0) + p for n, p in m2}}.items()))
                acc[m] = acc[m] + a * b if m in acc else a * b
        return _poly({m: Fraction(a, dx * dy) for m, a in acc.items() if a})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _poly({m: c / Fraction(other) for m, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):    # a float exactly, as Fraction == float
            if other == 0:
                return not self.terms
            return self.terms.keys() == {()} and self.terms[()] == other
        if isinstance(other, QPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):     # a constant equals its scalar, so it hashes like it
        if not self.terms.keys() - {()}:
            return hash(self.terms.get((), 0))
        return hash(tuple(sorted(self.terms.items())))

    def subs(self, values: Mapping[str, Fraction]):
        """Evaluate at rational values for some/all generators."""
        out = QPoly(0)
        for m, c in self.terms.items():
            term = QPoly({(): c})
            for n, p in m:
                if n in values:
                    term = term * (Fraction(values[n]) ** p)
                else:
                    term = term * QPoly({((n, p),): Fraction(1)})
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"{n}^{p}" if p > 1 else n for n, p in m)
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)
