"""Multivariate polynomials over Q, usable as series coefficients.

Just enough ring structure to run the formal pipelines with free
parameters (e.g. potential coefficients v2, v3) and read off exact
polynomial identities.  Division is by nonzero ints and Fractions only,
which is all the series kernel asks of a coefficient ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


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
            data[m] = data.get(m, Fraction(0)) + c
        return QPoly(data)

    __radd__ = __add__

    def __neg__(self):
        return QPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):    # a nonzero scalar keeps every monomial
            out = object.__new__(QPoly)
            object.__setattr__(out, "terms",
                               {m: c * other for m, c in self.terms.items() if other})
            return out
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        data: dict = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in o.terms.items():
                d = dict(d1)
                for n, p in m2:
                    d[n] = d.get(n, 0) + p
                key = tuple(sorted(d.items()))
                data[key] = data.get(key, Fraction(0)) + c1 * c2
        return QPoly(data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return QPoly({m: c / Fraction(other) for m, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(): Fraction(other)}
        if isinstance(other, QPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
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
