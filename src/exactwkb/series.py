"""Truncated Puiseux/Taylor series with exact or floating coefficients.

A :class:`PuiseuxSeries` is a finite map ``exponent -> coefficient``
together with a truncation order: exponents >= ``trunc`` are unknown.
``trunc`` may be ``+inf`` for exact (polynomial) data, which is how the
closed-form objects of the model are carried around without artificial
truncation.

Exponents lie on the lattice (1/6)Z, and a series stores its terms in
increasing exponent (:func:`_fill`), keyed by the integer k = 6e, so no
operation hashes or compares a Fraction exponent.  The public
constructor checks its input against a smaller lattice (half-integers by
default); every operation builds its result through the trusted
:func:`_make`, and only ``shift`` and ``pow_rational`` can leave (1/6)Z,
which they refuse with :class:`LatticeError`.  Other modules read a
series only through its public readers (``coeff``, ``terms``, ...) and
build one only through the constructor or :func:`_combine`, so the term
store is this module's alone.  JSON input is checked against (1/6)Z, so
``to_json`` output always reads back.

Each step of a recursion is one pass of :func:`_combine`: a sum of
series mapped by :func:`_diag` (c z^(k/6) to c num(k)/den(k) z^((k+d)/6),
as derivatives and rational multiples are) and of products, a product
being one such term.  Exact terms are cleared to one denominator (once
per series, which keeps the form: :func:`_cleared`), integers are summed
per exponent and one coefficient is normalised per exponent, a Fraction
when its imaginary part is 0; other rings run the operators.

A coefficient may itself be a ``PuiseuxSeries``: an eps-series is one in
eps on the integer lattice with z-series coefficients, so one product and
one recurrence (Miller's, for every power and exp) serve both variables.
A z-series factor acts on it through ``map_coefficients`` (``*`` would
read it in eps); :class:`EpsSeries` is just its dense tuple of orders.
An absent order is the exact zero, which times anything is the exact
zero, so products and expansions visit stored orders only; a zero known
only below z^T is a stored order and keeps its truncation.

Truncation is tracked pessimistically: every operation propagates the
tightest provably valid order, never extrapolating.  All values are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

from .coefficients import (GaussianRational, _gauss, clear, coeff_is_zero,
                           is_exact, lift, to_complex)
from .errors import LatticeError, LogObstruction, SeriesError, SeriesFormatError

INF = math.inf

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EXACT = (Fraction, GaussianRational)


def _as_exp(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, (int, str)):
        return Fraction(e)
    raise SeriesError(f"exponent {e!r} is not rational")


def _check_sixths(e: Fraction) -> Fraction:
    if 6 % e.denominator:
        raise LatticeError(
            f"exponent {e} leaves the admissible lattice (1/6)Z")
    return e


@functools.cache
def _exp6(k: int) -> Fraction:
    """The exponent k/6, built (with its gcd) once per k, not per product."""
    return Fraction(k, 6)


def _k6(e: Fraction) -> int:
    """The key 6e of an exponent e on (1/6)Z."""
    return e.numerator * (6 // e.denominator)


def _top6(trunc) -> int:
    """ceil(6 trunc): a key k lies below a finite ``trunc`` iff k < this."""
    return -(-6 * trunc.numerator // trunc.denominator)


def _fill(obj, data: Mapping, trunc, known=()):
    """Store ``data`` (keyed by 6e) in increasing key, minus terms at or past
    ``trunc`` and zeros; a coefficient of a type in ``known`` is nonzero."""
    top = INF if trunc is INF else _top6(trunc)
    object.__setattr__(obj, "_by6", {k: c for k, c in sorted(data.items()) if k < top and (
        type(c) in known or not coeff_is_zero(c))})
    object.__setattr__(obj, "trunc", trunc)
    return obj


def _make(data: Mapping, trunc, known=()) -> "PuiseuxSeries":
    """Trusted constructor for results: ``data`` maps integer keys k = 6e
    to lifted coefficients, ``trunc`` is a Fraction or INF; ``known`` is
    _EXACT for stored terms shifted, cut, negated or weighted by _diag."""
    return _fill(object.__new__(PuiseuxSeries), data, trunc, known)


def _diag(s: "PuiseuxSeries", d: int, num: Callable, den: Callable) -> "PuiseuxSeries":
    """sum c num(k)/den(k) z^((k+d)/6) over the terms c z^(k/6) of s with
    num(k) != 0 (den(k) > 0), known below s.trunc + d/6: one gcd for an
    exact c, c * Fraction(num(k), den(k)) for any other."""
    out = {}
    for k, c in s._by6.items():
        if n := num(k):
            t = type(c)
            out[k + d] = (Fraction(c.numerator * n, c.denominator * den(k)) if t is Fraction
                          else _gauss(c._a * n, c._b * n, c._d * den(k))
                          if t is GaussianRational else c * Fraction(n, den(k)))
    return _make(out, s.trunc if s.trunc is INF else s.trunc + _exp6(d), _EXACT)


def _cleared(s: "PuiseuxSeries"):
    """:func:`coefficients.clear` of s's terms (None if one is inexact),
    computed on first use and kept on s: a series is immutable, so the
    form never goes stale."""
    if not hasattr(s, "_clear"):
        object.__setattr__(s, "_clear", clear(s._by6.values()))
    return s._clear


def _combine(terms, final=None, log=None) -> "PuiseuxSeries":
    """The sum of ``terms`` in their order, as the chain of + and - over
    them gives it: a series as it is, a quadruple (s, d, num, den) as
    _diag(s, d, num, den), a pair (x, y, w) as x y |w| for an int w,
    subtracted if w < 0 (``acc - x * y * 2``); a term at key ``log`` raises
    LogObstruction; ``final`` = (d, num, den) maps the sum as _diag does.
    Exact terms are cleared to one denominator and their integers added
    per key; then each key whose sum is nonzero gets one coefficient, a
    Fraction or a GaussianRational as its imaginary part is 0 or not,
    with the final den(k) in its one gcd (:func:`coefficients._gauss`)."""
    parts, trunc = [], INF
    for t in terms:
        t = (t, 0, None, None) if isinstance(t, PuiseuxSeries) else t
        if len(t) == 3 and (tt := _mul_trunc(t[0], t[1])) is None:
            continue
        if None in (cs := [_cleared(s) for s in ((t[0],) if len(t) == 4 else t[:2])]):
            break       # not exact: the chain of operators
        if len(t) == 4:     # keys in s's order, over ds times the lcm Q of den(k)
            s, d, num, den = t
            rows = [(k + d, a * n, b * n, den(k) if num else 1)
                    for k, (a, b) in zip(s._by6, cs[0][1]) if (n := num(k) if num else 1)]
            Q = math.lcm(*(r[3] for r in rows))
            parts.append((cs[0][0] * Q, {k: a * (Q // q) for k, a, _, q in rows},
                          {k: b * (Q // q) for k, _, b, q in rows if b}))
            tt = s.trunc if s.trunc is INF else s.trunc + _exp6(d)
        else:
            parts.append((cs[0][0] * cs[1][0], *_cleared_product(
                t, *cs, INF if tt is INF else _top6(tt))))
        trunc = min(trunc, tt)
    else:
        D = math.lcm(*[p[0] for p in parts])
        re, im = {}, {}     # every key of im is one of re
        for Dt, pre, pim in parts:
            f = D // Dt
            for k, a in pre.items():
                re[k] = re[k] + a * f if k in re else a * f
            for k, b in pim.items():
                im[k] = im[k] + b * f if k in im else b * f
        top = INF if trunc is INF else _top6(trunc)
        if log is not None and log < top and (re.get(log) or im.get(log)):
            raise LogObstruction("antiderivative of a z^-1 term would introduce log z")
        d, num, den = final or (0, None, None)
        return _make({k + d: _gauss(a * n, b * n, D * (den(k) if num else 1))
                      for k, a in re.items() if k < top and ((b := im.get(k, 0)) or a)
                      and (n := num(k) if num else 1)},
                     trunc if trunc is INF else trunc + _exp6(d), _EXACT)
    acc = None
    for t in terms:
        if isinstance(t, PuiseuxSeries):
            v = t
        elif len(t) == 4:
            v = _diag(*t)
        else:       # x y |w|, negated for w < 0: acc + (-v) is acc - v
            v = _convolve(t[0], t[1])
            v = v if abs(t[2]) == 1 else v * abs(t[2])
            v = v if t[2] > 0 else -v
        acc = v if acc is None else acc + v
    if log is not None:
        _log_free(acc._by6, log)
    return acc if final is None else _diag(acc, *final)


def _mul_trunc(x: "PuiseuxSeries", y: "PuiseuxSeries"):
    """The truncation of x y, None if a factor is the exact zero (it absorbs)."""
    if not x._by6 and x.trunc is INF or not y._by6 and y.trunc is INF:
        return None
    # error(a*b) <= a_known * err_b + err_a * b_known
    return min(INF if y.trunc is INF else x.min_exp + y.trunc,
               INF if x.trunc is INF else y.min_exp + x.trunc)


def _convolve(x: "PuiseuxSeries", y: "PuiseuxSeries") -> "PuiseuxSeries":
    """x y in any coefficient ring, each key summed in the double loop's
    order; series coefficients (an eps-series) as one :func:`_combine`."""
    if (trunc := _mul_trunc(x, y)) is None:
        return _make({}, INF)
    kmax = INF if trunc is INF else _top6(trunc)
    series = all(isinstance(c, PuiseuxSeries) for s in (x, y) for c in s._by6.values())
    data, bs = {}, y._by6.items()
    for ka, ca in x._by6.items():
        for kb, cb in bs:
            if (k := ka + kb) < kmax:
                if series:
                    data.setdefault(k, []).append((ca, cb, 1))
                else:
                    p = ca * cb
                    data[k] = data[k] + p if k in data else p
    return _make({k: _combine(ps) for k, ps in data.items()} if series else data, trunc)


def _cleared_product(pair, cx, cy, kmax) -> tuple:
    """The pair (x, y, w) of :func:`_combine` over dx dy, as (real,
    imaginary) integer parts keyed by 6e, the imaginary ones empty when
    neither factor has a GaussianRational."""
    (x, y, w), (_, rx, gx), (_, ry, gy), re, im = pair, cx, cy, {}, {}
    if not (gx or gy):
        bs = [(kb, b * w) for kb, (b, _) in zip(y._by6, ry)]
        for ka, (a, _) in zip(x._by6, rx):
            for kb, b in bs:
                if (k := ka + kb) < kmax:
                    re[k] = re[k] + a * b if k in re else a * b
        return re, im
    bs = [(kb, c * w, e * w) for kb, (c, e) in zip(y._by6, ry)]
    for ka, (a, b) in zip(x._by6, rx):
        for kb, c, e in bs:
            if (k := ka + kb) < kmax:
                re[k] = re.get(k, 0) + a * c - b * e
                im[k] = im.get(k, 0) + a * e + b * c
    return re, im


def _log_free(data: Mapping, k: int) -> None:
    """LogObstruction if the integrand term keyed k (z^-1) is nonzero: any
    exact one, an inexact one past 1e-9 of the largest |c| (not rounding)."""
    res = data.get(k, _ZERO)
    if not coeff_is_zero(res) and (is_exact(res) or abs(to_complex(res)) > 1e-9 * max(
            abs(to_complex(c)) for c in data.values())):
        raise LogObstruction("antiderivative of a z^-1 term would introduce log z")


class PuiseuxSeries:
    """Truncated series sum_e c_e z^e with rational exponents.

    Parameters
    ----------
    coeffs : mapping exponent -> coefficient
        Exponents may be ints, Fractions or "p/q" strings; repeated
        exponents are summed and exact zeros dropped.
    trunc : Fraction or +inf
        Exponents >= trunc are unknown (default: +inf, exact data).
    lattice : int
        Input check only: every exponent denominator must divide this
        (1, 2, 3 or 6; 2 by default).  It is not stored; results of
        operations live on the 1/6 lattice.
    """

    __slots__ = ("_by6", "trunc", "_clear")     # _clear: see _cleared

    def __init__(self, coeffs: Mapping | Iterable = (), trunc=INF, lattice: int = 2):
        if lattice not in (1, 2, 3, 6):
            raise LatticeError(f"unsupported exponent lattice denominator {lattice}")
        if trunc is not INF:
            trunc = _as_exp(trunc)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data = {}
        for e, c in items:
            e = _as_exp(e)
            if lattice % e.denominator:
                raise LatticeError(
                    f"exponent {e} not on the 1/{lattice} lattice")
            k = _k6(e)
            c = lift(c)
            data[k] = data[k] + c if k in data else c
        _fill(self, data, trunc)

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    def __reduce__(self):       # copy and pickle: the terms, not the _clear cache
        return object.__new__, (type(self),), (self._by6, self.trunc)

    def __setstate__(self, state):      # an unpickled inf is a new float, not INF
        _fill(self, state[0], INF if state[1] == INF else state[1])

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """A new dict exponent (Fraction) -> coefficient, in increasing
        exponent; changing it leaves the series as it is."""
        return {_exp6(k): c for k, c in self._by6.items()}

    @property
    def min_exp(self) -> Fraction:
        """Smallest stored exponent: trunc for a zero known below trunc,
        0 for the exact zero."""
        if not self._by6:
            return self.trunc if self.trunc is not INF else Fraction(0)
        return _exp6(next(iter(self._by6)))

    def is_zero(self) -> bool:
        return not self._by6

    def coeff(self, e) -> Any:
        e = _as_exp(e)
        if self.trunc is not INF and e >= self.trunc:
            raise SeriesError(f"coefficient of z^{e} is beyond truncation {self.trunc}")
        if 6 % e.denominator:
            return Fraction(0)
        return self._by6.get(_k6(e), Fraction(0))

    def leading(self):
        """(exponent, coefficient) of the lowest-order term."""
        if not self._by6:
            raise SeriesError("zero series has no leading term")
        k = next(iter(self._by6))
        return _exp6(k), self._by6[k]

    def terms(self):
        """Terms sorted by exponent."""
        return [(_exp6(k), c) for k, c in self._by6.items()]

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self._by6.values())

    def is_taylor(self) -> bool:
        return all(k >= 0 and not k % 6 for k in self._by6)

    def __bool__(self):
        return bool(self._by6)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._by6 == other._by6 and self.trunc == other.trunc

    def __hash__(self):
        # an exact constant equals its scalar, so it hashes like it
        if self.trunc is INF and not self._by6.keys() - {0}:
            return hash(self._by6.get(0, _ZERO))
        return hash((tuple(self.terms()), self.trunc))

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(trunc=INF, lattice=2) -> "PuiseuxSeries":
        return PuiseuxSeries({}, trunc, lattice)

    @staticmethod
    def one(trunc=INF, lattice=2) -> "PuiseuxSeries":
        return PuiseuxSeries({0: 1}, trunc, lattice)

    @classmethod
    def monomial(cls, coeff, e):
        """The exact term coeff z^e."""
        return cls({e: coeff})

    def with_trunc(self, trunc):
        """Same data, tighter truncation."""
        if trunc is not INF:
            trunc = _as_exp(trunc)
        if self.trunc is not INF and (trunc is INF or trunc > self.trunc):
            raise SeriesError("cannot loosen a truncation")
        return _make(self._by6, trunc, _EXACT)

    def map_coefficients(self, fn: Callable[[Any], Any]) -> "PuiseuxSeries":
        return _make({k: lift(fn(c)) for k, c in self._by6.items()}, self.trunc)

    def to_float(self) -> "PuiseuxSeries":
        return self.map_coefficients(to_complex)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        data = dict(self._by6)
        for k, c in other._by6.items():
            data[k] = data[k] + c if k in data else c
        return _make(data, trunc)

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -c for k, c in self._by6.items()}, self.trunc, _EXACT)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PuiseuxSeries):
            return _combine([(self, other, 1)])
        c = lift(other)
        if coeff_is_zero(c):
            return _make({}, INF)    # an exact scalar 0 absorbs too
        if type(c) is Fraction:
            return _diag(self, 0, lambda k: c.numerator, lambda k: c.denominator)
        return _make({k: v * c for k, v in self._by6.items()}, self.trunc)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, PuiseuxSeries):
            return other
        try:
            c = lift(other)
        except TypeError:
            return NotImplemented
        return _make({0: c}, INF)

    def shift(self, e) -> "PuiseuxSeries":
        """Multiply by the monomial z^e."""
        e = _check_sixths(_as_exp(e))
        trunc = self.trunc if self.trunc is INF else self.trunc + e
        d = _k6(e)
        return _make({k + d: c for k, c in self._by6.items()}, trunc, _EXACT)

    def inverse(self, order=None) -> "PuiseuxSeries":
        """Multiplicative inverse 1/self, i.e. ``pow_rational(-1, order)``.

        For a non-monomial denominator with infinite truncation the
        result is an infinite series, so an ``order`` must be supplied: an
        exponent span past the leading exponent, not a count of terms.
        ``PuiseuxSeries({0: 1, Fraction(1, 2): 1}).inverse(order=2)`` keeps
        4 terms, known below z^2, and ``inverse(order=0)`` is ``0 + O(z^0)``.
        """
        if self.is_zero():
            raise SeriesError("division by a series that is zero within its truncation")
        return self.pow_rational(-1, order)

    def div(self, other: "PuiseuxSeries", order=None) -> "PuiseuxSeries":
        return self * other.inverse(order)

    def __truediv__(self, other):
        c = lift(other)
        if coeff_is_zero(c):
            raise SeriesError("division of a series by zero")
        return _make({k: v / c for k, v in self._by6.items()}, self.trunc)

    def pow_rational(self, r, order=None) -> "PuiseuxSeries":
        """self**r for rational r, behind :meth:`inverse` and :meth:`sqrt`.

        With self = z^m (g_0 + g_1 t + ...), the coefficients of g^r follow
        J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7)

            n g_0 f_n = sum_{j=1..n} ((r+1) j - n) g_j f_{n-j},  f_0 = g_0^r,

        which inverts only g_0, so it runs over any coefficient ring, series
        included.  In exact mode g_0 needs an exact r-th power (any unit
        will do for r = -1); m r must land on the 1/6 lattice.  Known below
        z^(m r + T - m) for self known below z^T, else below z^(m r + order).
        """
        r = _as_exp(r)
        if self.is_zero():
            if r > 0:
                # 0 + O(z^T) raised to r > 0 is O(z^(rT))
                return _make({}, self.trunc if self.trunc is INF else self.trunc * r)
            raise SeriesError("0 cannot be raised to a non-positive rational power")
        if r.denominator == 1 and r >= 0:     # a product, exact for any series
            return _powers(self, int(r), INF)[-1]
        m, c0 = self.leading()
        new_exp = _check_sixths(m * r)
        c0r = _coeff_root(c0, r)
        rel = None if self.trunc is INF else self.trunc - m
        if len(self._by6) == 1:
            t = INF if rel is None else new_exp + rel
            return _make({_k6(new_exp): c0r}, t)
        if rel is None:
            if order is None:
                raise SeriesError(
                    "rational power of an untruncated non-monomial series needs an order")
            rel = _as_exp(order)
        g0inv = c0r if r == -1 else _coeff_root(c0, Fraction(-1))
        # with r = p/q the weights q((r+1) j - n) = (p+q) j - q n are ints
        p, q = r.numerator, r.denominator
        return _expand(self.shift(-m), rel, new_exp, c0r,
                       lambda j, n: (p + q) * j - q * n, g0inv, q)

    def exp(self) -> "PuiseuxSeries":
        """exp(self) for a series of positive order, by the twin of
        Miller's recurrence, n f_n = sum_{j=1..n} j u_j f_{n-j}.  Known
        below self's truncation, which must be finite unless self is 0
        (whose exp is the scalar 1: no term tells its coefficient ring)."""
        if self.is_zero():
            return _make({0: _ONE}, self.trunc)
        if self.min_exp <= 0:
            raise SeriesError("exp needs a series of positive order")
        if self.trunc is INF:
            raise SeriesError("exp of an untruncated series needs a truncation")
        one = PuiseuxSeries.one() if isinstance(self.leading()[1], PuiseuxSeries) else _ONE
        return _expand(self, self.trunc, _ZERO, one, lambda j, n: j)

    def sqrt(self, order=None) -> "PuiseuxSeries":
        return self.pow_rational(Fraction(1, 2), order)

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "PuiseuxSeries":
        return _diag(self, -6, lambda k: k, lambda k: 6)

    def antiderivative(self) -> "PuiseuxSeries":
        """Termwise antiderivative with zero integration constant.

        Raises LogObstruction when a z^-1 term is present: the model's
        normalization forbids logarithms.  In exact mode any nonzero
        z^-1 coefficient raises; for float coefficients the test is
        relative to the series scale (identities that cancel the z^-1
        term exactly leave only rounding residue there, which is
        dropped).
        """
        _log_free(self._by6, -6)
        return _diag(self, 6, lambda k: 6 * ((k > -6) - (k < -6)), lambda k: abs(k + 6))

    # -- composition -----------------------------------------------------

    def compose(self, inner: "PuiseuxSeries", order=None) -> "PuiseuxSeries":
        """self(inner(z)) for Taylor self and inner with ord(inner) >= 1."""
        return self._compose_plain(inner, self._compose_trunc(inner, order))

    def _compose_trunc(self, inner, order=None):
        """The truncation of self(inner(z)), after compose's checks."""
        if not self.is_taylor():
            raise SeriesError("composition requires a Taylor outer series")
        if not inner.is_zero() and inner.min_exp < 1:
            raise SeriesError("composition requires ord(inner) >= 1")
        trunc = INF
        if self.trunc is not INF:
            v = inner.min_exp if not inner.is_zero() else Fraction(1)
            trunc = self.trunc * v
        if inner.trunc is not INF:
            trunc = min(trunc, inner.trunc)
        if trunc is INF and order is not None:
            trunc = _as_exp(order)
        return trunc

    def _compose_plain(self, inner, trunc, powers=None):
        """sum_k c_k inner^k at ``trunc``; ``powers`` lists inner^0,
        inner^1, ... (formed here if not given) at a truncation no
        tighter than ``trunc``, see :func:`compose_each`."""
        if powers is None:
            powers = _powers(inner, next(reversed(self._by6), 0) // 6, trunc)
        # the zero known below trunc cuts the sum, so no power is cut first
        return _combine([_make({}, trunc)] + [(powers[k // 6], _make({0: c}, INF), 1)
                                               for k, c in self._by6.items()])

    def reversion(self, order) -> "PuiseuxSeries":
        """Compositional inverse g with self(g(z)) = z + O(z^order).

        Requires a Taylor series with f(0) = 0 and f'(0) != 0.  Since
        g_m depends on f_1..f_m only, the result is truncated at
        min(order, self.trunc).

        Each order forms only its new coefficient: a table of [z^m] g^j
        grows by one coefficient per power, and [z^m] f(g) = 0 gives
        g_m = -(sum_{j>=2} f_j [z^m] g^j) / f_1, the term of f(g) that
        composing the partial g would read off (Brent and Kung, JACM 25,
        1978).  Exact rings give the same coefficients as that composition.
        """
        if not self.is_taylor():
            raise SeriesError("compositional inversion requires a Taylor series")
        if not coeff_is_zero(self._by6.get(0, _ZERO)):
            raise SeriesError("compositional inversion requires f(0) = 0")
        a1 = self._by6.get(6, _ZERO)
        if coeff_is_zero(a1):
            raise SeriesError("not invertible as a formal map: f'(0) = 0")
        trunc = min(Fraction(int(_as_exp(order))), self.trunc)
        inv_a1 = _ONE / a1 if isinstance(a1, Fraction) else 1 / a1
        top = math.ceil(trunc)
        fs = [(k // 6, c) for k, c in self._by6.items() if 6 < k < 6 * top]
        # powers[j - 1][m] = [z^m] g^j, nonzero terms only; powers[0] is g
        g = {1: inv_a1}
        powers = [g] + [{} for _ in range(fs[-1][0] - 1 if fs else 0)]
        for m in range(2, top):
            for j in range(1, min(m, len(powers))):
                acc = _sum(c * g[m - a] for a, c in powers[j - 1].items()
                           if m - a in g)
                if acc is not None and not coeff_is_zero(acc):
                    powers[j][m] = acc
            acc = _sum(powers[j - 1][m] * c for j, c in fs if m in powers[j - 1])
            corr = _ZERO if acc is None else -acc * inv_a1
            if not coeff_is_zero(corr):
                g[m] = corr
        return _make({6 * m: c for m, c in g.items()}, trunc)

    # -- evaluation ------------------------------------------------------

    def eval(self, z: complex, zpow: Callable[[complex, Fraction], complex] | None = None) -> complex:
        """Numeric value at z.  ``zpow(z, e)`` fixes the branch of z^e
        (principal branch by default)."""
        if zpow is None:
            zpow = _principal_pow
        total = 0j
        for k, c in self._by6.items():
            total += to_complex(c) * zpow(z, _exp6(k))
        return total

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = []
        for e, c in self.terms():
            if is_exact(c):
                parts = [str(c), "0"] if isinstance(c, (int, Fraction)) else [str(c.re), str(c.im)]
            else:
                try:
                    cc = to_complex(c)
                except TypeError:
                    raise SeriesFormatError(f"coefficient {c!r} has no JSON form") from None
                parts = [cc.real, cc.imag]
            coeffs.append([str(e), parts])
        return {
            "min_exp": str(self.min_exp),
            "trunc": "inf" if self.trunc is INF else str(self.trunc),
            "coeffs": coeffs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PuiseuxSeries":
        if not isinstance(d, dict) or "coeffs" not in d:
            raise SeriesFormatError('a series object needs a "coeffs" list')
        trunc = INF if d.get("trunc", "inf") == "inf" else Fraction(d["trunc"])
        coeffs = {}
        for e, val in d["coeffs"]:
            re_v, im_v = val
            if isinstance(re_v, str):
                c = GaussianRational(re_v, im_v)     # a Fraction if im_v is 0
            else:
                c = complex(re_v, im_v)
                if c.imag == 0:
                    c = complex(re_v, 0.0)
            coeffs[Fraction(e)] = c
        return cls(coeffs, trunc, lattice=6)

    @classmethod
    def from_json(cls, s: str) -> "PuiseuxSeries":
        return cls.from_json_dict(json.loads(s))

    def __repr__(self):
        if not self._by6:
            body = "0"
        else:
            parts = []
            for e, c in self.terms()[:8]:
                parts.append(f"({c})z^{e}" if e != 0 else f"({c})")
            body = " + ".join(parts)
            if len(self._by6) > 8:
                body += " + ..."
        t = "" if self.trunc is INF else f" + O(z^{self.trunc})"
        return f"<PuiseuxSeries {body}{t}>"


def _principal_pow(z: complex, e: Fraction) -> complex:
    if e == 0:
        return 1.0 + 0j
    if e.denominator == 1 and -8 <= e <= 8:
        return complex(z) ** int(e)
    return complex(z) ** float(e)


def _sum(terms: Iterable):
    """The terms added left to right, the first one as it is (None if
    there is none): the order in which a product sums a coefficient."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def _powers(inner: PuiseuxSeries, n: int, trunc) -> list:
    """inner^0, ..., inner^n, each truncated at ``trunc`` as it is formed."""
    power = _make({0: _ONE}, trunc)
    out = [power]
    for _ in range(n):
        power = power * inner
        if trunc is not INF:
            power = power.with_trunc(trunc)
        out.append(power)
    return out


def compose_each(outers, inner: PuiseuxSeries) -> list:
    """[f.compose(inner) for f in outers], with the powers of inner formed
    once, at the largest truncation any f needs, and read by each f at
    its own.  Values and truncations are those of compose: below a
    truncation T a product's coefficients depend only on its factors'
    terms below T."""
    truncs = [f._compose_trunc(inner) for f in outers]
    top = max((next(reversed(f._by6), 0) // 6 for f in outers), default=0)
    powers = _powers(inner, top, max(truncs, default=_ZERO))
    return [f._compose_plain(inner, t, powers) for f, t in zip(outers, truncs)]


def _expand(g, rel, lead, f0, weight, unit=None, q=1) -> PuiseuxSeries:
    """z^lead (f_0 + f_1 t + ...) known below z^(lead + rel), t = z^(d/6),
    where f_n = unit (sum_j weight(j, n) g_j f_(n-j)) / (q n) over g's terms
    g_j t^j, 1 <= j <= n (g's constant term enters only through ``unit``,
    1 if None; weight 0 drops a term): the one loop of
    :meth:`PuiseuxSeries.pow_rational` and ``exp``.  d is the gcd of g's
    nonconstant offsets 6e (g is no monomial), and an f_n that no term
    reaches is absent, the exact zero.  Each order's sum is
    :func:`_miller_sum`."""
    d = math.gcd(*(k for k in g._by6 if k > 0))
    gs = [(k // d, c) for k, c in g._by6.items() if k > 0]
    f = {0: f0}
    for n in range(1, math.ceil(6 * rel / d)):
        if ts := [(gj, f[n - j], w) for j, gj in gs
                  if j <= n and n - j in f and (w := weight(j, n))]:
            acc = _miller_sum(ts)
            f[n] = (acc if unit is None else unit * acc) / (q * n)
    return _make({_k6(lead) + k * d: c for k, c in f.items()}, lead + rel)


def _miller_sum(pairs):
    """The sum of g f w over ``pairs`` (g, f, w), as the chain of + over
    g * f * w gives it: one :func:`_combine` if each g and f is an exact
    series.  Inexact ones keep the chain, whose product by w = 1 can turn
    a -0.0 part into 0.0 where _combine's chain skips that product."""
    if all(isinstance(x, PuiseuxSeries) and _cleared(x) for g, f, _ in pairs for x in (g, f)):
        return _combine(pairs)
    return _sum(g * f * w for g, f, w in pairs)


def _coeff_root(c, r: Fraction):
    """c**r: ``c.pow_rational(r)`` for a series coefficient, 1/c in c's
    own ring for r = -1, exact for a rational c, float for an inexact one."""
    if isinstance(c, PuiseuxSeries):
        return c.pow_rational(r)
    if r == -1:
        return _ONE / c
    if isinstance(c, Fraction):
        if r.denominator == 1:
            return c ** r
        num = _iroot(c.numerator, r.denominator)
        den = _iroot(c.denominator, r.denominator)
        if num is not None and den is not None and c > 0:
            return Fraction(num, den) ** r.numerator
        raise SeriesError(
            f"leading coefficient {c} has no exact rational {r.denominator}-th root")
    if is_exact(c):
        raise SeriesError(f"exact power {r} of leading coefficient {c} "
                          "needs a rational coefficient")
    return to_complex(c) ** float(r)


def _iroot(n: int, k: int) -> int | None:
    """The integer x with x^k = n, or None: integer Newton, exact at any
    size, falls from 2^ceil(bits/k) >= n^(1/k) to floor(n^(1/k))."""
    if n <= 0:
        return None if n else 0
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x if x ** k == n else None


class TaylorSeries(PuiseuxSeries):
    """PuiseuxSeries restricted to integer exponents >= 0."""

    def __init__(self, coeffs=(), trunc=INF):
        super().__init__(coeffs, trunc, 1)
        for k in self._by6:
            if k < 0:
                raise SeriesError(f"TaylorSeries got exponent {_exp6(k)}")


def max_abs_coeff(series: Iterable[PuiseuxSeries]):
    """First coefficient of largest modulus over ``series``, in exponent
    order within a series (``Fraction(0)`` when there is none)."""
    worst = Fraction(0)
    for s in series:
        for c in s._by6.values():
            if abs(c) > abs(worst):
                worst = c
    return worst


def require_taylor(s: PuiseuxSeries, name: str) -> PuiseuxSeries:
    if not s.is_taylor():
        raise SeriesError(f"{name} must be holomorphic at 0 (a Taylor series)")
    return s


@dataclass(frozen=True)
class EpsSeries:
    """Dense eps-coefficients c_0(z), ..., c_{n-1}(z) of an eps-series
    known below eps^n, absent orders as the zero series: the form in which
    symbols, reduction series and residuals hand out their orders."""

    coeffs: tuple

    @classmethod
    def of(cls, E: PuiseuxSeries) -> "EpsSeries":
        """The orders of E, whose eps-truncation must be finite."""
        zero = PuiseuxSeries.zero()
        return cls(tuple(E._by6.get(6 * n, zero) for n in range(int(E.trunc))))

    def series(self) -> PuiseuxSeries:
        return PuiseuxSeries(enumerate(self.coeffs), len(self.coeffs), lattice=1)
