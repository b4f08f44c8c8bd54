"""Truncated Puiseux/Taylor series with exact or floating coefficients.

A :class:`PuiseuxSeries` is a finite map ``exponent -> coefficient``
together with a truncation order: exponents >= ``trunc`` are unknown.
``trunc`` may be ``+inf`` for exact (polynomial) data, which is how the
closed-form objects of the model are carried around without artificial
truncation.

Exponents lie on the lattice (1/6)Z, and a series stores its terms in
increasing exponent, keyed by the integer k = 6e.  The public constructor
checks its input against a smaller lattice (half-integers by default);
every operation builds its result through the trusted :func:`_make` or
:func:`_exact`, and only ``shift`` and ``pow_rational`` can leave (1/6)Z,
which they refuse with :class:`LatticeError`.  Other modules read a
series only through its public readers (``coeff``, ``terms``, ...), build
one only through the constructor or :func:`_combine` and take its values
at a point only from an :class:`ExponentTable` (``eval`` is its one-row
case), so the term store is this module's alone.  JSON input is checked
against (1/6)Z, so ``to_json`` output always reads back.

A series of Fractions and GaussianRationals is stored cleared: one
denominator D > 0, an int numerator per key and the nonzero imaginary
ones, gcd 1 (:func:`_exact`), so an exact value has one form.  Its kernel
(:func:`_combine`, ``+``, scalar ``*``, Miller's recurrence) adds and
multiplies those ints with one gcd per result; the readers, reversion's
table among them, build a Fraction or GaussianRational per term.  Other
rings keep their coefficients and run the operators.  A recursion step is one
:func:`_combine`: a sum of products and of series mapped by :func:`_diag`,
c z^e to c num(e)/den(e) z^(e + shift) for a weight (shift, num, den) of
int polynomials in the exponent e (derivatives, antiderivatives, rational
multiples); den(e) = 0 marks the integral of a z^-1 term, a logarithm.
Only this module turns a weight into arithmetic on the keys.

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
                           is_exact, lift)
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


def _set(obj, den, by6, im, trunc):
    obj = object.__new__(PuiseuxSeries) if obj is None else obj
    for name, v in (("_den", den), ("_by6", by6), ("_im", im), ("trunc", trunc)):
        object.__setattr__(obj, name, v)
    return obj


def _exact(D: int, re: Mapping, im: Mapping, trunc, obj=None) -> "PuiseuxSeries":
    """The exact series sum (re[k] + im[k] i)/D z^(k/6) known below
    ``trunc`` (ints, D > 0, im's keys among re's) in its one form, stored
    in obj if given: its terms below ``trunc`` that are not 0, in
    increasing key, over the least D, which one gcd finds."""
    top = INF if trunc is INF else _top6(trunc)
    re = {k: re[k] for k in sorted(re) if k < top and (re[k] or im.get(k))}
    im = {k: b for k in re if (b := im.get(k))} if im else im
    if (g := math.gcd(D, *re.values(), *im.values())) > 1:
        D, re, im = D // g, {k: a // g for k, a in re.items()}, {k: b // g for k, b in im.items()}
    return _set(obj, D, re, im, trunc)


def _make(data: Mapping, trunc, obj=None) -> "PuiseuxSeries":
    """Trusted constructor for results (stored in obj if given): ``data``
    maps integer keys k = 6e to lifted coefficients, ``trunc`` is a
    Fraction or INF.  Cleared (:func:`_exact`) if each coefficient is a
    Fraction or a GaussianRational, else in increasing key, minus terms at
    or past ``trunc`` and zeros."""
    if (cleared := clear(data.values())) is not None:
        D, rows = cleared
        return _exact(D, dict(zip(data, (a for a, _ in rows))),
                      {k: b for k, (_, b) in zip(data, rows) if b}, trunc, obj)
    top = INF if trunc is INF else _top6(trunc)
    return _set(obj, None, {k: c for k, c in sorted(data.items())
                            if k < top and not coeff_is_zero(c)}, None, trunc)


def _terms(s: "PuiseuxSeries") -> dict:
    """s's terms {6e: coefficient}; an exact s builds them from its cleared
    form, each a Fraction or (nonzero imaginary part) a GaussianRational."""
    D, im = s._den, s._im
    return {k: _gauss(a, im.get(k, 0), D) for k, a in s._by6.items()} if D else s._by6


def _at(s: "PuiseuxSeries", k: int):
    """s's coefficient at key k, Fraction(0) if it has none."""
    c = s._by6.get(k)
    return _ZERO if c is None else _gauss(c, s._im.get(k, 0), s._den) if s._den else c


@functools.lru_cache(maxsize=512)
def _in_keys(num: tuple, den: tuple) -> tuple:
    """num(e)/den(e) (ascending int coefficients, degree <= 2) as the ints
    (a, b, c, p, q, r), gcd 1, with (a + k(b + kc))/(p + k(q + kr)) at k = 6e."""
    t = [x * 6 ** (2 - i) for p in (num, den) for i, x in enumerate(p + (0,) * (3 - len(p)))]
    g = math.gcd(*t)
    return tuple(x // g for x in t)


def _rows(cs: Mapping, num: tuple, den: tuple) -> list:
    """(k, n, q) with n/q = num(e)/den(e), over the keys k = 6e of cs with
    num(e) != 0 and den(e) != 0; a key with den(e) = 0 holds the integrand
    of a z^-1 term, dropped if :func:`_log_free` lets it be."""
    a, b, c, p, q, r = _in_keys(num, den)
    return [(k, n, m) for k in cs
            if (n := a + k * (b + k * c)) and ((m := p + k * (q + k * r)) or _log_free(cs, k))]


def _log_free(cs: Mapping, k: int) -> None:
    """LogObstruction if cs[k], a stored term's coefficient (or an exact
    one's numerator), is not a float or complex (exact, a QPoly or a
    series) or is past 1e-9 of the largest |c| (not rounding), since
    integrating it would introduce log z."""
    if not isinstance(c := cs[k], (float, complex)) or abs(c) > 1e-9 * max(map(abs, cs.values())):
        raise LogObstruction("antiderivative of a z^-1 term would introduce log z")


def _weigh(D, re, im, shift, num, den) -> tuple:
    """(D Q, re', im'): the terms (re[k] + im[k] i)/D z^e, none of them 0,
    times num(e)/den(e) at e + shift (:func:`_rows`), Q > 0 the dens' lcm."""
    d, rows = _k6(shift), _rows(re, num, den)
    Q = math.lcm(*(q for _, _, q in rows))
    rows = [(k, n * (Q // q)) for k, n, q in rows]
    return (D * Q, {k + d: re[k] * m for k, m in rows},
            {k + d: im[k] * m for k, m in rows if k in im} if im else {})


def _diag(s: "PuiseuxSeries", shift, num: tuple, den: tuple) -> "PuiseuxSeries":
    """sum c num(e)/den(e) z^(e + shift) over the terms c z^e of s with
    num(e) != 0, known below s.trunc + shift (an exponent on (1/6)Z):
    :func:`_weigh` for an exact s, c * Fraction(n, q) for any other.  A
    den(e) = 0 reads c z^e as the integral of c z^-1, see :func:`_log_free`."""
    trunc = s.trunc if s.trunc is INF else s.trunc + shift
    if s._den:
        return _exact(*_weigh(s._den, s._by6, s._im, shift, num, den), trunc)
    d, cs = _k6(shift), s._by6
    return _make({k + d: cs[k] * Fraction(n, q) for k, n, q in _rows(cs, num, den)}, trunc)


def _combine(terms, final=None) -> "PuiseuxSeries":
    """The sum of ``terms`` in their order, as the chain of + and - over
    them gives it: a series as it is, a quadruple (s, shift, num, den) as
    _diag(s, shift, num, den), a pair (x, y, w) as x y |w| for an int w,
    subtracted if w < 0 (``acc - x * y * 2``); ``final`` = (shift, num, den)
    maps the sum as _diag does.  If every series is exact, each term's
    numerators are brought over one denominator and added per key, and the
    sum is stored with one gcd."""
    parts, trunc = [], INF
    for t in terms:
        t = (t, 0, None, None) if isinstance(t, PuiseuxSeries) else t
        if len(t) == 3 and (tt := _mul_trunc(t[0], t[1])) is None:
            continue
        if not all(s._den for s in ((t[0],) if len(t) == 4 else t[:2])):
            break       # not exact: the chain of operators
        if len(t) == 4:
            s, shift, num, den = t
            parts.append(_weigh(s._den, s._by6, s._im, shift, num, den) if num
                         else (s._den, s._by6, s._im))
            tt = s.trunc if s.trunc is INF else s.trunc + shift
        else:       # a product, formed below the sum's truncation
            parts.append((t[0]._den * t[1]._den, t))
        trunc = min(trunc, tt)
    else:
        D, top = math.lcm(*[p[0] for p in parts]), INF if trunc is INF else _top6(trunc)
        re, im = {}, {}     # every key of im is one of re
        for Dt, *part in parts:
            if len(part) == 1:
                _cleared_product(*part[0], D // Dt, top, re, im)
            elif (f := D // Dt) == 1 and not re:
                re, im = dict(part[0]), dict(part[1])
            else:
                for k, a in part[0].items():
                    re[k] = re[k] + a * f if k in re else a * f
                for k, b in part[1].items():
                    im[k] = im[k] + b * f if k in im else b * f
        if final:
            D, re, im = _weigh(D, {k: a for k, a in re.items() if k < top and (
                a or im.get(k))}, im, *final)
            trunc = trunc if trunc is INF else trunc + final[0]
        return _exact(D, re, im, trunc)
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
    return acc if final is None else _diag(acc, *final)


def _mul_trunc(x: "PuiseuxSeries", y: "PuiseuxSeries"):
    """The truncation of x y, None if a factor is the exact zero (it absorbs)."""
    if not x._by6 and x.trunc is INF or not y._by6 and y.trunc is INF:
        return None
    # error(a*b) <= a_known * err_b + err_a * b_known
    return min(INF if y.trunc is INF else x.min_exp + y.trunc,
               INF if x.trunc is INF else y.min_exp + x.trunc)


def _conv(xs: Mapping, ys: list, kmax, out: dict) -> dict:
    """out plus the products of the terms xs ({6e: c}) and ys ((6e, c),
    in increasing key) below the key kmax, in the double loop's order."""
    for ka, a in xs.items():
        for kb, b in ys:
            if (k := ka + kb) >= kmax:
                break
            out[k] = out[k] + a * b if k in out else a * b
    return out


def _convolve(x: "PuiseuxSeries", y: "PuiseuxSeries") -> "PuiseuxSeries":
    """x y in any coefficient ring, each key summed in the double loop's
    order; series coefficients (an eps-series) as one :func:`_combine`."""
    if (trunc := _mul_trunc(x, y)) is None:
        return _make({}, INF)
    kmax, xs, ys = INF if trunc is INF else _top6(trunc), _terms(x), _terms(y)
    if not all(isinstance(c, PuiseuxSeries) for s in (xs, ys) for c in s.values()):
        return _make(_conv(xs, list(ys.items()), kmax, {}), trunc)
    data = {}
    for ka, ca in xs.items():
        for kb, cb in ys.items():
            if (k := ka + kb) < kmax:
                data.setdefault(k, []).append((ca, cb, 1))
    return _make({k: _combine(ps) for k, ps in data.items()}, trunc)


def _cleared_product(x, y, w, f, kmax, re, im) -> None:
    """Add to re and im the numerators (real, imaginary) of x y w over
    dx dy / f for exact x and y, keyed by 6e below kmax."""
    w *= f
    yr, yi = [(k, b * w) for k, b in y._by6.items()], [(k, b * w) for k, b in y._im.items()]
    _conv(x._by6, yr, kmax, re)
    if x._im or yi:
        _conv(x._im, [(k, -b) for k, b in yi], kmax, re)
        _conv(x._im, yr, kmax, _conv(x._by6, yi, kmax, im))


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

    # an exact series is _den, the int numerators _by6 and the nonzero
    # imaginary ones _im (see _exact); else _den is None and _by6 holds
    # the coefficients
    __slots__ = ("_den", "_by6", "_im", "trunc")

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
        _make(data, trunc, self)

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    def __reduce__(self):       # copy and pickle: the terms and the truncation
        return object.__new__, (type(self),), (_terms(self), self.trunc)

    def __setstate__(self, state):      # an unpickled inf is a new float, not INF
        _make(state[0], INF if state[1] == INF else state[1], self)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """A new dict exponent (Fraction) -> coefficient, in increasing
        exponent; changing it leaves the series as it is."""
        return {_exp6(k): c for k, c in _terms(self).items()}

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
        return Fraction(0) if 6 % e.denominator else _at(self, _k6(e))

    def leading(self):
        """(exponent, coefficient) of the lowest-order term."""
        if not self._by6:
            raise SeriesError("zero series has no leading term")
        k = next(iter(self._by6))
        return _exp6(k), _at(self, k)

    def terms(self):
        """Terms sorted by exponent."""
        return [(_exp6(k), c) for k, c in _terms(self).items()]

    def is_exact(self) -> bool:
        return bool(self._den) or all(is_exact(c) for c in self._by6.values())

    def is_taylor(self) -> bool:
        return all(k >= 0 and not k % 6 for k in self._by6)

    def __bool__(self):
        return bool(self._by6)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den and other._den:    # one form per exact value
            return (self._den, self._by6, self._im, self.trunc) == (
                other._den, other._by6, other._im, other.trunc)
        return _terms(self) == _terms(other) and self.trunc == other.trunc

    def __hash__(self):
        # an exact constant equals its scalar, so it hashes like it
        if self.trunc is INF and not self._by6.keys() - {0}:
            return hash(_at(self, 0))
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
        return self + _make({}, trunc)

    def map_coefficients(self, fn: Callable[[Any], Any]) -> "PuiseuxSeries":
        return _make({k: lift(fn(c)) for k, c in _terms(self).items()}, self.trunc)

    def to_float(self) -> "PuiseuxSeries":
        return _make(self._complex(), self.trunc)

    def _complex(self) -> dict:
        """{6e: complex coefficient}; a/D and b/D round correctly, as
        ``complex(Fraction)`` does, so an exact series reads its numerators."""
        D, im = self._den, self._im
        return {k: complex(c / D, im.get(k, 0) / D) if D else complex(c)
                for k, c in self._by6.items()}

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den and other._den:
            return _combine([self, other])
        data = dict(_terms(self))
        for k, c in _terms(other).items():
            data[k] = data[k] + c if k in data else c
        return _make(data, min(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        if self._den:
            return _diag(self, 0, (-1,), (1,))
        return _make({k: -c for k, c in self._by6.items()}, self.trunc)

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
        if self._den and type(c) in _EXACT:
            return _combine([(self, _make({0: c}, INF), 1)])
        return _make({k: v * c for k, v in _terms(self).items()}, self.trunc)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, PuiseuxSeries):
            return other
        try:
            c = lift(other)
        except TypeError:
            return NotImplemented
        if type(c) is Fraction:     # in lowest terms: its own cleared form
            return _set(None, c.denominator, {0: c.numerator} if c else {}, {}, INF)
        return _make({0: c}, INF)

    def shift(self, e) -> "PuiseuxSeries":
        """Multiply by the monomial z^e."""
        e = _check_sixths(_as_exp(e))
        if self._den:
            return _diag(self, e, (1,), (1,))
        d = _k6(e)
        trunc = self.trunc if self.trunc is INF else self.trunc + _exp6(d)
        return _make({k + d: c for k, c in self._by6.items()}, trunc)

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
        if self._den and type(c) in _EXACT:
            return self * (_ONE / c)
        return _make({k: v / c for k, v in _terms(self).items()}, self.trunc)

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
        return _diag(self, -1, (0, 1), (1,))

    def antiderivative(self) -> "PuiseuxSeries":
        """Termwise antiderivative with zero integration constant.

        The weight 1/(e + 1) is 1/0 at a z^-1 term: LogObstruction (the
        model's normalization forbids logarithms) if it is exact or, for
        float coefficients, past 1e-9 of the largest |c|; below that it is
        the rounding residue of an exact cancellation and is dropped.
        """
        return _diag(self, 1, (1,), (1, 1))

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
                                               for k, c in _terms(self).items()])

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
        if not coeff_is_zero(_at(self, 0)):
            raise SeriesError("compositional inversion requires f(0) = 0")
        a1 = _at(self, 6)
        if coeff_is_zero(a1):
            raise SeriesError("not invertible as a formal map: f'(0) = 0")
        trunc = min(Fraction(int(_as_exp(order))), self.trunc)
        top = math.ceil(trunc)
        inv_a1 = _ONE / a1 if isinstance(a1, Fraction) else 1 / a1
        fs = [(k // 6, c) for k, c in _terms(self).items() if 6 < k < 6 * top]
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

    def eval(self, z: complex) -> complex:
        """Numeric value at z (principal branch): an :class:`ExponentTable`'s one row."""
        return ExponentTable([self]).values(z)[0]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = []
        for e, c in self.terms():
            if is_exact(c):
                parts = [str(c), "0"] if isinstance(c, (int, Fraction)) else [str(c.re), str(c.im)]
            else:
                try:
                    cc = complex(c)
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
        try:
            trunc = INF if d.get("trunc", "inf") == "inf" else Fraction(d["trunc"])
            coeffs = {}
            for e, (re_v, im_v) in d["coeffs"]:
                if isinstance(re_v, str):
                    c = GaussianRational(re_v, im_v)     # a Fraction if im_v is 0
                else:
                    c = complex(re_v, im_v)
                    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                        raise ValueError(f"coefficient {c} is not finite")
                    c = c if c.imag else complex(re_v, 0.0)
                coeffs[Fraction(e)] = c
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise SeriesFormatError(str(exc)) from exc
        return cls(coeffs, trunc, lattice=6)

    @classmethod
    def from_json(cls, s: str) -> "PuiseuxSeries":
        return cls.from_json_dict(json.loads(s))

    def __repr__(self):
        body = " + ".join(f"({_at(self, k)})z^{_exp6(k)}" if k else f"({_at(self, k)})"
                          for k in list(self._by6)[:8]) or "0"
        body += " + ..." if len(self._by6) > 8 else ""
        t = "" if self.trunc is INF else f" + O(z^{self.trunc})"
        return f"<PuiseuxSeries {body}{t}>"


def _principal_pow(z: complex, e: Fraction) -> complex:
    if e == 0:
        return 1.0 + 0j
    if e.denominator == 1 and -8 <= e <= 8:
        return complex(z) ** int(e)
    return complex(z) ** float(e)


class ExponentTable:
    """Series ready to be evaluated at points: the distinct exponents of
    all of them in increasing order (``exps``), and per series its terms as
    (complex(a/D, b/D) or complex(c), index into exps) in increasing
    exponent (``rows``), so a point costs one zpow per distinct exponent."""

    __slots__ = ("exps", "rows")

    def __init__(self, series: Iterable[PuiseuxSeries]):
        floats = [s._complex() for s in series]
        keys = sorted({k for f in floats for k in f})
        index = {k: i for i, k in enumerate(keys)}
        self.exps = tuple(map(_exp6, keys))
        self.rows = tuple(tuple((c, index[k]) for k, c in f.items()) for f in floats)

    def values(self, z: complex, zpow: Callable | None = None) -> list[complex]:
        """Each series' terms c z^e at z added one by one in exponent order
        from 0j; zpow(z, e) fixes the branch of z^e (principal by default)."""
        pows = [(zpow or _principal_pow)(z, e) for e in self.exps]
        out = []
        for row in self.rows:
            total = 0j
            for c, i in row:
                total += c * pows[i]
            out.append(total)
        return out


def _sum(terms: Iterable):
    """The terms added left to right, the first one as it is (None if
    there is none): the order in which a product sums a coefficient."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def _powers(inner: PuiseuxSeries, n: int, trunc) -> list:
    """inner^0, ..., inner^n, each truncated at ``trunc`` as it is formed."""
    out = [_make({0: _ONE}, trunc)]
    for _ in range(n):
        out.append(_combine([_make({}, trunc), (out[-1], inner, 1)]))
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
    reaches is absent, the exact zero.  For an exact g each order is summed
    in ints and kept as (a + b i)/e in lowest terms, one gcd per order;
    else each order's sum is :func:`_miller_sum`."""
    d = math.gcd(*(k for k in g._by6 if k > 0))
    if g._den:
        gs = [(k // d, a, g._im.get(k, 0)) for k, a in g._by6.items() if k > 0]
        ud, ((ur, ui), (a0, b0)) = clear([_ONE if unit is None else unit, f0])
        f = {0: (a0, b0, ud)}
        for n in range(1, math.ceil(6 * rel / d)):
            if ts := [(a, b, f[n - j], w) for j, a, b in gs
                      if j <= n and n - j in f and (w := weight(j, n))]:
                L, sr, si = math.lcm(*(t[2][2] for t in ts)), 0, 0
                for a, b, (c, e, h), w in ts:
                    m = w * (L // h)
                    sr, si = sr + (a * c - b * e) * m, si + (a * e + b * c) * m
                nr, ni, nd = sr * ur - si * ui, sr * ui + si * ur, g._den * L * q * n * ud
                h = math.gcd(nr, ni, nd)
                f[n] = (nr // h, ni // h, nd // h)
        D, k0 = math.lcm(*(h for _, _, h in f.values())), _k6(lead)
        return _exact(D, {k0 + n * d: a * (D // h) for n, (a, _, h) in f.items()},
                      {k0 + n * d: b * (D // h) for n, (_, b, h) in f.items() if b}, lead + rel)
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
    if all(isinstance(x, PuiseuxSeries) and x._den for g, f, _ in pairs for x in (g, f)):
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
    return complex(c) ** float(r)


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
        for c in _terms(s).values():
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
        return cls(tuple(_terms(E).get(6 * n, zero) for n in range(int(E.trunc))))

    def series(self) -> PuiseuxSeries:
        return PuiseuxSeries(enumerate(self.coeffs), len(self.coeffs), lattice=1)
