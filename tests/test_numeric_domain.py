"""Every numeric entry point on its whole domain: a finite value or an
ExactWKBError, with every warning an error (as pyproject.toml sets for the
suite), for |z| log-uniform in 1e-14..1e3 at any arg and |eps|
log-uniform in 1e-4..32 with |arg eps| < 1.55; the Borel sums also for
|z| log-uniform in 1e-300..1e300, where z^(-3/2), the action and the
minor's powers of z leave double range."""

import cmath
import math
from fractions import Fraction as Fr

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from exactwkb.airy import (airy_borel_sum, airy_borel_sum_hp, airy_contour, stokes_jump,
                           symbol_borel_sum)
from exactwkb.errors import ExactWKBError
from exactwkb.hardy import hardy_phi_eval
from exactwkb.pde import confluent_eval, pde_taylor
from exactwkb.series import PuiseuxSeries
from exactwkb.transport import transport_g

F = PuiseuxSeries({0: Fr(1, 3), 1: Fr(-2, 7)})
H = PuiseuxSeries({0: Fr(1, 5)})
PSI = pde_taylor(F, H, 40, 40)
SYMBOL = transport_g(F, 23)

ENTRY_POINTS = {
    "airy_contour": lambda z, eps, n: airy_contour(z, eps).value,
    "airy_borel_sum": lambda z, eps, n: airy_borel_sum(z, eps, 24).value,
    "airy_borel_sum_hp": lambda z, eps, n: airy_borel_sum_hp(z, eps, 24),
    "stokes_jump": lambda z, eps, n: stokes_jump(z, eps, 24),
    "symbol_borel_sum": lambda z, eps, n: symbol_borel_sum(SYMBOL, z, eps).value,
    "confluent_eval": lambda z, eps, n: confluent_eval(F, H, z, eps, psi=PSI).value,
    "hardy_phi_eval": lambda z, eps, n: hardy_phi_eval(n, z, eps).value,
}


def _polar(lo: float, hi: float, arg: float):
    """|w| log-uniform in 10^lo..10^hi, arg w uniform in (-arg, arg)."""
    return st.builds(lambda t, a: cmath.rect(10.0 ** t, a),
                     st.floats(lo, hi), st.floats(-arg, arg, exclude_min=True, exclude_max=True))


def _finite_or_typed(name, z, eps, n):
    try:
        out = ENTRY_POINTS[name](z, eps, n)
    except ExactWKBError:
        return
    # an mpc past double range is still a finite mpmath number
    assert all(mpmath.isfinite(v) for v in (out if isinstance(out, tuple) else (out,))), out


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(ENTRY_POINTS)), z=_polar(-14, 3, math.pi),
       eps=_polar(-4, math.log10(32), 1.55), n=st.integers(1, 10))
def test_a_finite_value_or_a_typed_error(name, z, eps, n):
    _finite_or_typed(name, z, eps, n)


@settings(max_examples=150)
@given(name=st.sampled_from(["airy_borel_sum", "airy_borel_sum_hp", "stokes_jump",
                             "symbol_borel_sum"]),
       z=_polar(-300, 300, math.pi), eps=_polar(-4, math.log10(32), 1.55))
def test_borel_sums_at_extreme_z(name, z, eps):
    _finite_or_typed(name, z, eps, 1)
