"""Seeded jobs for the exactwkb benchmark workloads, with their checks.

A run is a fixed number of rounds.  Every round holds the same mix of
job kinds and size strata (the tables below), with fresh inputs drawn
from the seed.  Over the run each slot sweeps its size stratum evenly
(_stratum) and each continuous input takes one value from every one of
``rounds`` equal strata (_u); the coefficient ring follows the sweep, so
a third of the ring jobs use GaussianRational coefficients.  Runs of the
same length thus hold the same sizes and rings for every seed, and the
seed moves only where inside a stratum an input lies and the random
coefficients: run-to-run spread comes from the machine, not the mix.

A job calls public exactwkb functions through ``calls`` (a tracer, see
``spans.py``) and returns its outputs.  Its check runs afterwards,
outside the job's timing, and decides pass or wrong.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath

from exactwkb.airy import (airy_borel_sum, airy_borel_sum_hp, airy_contour,
                           airy_oracle, stokes_jump)
from exactwkb.coefficients import GaussianRational, is_exact
from exactwkb.contours import ContourSpec
from exactwkb.hardy import (hardy_identities_hold, hardy_phi_eval, hardy_S_T,
                            quasi_homogeneous_ok)
from exactwkb.pde import confluent_eval, pde_residual, pde_taylor
from exactwkb.polyring import QPoly
from exactwkb.reduction import (airy_basis_decomposition, induced_potential_F,
                                reconstruct_from_basis, schrodinger_master_residual,
                                schrodinger_pipeline)
from exactwkb.series import INF, PuiseuxSeries, TaylorSeries
from exactwkb.stokes import node_condition_residuals, potential_stokes_curves
from exactwkb.transport import (riccati_p, symbol_consistency, transport_g,
                                wkb_residual)

WORKLOADS = ("formal", "numeric", "stokes")

# (kind, slots per round).  Most formal time goes to the transport, pde
# and reduction pipelines, the layers ROADMAP items 1-2 target.  In both
# mixes the cheap kinds make up well under half of a round, so the median
# lies inside a continuous band of job times, not in the gap between the
# cheap and the costly kinds, where it would jump from run to run.  One
# round takes about 2.5 s of formal, 0.5 s of numeric and 5 s of stokes
# work on a 2-CPU Xeon.
MIX = {
    "formal": (("transport", 3), ("pde", 3), ("reduce", 3),
               ("reduce_symbolic", 1), ("basis", 2), ("hardy", 2),
               ("kernel", 1)),
    "numeric": (("contour", 3), ("borel", 3), ("borel_hp", 2), ("jump", 2),
                ("confluent", 4), ("hardy_eval", 5)),
    "stokes": (("stokes", 5),),
}

# Size ranges (inclusive); slot j of n takes its size from the j-th of n
# equal strata (see _stratum), so every round spans the whole range and
# every run of the same length holds the same sizes.
SIZES = {
    "transport": (6, 20),         # eps-orders N
    "pde": (10, 36),              # Nx = Nz
    "reduce": (4, 10),            # eps-orders N
    "reduce_symbolic": (2, 6),    # z-orders N of the induced potential
    "basis": (4, 12),             # eps-orders N
    "hardy": (1, 10),             # turning-point order n
    "kernel": (8, 16),            # truncation order
    "borel": (16, 32),            # eps-orders N
    "borel_hp": (16, 32),
    "jump": (32, 40),
    "hardy_eval": (1, 10),
}
# Degrees of the random F and h.  They are fixed because job cost grows
# steeply with them: a random degree made a job's cost vary tenfold.
F_DEGREE = 2
H_DEGREE = 1
STOKES_EXTENT = (1.0, 2.5)
Z_ABS = (0.2, 3.0)
EPS_ABS = (0.02, 0.2)
EPS_MAX_ARG = 0.4
HP_DPS = 40
# Confluent kernels built once in the prebuild: one trivial (F = h = 0,
# checked against the Airy oracle) and these many with F != 0.
CONFLUENT_KERNELS = 3
KERNEL_ORDERS = 40

# Tolerances, in line with tests/test_acceptance.py and tests/test_airy.py.
TOL_CONTOUR = 1e-8
TOL_BOREL = 1e-8
TOL_JUMP = 1e-4
# The quadrature-only reference for F != 0 confluent values and for Hardy
# integrals: a convergence check against a refined rule, not an
# independent oracle.
REFINED = ContourSpec(rel_tol=1e-15, gl_order=32, max_panel_phase=1.0)
# The Borel minor's singular direction is kept this far (radians in the
# xi-plane) from the Laplace rays: on the ray itself the sum is lateral,
# not the Airy function.
RAY_MARGIN = 0.1
# The jump is the difference of two lateral sums of size exp(A), A =
# (2/3)|z|^{3/2}/|eps|, and itself has size exp(-A); double precision
# resolves it to 1e-4 only while 2A stays below this.
JUMP_MAX_EXPONENT = 16.0

KERNEL_POWERS = ((1, 2), (1, 3), (2, 3), (-1, 2), (3, 2))

# Every span name the benchmark can record: "<module>.<function>".
SPANS = (
    "transport.transport_g", "transport.riccati_p", "transport.wkb_residual",
    "transport.symbol_consistency",
    "pde.pde_taylor", "pde.pde_residual",
    "reduction.schrodinger_pipeline", "reduction.schrodinger_master_residual",
    "reduction.induced_potential_F", "reduction.airy_basis_decomposition",
    "reduction.reconstruct_from_basis",
    "hardy.hardy_S_T", "hardy.hardy_identities_hold",
    "series.mul", "series.inverse", "series.compose", "series.reversion",
    "series.pow_rational",
    "airy.airy_contour", "airy.airy_borel_sum", "airy.airy_borel_sum_hp",
    "airy.stokes_jump", "pde.confluent_eval", "hardy.hardy_phi_eval",
    "stokes.potential_stokes_curves", "stokes.node_condition_residuals",
)
# Work counts recorded at the same boundaries.
COUNTS = ("airy.airy_contour.nodes", "pde.confluent_eval.nodes",
          "stokes.potential_stokes_curves.nodes",
          "stokes.node_condition_residuals.nodes_checked")
RINGS = ("fraction", "gaussian", "qpoly")


@dataclass(frozen=True)
class Job:
    id: str
    round: int
    kind: str
    ring: str
    inputs: dict


@dataclass(frozen=True)
class Kind:
    run: Callable[[dict, Any], Any]
    check: Callable[[dict, Any], bool]


def canon(obj):
    """JSON-ready canonical form of job inputs and exact outputs.

    Series with Fraction or GaussianRational coefficients use their own
    ``to_json_dict``; keys starting with "_" (prebuilt data) are skipped.
    """
    if isinstance(obj, PuiseuxSeries):
        if all(is_exact(c) for c in obj.coeffs.values()):
            return obj.to_json_dict()
        return {"trunc": "inf" if obj.trunc is INF else str(obj.trunc),
                "coeffs": [[str(e), canon(c)] for e, c in obj.terms()]}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, GaussianRational):
        return [str(obj.re), str(obj.im)]
    if isinstance(obj, QPoly):
        return [[[list(m) for m in mono], str(c)] for mono, c in sorted(obj.terms.items())]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return sorted([canon(k), canon(v)] for k, v in obj.items()
                      if not (isinstance(k, str) and k.startswith("_")))
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


# ---------------------------------------------------------------------------
# Input generation.
# ---------------------------------------------------------------------------

def _q(rng: random.Random, top: int = 9) -> Fraction:
    """Nonzero rational with numerator and denominator up to ``top``."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def _coeff(rng: random.Random, ring: str):
    if ring == "gaussian":
        return GaussianRational(_q(rng), _q(rng))
    return _q(rng)


def _taylor(rng, ring, degree, trunc=INF, start=0):
    return TaylorSeries({k: _coeff(rng, ring) for k in range(start, degree + 1)},
                        trunc=trunc)


def _stratum(lo: int, hi: int, j: int, n: int, ctx: dict) -> int:
    """Size for slot j of n: the j-th of n equal strata of [lo, hi].  Over
    the run's ``rounds`` rounds the size steps evenly through the stratum
    (``turn`` is the round's place in that sweep, offset by the seed), so
    every run of the same length holds the same sizes."""
    span = hi - lo + 1
    a = lo + (span * j) // n
    width = max(1, lo + (span * (j + 1)) // n - a)
    return a + (2 * ctx["turn"] + 1) * width // (2 * ctx["rounds"])


def _u(rng: random.Random, ctx: dict, dim: str) -> float:
    """Uniform draw in [0, 1) for input ``dim`` of the job's slot,
    stratified over the run: across the run's rounds the slot takes one
    value from each of ``rounds`` equal strata, in an order shuffled by the
    seed.  Like _stratum, this keeps the spread of job costs from varying
    with the seed."""
    R = ctx["rounds"]
    order = random.Random(f"{ctx['seed']}:{ctx['slot']}:{dim}").sample(range(R), R)
    return (order[ctx["index"] % R] + rng.random()) / R


def _z(rng: random.Random, ctx: dict) -> complex:
    lo, hi = Z_ABS
    return cmath.rect(lo + (hi - lo) * _u(rng, ctx, "z_abs"),
                      math.pi * (2.0 * _u(rng, ctx, "z_arg") - 1.0))


def _eps(rng: random.Random, ctx: dict, rotated: bool) -> complex:
    lo, hi = EPS_ABS
    mod = lo * (hi / lo) ** _u(rng, ctx, "eps_abs")
    arg = EPS_MAX_ARG * (2.0 * _u(rng, ctx, "eps_arg") - 1.0) if rotated else 0.0
    return cmath.rect(mod, arg)


def one_term_arg_range(eps: complex) -> tuple[float, float]:
    """Range of arg z (fixed branch) where the Laplace sums along both
    arg xi = 0 and arg xi = arg eps give the Airy function.

    The recessive minor is singular at xi = -(4/3) z^{3/2}, in direction
    pi + (3/2) arg z; that direction must stay RAY_MARGIN clear of the
    arc between the two rays, and arg z inside the one-term sectors
    S1, S-1 (|arg z| < 2 pi/3) of the eps-rotated Stokes rays.
    """
    phi = cmath.phase(eps)
    lo = (max(0.0, phi) + RAY_MARGIN - math.pi) / 1.5
    hi = (math.pi + min(0.0, phi) - RAY_MARGIN) / 1.5
    return lo, hi


def _one_term_z(rng: random.Random, ctx: dict, eps: complex) -> complex:
    lo, hi = one_term_arg_range(eps)
    r_lo, r_hi = Z_ABS
    return cmath.rect(r_lo + (r_hi - r_lo) * _u(rng, ctx, "z_abs"),
                      lo + (hi - lo) * _u(rng, ctx, "z_arg"))


def prebuild(workload: str, seed: int) -> dict:
    """One-time work the jobs reuse: the confluent PDE kernels."""
    if workload != "numeric":
        return {}
    rng = random.Random(f"{seed}:prebuild")
    kernels = [(TaylorSeries({}), TaylorSeries({}))]
    for _ in range(CONFLUENT_KERNELS):
        kernels.append((_taylor(rng, "fraction", F_DEGREE),
                        _taylor(rng, "fraction", H_DEGREE)))
    return {"kernels": [(F, h, pde_taylor(F, h, KERNEL_ORDERS, KERNEL_ORDERS))
                        for F, h in kernels]}


def make_round(workload: str, seed: int, index: int, ctx: dict,
               rounds: int = 1) -> list[Job]:
    """The jobs of round ``index`` of a run of ``rounds`` rounds, shuffled;
    a pure function of its args."""
    rng = random.Random(f"{seed}:{workload}:{index}")
    ctx = dict(ctx, seed=seed, index=index, rounds=rounds,
               turn=(seed + index) % rounds)
    jobs = []
    for kind, slots in MIX[workload]:
        for j in range(slots):
            ring = "gaussian" if (j + ctx["turn"]) % 3 == 0 else "fraction"
            ring, inputs = _INPUTS[kind](rng, ring, j, slots, dict(ctx, slot=f"{kind}:{j}"))
            jobs.append((kind, ring, inputs))
    rng.shuffle(jobs)
    return [Job(f"{workload}-{index}-{n}", index, kind, ring, inputs)
            for n, (kind, ring, inputs) in enumerate(jobs)]


def _in_transport(rng, ring, j, n, ctx):
    return ring, {"F": _taylor(rng, ring, F_DEGREE),
                  "N": _stratum(*SIZES["transport"], j, n, ctx)}


def _in_pde(rng, ring, j, n, ctx):
    size = _stratum(*SIZES["pde"], j, n, ctx)
    return ring, {"F": _taylor(rng, ring, F_DEGREE),
                  "h": _taylor(rng, ring, H_DEGREE), "Nx": size, "Nz": size}


def _potential(rng, ring):
    """V = q + a2 q^2 + a3 q^3 (a simple turning point at 0)."""
    return TaylorSeries({1: 1, 2: _coeff(rng, ring), 3: _coeff(rng, ring)})


def _in_reduce(rng, ring, j, n, ctx):
    return ring, {"V": _potential(rng, ring),
                  "N": _stratum(*SIZES["reduce"], j, n, ctx)}


def _in_reduce_symbolic(rng, ring, j, n, ctx):
    a, b, c = _q(rng), _q(rng), _q(rng)
    return "qpoly", {"a": a, "b": b, "c": c,
                     "N": _stratum(*SIZES["reduce_symbolic"], j, n, ctx),
                     "at": {"v2": _q(rng), "v3": _q(rng)}}


def _in_basis(rng, ring, j, n, ctx):
    N = _stratum(*SIZES["basis"], j, n, ctx)
    return ring, {"phi": transport_g(_taylor(rng, ring, F_DEGREE), N), "N": N}


def _in_hardy(rng, ring, j, n, ctx):
    return "fraction", {"n": _stratum(*SIZES["hardy"], j, n, ctx)}


def _unit(rng, ring, T):
    """Dense series to z^(T-1), truncated at T, with a nonzero constant term."""
    return _taylor(rng, ring, T - 1, T, start=1) + _q(rng)


def _in_kernel(rng, ring, j, n, ctx):
    T = _stratum(*SIZES["kernel"], j, n, ctx)
    reversible = _taylor(rng, ring, 4, start=2) + PuiseuxSeries({1: _q(rng)})
    return ring, {"a": _unit(rng, ring, T), "b": _unit(rng, ring, T),
                  "g": _taylor(rng, ring, T - 1, T, start=1), "f": reversible,
                  "r": KERNEL_POWERS[rng.randrange(len(KERNEL_POWERS))], "T": T}


def _in_contour(rng, ring, j, n, ctx):
    return "float", {"z": _z(rng, ctx), "eps": _eps(rng, ctx, j % 2 == 1)}


def _in_borel(rng, ring, j, n, ctx):
    eps = _eps(rng, ctx, j % 2 == 1)
    return "float", {"z": _one_term_z(rng, ctx, eps), "eps": eps,
                     "N": _stratum(*SIZES["borel"], j, n, ctx)}


def _in_borel_hp(rng, ring, j, n, ctx):
    eps = _eps(rng, ctx, j % 2 == 1)
    return "float", {"z": _one_term_z(rng, ctx, eps), "eps": eps,
                     "N": _stratum(*SIZES["borel_hp"], j, n, ctx)}


def _in_jump(rng, ring, j, n, ctx):
    eps = _eps(rng, ctx, j % 2 == 1)
    r_max = min(Z_ABS[1], (JUMP_MAX_EXPONENT * abs(eps) * 3.0 / 4.0) ** (2.0 / 3.0))
    r = Z_ABS[0] + (r_max - Z_ABS[0]) * _u(rng, ctx, "z_abs")
    return "float", {"z": cmath.rect(r, 2.0 * math.pi / 3.0), "eps": eps,
                     "N": _stratum(*SIZES["jump"], j, n, ctx)}


def _in_confluent(rng, ring, j, n, ctx):
    k = j % len(ctx["kernels"])
    return "float", {"kernel": k, "_kernel": ctx["kernels"][k], "z": _z(rng, ctx),
                     "eps": _eps(rng, ctx, j % 2 == 1)}


def _in_hardy_eval(rng, ring, j, n, ctx):
    return "float", {"n": _stratum(*SIZES["hardy_eval"], j, n, ctx),
                     "z": _z(rng, ctx), "eps": _eps(rng, ctx, j % 2 == 1)}


def _in_stokes(rng, ring, j, n, ctx):
    lo, hi = STOKES_EXTENT
    # like _stratum: the run's extents step evenly through each stratum
    extent = lo + (hi - lo) * (j + (ctx["turn"] + 0.5) / ctx["rounds"]) / n
    return "float", {"V": TaylorSeries({1: 1, 2: _q(rng, 6), 3: _q(rng, 6)}),
                     "alpha": math.pi * (_u(rng, ctx, "alpha") - 0.5),
                     "extent": extent, "region": 3.0 * extent}


_INPUTS = {
    "transport": _in_transport, "pde": _in_pde, "reduce": _in_reduce,
    "reduce_symbolic": _in_reduce_symbolic, "basis": _in_basis,
    "hardy": _in_hardy, "kernel": _in_kernel,
    "contour": _in_contour, "borel": _in_borel, "borel_hp": _in_borel_hp,
    "jump": _in_jump, "confluent": _in_confluent, "hardy_eval": _in_hardy_eval,
    "stokes": _in_stokes,
}


# ---------------------------------------------------------------------------
# Jobs (timed) and their checks (untimed).
# ---------------------------------------------------------------------------

def _all_zero(series) -> bool:
    return all(s.is_zero() for s in series)


def _transport(x, c):
    F, N = x["F"], x["N"]
    sym = c("transport.transport_g", transport_g, F, N)
    ric = c("transport.riccati_p", riccati_p, F, N)
    resid = c("transport.wkb_residual", wkb_residual, sym, F)
    rep = c("transport.symbol_consistency", symbol_consistency, F, min(N, 6))
    return {"g": sym.eps_coeffs, "p": ric.p_coeffs, "resid": resid, "rep": rep}


def _check_transport(x, out):
    rep = out["rep"]
    return (len(out["g"]) == x["N"] + 1 and _all_zero(out["resid"])
            and rep["odd_even_residual"] == 0 and rep["expansion_residual"] == 0)


def _pde(x, c):
    F, Nz = x["F"], x["Nz"]
    psi = c("pde.pde_taylor", pde_taylor, F, x["h"], x["Nx"], Nz)
    worst = c("pde.pde_residual", pde_residual, psi,
              F.with_trunc(min(F.trunc, Fraction(Nz + 1))))
    return {"a": psi.a_list, "worst": worst}


def _check_pde(x, out):
    return (out["worst"] == 0 and len(out["a"]) == x["Nx"] + 1
            and (out["a"][1] - x["h"]).is_zero())


def _reduce(x, c):
    V, N = x["V"], x["N"]
    F, s_q = c("reduction.schrodinger_pipeline", schrodinger_pipeline, V, N)
    resid = c("reduction.schrodinger_master_residual", schrodinger_master_residual,
              s_q, V.with_trunc(min(V.trunc, Fraction(N + 4))), orders=N)
    return {"F": F, "s": s_q.s_coeffs, "resid": resid.coeffs}


def _check_reduce(x, out):
    return len(out["resid"]) == x["N"] + 1 and _all_zero(out["resid"])


def _symbolic_V(x, v2, v3):
    return TaylorSeries({1: 1, 2: v2 * x["a"] + x["b"], 3: v3 * x["c"]})


def _reduce_symbolic(x, c):
    V = _symbolic_V(x, QPoly.gen("v2"), QPoly.gen("v3"))
    return {"F": c("reduction.induced_potential_F", induced_potential_F, V, x["N"])}


def _check_reduce_symbolic(x, out):
    """Exact identities: F(0) = (3/7) V3 - (9/35) V2^2 for V = q + V2 q^2 +
    V3 q^3, and specialising the generators commutes with the pipeline."""
    F = out["F"]
    V2, V3 = QPoly.gen("v2") * x["a"] + x["b"], QPoly.gen("v3") * x["c"]
    if F.coeff(0) - (V3 * Fraction(3, 7) - V2 * V2 * Fraction(9, 35)) != 0:
        return False
    at = x["at"]
    ref = induced_potential_F(_symbolic_V(x, at["v2"], at["v3"]), x["N"])
    if ref.trunc != F.trunc:
        return False
    for e in set(ref.coeffs) | set(F.coeffs):
        got = F.coeffs.get(e, QPoly(0)).subs(at)
        if got != ref.coeffs.get(e, Fraction(0)):
            return False
    return True


def _basis(x, c):
    dec = c("reduction.airy_basis_decomposition", airy_basis_decomposition,
            x["phi"], x["N"])
    rec = c("reduction.reconstruct_from_basis", reconstruct_from_basis, dec, x["N"])
    return {"a": dec.a_coeffs, "b": dec.b_coeffs, "rec": rec.eps_coeffs,
            "holomorphic": dec.holomorphy_scan()}


def _check_basis(x, out):
    phi = x["phi"].eps_coeffs
    return (out["holomorphic"] and len(out["rec"]) == len(phi)
            and all((a - b).is_zero() for a, b in zip(out["rec"], phi)))


def _hardy(x, c):
    pair = c("hardy.hardy_S_T", hardy_S_T, x["n"])
    return {"pair": pair,
            "holds": c("hardy.hardy_identities_hold", hardy_identities_hold, pair)}


def _check_hardy(x, out):
    return out["holds"] is True and quasi_homogeneous_ok(out["pair"])


def _kernel(x, c):
    a, g = x["a"], x["g"]
    p, q = x["r"]
    return {
        "mul": c("series.mul", a.__mul__, x["b"]),
        "inverse": c("series.inverse", a.inverse),
        "compose": c("series.compose", a.compose, g),
        "reversion": c("series.reversion", x["f"].reversion, x["T"]),
        "pow_rational": c("series.pow_rational", (g + 1).pow_rational, Fraction(p, q)),
    }


def _naive_product(a, b, T):
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            if ea + eb < T:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return PuiseuxSeries(out, trunc=T, lattice=1)


def _naive_compose(f, g, T, degree):
    """f(g) by Horner with the naive product."""
    out = PuiseuxSeries.zero(T, 1)
    for k in range(degree, -1, -1):
        out = _naive_product(out, g, T) + f.coeffs.get(Fraction(k), 0)
    return out


def _check_kernel(x, out):
    """Each operation against an exact identity that does not call it."""
    a, g, T = x["a"], x["g"], x["T"]
    if any(s.trunc != T for s in out.values()):
        return False
    z = PuiseuxSeries({1: 1})
    p, q = x["r"]
    lhs = rhs = PuiseuxSeries.one(T, 1)
    for _ in range(q):
        lhs = _naive_product(lhs, out["pow_rational"], T)
    for _ in range(abs(p)):
        if p > 0:
            rhs = _naive_product(rhs, g + 1, T)
        else:
            lhs = _naive_product(lhs, g + 1, T)
    return ((out["mul"] - _naive_product(a, x["b"], T)).is_zero()
            and (_naive_product(a, out["inverse"], T) - 1).is_zero()
            and (out["compose"] - _naive_compose(a, g, T, T - 1)).is_zero()
            and (_naive_compose(x["f"], out["reversion"], T, 4) - z).is_zero()
            and (lhs - rhs).is_zero())


def _rel_err(value: complex, ref: complex) -> float:
    if ref == 0:  # both underflowed: equal to double resolution
        return 0.0 if value == 0 else math.inf
    return abs(value - ref) / abs(ref)


def _contour(x, c):
    r = c("airy.airy_contour", airy_contour, x["z"], x["eps"])
    c.count("airy.airy_contour.nodes", r.nodes_used)
    return r


def _check_contour(x, out):
    return _rel_err(out.value, airy_oracle(x["z"], x["eps"])) <= TOL_CONTOUR


def _borel(x, c):
    return c("airy.airy_borel_sum", airy_borel_sum, x["z"], x["eps"], x["N"])


def _check_borel(x, out):
    return _rel_err(out.value, airy_oracle(x["z"], x["eps"])) <= TOL_BOREL


def _borel_hp(x, c):
    return c("airy.airy_borel_sum_hp", airy_borel_sum_hp, x["z"], x["eps"], x["N"],
             dps=HP_DPS)


def _check_borel_hp(x, out):
    with mpmath.workdps(HP_DPS):
        eps = mpmath.mpc(x["eps"])
        ref = 2 * mpmath.sqrt(mpmath.pi) * eps ** mpmath.mpf("-1/6") \
            * mpmath.airyai(mpmath.mpc(x["z"]) * eps ** mpmath.mpf("-2/3"))
        return abs(out - ref) <= TOL_BOREL * abs(ref)


def _jump(x, c):
    return c("airy.stokes_jump", stokes_jump, x["z"], x["eps"], x["N"])


def _check_jump(x, out):
    jump, pred = out
    return _rel_err(jump, pred) <= TOL_JUMP


def _confluent(x, c):
    F, h, psi = x["_kernel"]
    r = c("pde.confluent_eval", confluent_eval, F, h, x["z"], x["eps"], psi=psi)
    c.count("pde.confluent_eval.nodes", r.nodes_used)
    return r


def _check_confluent(x, out):
    F, h, psi = x["_kernel"]
    if x["kernel"] == 0:
        ref = airy_oracle(x["z"], x["eps"])
    else:
        ref = confluent_eval(F, h, x["z"], x["eps"], spec=REFINED, psi=psi).value
    return _rel_err(out.value, ref) <= TOL_CONTOUR


def _hardy_eval(x, c):
    return c("hardy.hardy_phi_eval", hardy_phi_eval, x["n"], x["z"], x["eps"])


def _check_hardy_eval(x, out):
    ref = hardy_phi_eval(x["n"], x["z"], x["eps"], spec=REFINED).value
    return _rel_err(out.value, ref) <= TOL_CONTOUR


def _stokes(x, c):
    V = x["V"]
    diag = c("stokes.potential_stokes_curves", potential_stokes_curves, V,
             x["alpha"], step=0.01, extent=x["extent"], region_radius=x["region"])
    c.count("stokes.potential_stokes_curves.nodes", sum(len(l) for l in diag.lines))
    resid = c("stokes.node_condition_residuals", node_condition_residuals, V, diag)
    c.count("stokes.node_condition_residuals.nodes_checked", len(resid))
    return resid


def _check_stokes(x, out):
    return len(out) > 0 and max(out) < 1e-10


KINDS = {
    "transport": Kind(_transport, _check_transport),
    "pde": Kind(_pde, _check_pde),
    "reduce": Kind(_reduce, _check_reduce),
    "reduce_symbolic": Kind(_reduce_symbolic, _check_reduce_symbolic),
    "basis": Kind(_basis, _check_basis),
    "hardy": Kind(_hardy, _check_hardy),
    "kernel": Kind(_kernel, _check_kernel),
    "contour": Kind(_contour, _check_contour),
    "borel": Kind(_borel, _check_borel),
    "borel_hp": Kind(_borel_hp, _check_borel_hp),
    "jump": Kind(_jump, _check_jump),
    "confluent": Kind(_confluent, _check_confluent),
    "hardy_eval": Kind(_hardy_eval, _check_hardy_eval),
    "stokes": Kind(_stokes, _check_stokes),
}
