"""Deterministic command-line surface over the toolkit.

Subcommands: airy, transport, pde, confluent, borel, stokes, reduce,
hardy, verify.  Series arguments are accepted inline as JSON or as a
path to a JSON file; outputs are JSON (sorted keys) on stdout or --out,
with plot-ready CSV via --plot-data where applicable.  Exit codes:
0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import mpmath

from . import __version__
from .airy import (_minor_pade, airy_borel_sum, airy_contour, airy_oracle,
                   stokes_jump)
from .contours import ContourSpec
from .errors import (ContourFailure, DomainExit, ExactWKBError,
                     NonFiniteOutput, PoleOnRay, SeriesError,
                     SeriesFormatError, TraceEscape)
from .pde import confluent_eval, pde_residual, pde_taylor
from .reduction import schrodinger_pipeline
from .series import PuiseuxSeries, max_abs_coeff, require_taylor
from .stokes import (SECTOR_CONVENTION, canonical_stokes_lines,
                     node_condition_residuals, potential_stokes_curves)
from .transport import riccati_p, symbol_consistency, transport_g, wkb_residual
from .hardy import hardy_ode_residual, hardy_phi_eval, hardy_S_T

MIN_PRECISION = 15


def _load_series(text: str, name: str) -> PuiseuxSeries:
    """The Taylor series ``name`` from inline JSON or a file path.

    Accepts the full series object {"min_exp": ..., "coeffs": ...} or
    the bare coefficient list [["p/q", [re, im]], ...].  Any malformed
    or inadmissible series (bad terms, an exponent off (1/6)Z, a
    non-Taylor series) raises SeriesFormatError, a validation error.
    """
    if os.path.exists(text):
        with open(text) as fh:
            data = json.load(fh)
    else:
        data = json.loads(text)
    if isinstance(data, list):
        data = {"min_exp": "0", "trunc": "inf", "coeffs": data}
    try:
        return require_taylor(PuiseuxSeries.from_json_dict(data), name)
    except SeriesError as exc:       # require_taylor's and the lattice's
        raise SeriesFormatError(str(exc)) from exc


def _check_ranges(args) -> None:
    """Refuse, as validation errors, the numbers no command can serve:
    z must be finite, eps nonzero and finite, the orders >= 0, a Stokes
    step, extent and region positive and finite, and a Stokes alpha or a
    Laplace theta finite."""
    z, eps = getattr(args, "z", None), getattr(args, "eps", None)
    if getattr(args, "eval", None):
        z, eps = args.eval[:1], args.eval[1:]
    if z is not None and not all(map(math.isfinite, z)):
        raise ValueError("z must be finite")
    if eps is not None and not (all(map(math.isfinite, eps)) and any(eps)):
        raise ValueError("eps must be nonzero and finite")
    if isinstance(getattr(args, "orders", None), int) and args.orders < 0:
        raise ValueError("N must be >= 0")
    for name in ("step", "extent", "region"):
        v = getattr(args, name, None)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ValueError(f"--{name} must be positive and finite")
    for name in ("alpha", "theta"):
        if not math.isfinite(getattr(args, name, 0.0)):
            raise ValueError(f"--{name} must be finite")


def _c2l(z: complex) -> list:
    return [z.real, z.imag]


def _emit(args, payload: dict) -> None:
    """Write the payload as JSON, or raise NonFiniteOutput (writing
    nothing) when a number in it is not finite."""
    payload.setdefault("meta", {})
    payload["meta"].setdefault("precision", args.precision)
    payload["meta"].setdefault("version", __version__)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(str(exc)) from exc
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _worst_json(w):
    """A largest residual coefficient: exact as a string, else its modulus."""
    return str(w) if isinstance(w, Fraction) else abs(w)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def cmd_airy(args) -> dict:
    z = complex(args.z[0], args.z[1])
    eps = complex(args.eps[0], args.eps[1])
    borel = airy_borel_sum(z, eps, args.orders)
    contour = airy_contour(z, eps)
    oracle = airy_oracle(z, eps)
    rel = abs(borel.value - contour.value) / abs(contour.value)
    return {
        "z": _c2l(z), "eps": _c2l(eps),
        "value": _c2l(borel.value), "est_error": borel.est_error,
        "oracle": _c2l(oracle),
        "contour": _c2l(contour.value), "contour_est_error": contour.est_error,
        "rel_error_borel_vs_contour": rel,
        "meta": {"orders": args.orders},
    }


def cmd_borel(args) -> dict:
    z = complex(args.z[0], args.z[1])
    eps = complex(args.eps[0], args.eps[1])
    pade = None if args.pade is None else tuple(args.pade)
    res = airy_borel_sum(z, eps, args.orders, pade=pade, theta=args.theta)
    # the degrees solved with: balanced, or clamped down to the data
    minor = _minor_pade(args.orders, pade)
    solved = [len(minor.num) - 1, len(minor.den) - 1]
    return {"z": _c2l(z), "eps": _c2l(eps), "value": _c2l(res.value),
            "est_error": res.est_error, "nodes_used": res.nodes_used,
            "meta": {"orders": args.orders, "pade": solved, "theta": args.theta}}


def cmd_transport(args) -> dict:
    F = _load_series(args.F, "F")
    sym = transport_g(F, args.orders)
    ric = riccati_p(F, args.orders)
    resid = wkb_residual(sym, F)
    rep = symbol_consistency(F, min(args.orders, 6)) if args.orders >= 2 else {}
    return {
        "g": [g.to_json_dict() for g in sym.eps_coeffs],
        "p": [p.to_json_dict() for p in ric.p_coeffs],
        "wkb_residual_zero": all(r.is_zero() for r in resid),
        "consistency": {k: v if k == "orders" else _worst_json(v)
                        for k, v in rep.items() if k != "C"},
        "meta": {"orders": args.orders},
    }


def cmd_pde(args) -> dict:
    F = _load_series(args.F, "F")
    h = _load_series(args.h, "h")
    Nx, Nz = args.orders
    psi = pde_taylor(F, h, Nx, Nz)
    worst = pde_residual(psi, F.with_trunc(min(F.trunc, Fraction(Nz + 1))))
    return {
        "a": [a.to_json_dict() for a in psi.a_list],
        "Nx": Nx, "Nz": Nz,
        "residual_max_coeff": _worst_json(worst),
    }


def cmd_confluent(args) -> dict:
    F = _load_series(args.F, "F")
    h = _load_series(args.h, "h")
    z = complex(args.z[0], args.z[1])
    eps = complex(args.eps[0], args.eps[1])
    spec = ContourSpec()
    if args.contour != "default":
        with open(args.contour) as fh:
            nodes = [complex(a, b) for a, b in json.load(fh)]
        spec = ContourSpec(path=tuple(nodes))
    res = confluent_eval(F, h, z, eps, spec=spec, Nx=args.nx, Nz=args.nz)
    return {"z": _c2l(z), "eps": _c2l(eps), "value": _c2l(res.value),
            "est_error": res.est_error, "nodes_used": res.nodes_used,
            "meta": {"Nx": args.nx, "Nz": args.nz,
                     "normalization": "value = integral / (i sqrt(pi eps))"}}


def cmd_stokes(args) -> dict:
    if args.V == "builtin:canonical":
        diag = canonical_stokes_lines(args.alpha, extent=args.extent)
        residuals = [0.0]
    else:
        V = _load_series(args.V, "V")
        diag = potential_stokes_curves(V, args.alpha, step=args.step,
                                       extent=args.extent,
                                       region_radius=args.region)
        residuals = node_condition_residuals(V, diag)
    if args.plot_data:
        rows = []
        for b, line in enumerate(diag.lines):
            rows.extend((q.real, q.imag, b) for q in line)
        _write_csv(args.plot_data, ["q_re", "q_im", "branch_id"], rows)
    return {
        "alpha": args.alpha,
        "sector_convention": SECTOR_CONVENTION,
        "n_lines": len(diag.lines),
        "line_endpoints": [_c2l(line[-1]) for line in diag.lines],
        "max_node_residual": max(residuals),
        "meta": {"extent": args.extent},
    }


def cmd_reduce(args) -> dict:
    V = _load_series(args.V, "V")
    N = args.orders
    F, s_q = schrodinger_pipeline(V, N)
    from .reduction import schrodinger_master_residual
    resid = schrodinger_master_residual(
        s_q, V.with_trunc(min(V.trunc, Fraction(N + 4))), orders=N)
    F0 = F.coeff(0) if F.trunc > 0 else None     # null: F is not known at z^0
    return {
        "F": F.to_json_dict(),
        "F0": None if F0 is None else str(F0) if isinstance(F0, Fraction) else _c2l(complex(F0)),
        "s": [s.to_json_dict() for s in s_q.s_coeffs],
        "master_residual_max_coeff": _worst_json(max_abs_coeff(resid.coeffs)),
        "meta": {"orders": N},
    }


def cmd_hardy(args) -> dict:
    pair = hardy_S_T(args.n)
    out = {
        "n": args.n,
        "S": sorted([i, j, str(c)] for (i, j), c in pair.S.items()),
        "T": sorted([i, j, str(c)] for (i, j), c in pair.T.items()),
        "meta": {"convention": args.convention,
                 "note": ("the printed model equation carries eps where the "
                          "main equation carries eps^2; both conventions are "
                          "exposed, 'eps2' matches exp(-S/eps)")},
    }
    if args.eval:
        z, e = args.eval
        res = hardy_phi_eval(args.n, complex(z), complex(e),
                             convention=args.convention)
        out["value"] = _c2l(res.value)
        out["est_error"] = res.est_error
        out["ode_residual"] = hardy_ode_residual(args.n, complex(z), complex(e),
                                                 convention=args.convention)
    return out


def cmd_verify(args) -> dict:
    from . import verification

    suite = verification.run_suite(args.suite)
    for line in suite["lines"]:
        sys.stderr.write(line + "\n")
    if not suite["passed"]:
        raise ExactWKBError("verification suite failed")
    return {"suite": args.suite, "checks": suite["results"],
            "passed": suite["passed"]}


def cmd_stokesjump(args) -> dict:
    z = complex(args.z[0], args.z[1])
    eps = complex(args.eps[0], args.eps[1])
    jump, pred = stokes_jump(z, eps, args.orders, mirror=args.mirror)
    return {"z": _c2l(z), "eps": _c2l(eps), "jump": _c2l(jump),
            "predicted": _c2l(pred),
            "rel_error": abs(jump - pred) / abs(pred) if pred != 0 else None,
            "meta": {"orders": args.orders, "mirror": args.mirror,
                     "orientation": "jump = lateral sum below - above the singular ray"}}


def _order_pair(text: str) -> tuple[int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected NX,NZ")
    return int(parts[0]), int(parts[1])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="exactwkb",
        description="Exact WKB toolkit for the canonical simple-turning-point model")
    p.add_argument("--precision", type=int,
                   default=int(os.environ.get("TP_PRECISION", "15")),
                   help="decimal digits for float-mode oracles (>= 15)")
    p.add_argument("--out", help="write JSON result to this path")
    sub = p.add_subparsers(dest="command", required=True)

    def add_z_eps(q):
        q.add_argument("--z", type=float, nargs=2, required=True,
                       metavar=("RE", "IM"))
        q.add_argument("--eps", type=float, nargs=2, required=True,
                       metavar=("RE", "IM"))

    q = sub.add_parser("airy", help="Borel sum vs contour oracle")
    add_z_eps(q)
    q.add_argument("--orders", type=int, default=24)
    q.set_defaults(fn=cmd_airy)

    q = sub.add_parser("borel", help="Borel-Pade-Laplace sum of the Airy symbol")
    add_z_eps(q)
    q.add_argument("--orders", type=int, default=24)
    q.add_argument("--pade", type=int, nargs=2, default=None)
    q.add_argument("--theta", type=float, default=0.0,
                   help="Laplace ray direction (lateral sums)")
    q.set_defaults(fn=cmd_borel)

    q = sub.add_parser("jump", help="Stokes jump vs alien-derivative prediction")
    add_z_eps(q)
    q.add_argument("--orders", type=int, default=40)
    q.add_argument("--mirror", action="store_true")
    q.set_defaults(fn=cmd_stokesjump)

    q = sub.add_parser("transport", help="formal symbol and Riccati expansion")
    q.add_argument("--F", required=True, help="series JSON (inline or path)")
    q.add_argument("--orders", type=int, default=6)
    q.set_defaults(fn=cmd_transport)

    q = sub.add_parser("pde", help="bivariate kernel of the singular PDE")
    q.add_argument("--F", required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--orders", type=_order_pair, default=(12, 12),
                   metavar="NX,NZ")
    q.set_defaults(fn=cmd_pde)

    q = sub.add_parser("confluent", help="confluent-function contour value")
    q.add_argument("--F", required=True)
    q.add_argument("--h", required=True)
    add_z_eps(q)
    q.add_argument("--contour", default="default",
                   help="'default' or a JSON file of [re, im] path nodes")
    q.add_argument("--nx", type=int, default=40)
    q.add_argument("--nz", type=int, default=40)
    q.set_defaults(fn=cmd_confluent)

    q = sub.add_parser("stokes", help="Stokes-line tracing")
    q.add_argument("--V", required=True,
                   help="series JSON or 'builtin:canonical'")
    q.add_argument("--alpha", type=float, default=0.0)
    q.add_argument("--extent", type=float, default=2.0)
    q.add_argument("--step", type=float, default=0.01)
    q.add_argument("--region", type=float, default=None)
    q.add_argument("--plot-data", dest="plot_data", default=None,
                   help="write traced polylines as CSV")
    q.set_defaults(fn=cmd_stokes)

    q = sub.add_parser("reduce", help="Schrodinger reduction pipeline")
    q.add_argument("--V", required=True)
    q.add_argument("--orders", type=int, default=6)
    q.set_defaults(fn=cmd_reduce)

    q = sub.add_parser("hardy", help="higher turning-point polynomials")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--eval", type=float, nargs=2, default=None,
                   metavar=("Z", "EPS"))
    q.add_argument("--convention", choices=("eps2", "eps"), default="eps2")
    q.set_defaults(fn=cmd_hardy)

    q = sub.add_parser("verify", help="run self-verification suites")
    q.add_argument("--suite", default="identities",
                   choices=("identities", "quadrature", "all"))
    q.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < MIN_PRECISION:
        parser.exit(2, f"--precision must be >= {MIN_PRECISION}\n")
    mpmath.mp.dps = max(args.precision * 2, 30)
    try:
        _check_ranges(args)
        _emit(args, args.fn(args))
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ContourFailure, PoleOnRay, DomainExit, TraceEscape,
            NonFiniteOutput) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except ExactWKBError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
