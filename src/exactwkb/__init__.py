"""Symbolic-numeric toolkit for exact WKB analysis of the canonical
simple-turning-point equation u'' - (z/eps^2) u = F(z) u.

Formal layers (exact rational arithmetic): truncated Puiseux/Taylor
series, WKB transport and Riccati expansions, the singular-PDE kernel,
the Liouville/Schwarzian reduction to the Airy equation, decomposition
in the Airy symbol basis, and Hardy's higher turning-point polynomials.

Numeric layers (double precision, mpmath-backed oracles): Borel-Pade-
Laplace summation, steepest-descent contour quadrature, Stokes-jump
measurement, and Stokes-curve tracing.
"""

__version__ = "0.1.0"

from .coefficients import GaussianRational
from .series import INF, EpsSeries, PuiseuxSeries, TaylorSeries
from .symbols import WKBSymbol, action, branch_arg, zpow
from .contours import ContourSpec, LaplaceResult
from .errors import (ContourFailure, DomainExit, ExactWKBError, LatticeError,
                     LogObstruction, NotSimpleTurningPoint, PoleOnRay,
                     SeriesError, SeriesFormatError, TraceEscape)
from .airy import (airy_alpha, airy_borel_sum, airy_contour, airy_oracle,
                   airy_symbol, stokes_jump, symbol_borel_sum)
from .transport import (RiccatiExpansion, riccati_p, symbol_consistency,
                        transport_g, wkb_residual)
from .pde import (BivariateSeries, RadiusReport, confluent_eval,
                  convergence_radius, iteration_bound, local_decomposition,
                  pde_residual, pde_taylor, picard_deltas, psi_eval)
from .reduction import (BasisDecomposition, ReductionSeries,
                        airy_basis_decomposition, induced_potential_F,
                        liouville_map, reduce_to_airy, schrodinger_pipeline)
from .stokes import (StokesDiagram, canonical_stokes_lines, classify_sector,
                     potential_stokes_curves)
from .hardy import HardyPair, hardy_phi_eval, hardy_polynomial, hardy_S_T

__all__ = [
    "GaussianRational", "INF", "EpsSeries", "PuiseuxSeries", "TaylorSeries",
    "WKBSymbol", "action", "branch_arg", "zpow",
    "ContourSpec", "LaplaceResult",
    "ExactWKBError", "SeriesError", "LatticeError", "LogObstruction",
    "NotSimpleTurningPoint", "ContourFailure", "PoleOnRay", "DomainExit",
    "TraceEscape", "SeriesFormatError",
    "airy_alpha", "airy_symbol", "airy_contour", "airy_borel_sum",
    "airy_oracle", "stokes_jump", "symbol_borel_sum",
    "RiccatiExpansion", "transport_g", "riccati_p", "symbol_consistency",
    "wkb_residual",
    "BivariateSeries", "RadiusReport", "pde_taylor", "pde_residual",
    "convergence_radius", "iteration_bound", "psi_eval", "picard_deltas",
    "confluent_eval", "local_decomposition",
    "ReductionSeries", "BasisDecomposition", "liouville_map",
    "induced_potential_F", "reduce_to_airy", "airy_basis_decomposition",
    "schrodinger_pipeline",
    "StokesDiagram", "canonical_stokes_lines", "classify_sector",
    "potential_stokes_curves",
    "HardyPair", "hardy_polynomial", "hardy_S_T", "hardy_phi_eval",
]
