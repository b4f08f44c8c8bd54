"""Exception types shared across the toolkit."""


class ExactWKBError(Exception):
    """Base class for all toolkit errors."""


class SeriesError(ExactWKBError):
    """Malformed or incompatible truncated series operation."""


class LatticeError(SeriesError):
    """Exponent leaves the admissible rational-exponent lattice."""


class SeriesFormatError(SeriesError, ValueError):
    """Series input (JSON) that is not a well-formed series object."""


class LogObstruction(SeriesError):
    """Antiderivative of a z^-1 term requested; a logarithm would appear."""


class NotSimpleTurningPoint(ExactWKBError, ValueError):
    """Potential does not vanish to exactly first order with unit slope at 0
    (inadmissible input, so also a ValueError)."""


class ContourFailure(ExactWKBError):
    """Contour quadrature failed to converge to the requested tolerance."""


class PoleOnRay(ExactWKBError):
    """Pade denominator has a pole too close to the Laplace integration ray."""


class DomainExit(ExactWKBError):
    """Integration path leaves the convergence domain of the kernel."""


class TraceEscape(ExactWKBError):
    """Stokes-curve trace left the declared analyticity region."""


class NonFiniteOutput(ExactWKBError):
    """A result holds NaN or an infinity, which JSON output cannot carry."""
