"""Exception hierarchy for the gwalsh package.

Two broad families, mirrored by the CLI exit codes: ``ValidationError``
(malformed or out-of-contract input, exit code 2) and ``NumericError``
(a computation that is well posed but numerically infeasible, exit
code 1).
"""


class GwalshError(Exception):
    """Base class for all gwalsh errors."""


class ValidationError(GwalshError):
    """Structurally invalid input: wrong shape, base, domain or format."""


class NumericError(GwalshError):
    """Numerically infeasible request: no solution, no convergence, not unitary."""


class BadDimensionError(ValidationError):
    """Matrix not square, of size below 2 or above MAX_N, or not of its declared n."""


class BadFirstRowError(ValidationError):
    """First row deviates from the constant 1/sqrt(N) row beyond tolerance."""


class NotUnitaryError(NumericError):
    """Conjugate-transpose product deviates from the identity beyond tolerance."""


class DimensionMismatchError(ValidationError):
    """Two matrices of different sizes, or a masked system whose n is not the matrix's."""


class OutOfRangeError(NumericError):
    """Prescribed entry outside the interval admitting a real completion."""


class DegenerateDrawError(NumericError):
    """Random vectors stayed numerically dependent past the retry budget."""


class OutOfDomainError(ValidationError):
    """Evaluation point outside [0, 1)."""


class BadRowError(ValidationError):
    """Row index outside 0..N-1."""


class DigitOverflowError(ValidationError):
    """Integer does not fit in the requested number of base-N digits."""


class BaseMismatchError(ValidationError):
    """Matrix base and signal/coefficient base differ."""


class ResolutionTooCoarseError(ValidationError):
    """Evaluation grid too coarse for the requested truncation or signal."""


class IncompatibleGridsError(ValidationError):
    """Common refinement of the two grids would be unreasonably large."""


class ZeroSignalError(ValidationError):
    """Norm ratios are undefined for the zero signal."""


class NoRealSolutionError(NumericError):
    """Companion system has no real solution for the given free parameter."""


class DegenerateEliminationError(NumericError):
    """Elimination frame is numerically degenerate; no solve attempted."""


class NoConvergenceError(NumericError):
    """Numeric companion solve produced no matrix certified within tolerance.

    Carries ``best_residual``, the worst constraint residual of the
    rejected candidate.
    """

    def __init__(self, message: str, best_residual: float = float("inf")):
        super().__init__(message)
        self.best_residual = best_residual
