"""Exception types shared across the package."""


class GmlError(Exception):
    """Base class for every error raised by this package."""


class GmlInputError(GmlError, ValueError):
    """An argument or input value is invalid: the caller's mistake, not a
    failure of the mathematics.  The CLI reports it with exit code 2."""


class DimensionMismatch(GmlError):
    """Operands live in incompatible dimensions."""


class CommutationViolation(GmlError):
    """A pairwise commutator norm exceeds the allowed tolerance."""


class ConvergenceFailure(GmlError):
    """An iterative routine could not certify its result."""


class NonPositiveEpsilon(GmlError):
    """A perturbation step size must be strictly positive."""


class BetaOutsideSubalgebra(GmlError):
    """A direction vector does not lie in the model's acting subalgebra."""


class DependentBasis(GmlError):
    """Vectors expected to form a basis are linearly dependent or do not span."""


class ExhaustedRetries(GmlError):
    """A bounded retry loop ran out of attempts."""


class _RowError(GmlError):
    """An error of one row of a batch: ``row`` is its index, named at the head
    of the message, or None for a single-point call."""

    def __init__(self, reason: str, row: int | None = None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason = reason
        self.row = row


class StepTooLarge(_RowError):
    """An integration step moved so far off the sphere that results are untrustworthy."""


class HorizonExceeded(_RowError):
    """Integration hit the time cap before the field norm dropped below tolerance."""

    def __init__(self, reason: str, t_final: float | None = None, residual: float | None = None,
                 row: int | None = None):
        super().__init__(reason, row)
        self.t_final = t_final
        self.residual = residual


class NotAFixedPoint(GmlError):
    """Linearization was requested at a point where the field does not vanish."""


class ModelParseError(GmlError):
    """A model file is malformed; the message carries line/field diagnostics."""


class UnknownCampaign(GmlError):
    """The requested verification campaign name is not recognized."""


class ReportIoError(GmlError):
    """A verification report could not be written."""
