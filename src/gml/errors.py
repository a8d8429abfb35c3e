"""Exception types shared across the package, and the three input checks that raise them."""

import math
import numbers
import operator

import numpy as np


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
    """An integration step moved so far off the sphere that results are untrustworthy.
    The message, not ``reason``, ends with a hint to reduce ``dt`` when it is given."""

    def __init__(self, reason: str, row: int | None = None, dt: float | None = None):
        super().__init__(reason if dt is None else f"{reason}; reduce dt={dt}", row)
        self.reason, self.dt = reason, dt


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


def check_integer(value, name: str, low: int = 0) -> int:
    """``value`` as an int in ``[low, 2**64)``, the range of one Philox key
    word; a numpy integer counts as its value, a bool as no integer."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or not low <= n < 2**64:
        raise GmlInputError(f"{name} must be an integer in [{low}, 2**64), got {value!r}")
    return n


def check_real(value, name: str, bound: str = "") -> float:
    """``value`` as a float: a finite real number, and ``>= 0`` or ``> 0``
    as ``bound`` says; a numpy number counts as its value, a bool as none."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.nan
    if not (math.isfinite(x) and (bound != ">= 0" or x >= 0) and (bound != "> 0" or x > 0)):
        raise GmlInputError(f"{name} must be a finite number{bound and ' '}{bound}, got {value!r}")
    return x


def check_step_sizes(eps, count: int | None = None) -> np.ndarray:
    """eps as a 1-D float array of finite step sizes > 0 (a number is one
    row), of ``count`` rows if given.  NonPositiveEpsilon for a value <= 0
    or NaN, GmlInputError for any other bad eps; no numpy warning."""
    try:
        arr = np.asarray(eps)
    except ValueError:  # ragged rows
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim > 1:
        raise GmlInputError(f"eps must be a number or a 1-D array of numbers, got {eps!r}")
    arr = np.atleast_1d(arr).astype(float, copy=False)
    if count is not None and arr.size != count:
        raise GmlInputError(f"expected {count} step sizes, got {arr.size}")
    values = arr.tolist()  # tested as a list: cheaper than ufuncs on a few values
    for v in values:
        if not v > 0:
            raise NonPositiveEpsilon(f"eps must be strictly positive, got {v}")
    if math.inf in values:
        raise GmlInputError("eps must be finite, got inf")
    return arr
