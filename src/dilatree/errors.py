"""Exception types shared across the package."""

import os

DEFAULT_MAX_BITS = 4096
_ENV_MAX_BITS = "DILATREE_MAX_BITS"


def max_bits_cap() -> int:
    """The one precision ceiling: DILATREE_MAX_BITS, else 4096 bits."""
    raw = os.environ.get(_ENV_MAX_BITS)
    if raw is None:
        return DEFAULT_MAX_BITS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_MAX_BITS} must be an integer, got {raw!r}") from exc
    if cap < 64:
        raise ValueError(f"{_ENV_MAX_BITS} must be at least 64, got {cap}")
    return cap


class DilatreeError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhausted(DilatreeError):
    """A certified comparison could not be resolved within the precision cap.

    Carries the context of the undecided comparison so callers can report
    which quantity straddled the boundary.
    """

    def __init__(self, message: str, *, bits: int | None = None, context=None):
        super().__init__(message)
        self.bits = bits
        self.context = context


class NoIntersection(DilatreeError):
    """Two circles do not intersect (disjoint or nested)."""


class SizeTooLarge(DilatreeError):
    """Input exceeds the exhaustive-enumeration size guard."""


class NotCrossing(DilatreeError):
    """The two designated tree edges do not properly cross."""


class NotApplicable(DilatreeError):
    """The local uncrossing exchange does not apply to this configuration."""


class Infeasible(DilatreeError):
    """Solver constraints admit no spanning structure."""


class SumTooLarge(DilatreeError):
    """Partition weights exceed the dynamic-programming size guard."""


class PrecisionInsufficient(DilatreeError):
    """Stored point precision is too coarse for the requested rounding."""
