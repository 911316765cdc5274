"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class.  Anything raised here derives from :class:`LoewnerError`, so
``except LoewnerError`` catches all domain failures while programming
errors (TypeError and friends) still propagate.
"""

from __future__ import annotations


class LoewnerError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(LoewnerError, ValueError):
    """Malformed or out-of-contract arguments (bad shapes, ranges, keys)."""


class NumericalFailureError(LoewnerError):
    """An iterative kernel failed to converge.

    Carries the iteration count reached when the failure was declared.
    """

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class HypothesisViolationError(LoewnerError):
    """A positivity or bunching hypothesis failed at a witness point."""

    def __init__(self, message: str, t: float | None = None,
                 quantity: str | None = None, value: float | None = None):
        super().__init__(message)
        self.t = t
        self.quantity = quantity
        self.value = value


class StiffnessError(LoewnerError):
    """The adaptive integrator drove the step size below its floor."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class EscapeError(LoewnerError):
    """A trajectory left the open unit ball (tripwire at radius 1 - 1e-9)."""

    def __init__(self, message: str, t: float | None = None, point=None):
        super().__init__(message)
        self.t = t
        self.point = point


class DegenerateTransitionError(LoewnerError):
    """The condition number of the accumulated product of transition
    factors (the chain's normalization) passed its cap of 1e12."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class HorizonExhaustedError(LoewnerError):
    """The cumulative mass never reached the requested level on the
    searchable time horizon, or an evaluation time lies past the last
    scheduled time."""


class ScheduleRejectedError(LoewnerError):
    """The derived parameters failed the contraction ordering mu**h < nu.

    ``failing_n`` is the worst step, the index n of the smallest
    per-step lower factor nu_n (the ``schedule`` command prints it as
    ``failing_step``); ``schedule`` holds the full rejected parameter
    set for reporting.
    """

    def __init__(self, message: str, failing_n: int | None = None,
                 schedule=None):
        super().__init__(message)
        self.failing_n = failing_n
        self.schedule = schedule


class FieldRejectedError(InvalidInputError):
    """Field construction-time validation failed; carries witnesses,
    each a JSON-ready {"z", "t", "value"} record of a failing sample."""

    def __init__(self, message: str, witnesses: list | None = None):
        super().__init__(message)
        self.witnesses = witnesses or []


class UnknownFamilyError(InvalidInputError):
    """Requested built-in family name does not exist."""


class ChainUnavailableError(LoewnerError):
    """Chain evaluation refused: the field requires degree >= 2 jet
    matching (its bunching constant ell is >= 2), but only linear
    (degree-1) matching automorphisms are implemented."""
