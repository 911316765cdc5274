"""Embedded adaptive Runge-Kutta core shared by flow and jet transport.

Implements the Dormand-Prince 4(5) pair with FSAL stage reuse and a PI
(proportional-integral) step-size controller.  Acceptance uses local
error per unit step against a mixed absolute/relative scale with an
absolute floor of 1e-14, so trajectories that collapse toward 0 keep
integrating instead of chasing a vanishing relative scale.

The state is a flat complex ndarray of size n; callers flatten matrices
or jet tensors as needed.  The seven stage derivatives live in one
preallocated (7, n) array, and every stage argument, the 5th order
candidate and the error vector are formed from it by
``np.einsum("k,kn->n", weights, stages)``, which sums the stages in
tableau order (a BLAS product would not fix that order).  Steps never
straddle a declared breakpoint: the requested span is split at interior
breakpoints and each smooth segment starts with a fresh first stage,
since the right hand side may jump there.  Each call may spend at most
``_MAX_STEPS`` accepted plus rejected steps; past that budget it raises
NumericalFailureError.

Everything here is deterministic: for a fixed right hand side, span and
tolerance the accepted step sequence, and therefore the result, is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EscapeError, InvalidInputError, NumericalFailureError,
                     StiffnessError)

# Dormand-Prince 5(4) tableau, strictly lower triangular.  Row 6 holds
# the 5th order weights, so the argument of the last stage is the
# candidate solution and its derivative is the next first stage (FSAL).
_C = np.array([0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, :1] = [1.0 / 5.0]
_A[2, :2] = [3.0 / 40.0, 9.0 / 40.0]
_A[3, :3] = [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]
_A[4, :4] = [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
             -212.0 / 729.0]
_A[5, :5] = [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
             -5103.0 / 18656.0]
_A[6, :6] = [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
             -2187.0 / 6784.0, 11.0 / 84.0]
# Difference between the 5th and 4th order weights (error estimator).
_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])

ATOL_FLOOR = 1e-14
_SAFETY = 0.9
_ALPHA = 0.7 / 5.0   # PI exponent on the current error ratio
_BETA = 0.4 / 5.0    # PI exponent on the previous error ratio
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_HMIN_REL = 1e-14    # step floor relative to max(1, |tau|)
_MAX_STEPS = 100_000  # accepted plus rejected steps per integration call


def check_tol(tol: float, name: str = "tolerance") -> float:
    """Return ``tol`` as a float if it lies in [1e-14, 1e-2], the range
    every integrator, quadrature and CLI tolerance shares."""
    tol = float(tol)
    if not 1e-14 <= tol <= 1e-2:
        raise InvalidInputError(f"{name} {tol} outside [1e-14, 1e-2]")
    return tol


@dataclass
class StepStats:
    """Counters accumulated over one integration call."""

    steps_taken: int = 0
    steps_rejected: int = 0
    max_local_error: float = 0.0
    rhs_evaluations: int = 0

    def merge(self, other: "StepStats") -> None:
        self.steps_taken += other.steps_taken
        self.steps_rejected += other.steps_rejected
        self.max_local_error = max(self.max_local_error, other.max_local_error)
        self.rhs_evaluations += other.rhs_evaluations


def _split_segments(s: float, t: float, breakpoints) -> list[tuple[float, float]]:
    """[s, t] cut at the breakpoints strictly inside it, as (a, b) pairs."""
    knots = [s, *sorted({float(b) for b in breakpoints if s < float(b) < t}), t]
    return list(zip(knots[:-1], knots[1:]))


def integrate_adaptive(rhs, s: float, t: float, y0: np.ndarray, tol: float,
                       *, breakpoints=(), escape_radius: float | None = None,
                       on_step=None, atol: float | None = None
                       ) -> tuple[np.ndarray, StepStats]:
    """Integrate y' = rhs(tau, y) from s to t (s <= t).

    Parameters
    ----------
    rhs : callable(tau, y) -> ndarray
        Right hand side; must return an array of y's shape.
    s, t : float
        Time span, s <= t.
    y0 : ndarray
        Initial state (complex, any shape; flattened internally).
    tol : float
        Local error per unit step tolerance (relative part; the absolute
        floor is ``atol``).
    breakpoints : iterable of float
        Interior times the stepper must not straddle.
    escape_radius : float, optional
        If given, raise EscapeError when the 2-norm of the state reaches
        this radius after an accepted step.
    on_step : callable(tau, y), optional
        Invoked after every accepted step (not at the initial point).
    atol : float, optional
        Absolute error floor, default 1e-14.  Pass 0.0 for pure
        relative control when the state decays exponentially but must
        stay accurate relative to its own magnitude (an absolute floor
        turns into unbounded relative error as the state shrinks); the
        caller must then guarantee the state never vanishes.

    Returns
    -------
    (y, stats) : ndarray, StepStats
    """
    if not np.isfinite(s) or not np.isfinite(t) or t < s:
        raise InvalidInputError(f"bad time span [{s}, {t}]")
    tol = check_tol(tol)
    if atol is None:
        atol = ATOL_FLOOR
    elif not 0.0 <= atol <= 1e-2:
        raise InvalidInputError(f"atol {atol} outside [0, 1e-2]")
    y = np.array(y0, dtype=complex)
    shape = y.shape
    y = y.ravel()
    stats = StepStats()
    K = np.empty((7, y.size), dtype=complex)  # the seven stage derivatives
    prev_ratio = 1e-4  # PI controller memory: last accepted error ratio
    for (a, b) in _split_segments(s, t, breakpoints):
        if b <= a:
            continue
        # Clamp stage times one ulp inside the segment so the right-hand
        # side is never sampled on the far side of a declared breakpoint
        # (stage abscissae can land exactly on, or round past, an end).
        a_in = np.nextafter(a, b)
        b_in = np.nextafter(b, a)

        def f(time, state):
            stats.rhs_evaluations += 1
            time = min(max(time, a_in), b_in)
            return np.asarray(rhs(time, state.reshape(shape)),
                              dtype=complex).ravel()

        tau = a
        # A fresh first stage per segment: the right-hand side may jump
        # at a breakpoint.  Initial step from the magnitude/velocity ratio.
        K[0] = f(tau, y)
        d0 = float(np.abs(y).max())
        d1 = float(np.abs(K[0]).max())
        h = min(b - a, 1e-2 * (d0 + ATOL_FLOOR) / (d1 + ATOL_FLOOR))
        h = max(h, 1e-10 * (b - a))
        while (remaining := b - tau) > 1e-15 * max(1.0, abs(b)):
            h = min(h, remaining)
            attempts = stats.steps_taken + stats.steps_rejected
            if attempts >= _MAX_STEPS:
                raise NumericalFailureError(
                    f"step budget of {_MAX_STEPS} steps exhausted at "
                    f"t = {tau!r} on [{s!r}, {t!r}]", iterations=attempts)
            # Underflow means the controller ground the step below the
            # floor; a final step clamped to a sub-floor remainder is fine.
            if h < _HMIN_REL * max(1.0, abs(tau)) and h < remaining:
                raise StiffnessError(
                    "step size underflow (stiff or non-smooth field?)",
                    diagnostics={"t": tau, "h": h,
                                 "steps_taken": stats.steps_taken,
                                 "steps_rejected": stats.steps_rejected})
            # The last stage argument is the 5th order candidate (FSAL).
            for i in range(1, 7):
                y5 = y + h * np.einsum("k,kn->n", _A[i, :i], K[:i])
                K[i] = f(tau + _C[i] * h, y5)
            est = float(np.abs(h * np.einsum("k,kn->n", _E, K)).max())
            y5_max = float(np.abs(y5).max())
            if not (math.isfinite(est) and math.isfinite(y5_max)):
                raise NumericalFailureError(f"non-finite step at t = {tau!r}",
                                            iterations=stats.steps_taken)
            scale = atol + tol * max(float(np.abs(y).max()), y5_max)
            ratio = max(est / (h * scale) if est > 0.0 else 0.0, 1e-16)
            if ratio > 1.0:
                stats.steps_rejected += 1
                h *= min(1.0, max(0.1, _SAFETY * ratio ** -_ALPHA))
                continue
            tau = b if (b - (tau + h)) <= 1e-15 * max(1.0, abs(b)) else tau + h
            y = y5
            K[0] = K[6]
            stats.steps_taken += 1
            stats.max_local_error = max(stats.max_local_error, est)
            if escape_radius is not None and (
                    float(np.linalg.norm(y)) >= escape_radius):
                raise EscapeError("trajectory reached the unit sphere tripwire",
                                  t=tau, point=y.reshape(shape).copy())
            if on_step is not None:
                on_step(tau, y.reshape(shape).copy())
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * ratio ** -_ALPHA
                                      * prev_ratio ** _BETA))
            prev_ratio = ratio
    return y.reshape(shape), stats
