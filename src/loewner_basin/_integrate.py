"""Embedded adaptive Runge-Kutta core of the flow and transition matrices.

Implements the Dormand-Prince 4(5) pair with FSAL stage reuse and a PI
(proportional-integral) step-size controller.  Acceptance uses local
error per unit step against the scale atol + tol * |row|.  Flow legs pass
atol = 0, pure relative control (see ``loewner_basin.flow``); the
default absolute floor of 1e-14 now serves only transition matrices.

Axis 0 of the state holds independent rows, all stepped by one call,
and each row has its own time span (a scalar span is shared by all).
Each row keeps its own time, segment, step size, PI memory and step
budget, so it takes exactly the steps, and gets exactly the bits, it
would get alone.  Stage sums are ``np.einsum("k,knd->nd", weights,
stages)`` over one (7, n, d) stage array, which adds the stages in
tableau order entry by entry (a BLAS product would not), and the PI
factors are Python floats (a vectorized power rounds differently).
Steps never straddle a declared breakpoint: a row's span is cut at the
breakpoints strictly inside it, and each smooth segment starts with a
fresh first stage and initial step, since the right hand side may jump
there; the PI memory and the step budget carry over.  Rows leave the
block when they reach the end of their span.  Past ``_MAX_STEPS``
accepted plus rejected steps a row raises NumericalFailureError naming
its span.
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
    """Counters accumulated over one integration call and all its rows."""

    steps_taken: int = 0
    steps_rejected: int = 0
    max_local_error: float = 0.0
    rhs_evaluations: int = 0


def _check_spans(s, t, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The time spans of n rows as two float arrays of length n.  Each of
    s and t is a scalar shared by every row or one entry per row; every
    span must be finite with s_i <= t_i."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if any(v.ndim and v.shape != (n,) for v in (s, t)):
        raise InvalidInputError(
            f"time spans need a scalar or one entry per row ({n}), got "
            f"shapes {s.shape} and {t.shape}")
    s, t = np.broadcast_arrays(s, t)
    bad = np.flatnonzero(~(np.isfinite(s) & np.isfinite(t) & (s <= t)))
    if bad.size:
        k = bad[0]
        raise InvalidInputError(
            f"bad time span [{float(s.flat[k])}, {float(t.flat[k])}]")
    return np.broadcast_to(s, (n,)), np.broadcast_to(t, (n,))


def _span(s: np.ndarray, t: np.ndarray, row: int) -> str:
    """Row ``row``'s time span, for error messages."""
    return f"[{float(s[row])!r}, {float(t[row])!r}]"


# An overflow in the right-hand side or a stage sum shows up as a
# non-finite error estimate or state, which raises NumericalFailureError,
# and a state underflowing to 0 gets an infinite error ratio, which
# rejects the step, so numpy's warnings about them are silenced.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_adaptive(rhs, s, t, y0: np.ndarray, tol: float,
                       *, breakpoints=(), escape_radius: float | None = None,
                       on_step=None, atol: float | None = None
                       ) -> tuple[np.ndarray, StepStats]:
    """Integrate y' = rhs(tau, y) over [s_i, t_i] for every row i of y0.

    Parameters
    ----------
    rhs : callable(tau, Y) -> ndarray
        Right hand side for the live rows Y, shape (k, ...), with one time
        per row in tau; row i of the result may use only Y[i] and tau[i].
    s, t : float or 1-D array
        Time spans, s_i <= t_i: a scalar is shared by every row, an array
        holds one entry per row.
    y0 : ndarray
        Initial states, shape (n, ...); axis 0 indexes independent rows.
    tol : float
        Local error per unit step tolerance (relative part; the absolute
        floor is ``atol``).
    breakpoints : iterable of float
        Times the stepper must not straddle; each row's span is cut at
        the ones strictly inside it.
    escape_radius : float, optional
        If given, raise EscapeError, with the row's time and state, once
        the 2-norm of a row reaches this radius after an accepted step.
    on_step : callable(rows, tau, y), optional
        Called after every accepted step (not at the initial points) with
        the indices of the rows that accepted it, their times and their
        states (shape (k,) + y0.shape[1:]).
    atol : float, optional
        Absolute error floor, default 1e-14 (transition matrices).  0.0
        gives pure relative control, which the flow uses: there the
        caller must guarantee that a nonzero state never vanishes.

    Returns
    -------
    (y, stats) : ndarray of y0's shape, StepStats
    """
    y = np.array(y0, dtype=complex, ndmin=1)
    shape, n = y.shape, len(y)
    s, t = _check_spans(s, t, n)
    tol = check_tol(tol)
    if atol is None:
        atol = ATOL_FLOOR
    elif not 0.0 <= atol <= 1e-2:
        raise InvalidInputError(f"atol {atol} outside [0, 1e-2]")
    Y = y.reshape(n, math.prod(shape[1:]))  # a view of the result rows
    stats = StepStats()
    taken, rejected = np.zeros((2, n), dtype=int)  # steps per row
    prev = np.full(n, 1e-4)  # PI controller memory: last accepted error ratio
    knots = np.append(np.unique([b for b in map(float, breakpoints)
                                 if math.isfinite(b)]), math.inf)
    floor = _HMIN_REL * np.abs([s, t]).max(initial=1.0)  # >= each row's floor

    def f(times, states):
        stats.rhs_evaluations += len(states)
        return np.asarray(rhs(times, states.reshape((-1,) + shape[1:])),
                          dtype=complex).reshape(states.shape)

    # The live rows, each inside its current smooth segment [tau, b].
    # Each starts at the end of the empty segment [s_i, s_i], so the
    # first pass begins its first segment, or retires it if s_i = t_i.
    rows, x, tau, b = np.arange(n), Y.copy(), s.copy(), s.copy()
    h, lo, hi, end = np.zeros((4, n))
    K = np.empty((7,) + x.shape, dtype=complex)  # the stage derivatives

    def start(i):
        """Begin a smooth segment at tau for the rows i: a fresh first
        stage (the right-hand side may jump at a breakpoint) and an
        initial step from the magnitude/velocity ratio."""
        # Clamp stage times one ulp inside the segment so the right-hand
        # side is never sampled on the far side of a declared breakpoint
        # (stage abscissae can land exactly on, or round past, an end).
        a, bi = tau[i], b[i]
        lo[i], hi[i] = np.nextafter(a, bi), np.nextafter(bi, a)
        end[i] = 1e-15 * np.maximum(1.0, np.abs(bi))
        K[0, i] = f(np.minimum(np.maximum(a, lo[i]), hi[i]), x[i])
        d0, d1 = np.abs(x[i]).max(axis=1), np.abs(K[0, i]).max(axis=1)
        h[i] = np.maximum(np.fmin(bi - a, 1e-2 * (d0 + ATOL_FLOOR)
                                  / (d1 + ATOL_FLOOR)), 1e-10 * (bi - a))

    while rows.size:
        if (stop := b - tau <= end).any():
            # Retire the rows at the end of their span; the others go on
            # to their next segment, up to the next breakpoint or t_i.
            tau[stop] = b[stop]
            if (fin := stop & (b == t[rows])).any():
                Y[rows[fin]] = x[fin]
                keep = ~fin
                rows, x, tau, h, b, lo, hi, end, stop = (
                    v[keep] for v in (rows, x, tau, h, b, lo, hi, end, stop))
                K = K[:, keep]
            if stop.any():
                b[stop] = np.minimum(knots[np.searchsorted(
                    knots, tau[stop], side="right")], t[rows[stop]])
                start(stop)
            continue
        remaining = b - tau
        h = np.minimum(h, remaining)
        spent = taken[rows] + rejected[rows]
        if spent.max() >= _MAX_STEPS:
            k = int(np.argmax(spent))
            raise NumericalFailureError(
                f"step budget of {_MAX_STEPS} steps exhausted at "
                f"t = {float(tau[k])!r} on {_span(s, t, rows[k])}",
                iterations=int(spent[k]))
        # Underflow means the controller ground the step below the
        # floor; a final step clamped to a sub-floor remainder is fine.
        if h.min() < floor and (under := (h < remaining) & (
                h < _HMIN_REL * np.maximum(1.0, np.abs(tau)))).any():
            k = int(np.argmax(under))
            raise StiffnessError(
                "step size underflow (stiff or non-smooth field?) on "
                + _span(s, t, rows[k]),
                diagnostics={"t": float(tau[k]), "h": float(h[k]),
                             "steps_taken": int(taken[rows[k]]),
                             "steps_rejected": int(rejected[rows[k]])})
        T = np.minimum(np.maximum(tau + _C[:, None] * h, lo), hi)
        hh = h[:, None]
        # The last stage argument is the 5th order candidate (FSAL).
        for i in range(1, 7):
            x5 = x + hh * np.einsum("k,knd->nd", _A[i, :i], K[:i])
            K[i] = f(T[i], x5)
        est = np.abs(hh * np.einsum("k,knd->nd", _E, K)).max(axis=1)
        x5_max = np.abs(x5).max(axis=1)
        finite = np.isfinite(est) & np.isfinite(x5_max)
        if not finite.all():
            k = int(np.argmin(finite))
            raise NumericalFailureError(
                f"non-finite step at t = {float(tau[k])!r} on "
                f"{_span(s, t, rows[k])}", iterations=int(taken[rows[k]]))
        scale = atol + tol * np.maximum(np.abs(x).max(axis=1), x5_max)
        ratio = np.maximum(np.divide(est, h * scale, where=est > 0.0,
                                     out=np.zeros(len(est))), 1e-16)
        rej = ratio > 1.0
        acc = slice(None)  # no masks unless some row rejects
        if rej.any():
            rejected[rows[rej]] += 1
            h[rej] *= [min(1.0, max(0.1, _SAFETY * r ** -_ALPHA))
                       for r in ratio[rej].tolist()]
            if rej.all():
                continue
            acc = ~rej
        t_next = tau[acc] + h[acc]
        tau[acc] = np.where(b[acc] - t_next <= end[acc], b[acc], t_next)
        x[acc] = x5[acc]
        K[0, acc] = K[6, acc]
        taken[rows[acc]] += 1
        stats.max_local_error = max(stats.max_local_error,
                                    float(est[acc].max()))
        if escape_radius is not None:
            hit = (np.linalg.norm(x, axis=1) >= escape_radius) & ~rej
            if hit.any():
                k = int(np.argmax(hit))
                raise EscapeError(
                    "trajectory reached the unit sphere tripwire",
                    t=float(tau[k]), point=x[k].reshape(shape[1:]).copy())
        if on_step is not None:
            on_step(rows[acc], tau[acc].copy(),
                    x[acc].reshape((-1,) + shape[1:]).copy())
        h[acc] *= [min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * r ** -_ALPHA
                                        * q ** _BETA))
                   for r, q in zip(ratio[acc].tolist(),
                                   prev[rows[acc]].tolist())]
        prev[rows[acc]] = ratio[acc]
    stats.steps_taken = int(taken.sum())
    stats.steps_rejected = int(rejected.sum())
    return y, stats
