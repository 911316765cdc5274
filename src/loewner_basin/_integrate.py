"""Embedded adaptive Runge-Kutta core of the flow and transition matrices.

Implements the Dormand-Prince 8(5,3) pair DOP853 with FSAL stage reuse
and a PI (proportional-integral) step-size controller.  The local error
estimate combines the embedded 5th and 3rd order differences as
e5^2 / hypot(e5, e3 / 10) of their max-norms e5 and e3, formed without
squaring a raw error (the square of a tiny state's error underflows to
0 and would accept any step).  Acceptance uses local error per unit
step against the scale tol * max(|x|, |x8|), each row relative to its
own state before and after the step: there is no absolute floor, which
would stop resolving a decaying state (a flow leg, or a transition
factor's entries) once it fell below the floor.  The caller must
guarantee that a nonzero row never vanishes.

Axis 0 of the state holds independent rows, all stepped by one call,
and each row has its own time span (a scalar span is shared by all).
Each row keeps its own time, segment, step size, PI memory and step
budget, so it takes exactly the steps, and gets exactly the bits, it
would get alone.  Stage sums are ``np.einsum("k,knd->nd", weights,
stages)`` over one (13, n, d) stage array, which adds the stages in
tableau order entry by entry (a BLAS product would not), and the PI
factors are Python floats (a vectorized power rounds differently).
Steps never straddle a declared breakpoint: a row's span is cut at the
breakpoints strictly inside it, and each smooth segment starts with a
fresh first stage and the initial step guess, since the right hand side
may jump there; only a row's first segment may take the caller's first
step instead (a leg resuming where the row's last leg stopped).  The PI
memory and the step budget carry over.  Rows leave the block when they
reach the end of their span.  Past ``_MAX_STEPS``
accepted plus rejected steps a row raises NumericalFailureError naming
its span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EscapeError, InvalidInputError, NumericalFailureError,
                     StiffnessError)

# Dormand-Prince 8(5,3) tableau (DOP853; Hairer, Norsett & Wanner,
# Solving ODEs I, II.10), strictly lower triangular: 12 stages plus FSAL.
# Row 12 holds the 8th order weights, so the argument of the last stage
# is the candidate solution and its derivative is the next first stage.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0])
_A = np.zeros((13, 13))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2,
             5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0,
             8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0.0,
             -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
             1.70828608729473871279604482173e-1,
             1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
             1.70383925712239993810214054705e-1,
             1.07262030446373284651809199168e-1,
             -1.53194377486244017527936158236e-2,
             8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
             -3.36089262944694129406857109825,
             -8.68219346841726006818189891453e-1,
             2.75920996994467083049415600797e1,
             2.01540675504778934086186788979e1,
             -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
             -2.48811461997166764192642586468,
             -5.90290826836842996371446475743e-1,
             2.12300514481811942347288949897e1,
             1.52792336328824235832596922938e1,
             -3.32882109689848629194453265587e1,
             -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
               5.18637242884406370830023853209,
               1.09143734899672957818500254654,
               -8.14978701074692612513997267357,
               -1.85200656599969598641566180701e1,
               2.27394870993505042818970056734e1,
               2.49360555267965238987089396762,
               -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
               -1.05344954667372501984066689879e1,
               -2.00087205822486249909675718444,
               -1.79589318631187989172765950534e1,
               2.79488845294199600508499808837e1,
               -2.85899827713502369474065508674,
               -8.87285693353062954433549289258,
               1.23605671757943030647266201528e1,
               6.43392746015763530355970484046e-1]
_A[12, :12] = [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
               4.45031289275240888144113950566,
               1.89151789931450038304281599044,
               -5.8012039600105847814672114227,
               3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1,
               2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2]
# Differences between the 8th order weights and embedded 5th and 3rd
# order ones (the two error estimators; the FSAL stage has weight 0).
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0])
_E3 = _A[12] - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1, 0.0])

_GUESS_GUARD = 1e-14  # keeps the initial step guess finite at 0
_SAFETY = 0.9
_ALPHA = 0.7 / 8.0   # PI exponent on the current error ratio
_BETA = 0.4 / 8.0    # PI exponent on the previous error ratio
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
    """Counters accumulated over one integration call and all its rows,
    and each row's next step (NaN for an empty span and no first step)."""

    steps_taken: int = 0
    steps_rejected: int = 0
    max_local_error: float = 0.0
    rhs_evaluations: int = 0
    next_step: np.ndarray | None = None


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
                       on_step=None, first_step=None
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
        Local error per unit step tolerance, relative to each row's
        max-norm; a nonzero row must never vanish.
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
    first_step : float or 1-D array, optional
        Finite first trial steps > 0, shared or one per row, replacing
        the initial guess on each row's first segment, clipped to it and
        error-controlled.  A leg continuing from t_i passes the last
        leg's ``stats.next_step``: each row's last step proposal before
        it was clipped to land on t_i.

    Returns
    -------
    (y, stats) : ndarray of y0's shape, StepStats
    """
    y = np.array(y0, dtype=complex, ndmin=1)
    shape, n = y.shape, len(y)
    s, t = _check_spans(s, t, n)
    tol = check_tol(tol)
    h0 = first_step if first_step is None else np.asarray(first_step, float)
    if h0 is not None and (h0.ndim and h0.shape != (n,)
                           or not np.all(np.isfinite(h0) & (h0 > 0.0))):
        raise InvalidInputError(f"bad first step {first_step!r} ({n} rows)")
    Y = y.reshape(n, math.prod(shape[1:]))  # a view of the result rows
    stats = StepStats()
    taken, rejected = np.zeros((2, n), dtype=int)  # steps per row
    prev = np.full(n, 1e-4)  # PI controller memory: last accepted error ratio
    want = np.full(n, math.nan if h0 is None else h0)  # unclipped steps
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
    K = np.empty((13,) + x.shape, dtype=complex)  # the stage derivatives

    def start(i):
        """Begin a smooth segment at tau for the rows i: a fresh first
        stage (the right-hand side may jump at a breakpoint) and the
        initial step guess, or on a first segment the given first step."""
        # Clamp stage times one ulp inside the segment so the right-hand
        # side is never sampled on the far side of a declared breakpoint
        # (stage abscissae can land exactly on, or round past, an end).
        a, bi = tau[i], b[i]
        lo[i], hi[i] = np.nextafter(a, bi), np.nextafter(bi, a)
        end[i] = 1e-15 * np.maximum(1.0, np.abs(bi))
        K[0, i] = f(np.minimum(np.maximum(a, lo[i]), hi[i]), x[i])
        d0, d1 = np.abs(x[i]).max(axis=1), np.abs(K[0, i]).max(axis=1)
        h[i] = np.maximum(np.fmin(bi - a, 1e-2 * (d0 + _GUESS_GUARD)
                                  / (d1 + _GUESS_GUARD)), 1e-10 * (bi - a))
        if h0 is not None:  # no row has stepped yet: want holds h0
            h[i] = np.where(a == s[rows[i]], want[rows[i]], h[i])

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
        want[rows] = h
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
        # The last stage argument is the 8th order candidate (FSAL).
        for i in range(1, 13):
            x8 = x + hh * np.einsum("k,knd->nd", _A[i, :i], K[:i])
            K[i] = f(T[i], x8)
        e5, e3 = (np.abs(hh * np.einsum("k,knd->nd", E, K)).max(axis=1)
                  for E in (_E5, _E3))
        # The combined estimate e5^2 / hypot(e5, e3 / 10), written so
        # that no raw error is squared: a square underflows to 0 on
        # states below about 1e-162, which would accept every step.
        den = np.hypot(e5, 0.1 * e3)
        est = e5 * np.divide(e5, den, where=den > 0.0, out=np.zeros(len(e5)))
        x8_max = np.abs(x8).max(axis=1)
        finite = np.isfinite(est) & np.isfinite(e3) & np.isfinite(x8_max)
        if not finite.all():
            k = int(np.argmin(finite))
            raise NumericalFailureError(
                f"non-finite step at t = {float(tau[k])!r} on "
                f"{_span(s, t, rows[k])}", iterations=int(taken[rows[k]]))
        scale = tol * np.maximum(np.abs(x).max(axis=1), x8_max)
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
        x[acc] = x8[acc]
        K[0, acc] = K[12, acc]
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
    stats.next_step = want
    return y, stats
