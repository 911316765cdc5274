"""Unit-mass discretization of the time axis and its contraction budget.

Let m(t) <= k(t) be the Hermitian-part eigenvalue bounds of the linear
part A(t), both positive, with running integrals M and K.  The
discretization places times u_0 = 0 < u_1 < u_2 < ... by unit mass:

    M(u_n) = n,

so every step contracts the modulus by at least exp(-c(r0)) for states
of modulus r0 (upper decay bound), while the lower decay bound keeps
each step's contraction above exp(-C(r0) * (K(u_{n+1}) - K(u_n))).

The working radius balances the two.  With ell >= sup k/m and h the
least integer strictly greater than ell, choose r so that

    C(r)^2 = (1 + h / ell) / 2,    C(r) = (1 + r)/(1 - r),

i.e. r = (sqrt(target) - 1) / (sqrt(target) + 1).  Writing
mu = exp(-c(r)) for the guaranteed per-step decay on |z| <= r and
nu_n = exp(-C(r) * (K(u_{n+1}) - K(u_n))) for the worst admissible
single-step decay, the schedule is accepted when

    mu ** h < min_n nu_n,

which is exactly what the inverse-transition chain construction needs:
h consecutive guaranteed contractions beat one worst-case step, making
successive approximants a geometric Cauchy sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (HorizonExhaustedError, InvalidInputError,
                     NumericalFailureError, ScheduleRejectedError)
from .fields import C_of, SamplePlan, c_of, check_real
from .flow import decay_bounds_check
from .linear import LinearPath, ell_estimate

_MAX_ROOT_ITERS = 200
#: latest time at which compute_times may place a unit-mass time
_MAX_TIME = 1e6
#: uniform grid points on [0, u_N] over which build_schedule measures ell
_ELL_GRID = 4097


@dataclass(frozen=True)
class Schedule:
    """A unit-mass discretization with its contraction budget.

    Attributes
    ----------
    u : tuple of float
        The times u_0 = 0, u_1, ..., u_N with M(u_n) = n.
    ell : float
        The mass-ratio bound sup k/m used to pick the radius.
    ell_source : str
        'user' when supplied, 'grid-estimate' when measured.
    h : int
        Least integer strictly greater than ell.
    r : float
        Working radius, C(r)^2 = (1 + h/ell) / 2.
    mu : float
        Guaranteed per-step decay factor exp(-c(r)) on |z| <= r.
    nu : float
        Worst admissible per-step decay, min of nu_per_step.
    nu_per_step : tuple of float
        exp(-C(r) * (K(u_{n+1}) - K(u_n))) for each step.
    horizon_N : int
        Number of steps (len(u) - 1).
    accepted : bool
        Whether mu ** h < nu holds strictly.
    """

    u: tuple
    ell: float
    ell_source: str
    h: int
    r: float
    mu: float
    nu: float
    nu_per_step: tuple
    horizon_N: int
    accepted: bool

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "h": self.h,
            "r": self.r,
            "mu": self.mu,
            "nu": self.nu,
            "horizon_N": self.horizon_N,
            "u": list(self.u),
            "nu_per_step": list(self.nu_per_step),
            "accepted": self.accepted,
        }


def compute_times(path: LinearPath, N: int) -> tuple:
    """Solve M(u_n) = n for n = 0..N.

    Brackets each time by doubling past the previous one, then closes
    in with a bisection-guarded secant until |M(u) - n| <= tol, the
    path's ``quad_tol`` (M is known no better than its quadrature), or
    the bracket collapses to relative width 1e-15.  Each query
    integrates from the bracket's lower end, whose residual M - n is
    carried.  Raises HorizonExhaustedError when the mass M cannot reach
    N before t = 1e6 (the field stops contracting too early), and
    NumericalFailureError when 200 iterations leave a time unconverged.
    """
    if N < 1:
        raise InvalidInputError(f"horizon N must be >= 1, got {N}")
    tol = path.quad_tol
    us = [0.0]
    f_u = 0.0  # M(u) - n at u = us[-1], for the n just placed
    for n in range(1, N + 1):
        start = lo = us[-1]
        flo = f_u - 1.0
        step = max(1.0, (us[-1] - us[-2]) if n >= 2 else 1.0)
        hi = start + step
        fhi = flo + path.masses(lo, hi)[0]
        while fhi < -tol:
            lo, flo = hi, fhi
            step *= 2.0
            hi = start + step
            if hi > _MAX_TIME:
                reached = n + flo + path.masses(lo, _MAX_TIME)[0]
                raise HorizonExhaustedError(
                    f"mass integral reaches only {reached:.6g} < {n} before "
                    f"t = {_MAX_TIME:g}; cannot place time u_{n}")
            fhi = flo + path.masses(lo, hi)[0]
        u, f_u = hi, fhi
        for _ in range(_MAX_ROOT_ITERS):
            if abs(f_u) <= tol:
                break
            if f_u < 0.0:
                lo, flo = u, f_u
            else:
                hi, fhi = u, f_u
            if hi - lo <= 1e-15 * max(1.0, hi):
                u = 0.5 * (lo + hi)
                f_u = flo + path.masses(lo, u)[0]
                break
            u = hi - fhi * (hi - lo) / (fhi - flo)
            # keep the secant candidate only if it lands well inside
            width = hi - lo
            if not (lo + 0.01 * width <= u <= hi - 0.01 * width):
                u = 0.5 * (lo + hi)
            f_u = flo + path.masses(lo, u)[0]
        else:
            if abs(f_u) > tol:
                raise NumericalFailureError(
                    f"unit-mass time u_{n} not found in {_MAX_ROOT_ITERS} "
                    f"iterations: |M(u) - {n}| = {abs(f_u):.3g} > {tol:g}",
                    iterations=_MAX_ROOT_ITERS)
        us.append(float(u))
    return tuple(us)


def _least_integer_above(x: float) -> int:
    # floor(x) + 1 > x for every float x, and no smaller integer is
    return int(math.floor(x)) + 1


def radius_for(ell: float, h: int) -> float:
    """Working radius from C(r)^2 = (1 + h/ell) / 2."""
    target = (1.0 + h / ell) / 2.0
    if target <= 1.0:
        raise InvalidInputError(
            f"contraction target {target} <= 1 (need h > ell)")
    root = math.sqrt(target)
    return (root - 1.0) / (root + 1.0)


def build_schedule(path: LinearPath, N: int = 30, ell: float | None = None,
                   *, strict: bool = True) -> Schedule:
    """Compute the unit-mass times and the contraction budget.

    Unit-mass times come from ``compute_times``, to the path's
    ``quad_tol``, and must fall before t = 1e6.  When ``ell`` is None it
    is measured as max k/m over a uniform grid of 4097 points on
    [0, u_N] merged with the declared breakpoints.  With ``strict``
    (default) a schedule whose budget fails mu**h < nu raises
    ScheduleRejectedError carrying the failing step and the full
    schedule; otherwise it is returned with ``accepted=False``.
    """
    u = compute_times(path, N)
    if ell is None:
        grid = np.union1d(np.linspace(0.0, u[-1], _ELL_GRID),
                          [b for b in path.breakpoints if 0.0 <= b <= u[-1]])
        ell_value = float(ell_estimate(path, grid))
        ell_source = "grid-estimate"
    else:
        ell_value = check_real(ell, "ell")
        if ell_value < 1.0:
            raise InvalidInputError(
                f"ell must be >= 1 (it bounds sup k/m and k >= m), got {ell_value}")
        ell_source = "user"
    h = _least_integer_above(ell_value)
    r = radius_for(ell_value, h)
    mu = math.exp(-c_of(r))
    Cr = C_of(r)
    nu_per_step = tuple(math.exp(-Cr * path.masses(u[n], u[n + 1])[1])
                        for n in range(N))
    nu = min(nu_per_step)
    accepted = mu ** h < nu
    sched = Schedule(u=u, ell=ell_value, ell_source=ell_source, h=h, r=r,
                     mu=mu, nu=nu, nu_per_step=nu_per_step, horizon_N=N,
                     accepted=accepted)
    if strict and not accepted:
        failing = int(np.argmin(nu_per_step))
        raise ScheduleRejectedError(
            f"contraction budget fails: mu**h = {mu ** h:.6g} >= "
            f"nu = {nu:.6g} (worst step {failing})",
            failing_n=failing, schedule=sched)
    return sched


def log_ratio_check(path: LinearPath, schedule: Schedule) -> float:
    """Largest per-step mass-ratio excess max_n (K(u_{n+1}) - K(u_n))
    - ell * (M(u_{n+1}) - M(u_n)).

    Nonpositive (up to quadrature error) exactly when ell really
    bounds k/m along the schedule, which is what makes every
    nu_n >= exp(-C(r) * ell).
    """
    u = schedule.u
    worst = -math.inf
    for n in range(schedule.horizon_N):
        dM, dK = path.masses(u[n], u[n + 1])
        worst = max(worst, dK - schedule.ell * dM)
    return float(worst)


def contraction_check(field, schedule: Schedule, *, seed: int = 0,
                      tol: float = 1e-10) -> dict:
    """``decay_bounds_check`` on the first min(6, N) schedule steps for 8
    shell states of modulus r: with r0 = r its bounds on [u_n, u_{n+1}]
    are nu_n and mu (every step has unit mass M), so it checks each step
    ratio |phi(z)| / |z| against [nu_n, mu].  The field's linear part
    must be the path the schedule was built from."""
    shell = SamplePlan(radii=(schedule.r,), directions=8, seed=seed)
    return decay_bounds_check(field, zip(schedule.u, schedule.u[1:7]),
                              shell.states(field.dim), tol)
