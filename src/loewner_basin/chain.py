"""The normalized limit maps f_t built from the contracting evolution.

Fix an accepted unit-mass schedule u_0 = 0 < u_1 < ... < u_N and let
Lam_m be the derivative at the origin of the one-step evolution
phi_{u_m, u_{m+1}} (a transition matrix of J' = -A(tau) J).  The
normalized approximants of the limit map at time t are

    g_m(t, z) = (Lam_0^-1 Lam_1^-1 ... Lam_{m-1}^-1) phi_{t, u_m}(z),

inverse factors applied by linear solves, never by forming inverses.
Successive increments g_{m+1} - g_m shrink geometrically: once the
evolved state has modulus <= r (the schedule's working radius, and the
decay bounds force that after a burn-in), each step multiplies the
increment by at most mu^2 / nu < 1, because the next evolution step is
quadratically close to its own linearization on |w| <= r (error
~ |w|^2 <= (mu^m r)^2) while the accumulated normalization grows only
like 1/nu per step.  The acceptance inequality mu^h < nu with h = 2 is
exactly summability of that bound, so the approximants are a Cauchy
sequence and ``eval_many`` returns their limit.  It is the one
evaluation loop: all states march u_m0 -> u_m0+1 -> ... together under
one accumulated product, and ``eval`` is its one-state case.

Budgets with h >= 3 (mass ratio ell >= 2) would need the approximants
normalized by higher-degree polynomial jets of the step maps, not just
the linear factors; that construction is not implemented and such
schedules are refused with ChainUnavailableError.

The family f_t(z) = lim_m g_m(t, z) satisfies f_s = f_t o phi_{s,t}
(checked by ``identity_residual``) and the transport equation
d/dt f_t(z) = (Df_t(z)) h(z, t) (checked by ``pde_residual``), and its
images form an increasing family of domains as t grows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._integrate import check_tol
from .errors import (ChainUnavailableError, HorizonExhaustedError,
                     InvalidInputError)
from .fields import FieldSpec, SamplePlan
from .flow import _check_points, _check_times, _evolve_one
from .linear import InverseTransitionProduct, transition_matrix
from .schedule import Schedule

#: increments below floor * (1 + |g|) are numerical noise, not signal
INCREMENT_FLOOR = 1e-13
#: schedule steps an evaluation takes before it may declare convergence
_MIN_STEPS = 2
#: state step of the central differences in pde_residual
_DZ = 1e-5
#: start points of range_sample whose inclusion is spot-checked
_SPOT_CHECKS = 3


@dataclass(frozen=True)
class ChainValue:
    """One limit-map evaluation.

    value is the converged approximant; m_used the last schedule index
    evaluated; last_increment the final approximant difference;
    converged records whether two consecutive increments fell below
    tolerance before the horizon ran out.  history holds
    (m, |state|, increment) per step for diagnostics.
    """

    value: np.ndarray
    m_used: int
    last_increment: float
    converged: bool
    history: tuple


class ChainEvaluator:
    """Evaluate the normalized limit maps of an accepted schedule.

    Parameters
    ----------
    field : FieldSpec
        The driving field; its linear part must be the path the
        schedule was built from.
    schedule : Schedule
        An accepted unit-mass schedule with contraction budget h = 2.
    tol_chain : float
        Stop once two consecutive approximant increments are below
        max(tol_chain, floor); also the advertised accuracy.
    tol_ode : float
        Local error tolerance for every evolution leg and transition
        matrix.
    """

    def __init__(self, field: FieldSpec, schedule: Schedule,
                 tol_chain: float = 1e-9, tol_ode: float = 1e-10):
        if not isinstance(schedule, Schedule):
            raise InvalidInputError("schedule must be a Schedule")
        if not schedule.accepted:
            raise InvalidInputError(
                "schedule was not accepted; build one whose contraction "
                "budget holds before evaluating limit maps")
        if schedule.h != 2:
            raise ChainUnavailableError(
                f"contraction budget h = {schedule.h} (mass ratio ell = "
                f"{schedule.ell:.6g} >= 2) needs approximants normalized by "
                "degree >= 2 polynomial jets of the step maps; only linear "
                "normalization is implemented, so this limit map is "
                "unavailable (fields with ell < 2 work)")
        self.field = field
        self.schedule = schedule
        self.tol_chain = check_tol(tol_chain)
        self.tol_ode = check_tol(tol_ode)
        self._factors: np.ndarray | None = None

    def step_factor(self, m: int) -> np.ndarray:
        """Lam_m, the linearization of the step phi_{u_m, u_{m+1}}.

        The first call integrates Lam_0 ... Lam_{N-1} as one block (one
        ``transition_matrix`` call over all N steps) and keeps them; a
        racing first call only repeats the same deterministic
        integration.
        """
        if not 0 <= m < self.schedule.horizon_N:
            raise InvalidInputError(f"step index {m} outside schedule")
        if self._factors is None:
            u = np.array(self.schedule.u)
            self._factors = transition_matrix(self.field.linear, u[:-1],
                                              u[1:], tol=self.tol_ode)
        return self._factors[m].copy()

    # -- evaluation ------------------------------------------------------

    def eval(self, t: float, z) -> ChainValue:
        """Limit map at time t applied to one state z, |z| < 1: the
        one-row case of ``eval_many``."""
        return self.eval_many(t, _check_points(z, self.field.dim,
                                               single=True))[0]

    def eval_many(self, t: float, points) -> list[ChainValue]:
        """Evaluate the time-t limit map at each row of points, |z| < 1.

        Needs t <= u_N.  All rows march together from the first u_m >= t;
        each leg is one integrator call on the live rows, and one
        accumulator undoes Lam_m on them with one block solve per factor,
        so each row gets the bits it would get alone.  A row retires after
        two consecutive increments below tolerance; if the horizon runs
        out first it keeps its last approximant with converged=False.
        """
        u = self.schedule.u
        N = self.schedule.horizon_N
        (t,) = _check_times(t)
        W = _check_points(points, self.field.dim).copy()
        if t > u[N]:
            raise HorizonExhaustedError(
                f"time {t} exceeds the schedule horizon u_N = {u[N]:.6g}; "
                "rebuild the schedule with a larger N")
        m0 = bisect_left(u, t)
        out = [ChainValue(value=np.zeros(self.field.dim, dtype=complex),
                          m_used=m0, last_increment=0.0, converged=True,
                          history=()) for _ in range(W.shape[0])]
        live = np.flatnonzero(W.any(axis=1))
        if not live.size:
            return out
        # Pure relative error control on every leg: the state decays like
        # exp(-M(u_m)) while the normalization grows like its inverse, so
        # any absolute error floor would be amplified into a noise floor
        # on the approximants.  Relative control is sound here because a
        # trajectory of a nonzero state never reaches 0 (solutions are
        # unique and 0 is a stationary point).
        if u[m0] > t:
            W[live], _ = _evolve_one(self.field, t, u[m0], W[live],
                                     self.tol_ode, atol=0.0)
        acc = InverseTransitionProduct.identity(self.field.dim)
        for j in range(m0):
            acc = acc.push(self.step_factor(j))
        for i, g in zip(live, acc.apply(W[live])):
            out[i] = ChainValue(value=g, m_used=m0, last_increment=0.0,
                                converged=False, history=())
        small_run = [0] * len(out)
        m = m0
        while m < N and live.size:
            W[live], _ = _evolve_one(self.field, u[m], u[m + 1], W[live],
                                     self.tol_ode, atol=0.0)
            acc = acc.push(self.step_factor(m))
            m += 1
            keep = []
            for k, (i, g) in enumerate(zip(live, acc.apply(W[live]))):
                inc = float(np.linalg.norm(g - out[i].value))
                floor = INCREMENT_FLOOR * (1.0 + float(np.linalg.norm(g)))
                small_run[i] = (small_run[i] + 1
                                if inc <= max(self.tol_chain, floor) else 0)
                done = small_run[i] >= 2 and m - m0 >= _MIN_STEPS
                out[i] = ChainValue(
                    value=g, m_used=m, last_increment=inc, converged=done,
                    history=out[i].history
                    + ((m, float(np.linalg.norm(W[i])), inc),))
                if not done:
                    keep.append(k)
            live = live[keep]
        return out

    # -- consistency checks ----------------------------------------------

    def _inclusion_residuals(self, s: float, t: float, pts) -> list[float]:
        """Relative defect of f_s(z) = f_t(phi_{s,t}(z)) per row z."""
        left = self.eval_many(s, pts)
        right = self.eval_many(t, _evolve_one(self.field, s, t, pts,
                                              self.tol_ode)[0])
        return [float(np.linalg.norm(a.value - b.value)
                      / (1.0 + np.linalg.norm(a.value)))
                for a, b in zip(left, right)]

    def identity_residual(self, s: float, t: float, z) -> float:
        """Relative defect of f_s(z) = f_t(phi_{s,t}(z)), s <= t."""
        s, t = _check_times(s, t)
        z = _check_points(z, self.field.dim, single=True)
        return self._inclusion_residuals(s, t, z)[0]

    def pde_residual(self, t: float, z, dt: float = 1e-4) -> float:
        """Relative defect of d/dt f_t(z) = Df_t(z) h(z, t).

        Time derivative by central difference over [t - dt, t + dt]
        (one-sided at t < dt); state derivative by central differences
        along each coordinate, legitimate since the maps are
        holomorphic in z.
        """
        (t,) = _check_times(t)
        z = _check_points(z, self.field.dim, single=True)[0]
        q = self.field.dim
        f_plus = self.eval(t + dt, z).value
        if t >= dt:
            df_dt = (f_plus - self.eval(t - dt, z).value) / (2.0 * dt)
        else:
            df_dt = (f_plus - self.eval(t, z).value) / dt
        step = _DZ * np.eye(q, dtype=complex)
        f = np.array([cv.value for cv in self.eval_many(
            t, np.concatenate([z + step, z - step]))])
        # C order: D @ h rounds differently on a transposed view
        D = np.ascontiguousarray(((f[:q] - f[q:]) / (2.0 * _DZ)).T)
        transport = D @ self.field.h(z, t)
        return float(np.linalg.norm(df_dt - transport)
                     / (1.0 + np.linalg.norm(transport)))

    def range_sample(self, t: float, *, radius: float = 0.5,
                     shells: int = 3, directions: int = 8,
                     seed: int = 0) -> "RangeSample":
        """Sample the time-t limit map over shells in |z| <= radius.

        Also spot-checks the inclusion of earlier images: each checked
        point verifies f_0(z) = f_t(phi_{0,t}(z)), which is what makes
        the image domains increase with t.
        """
        radii = tuple(radius * (k + 1) / shells for k in range(shells))
        pts = SamplePlan(radii=radii, directions=directions,
                         seed=seed).states(self.field.dim)
        values = self.eval_many(t, pts)
        residuals = self._inclusion_residuals(0.0, t, pts[:_SPOT_CHECKS])
        return RangeSample(t=t, points=pts,
                           values=np.array([cv.value for cv in values]),
                           converged=all(cv.converged for cv in values),
                           inclusion_residuals=tuple(residuals))


@dataclass(frozen=True)
class RangeSample:
    """Sampled image of a limit map with inclusion spot-check residuals."""

    t: float
    points: np.ndarray
    values: np.ndarray
    converged: bool
    inclusion_residuals: tuple

    def max_inclusion_residual(self) -> float:
        return max(self.inclusion_residuals) if self.inclusion_residuals \
            else 0.0
