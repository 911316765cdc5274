"""The normalized limit maps f_t built from the contracting evolution.

Fix an accepted unit-mass schedule u_0 = 0 < u_1 < ... < u_N and let
Lam_m be the derivative at the origin of the one-step evolution
phi_{u_m, u_{m+1}} (a transition matrix of J' = -A(tau) J).  The
normalized approximants of the limit map at time t are

    g_m(t, z) = (Lam_0^-1 Lam_1^-1 ... Lam_{m-1}^-1) phi_{t, u_m}(z),

the inverses applied as one solve per leg with the product Lam_{m-1}...Lam_0.
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

Each row stops on its geometric tail when it can.  With increments
d_m = g_m - g_{m-1}, once the last three ratios |d_m| / |d_{m-1}| agree
to 1 % and the latest, rho, is below mu^2 / nu, the remaining sum is
d_m rho / (1 - rho) (vector Aitken Delta^2), so E_m = g_m + d_m rho /
(1 - rho) estimates the limit; the row retires with E_m once two
successive extrapolants agree to tolerance.  Where the ratios wander
(time-varying fields) the guard fails and a row stops after two
consecutive increments within tolerance, as without extrapolation.

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
                     InvalidInputError, NumericalFailureError)
from .fields import FieldSpec, SamplePlan, complex_json
from .flow import _check_points, _check_times, _evolve_one
from .linear import InverseTransitionProduct, _ldexp, transition_matrix
from .schedule import Schedule

#: increments below floor * (1 + |g|) are numerical noise, not signal
INCREMENT_FLOOR = 1e-13
#: the last three increment ratios must agree to this relative spread
#: before the geometric tail is extrapolated
_RATIO_SPREAD = 0.01
#: time and state steps of the central differences in pde_residual
_DT = 1e-4
_DZ = 1e-5
#: radius shells that range_sample draws its states on
_SHELLS = 3
#: start points of range_sample whose inclusion is spot-checked
_SPOT_CHECKS = 3


@dataclass(frozen=True)
class ChainValue:
    """One limit-map evaluation.

    value is the limit estimate: the extrapolated geometric tail when
    stop_rule is "geometric-tail", else the last approximant; m_used the
    last schedule index evaluated; last_increment the final raw
    approximant difference; converged records whether a stop rule fired
    before the horizon ran out.  history holds (m, |state|, increment)
    per step for diagnostics.  error_estimate is the change between the
    last two extrapolants on the geometric tail, else last_increment.
    stop_rule is "geometric-tail", "increments" (two consecutive
    increments within tolerance), "horizon" (neither fired by u_N) or
    "zero-state" (z = 0 maps to 0 without a leg).
    """

    value: np.ndarray
    m_used: int
    last_increment: float
    converged: bool
    history: tuple
    error_estimate: float
    stop_rule: str


def _norm(v: np.ndarray) -> float:
    """2-norm of a finite v, finite up to the float range: past 1e150 it is
    taken on v scaled by an exact power of two, below it has the plain
    norm's bits (whose overflow warning callers ignore)."""
    n = float(np.linalg.norm(v))
    if n <= 1e150:
        return n
    e = int(np.frexp(np.abs(v).max())[1])
    return float(np.ldexp(np.linalg.norm(_ldexp(v, -e)), e))


def _steady_ratio(increments: list, bound: float) -> float | None:
    """The latest ratio of four consecutive increment norms, when the
    three ratios agree to within _RATIO_SPREAD and the latest is below
    the proven contraction bound; None otherwise."""
    if len(increments) < 4 or min(increments[:-1]) <= 0.0:
        return None
    ratios = [b / a for a, b in zip(increments, increments[1:])]
    if max(ratios) > (1.0 + _RATIO_SPREAD) * min(ratios):
        return None
    return ratios[-1] if ratios[-1] < bound else None


def _g_m(acc, W: np.ndarray, live, t: float, m: int) -> np.ndarray:
    """acc.apply(W[live]), the approximants g_m of the live rows; a value
    past the float range raises NumericalFailureError."""
    G = acc.apply(W[live])
    if not np.isfinite(G).all():
        i = live[~np.isfinite(G).all(axis=1)][0]
        raise NumericalFailureError(f"the limit map of row {i} at t = {t!r}, "
                                    f"m = {m} is past the float range")
    return G


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
        Stop once two successive geometric-tail extrapolants, or else two
        consecutive approximant increments, differ by at most
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

        The first call makes one ``transition_matrix`` call and keeps its
        factors: on a constant linear part Lam_0 over [u_0, u_1] for every
        m (every unit-mass step is 1/m(A) long), else the block Lam_0 ...
        Lam_{N-1}, each bit-identical to its scalar call.  A racing first
        call only repeats the same deterministic integration.
        """
        if not 0 <= m < self.schedule.horizon_N:
            raise InvalidInputError(f"step index {m} outside schedule")
        if self._factors is None:
            u = np.array(self.schedule.u)
            one = self.field.linear.is_constant
            J = transition_matrix(self.field.linear, u[0] if one else u[:-1],
                                  u[1] if one else u[1:], tol=self.tol_ode)
            self._factors = np.broadcast_to(J, (u.size - 1,) + J.shape[-2:])
        return self._factors[m].copy()

    # -- evaluation ------------------------------------------------------

    def _check_horizon(self, t: float) -> None:
        """Refuse a map time past the schedule horizon u_N."""
        u_N = self.schedule.u[-1]
        if t > u_N:
            raise HorizonExhaustedError(
                f"time {t} exceeds the schedule horizon u_N = {u_N:.6g}; "
                "rebuild the schedule with a larger N")

    def eval(self, t: float, z) -> ChainValue:
        """Limit map at time t applied to one state z, |z| < 1: the
        one-row case of ``eval_many``."""
        return self.eval_many(t, _check_points(z, self.field.dim,
                                               single=True))[0]

    @np.errstate(over="ignore", invalid="ignore")
    def eval_many(self, t: float, points) -> list[ChainValue]:
        """Evaluate the time-t limit map at each row of points, |z| < 1.

        Needs t <= u_N.  All rows march together from the first u_m >= t;
        each leg is one integrator call on the live rows, and one block
        solve with the product Lam_{m-1} ... Lam_0 normalizes them, so
        each row gets the bits it would get alone.  A row starts each
        leg with the step its last leg (t -> u_m0 included) ended on, so
        legs skip the step-size ramp-up.  A row retires with its
        extrapolated limit once two successive guarded extrapolants agree
        to tolerance, or with its approximant after two consecutive
        increments below tolerance; if the horizon runs out first it
        keeps its last approximant with converged=False.  Each row's stop
        state is its own, so batching does not change its bits.  An
        approximant past the float range raises NumericalFailureError.
        """
        u = self.schedule.u
        N = self.schedule.horizon_N
        (t,) = _check_times(t)
        W = _check_points(points, self.field.dim).copy()
        self._check_horizon(t)
        m0 = bisect_left(u, t)
        out = [ChainValue(value=np.zeros(self.field.dim, dtype=complex),
                          m_used=m0, last_increment=0.0, converged=True,
                          history=(), error_estimate=0.0,
                          stop_rule="zero-state") for _ in range(W.shape[0])]
        live = np.flatnonzero(W.any(axis=1))
        if not live.size:
            return out
        step = None  # the live rows' next steps, once a leg has run
        if u[m0] > t:
            W[live], stats = _evolve_one(self.field, t, u[m0], W[live],
                                         self.tol_ode)
            # no row steps if t is within the stepper's end slack of u_m0
            step = stats.next_step if stats.steps_taken else None
        acc = InverseTransitionProduct.identity(self.field.dim)
        for j in range(m0):
            acc = acc.push(self.step_factor(j))
        for i, g in zip(live, _g_m(acc, W, live, t, m0)):
            out[i] = ChainValue(value=g, m_used=m0, last_increment=0.0,
                                converged=False, history=(),
                                error_estimate=0.0, stop_rule="horizon")
        bound = self.schedule.mu ** 2 / self.schedule.nu
        small_run = [0] * len(out)
        tails = [None] * len(out)  # each row's last guarded extrapolant
        m = m0
        while m < N and live.size:
            W[live], stats = _evolve_one(self.field, u[m], u[m + 1],
                                         W[live], self.tol_ode,
                                         first_step=step)
            step = stats.next_step
            acc = acc.push(self.step_factor(m))
            m += 1
            keep = []
            for k, (i, g) in enumerate(zip(live, _g_m(acc, W, live, t, m))):
                d = g - out[i].value
                inc = _norm(d)
                tol = max(self.tol_chain, INCREMENT_FLOOR * (1.0 + _norm(g)))
                history = out[i].history + (
                    (m, float(np.linalg.norm(W[i])), inc),)
                small_run[i] = small_run[i] + 1 if inc <= tol else 0
                rho = _steady_ratio([row[2] for row in history[-4:]], bound)
                tail = None if rho is None else g + d * (rho / (1.0 - rho))
                change = (None if tail is None or tails[i] is None
                          else _norm(tail - tails[i]))
                tails[i] = tail
                if change is not None and change <= tol:
                    value, estimate, rule = tail, change, "geometric-tail"
                elif small_run[i] >= 2:
                    value, estimate, rule = g, inc, "increments"
                else:
                    value, estimate, rule = g, inc, "horizon"
                    keep.append(k)
                out[i] = ChainValue(
                    value=value, m_used=m, last_increment=inc,
                    converged=rule != "horizon", history=history,
                    error_estimate=estimate, stop_rule=rule)
            live, step = live[keep], step[keep]
        return out

    # -- consistency checks ----------------------------------------------

    def _inclusion_residuals(self, s: float, t: float, pts) -> list[float]:
        """Relative defect of f_s(z) = f_t(phi_{s,t}(z)) per row z; a time
        t past the horizon is refused before any integration."""
        self._check_horizon(t)
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

    def pde_residual(self, t: float, z) -> float:
        """Relative defect of d/dt f_t(z) = Df_t(z) h(z, t).

        Time derivative by central difference over [t - dt, t + dt],
        dt = 1e-4 (one-sided at t < dt); state derivative by central
        differences of step 1e-5 along each coordinate, legitimate since
        the maps are holomorphic in z.
        """
        (t,) = _check_times(t)
        z = _check_points(z, self.field.dim, single=True)[0]
        q = self.field.dim
        f_plus = self.eval(t + _DT, z).value
        if t >= _DT:
            df_dt = (f_plus - self.eval(t - _DT, z).value) / (2.0 * _DT)
        else:
            df_dt = (f_plus - self.eval(t, z).value) / _DT
        step = _DZ * np.eye(q, dtype=complex)
        f = np.array([cv.value for cv in self.eval_many(
            t, np.concatenate([z + step, z - step]))])
        # C order: D @ h rounds differently on a transposed view
        D = np.ascontiguousarray(((f[:q] - f[q:]) / (2.0 * _DZ)).T)
        transport = D @ self.field.h(z, t)
        return float(np.linalg.norm(df_dt - transport)
                     / (1.0 + np.linalg.norm(transport)))

    def range_sample(self, t: float, *, radius: float = 0.5,
                     directions: int = 8, seed: int = 0) -> dict:
        """Sample the time-t limit map over three equally spaced shells
        in |z| <= radius.

        Also spot-checks the inclusion of earlier images: each checked
        point verifies f_0(z) = f_t(phi_{0,t}(z)), which is what makes
        the image domains increase with t.  Returns the JSON-ready
        payload the ``range`` command prints.
        """
        radii = tuple(radius * (k + 1) / _SHELLS for k in range(_SHELLS))
        pts = SamplePlan(radii=radii, directions=directions,
                         seed=seed).states(self.field.dim)
        values = self.eval_many(t, pts)
        residuals = self._inclusion_residuals(0.0, t, pts[:_SPOT_CHECKS])
        return {"t": t, "radius": radius,
                "points": [complex_json(z) for z in pts],
                "values": [complex_json(cv.value) for cv in values],
                "inclusion_residuals": residuals,
                "max_inclusion_residual": max(residuals),
                "converged": all(cv.converged for cv in values)}
