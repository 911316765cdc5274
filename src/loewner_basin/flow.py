"""The contracting evolution driven by an admissible field.

For a field h the two-parameter evolution operator ``phi_{s,t}`` maps a
start state z in the open unit ball to the solution at time t of

    d/dtau  w(tau) = -h(w(tau), tau),   w(s) = z,   s <= tau <= t.

Positivity of Re<h(w), w> makes |w(tau)| strictly decrease, so the
trajectory never leaves the ball and the two-parameter family composes:
phi_{s,t} = phi_{u,t} o phi_{s,u} for s <= u <= t, and phi_{s,s} = id.

This module evolves a block of points with one call of the adaptive
embedded Runge-Kutta integrator, whose rows step independently, so each
result is independent of batch composition; ``trajectories`` records
every accepted step of that same call.  It exposes the composition
defect, verifies the two-sided modulus decay estimate

    exp(-C(r0) * K(s,t)) <= |phi_{s,t}(z)| / |z| <= exp(-c(r0) * M(s,t))

with r0 = |z|, c(r) = (1-r)/(1+r), C(r) = 1/c(r), and M, K the running
integrals of the Hermitian-part eigenvalue bounds of A(t), and
integrates the second-order jet of phi_{s,t} at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import StepStats, check_tol, integrate_adaptive
from .errors import InvalidInputError
from .fields import C_of, FieldSpec, c_of, check_real
from .linear import as_complex_array

#: states may not come within this distance of the unit sphere
ESCAPE_MARGIN = 1e-9


def _check_times(*times) -> tuple[float, ...]:
    """The times as floats: finite reals with 0 <= t_0 <= t_1 <= ..."""
    ts = tuple(check_real(x, "time") for x in times)
    if ts[0] < 0.0 or any(b < a for a, b in zip(ts, ts[1:])):
        raise InvalidInputError(
            f"times must be >= 0 and in order, got {', '.join(map(str, ts))}")
    return ts


def _check_points(points, dim: int, *, single: bool = False) -> np.ndarray:
    """States as a complex (n, dim) array: finite and inside the open unit
    ball; ``single`` requires n = 1 (a state of shape (dim,) or (1, dim))."""
    pts = as_complex_array(points, "points")
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim or single and pts.shape[0] != 1:
        want = f"({dim},)" if single else f"(n, {dim})"
        raise InvalidInputError(
            f"points must have shape {want}, got {np.shape(points)}")
    if not np.all(np.isfinite(pts.view(float))):
        raise InvalidInputError("points must be finite")
    radii = np.linalg.norm(pts, axis=1)
    if np.any(radii >= 1.0):
        worst = int(np.argmax(radii))
        raise InvalidInputError(
            f"point {worst} has norm {radii[worst]:.6f} >= 1; "
            "states must lie in the open unit ball")
    return pts


@dataclass(frozen=True)
class FlowRequest:
    """A validated evolution request: field, time interval [s, t],
    start points of shape (n, dim), and the local error tolerance."""

    field: FieldSpec
    s: float
    t: float
    points: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        s, t = _check_times(self.s, self.t)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tol", check_tol(self.tol))
        pts = _check_points(self.points, self.field.dim).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class FlowResult:
    """Evolved images plus integrator counters (summed over points;
    max_local_error is the largest accepted error estimate seen)."""

    images: np.ndarray
    steps_taken: int
    steps_rejected: int
    max_local_error: float
    rhs_evaluations: int


def _evolve_one(field: FieldSpec, s: float, t: float, Z: np.ndarray,
                tol: float, on_step=None, atol: float | None = None
                ) -> tuple[np.ndarray, StepStats]:
    """One leg [s, t] for a block Z of states, shape (n, dim)."""
    return integrate_adaptive(
        lambda tau, Y: -field.h(Y, tau), s, t, Z, tol,
        breakpoints=field.breakpoints,
        escape_radius=1.0 - ESCAPE_MARGIN,
        on_step=on_step, atol=atol)


def evolve(request: FlowRequest) -> FlowResult:
    """Evolve every start point through [s, t] as one block."""
    images, stats = _evolve_one(request.field, request.s, request.t,
                                request.points, request.tol)
    images.setflags(write=False)
    return FlowResult(images=images, **vars(stats))


def flow_point(field: FieldSpec, s: float, t: float, z, tol: float = 1e-10
               ) -> np.ndarray:
    """Evolve a single state z (shape (dim,)) through [s, t]."""
    req = FlowRequest(field=field, s=s, t=t, points=z, tol=tol)
    return evolve(req).images[0]


def trajectories(request: FlowRequest
                 ) -> tuple[FlowResult, list[tuple[list[float], list]]]:
    """Evolve every start point through [s, t] as one block, recording
    every accepted step of every row.

    Returns the ``evolve`` result and, per start point, (times, states)
    with the start first and the final state last.  Step times come from
    the adaptive controller, so the grids are not uniform.
    """
    paths = [([request.s], [z.copy()]) for z in request.points]

    def on_step(rows, taus, states):
        for i, tau, w in zip(rows.tolist(), taus.tolist(), states):
            paths[i][0].append(tau)
            paths[i][1].append(w)

    images, stats = _evolve_one(request.field, request.s, request.t,
                                request.points, request.tol, on_step=on_step)
    for (times, states), w in zip(paths, images):
        if times[-1] != request.t:
            times.append(request.t)
            states.append(w)
    images.setflags(write=False)
    return FlowResult(images=images, **vars(stats)), paths


def trace(field: FieldSpec, s: float, t: float, z, tol: float = 1e-10
          ) -> tuple[list[float], list[np.ndarray]]:
    """Evolve one state and record every accepted step: the one-row case
    of ``trajectories``, returning its (times, states)."""
    z = _check_points(z, field.dim, single=True)
    req = FlowRequest(field=field, s=s, t=t, points=z, tol=tol)
    return trajectories(req)[1][0]


def semigroup_defect(field: FieldSpec, s: float, u: float, t: float,
                     points, tol: float = 1e-10) -> float:
    """Largest 2-norm of phi_{u,t}(phi_{s,u}(z)) - phi_{s,t}(z)
    over the given start points; requires s <= u <= t."""
    s, u, t = _check_times(s, u, t)
    direct = evolve(FlowRequest(field=field, s=s, t=t, points=points, tol=tol))
    leg1 = evolve(FlowRequest(field=field, s=s, t=u, points=points, tol=tol))
    leg2 = evolve(FlowRequest(field=field, s=u, t=t, points=leg1.images,
                              tol=tol))
    return float(np.max(np.linalg.norm(leg2.images - direct.images, axis=1)))


# ---------------------------------------------------------------------------
# two-sided modulus decay


@dataclass
class DecayReport:
    """Margins of the two-sided modulus decay estimate.

    For each start point z with r0 = |z| and measured
    g = log(|phi_{s,t}(z)| / |z|):

        lower_margin = g - (-C(r0) * K(s,t) - slack_log)
        upper_margin = (-c(r0) * M(s,t) + slack_log) - g

    slack_log = quadrature tolerance + 20 * ODE tolerance covers the
    numerical error in both g and the integrals.  The estimate holds
    when both margins are >= 0 for every point; witnesses collect the
    violating (z, r0, g, lower_log, upper_log) tuples.
    """

    points: int
    interval: tuple
    slack_log: float
    min_lower_margin: float
    min_upper_margin: float
    witnesses: list

    @property
    def passed(self) -> bool:
        return self.min_lower_margin >= 0.0 and self.min_upper_margin >= 0.0

    def to_json_dict(self) -> dict:
        return {
            "points": self.points,
            "interval": [self.interval[0], self.interval[1]],
            "slack_log": self.slack_log,
            "min_lower_margin": self.min_lower_margin,
            "min_upper_margin": self.min_upper_margin,
            "passed": self.passed,
            "witnesses": [
                {"z": [[c.real, c.imag] for c in w[0]], "r0": w[1],
                 "log_ratio": w[2], "lower_log": w[3], "upper_log": w[4]}
                for w in self.witnesses[:16]],
        }


def decay_bounds_check(field: FieldSpec, s: float, t: float, points,
                       tol: float = 1e-10) -> DecayReport:
    """Evolve points and compare the measured modulus ratio with the
    two-sided decay estimate.  Start points must be nonzero (the ratio
    is undefined at the origin)."""
    req = FlowRequest(field=field, s=s, t=t, points=points, tol=tol)
    s, t, pts = req.s, req.t, req.points
    radii = np.linalg.norm(pts, axis=1)
    if np.any(radii == 0.0):
        raise InvalidInputError("decay bounds need nonzero start points")
    M_int, K_int = field.linear.masses(s, t)
    slack_log = field.linear.quad_tol + 20.0 * req.tol
    result = evolve(req)
    out_radii = np.linalg.norm(result.images, axis=1)
    min_lo = math.inf
    min_hi = math.inf
    witnesses = []
    for i in range(pts.shape[0]):
        r0 = float(radii[i])
        g = math.log(float(out_radii[i]) / r0)
        lower_log = -C_of(r0) * K_int
        upper_log = -c_of(r0) * M_int
        lo_margin = g - (lower_log - slack_log)
        hi_margin = (upper_log + slack_log) - g
        min_lo = min(min_lo, lo_margin)
        min_hi = min(min_hi, hi_margin)
        if lo_margin < 0.0 or hi_margin < 0.0:
            witnesses.append((pts[i].copy(), r0, g, lower_log, upper_log))
    return DecayReport(points=pts.shape[0], interval=(s, t),
                       slack_log=slack_log, min_lower_margin=float(min_lo),
                       min_upper_margin=float(min_hi), witnesses=witnesses)


# ---------------------------------------------------------------------------
# second-order jet of the evolution at the origin


@dataclass(frozen=True)
class Jet2:
    """Order-2 Taylor data of phi_{s,t} at 0:
    phi(z) = linear @ z + contract(quadratic, z, z) + O(|z|^3),
    with ``quadratic`` symmetric in its last two indices."""

    linear: np.ndarray
    quadratic: np.ndarray

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(
            self.quadratic - np.swapaxes(self.quadratic, 1, 2))))

    def packed_quadratic(self) -> np.ndarray:
        """Monomial coefficients, shape (dim, dim*(dim+1)//2).

        Column order is (j, k) with j <= k; off-diagonal tensor
        entries are doubled so each column is the full coefficient of
        the monomial z_j z_k.
        """
        j, k = np.triu_indices(self.linear.shape[0])
        cols = self.quadratic[:, j, k]
        return np.where(j == k, cols, 2.0 * cols)


def jet2_transition(field: FieldSpec, s: float, t: float,
                    tol: float = 1e-10) -> Jet2:
    """Integrate the order-2 jet of phi_{s,t} at the origin.

    With A(tau) the linear part and H_tau the quadratic coefficient
    tensor of the field, the jet components solve, from J(s) = I,
    Q(s) = 0:

        J'           = -A(tau) J
        Q'[i, j, k]  = -(A(tau) Q)[i, j, k]
                       - sum_{a, b} H_tau[i, a, b] J[a, j] J[b, k]

    The quadratic equation is the chain rule for the second state
    derivative of -h(w, tau) along w = J z + Q(z, z) + O(3).
    """
    s, t = _check_times(s, t)
    q = field.dim
    nJ = q * q

    def rhs(tau, y):  # one row: (J, Q) flattened into y[0]
        J = y[0, :nJ].reshape(q, q)
        Q = y[0, nJ:].reshape(q, q, q)
        A = field.linear.A(tau[0])
        H = field.quadratic_at(tau[0])
        dJ = -(A @ J)
        dQ = -np.einsum("ia,ajk->ijk", A, Q) \
            - np.einsum("iab,aj,bk->ijk", H, J, J)
        return np.concatenate([dJ.ravel(), dQ.ravel()])[None]

    y0 = np.concatenate([np.eye(q, dtype=complex).ravel(),
                         np.zeros(q * q * q, dtype=complex)])
    (y,), _ = integrate_adaptive(rhs, s, t, y0[None], tol,
                                 breakpoints=field.breakpoints)
    J = y[:nJ].reshape(q, q)
    Q = y[nJ:].reshape(q, q, q)
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    return Jet2(linear=J, quadratic=Q)
