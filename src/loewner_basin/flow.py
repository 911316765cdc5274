"""The contracting evolution driven by an admissible field.

For a field h the two-parameter evolution operator ``phi_{s,t}`` maps a
start state z in the open unit ball to the solution at time t of

    d/dtau  w(tau) = -h(w(tau), tau),   w(s) = z,   s <= tau <= t.

Positivity of Re<h(w), w> makes |w(tau)| strictly decrease, so the
trajectory never leaves the ball and the two-parameter family composes:
phi_{s,t} = phi_{u,t} o phi_{s,u} for s <= u <= t, and phi_{s,s} = id.

This module evolves a block of points (one state is a block of one
row) with one call of the adaptive embedded Runge-Kutta integrator,
whose rows step independently, so each result is independent of batch
composition; ``trajectories`` records every accepted step of that same
call.  Every leg is under pure relative error control, each row against
its own state: an absolute floor stops resolving a state decaying like
exp(-M) (0.5 e^-60 came out as 5.8e-15), and the limit maps'
normalization, growing like exp(M), would amplify it; a nonzero state
never reaches the stationary 0.  The module exposes the composition
defect, relative to the image, and verifies the two-sided modulus
decay estimate

    exp(-C(r0) * K(s,t)) <= |phi_{s,t}(z)| / |z| <= exp(-c(r0) * M(s,t))

with r0 = |z|, c(r) = (1-r)/(1+r), C(r) = 1/c(r), and M, K the running
integrals of the Hermitian-part eigenvalue bounds of A(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import StepStats, check_tol, integrate_adaptive
from .errors import InvalidInputError, NumericalFailureError
from .fields import FieldSpec, check_real, complex_json
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
    """States as a complex (n, dim) array with n >= 1: finite and of
    norm below the escape tripwire 1 - ESCAPE_MARGIN; ``single``
    requires n = 1 (a state of shape (dim,) or (1, dim))."""
    pts = as_complex_array(points, "points")
    if pts.ndim == 1:
        pts = pts[None, :]
    if (pts.ndim != 2 or pts.shape[1] != dim or not pts.shape[0]
            or single and pts.shape[0] != 1):
        want = f"({dim},)" if single else f"(n, {dim}) with n >= 1"
        raise InvalidInputError(
            f"points must have shape {want}, got {np.shape(points)}")
    if not np.all(np.isfinite(pts.view(float))):
        raise InvalidInputError("points must be finite")
    radii = np.linalg.norm(pts, axis=1)
    worst = int(np.argmax(radii))
    if radii[worst] >= 1.0:
        raise InvalidInputError(
            f"point {worst} has norm {radii[worst]:.6f} >= 1; "
            "states must lie in the open unit ball")
    if radii[worst] >= 1.0 - ESCAPE_MARGIN:
        raise InvalidInputError(
            f"point {worst} has norm {float(radii[worst])!r}, within "
            f"{ESCAPE_MARGIN:g} of the unit sphere (the escape tripwire)")
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
                tol: float, on_step=None, first_step=None
                ) -> tuple[np.ndarray, StepStats]:
    """One leg [s, t] for a block Z of states, shape (n, dim), each row
    controlled relative to its own state."""
    return integrate_adaptive(
        lambda tau, Y: -field.h(Y, tau), s, t, Z, tol,
        breakpoints=field.breakpoints,
        escape_radius=1.0 - ESCAPE_MARGIN,
        on_step=on_step, first_step=first_step)


def _result(images: np.ndarray, stats: StepStats) -> FlowResult:
    """Read-only images with the counters of their integration."""
    images.setflags(write=False)
    return FlowResult(images, stats.steps_taken, stats.steps_rejected,
                      stats.max_local_error, stats.rhs_evaluations)


def evolve(request: FlowRequest) -> FlowResult:
    """Evolve every start point through [s, t] as one block."""
    return _result(*_evolve_one(request.field, request.s, request.t,
                                request.points, request.tol))


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
    return _result(images, stats), paths


def trace(field: FieldSpec, s: float, t: float, z, tol: float = 1e-10
          ) -> tuple[list[float], list[np.ndarray]]:
    """Evolve one state and record every accepted step: the one-row case
    of ``trajectories``, returning its (times, states)."""
    z = _check_points(z, field.dim, single=True)
    req = FlowRequest(field=field, s=s, t=t, points=z, tol=tol)
    return trajectories(req)[1][0]


def semigroup_defect(field: FieldSpec, s: float, u: float, t: float,
                     points, tol: float = 1e-10) -> float:
    """Largest 2-norm of phi_{u,t}(phi_{s,u}(z)) - phi_{s,t}(z) relative
    to |phi_{s,t}(z)| over the given start points, s <= u <= t, from two
    block integrations: the legs [s, t] and [s, u] together, then [u, t].
    Every leg is controlled relative to its own state, so the defect is
    too, and it keeps its meaning on tiny states; a zero image (a start
    at the origin) keeps its absolute defect."""
    s, u, t = _check_times(s, u, t)
    pts = _check_points(points, field.dim)
    n = len(pts)
    images, _ = _evolve_one(field, np.repeat([s, s], n), np.repeat([t, u], n),
                            np.concatenate([pts, pts]), tol)
    composed, _ = _evolve_one(field, u, t, images[n:], tol)
    defect = np.linalg.norm(composed - images[:n], axis=1)
    size = np.linalg.norm(images[:n], axis=1)
    return float(np.max(np.divide(defect, size, where=size > 0.0,
                                  out=defect)))


# ---------------------------------------------------------------------------
# two-sided modulus decay


def decay_bounds_check(field: FieldSpec, intervals, points,
                       tol: float = 1e-10) -> dict:
    """Evolve points over each interval [s, t] and compare the measured
    modulus ratio with the two-sided decay estimate.  Start points must
    be nonzero (the ratio is undefined at the origin).

    For each interval and start point z with r0 = |z| and measured
    g = log(|phi_{s,t}(z)| / |z|):

        lower_margin = g - (-C(r0) * K(s,t) - slack_log)
        upper_margin = (-c(r0) * M(s,t) + slack_log) - g

    slack_log = quadrature tolerance + 20 * ODE tolerance covers the
    numerical error in both g and the integrals.  All intervals and
    points are one block integration; an image of norm below 1.5e-154
    raises NumericalFailureError.  Returns {"intervals", "passed"}:
    per interval {"points", "interval", "slack_log", "min_lower_margin",
    "min_upper_margin", "passed", "witnesses"}, passed when both margins
    are >= 0 for every point, with at most 16 witnesses {"z", "r0",
    "log_ratio", "lower_log", "upper_log"} where one is not.
    """
    spans = [_check_times(a, b) for a, b in intervals]
    if not spans:
        raise InvalidInputError("decay bounds need at least one interval")
    tol = check_tol(tol)
    pts = _check_points(points, field.dim)
    r0 = np.linalg.norm(pts, axis=1)
    if np.any(r0 == 0.0):
        raise InvalidInputError("decay bounds need nonzero start points")
    # (M, K) per interval, as columns broadcasting against the points
    M_int, K_int = np.array([field.linear.masses(s, t) for s, t in spans]
                            ).T[:, :, None]
    slack_log = field.linear.quad_tol + 20.0 * tol
    k, n = len(spans), len(pts)
    starts, ends = np.repeat(spans, n, axis=0).T
    images, _ = _evolve_one(field, starts, ends, np.tile(pts, (k, 1)), tol)
    norms = np.linalg.norm(images, axis=1).reshape(k, n)
    # below sqrt(tiny) the squares that the 2-norm sums underflow
    if (under := norms < math.sqrt(np.finfo(float).tiny)).any():
        s, t = spans[int(np.argmax(under.any(axis=1)))]
        raise NumericalFailureError(
            f"an image norm falls below 1.49e-154 on [{s!r}, {t!r}], where "
            "its squares underflow and its log modulus ratio is lost")
    ratios = norms / r0
    # math.log per point: numpy's vector log may round differently
    g = np.array([math.log(x) for x in ratios.ravel().tolist()]).reshape(k, n)
    lower_log = -(1.0 + r0) / (1.0 - r0) * K_int   # -C(r0) K(s, t)
    upper_log = -(1.0 - r0) / (1.0 + r0) * M_int   # -c(r0) M(s, t)
    lo = g - (lower_log - slack_log)
    hi = (upper_log + slack_log) - g
    bad = (lo < 0.0) | (hi < 0.0)
    reports = []
    for j, (s, t) in enumerate(spans):
        min_lo, min_hi = float(lo[j].min()), float(hi[j].min())
        reports.append({
            "points": n, "interval": [s, t], "slack_log": slack_log,
            "min_lower_margin": min_lo, "min_upper_margin": min_hi,
            "passed": min_lo >= 0.0 and min_hi >= 0.0,
            "witnesses": [{"z": complex_json(pts[i]), "r0": float(r0[i]),
                           "log_ratio": float(g[j, i]),
                           "lower_log": float(lower_log[j, i]),
                           "upper_log": float(upper_log[j, i])}
                          for i in np.flatnonzero(bad[j])[:16]]})
    return {"intervals": reports,
            "passed": all(r["passed"] for r in reports)}
