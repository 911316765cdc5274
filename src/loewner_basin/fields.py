"""Vector fields h(z, t) = A(t) z + (higher order) on the unit ball of C^q.

A field drives the contracting flow z' = -h(z, t).  Membership in the
admissible class requires h(0, t) = 0 and Re<h(z, t), z> > 0 for every
z != 0 in the open unit ball, so the origin attracts.  Around that
this module provides:

* ``FieldSpec``: dimension, validated linear part (a ``LinearPath``),
  a vectorized remainder callable with zero value and zero Jacobian at
  the origin, and declared time breakpoints;
* built-in families via ``builtin_field``: ``constant-linear``,
  ``diagonal-periodic``, ``koebe-1d`` (the one-dimensional field
  z (1 - z) / (1 + z) whose chain is the Koebe function), and
  ``quadratic-perturbation``;
* sampling checks: ``class_n_check`` (positivity of Re<h, z>),
  ``gurganus_check`` (the sandwich c(|z|) Re<A z, z> <= Re<h, z> <=
  C(|z|) Re<A z, z> with c(r) = (1 - r)/(1 + r), C(r) = 1/c(r)), and
  ``growth_check`` (|h(z, t)| <= 4 r / (1 - r)^2 * ||A(t)|| on
  |z| <= r = 0.5), each returning the JSON-ready dict its command prints:
  the least margins, ``passed`` and at most 16 (z, t, value) witnesses;
* a strict JSON file format for custom polynomial fields (unknown
  keys rejected) via ``load_field_file``, whose number and entry rules
  (``check_real``, ``complex_rows`` and its inverse ``complex_json``)
  the built-ins, the flow and the command line share;
* ``builtin_corpus``: the fixed list of named instances exercised by
  the verification suite.

All samplers draw deterministic points from a seeded generator, so a
check's result is reproducible byte for byte from (config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (FieldRejectedError, InvalidInputError,
                     NumericalFailureError, UnknownFamilyError)
from .linear import (LinearPath, as_complex_array, check_dim, operator_norm,
                     validate_matrix)

#: slack below which a sampled sandwich/growth inequality counts as violated
INEQUALITY_SLACK = -1e-10

#: number types check_real accepts (bool, an int subclass, is refused)
_REAL_TYPES = (int, float, np.integer, np.floating)
#: most directions per shell a SamplePlan may draw
MAX_DIRECTIONS = 65_536
#: outer shell radius of growth_check
_GROWTH_RADIUS = 0.5
#: times and the two Richardson steps of remainder_order_check
_ORDER_TIMES = (0.0, 1.0)
_ORDER_STEPS = (1e-3, 5e-4)


def c_of(r: float) -> float:
    """Lower sandwich gain c(r) = (1 - r) / (1 + r), decreasing on [0, 1)."""
    if not 0.0 <= r < 1.0:
        raise InvalidInputError(f"radius {r} outside [0, 1)")
    return (1.0 - r) / (1.0 + r)


def C_of(r: float) -> float:
    """Upper sandwich gain C(r) = (1 + r) / (1 - r) = 1 / c(r)."""
    if not 0.0 <= r < 1.0:
        raise InvalidInputError(f"radius {r} outside [0, 1)")
    return (1.0 + r) / (1.0 - r)


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling plan: radius shells, directions per shell,
    time grid, and the generator seed."""

    radii: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    directions: int = 4096
    times: tuple = (0.0, 0.5, 1.0, 2.0, 4.0)
    seed: int = 0

    def __post_init__(self):
        if len(self.radii) == 0 or len(self.times) == 0:
            raise InvalidInputError("a sample plan needs at least one radius "
                                    "and one time")
        for r in self.radii:
            if not 0.0 < check_real(r, "shell radius") < 1.0:
                raise InvalidInputError(f"shell radius {r} outside (0, 1)")
        if (not isinstance(self.directions, (int, np.integer))
                or isinstance(self.directions, bool)
                or not 1 <= self.directions <= MAX_DIRECTIONS):
            raise InvalidInputError(f"directions must be in [1, "
                                    f"{MAX_DIRECTIONS}], got {self.directions}")
        if any(check_real(t, "sample time") < 0.0 for t in self.times):
            raise InvalidInputError(f"sample times must be >= 0, got "
                                    f"{self.times}")
        check_seed(self.seed)

    def states(self, dim: int) -> np.ndarray:
        """All sample states, shape (len(radii) * directions, dim): the
        same seeded unit directions (complex Gaussian draws, all real
        parts first, normalized) scaled to each radius in turn.  Every
        sampler of the package draws its states here."""
        rng = np.random.default_rng(self.seed)
        raw = (rng.standard_normal((self.directions, dim))
               + 1j * rng.standard_normal((self.directions, dim)))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return np.concatenate([r * dirs for r in self.radii], axis=0)


@dataclass
class FieldSpec:
    """A validated admissible vector field.

    Attributes
    ----------
    dim : int
        Ambient complex dimension q, 1 <= q <= 8.
    linear : LinearPath
        The linear part t -> A(t) with its mass integrals.
    remainder : callable(z, t) -> ndarray
        h(z, t) - A(t) z; must vanish to second order at z = 0 and
        broadcast over leading axes of z with shape (..., q); t is one
        time, or an array of one time per row of an (n, q) block z.
    family_tag : str
        Name of the construction recipe ("custom" for file-loaded).
    breakpoints : tuple of float
        Times where h may jump in t; integrators never straddle them.
    """

    dim: int
    linear: LinearPath
    remainder: Callable[[np.ndarray, float], np.ndarray]
    family_tag: str = "custom"
    breakpoints: tuple = ()
    #: smoothness in t between breakpoints, assumed of every field
    regularity = "piecewise-continuous-in-t"

    def __post_init__(self):
        check_dim(self.dim)
        if self.linear.dim != self.dim:
            raise InvalidInputError("linear part dimension mismatch")
        self.breakpoints = tuple(sorted(set(self.breakpoints)
                                        | set(self.linear.breakpoints)))

    def h(self, z: np.ndarray, t) -> np.ndarray:
        """Evaluate the field; z has shape (q,) or (..., q), and t is one
        time or one time per row of an (n, q) block."""
        z = np.asarray(z, dtype=complex)
        return (self.linear.A(t) @ z[..., None])[..., 0] + self.remainder(z, t)


# ---------------------------------------------------------------------------
# admission rules shared by the built-ins, field files and the CLI


def _check_keys(obj: dict, allowed, what: str) -> None:
    """Reject any key of ``obj`` outside ``allowed``; ``what`` names them."""
    extra = set(obj) - set(allowed)
    if extra:
        raise InvalidInputError(f"unknown {what}: {sorted(extra)}")


def check_real(x, name: str) -> float:
    """``x`` as a float if it is a finite real number; booleans, strings,
    None and containers are rejected."""
    if isinstance(x, _REAL_TYPES) and not isinstance(x, bool):
        try:
            if math.isfinite(value := float(x)):
                return value
        except OverflowError:
            pass
    raise InvalidInputError(f"{name} must be a finite real, got {x!r}")


def check_seed(x, name: str = "seed") -> int:
    """``x`` as an int if it is a non-negative integer (booleans refused)."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0:
        return int(x)
    raise InvalidInputError(f"{name} must be a non-negative integer, got {x!r}")


def _complex_entry(x, name: str) -> complex:
    """A matrix or state entry: a finite real, or an [re, im] pair of them."""
    pair = x if isinstance(x, list) and len(x) == 2 else (x, 0.0)
    try:
        return complex(check_real(pair[0], name), check_real(pair[1], name))
    except InvalidInputError:
        raise InvalidInputError(f"{name} must be a finite real or an [re, im] "
                                f"pair, got {x!r}") from None


def complex_rows(obj, cols: int, name: str, rows: int | None = None
                 ) -> np.ndarray:
    """A non-empty JSON list of rows of ``cols`` entries, each a finite
    real or an [re, im] pair, as a complex array; ``rows`` fixes the row
    count."""
    if not isinstance(obj, list) or not obj or (rows is not None
                                                and len(obj) != rows):
        raise InvalidInputError(f"{name} must be a list of "
                                f"{rows or 'one or more'} rows of {cols} entries")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise InvalidInputError(f"{name} row {i} must have {cols} entries")
    return np.array([[_complex_entry(x, f"{name}[{i}][{j}]")
                      for j, x in enumerate(row)]
                     for i, row in enumerate(obj)], dtype=complex)


def complex_json(v) -> list:
    """A complex vector as JSON, one [re, im] pair per entry: the inverse
    of one row of ``complex_rows``."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(v).reshape(-1)]


def _real_list(x, q: int, name: str) -> np.ndarray:
    if not isinstance(x, (list, tuple, np.ndarray)) or len(x) != q:
        raise InvalidInputError(f"{name} must be a list of {q} reals")
    return np.array([check_real(v, f"{name}[{i}]") for i, v in enumerate(x)])


def _is_index(x, q: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < q


# ---------------------------------------------------------------------------
# built-in families


def _zero_remainder(z, t):
    return np.zeros_like(np.asarray(z, dtype=complex))


def _matrix_or_identity(params: dict, family: str) -> np.ndarray:
    if "matrix" in params:
        return validate_matrix(params["matrix"])
    if "dim" in params:
        return np.eye(check_dim(params["dim"], "dim"), dtype=complex)
    raise InvalidInputError(f"{family} needs 'matrix' or 'dim'")


def _not_contracting(family: str, m: float, z, t: float):
    """Refusal of a linear part with inf m(A(t)) = m <= 0 at (z, t)."""
    return FieldRejectedError(
        f"{family} parameters give m(A(t)) = {m:.6g} <= 0 at t = {t:.6g}; "
        "the linear part must contract at every time",
        witnesses=[_witness(z, t, m)])


def _constant_linear(params: dict) -> FieldSpec:
    _check_keys(params, ("matrix", "dim"), "constant-linear params")
    path = LinearPath.constant(_matrix_or_identity(params, "constant-linear"))
    if (m := float(path.bounds_many([0.0])[0, 0])) <= 0.0:
        A = path.A(0.0)
        raise _not_contracting("constant-linear", m, np.linalg.eigh(
            0.5 * (A + A.conj().T))[1][:, 0], 0.0)
    return FieldSpec(dim=path.dim, linear=path, remainder=_zero_remainder,
                     family_tag="constant-linear")


def _diagonal_periodic(params: dict) -> FieldSpec:
    _check_keys(params, ("base", "amplitude", "frequency", "phase"),
               "diagonal-periodic params")
    base = params.get("base", (1.0, 1.0))
    if not isinstance(base, (list, tuple)):
        raise InvalidInputError("base must be a list of reals")
    q = check_dim(len(base), "number of base entries")
    base = _real_list(base, q, "base")
    # only the last diagonal entry oscillates unless amplitudes are given
    amplitude = _real_list(params.get("amplitude", [0.0] * (q - 1) + [0.5]),
                           q, "amplitude")
    frequency = _real_list(params.get("frequency", [1.0] * q), q, "frequency")
    phase = _real_list(params.get("phase", [0.0] * q), q, "phase")
    # inf over t >= 0 of each entry: base - |amplitude| once per period,
    # or a constant where the frequency is 0
    lows = np.where(frequency != 0.0, base - np.abs(amplitude),
                    base + amplitude * np.sin(phase))
    if lows[i := int(np.argmin(lows))] <= 0.0:
        # the first t >= 0 where the sine is -sign(amplitude)
        t = 0.0 if frequency[i] == 0.0 else (
            (math.copysign(0.5 * math.pi, -amplitude[i]) - phase[i])
            % math.copysign(2.0 * math.pi, frequency[i])) / frequency[i]
        raise _not_contracting("diagonal-periodic", float(lows[i]),
                               np.eye(q)[i], t)

    def evaluate(ts: np.ndarray) -> np.ndarray:
        As = np.zeros((ts.size, q * q), dtype=complex)
        As[:, ::q + 1] = base + amplitude * np.sin(ts[:, None] * frequency
                                                   + phase)
        return As.reshape(ts.size, q, q)

    path = LinearPath(q, evaluate)
    return FieldSpec(dim=q, linear=path, remainder=_zero_remainder,
                     family_tag="diagonal-periodic")


def _koebe_remainder(z, t):
    z = np.asarray(z, dtype=complex)
    w = z[..., 0]
    return (-2.0 * w * w / (1.0 + w))[..., None]


def _koebe_1d(params: dict) -> FieldSpec:
    _check_keys(params, (), "koebe-1d params")
    path = LinearPath.constant(np.eye(1, dtype=complex))
    return FieldSpec(dim=1, linear=path, remainder=_koebe_remainder,
                     family_tag="koebe-1d")


def _default_quadratic_tensor(q: int) -> np.ndarray:
    # B(z)_i = z_{(i+1) mod q}^2, a simple fully nonlinear default
    B = np.zeros((q, q, q), dtype=complex)
    for i in range(q):
        j = (i + 1) % q
        B[i, j, j] = 1.0
    return B


def _quadratic_perturbation(params: dict) -> FieldSpec:
    _check_keys(params, ("matrix", "dim", "epsilon", "quadratic"),
               "quadratic-perturbation params")
    A = _matrix_or_identity(params, "quadratic-perturbation")
    q = A.shape[0]
    eps = check_real(params.get("epsilon", 0.1), "epsilon")
    if "quadratic" in params:
        B = as_complex_array(params["quadratic"], "quadratic tensor")
        if B.shape != (q, q, q) or not np.isfinite(B).all():
            raise InvalidInputError(
                f"quadratic tensor must be finite with shape {(q, q, q)}")
        B = 0.5 * (B + np.swapaxes(B, 1, 2))
    else:
        B = _default_quadratic_tensor(q)
    T = eps * B

    def remainder(z, t):
        z = np.asarray(z, dtype=complex)
        return np.einsum("ijk,...j,...k->...i", T, z, z)

    path = LinearPath.constant(A)
    spec = FieldSpec(dim=q, linear=path, remainder=remainder,
                     family_tag="quadratic-perturbation")
    # |T(z, z)| <= |T| |z|^2 with |T| = sqrt(sum_i ||T_i||_2^2), so
    # Re<h(z), z> >= (m(A) - |T|) |z|^2 on the ball: m(A) > |T| certifies
    # the field in closed form, and only otherwise does the sample decide
    if float(path.bounds_many([0.0])[0, 0]) > float(
            np.linalg.norm(np.linalg.norm(T, ord=2, axis=(1, 2)))):
        return spec
    # h does not depend on t, so one sample time covers every time
    check = class_n_check(spec, SamplePlan(times=(0.0,)))
    if not check["passed"]:
        raise FieldRejectedError(
            "quadratic-perturbation parameters break the positivity of "
            f"Re<h(z,t), z> on the validation sample (min {check['min_inner']:.3e})",
            witnesses=check["witnesses"][:8])
    return spec


_FAMILIES = {
    "constant-linear": _constant_linear,
    "diagonal-periodic": _diagonal_periodic,
    "koebe-1d": _koebe_1d,
    "quadratic-perturbation": _quadratic_perturbation,
}


def builtin_field(family: str, params: dict | None = None) -> FieldSpec:
    """Construct a built-in family member.

    Families: 'constant-linear' (params: matrix | dim),
    'diagonal-periodic' (base, amplitude, frequency, phase),
    'koebe-1d' (no params), 'quadratic-perturbation' (matrix | dim,
    epsilon, quadratic tensor).  Unknown family names and unknown or
    malformed params are rejected; quadratic-perturbation parameters
    that the closed-form bound m(A) > |T| does not certify are sampled,
    and rejected with witnesses when they break positivity there.
    """
    if family not in _FAMILIES:
        raise UnknownFamilyError(
            f"unknown family {family!r}; available: {sorted(_FAMILIES)}")
    return _FAMILIES[family](dict(params or {}))


def builtin_corpus() -> list[tuple[str, FieldSpec]]:
    """The named instances exercised by the verification suite."""
    return [
        ("constant-identity-1d", builtin_field("constant-linear", {"dim": 1})),
        ("constant-identity-2d", builtin_field("constant-linear", {"dim": 2})),
        ("constant-diag-1-2",
         builtin_field("constant-linear", {"matrix": [[1, 0], [0, 2]]})),
        ("constant-diag-2-3",
         builtin_field("constant-linear", {"matrix": [[2, 0], [0, 3]]})),
        ("diagonal-periodic", builtin_field("diagonal-periodic", {})),
        ("diagonal-periodic-mild",
         builtin_field("diagonal-periodic",
                       {"base": [1.0, 1.0], "amplitude": [0.25, 0.25],
                        "frequency": [1.0, 1.0], "phase": [0.0, 1.5707963267948966]})),
        ("koebe-1d", builtin_field("koebe-1d")),
        ("quadratic-perturbation",
         builtin_field("quadratic-perturbation", {"dim": 2, "epsilon": 0.25})),
    ]


# ---------------------------------------------------------------------------
# sampling checks


def _inner_re(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re<h, z> = Re sum_i h_i conj(z_i), over the last axis."""
    return np.real(np.sum(h * np.conj(z), axis=-1))


def _witness(z: np.ndarray, t, value) -> dict:
    """A sampled violation as JSON: the state z, the time t and the value."""
    return {"z": complex_json(z), "t": float(t), "value": float(value)}


def _within_slack(v: np.ndarray) -> np.ndarray:
    return v >= INEQUALITY_SLACK


def _scan(field: FieldSpec, Z: np.ndarray, times, margins, ok):
    """Evaluate h once per time on the states Z, and the margins that
    ``margins(t, h)`` returns from it.

    Returns the least value of each margin and the witnesses: for each
    time and margin, the first four states where ``ok`` fails, 16 at
    most in all.  A margin that is not finite raises
    NumericalFailureError naming the time.
    """
    least = None
    witnesses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times:
            values = margins(t, field.h(Z, t))
            if not all(np.isfinite(v).all() for v in values):
                raise NumericalFailureError(
                    f"sampled field values are not finite at t = {float(t)!r}")
            mins = [float(np.min(v)) for v in values]
            least = mins if least is None else list(map(min, least, mins))
            for v in values:
                witnesses += [_witness(Z[j], t, v[j])
                              for j in np.flatnonzero(~ok(v))[:4]]
    return least, witnesses[:16]


def class_n_check(field: FieldSpec, plan: SamplePlan | None = None) -> dict:
    """Sample Re<h(z, t), z> / |z|^2 over shells, directions and times.

    Returns {"samples", "min_inner", "passed", "witnesses"}: passed when
    the least ratio is positive, with (z, t, value) witnesses where the
    ratio is <= 0.
    """
    plan = plan or SamplePlan()
    Z = plan.states(field.dim)
    nz2 = np.sum(np.abs(Z) ** 2, axis=1)
    (least,), witnesses = _scan(field, Z, plan.times,
                                lambda t, H: (_inner_re(H, Z) / nz2,),
                                lambda v: v > 0.0)
    return {"samples": Z.shape[0] * len(plan.times), "min_inner": least,
            "passed": least > 0.0, "witnesses": witnesses}


def gurganus_check(field: FieldSpec, plan: SamplePlan | None = None) -> dict:
    """Verify the sandwich c(|z|) Re<A z, z> <= Re<h, z> <= C(|z|) Re<A z, z>
    on the sample plan.

    Returns {"samples", "min_lower_slack", "min_upper_slack", "passed",
    "witnesses"}: the slacks are the raw differences (actual - lower) and
    (upper - actual), and both must stay >= -1e-10 on every sample.
    Assumes the positivity check already passed (the sandwich bounds
    are vacuous where Re<A z, z> <= 0).
    """
    plan = plan or SamplePlan()
    Z = plan.states(field.dim)
    radii = np.linalg.norm(Z, axis=1)
    cs = (1.0 - radii) / (1.0 + radii)
    Cs = 1.0 / cs

    def margins(t, H):
        lin = _inner_re(np.einsum("ij,...j->...i", field.linear.A(t), Z), Z)
        act = _inner_re(H, Z)
        return act - cs * lin, Cs * lin - act

    (lo, hi), witnesses = _scan(field, Z, plan.times, margins, _within_slack)
    return {"samples": Z.shape[0] * len(plan.times), "min_lower_slack": lo,
            "min_upper_slack": hi, "passed": min(lo, hi) >= INEQUALITY_SLACK,
            "witnesses": witnesses}


def growth_check(field: FieldSpec, times=(0.0, 0.5, 1.0, 2.0),
                 *, directions: int = 512, seed: int = 0) -> dict:
    """Verify |h(z, t)| <= 4 r (1 - r)^-2 ||A(t)|| at shells of radius up
    to r = 0.5.

    Returns {"samples", "radius", "min_slack", "passed", "witnesses"}:
    the slack is bound - |h| and must stay >= -1e-10 on every sample.
    """
    r = _GROWTH_RADIUS
    plan = SamplePlan(radii=(0.25 * r, 0.5 * r, 0.75 * r, r),
                      directions=directions, times=tuple(times), seed=seed)
    Z = plan.states(field.dim)
    bound_coeff = 4.0 * r / (1.0 - r) ** 2
    (least,), witnesses = _scan(
        field, Z, plan.times,
        lambda t, H: (bound_coeff * operator_norm(field.linear.A(t))
                      - np.linalg.norm(H, axis=-1),),
        _within_slack)
    return {"samples": Z.shape[0] * len(plan.times), "radius": r,
            "min_slack": least, "passed": least >= INEQUALITY_SLACK,
            "witnesses": witnesses}


def remainder_order_check(field: FieldSpec) -> float:
    """Richardson estimate of the remainder's Jacobian norm at 0, from
    central differences of steps 1e-3 and 5e-4.

    The remainder must vanish to second order, so the extrapolated
    Jacobian should be numerically zero (<= 1e-6 for valid fields).
    Returns the largest norm over the times 0 and 1.
    """
    q = field.dim
    eye = np.eye(q, dtype=complex)
    worst = 0.0
    d1, d2 = _ORDER_STEPS

    def jac(dd, t):
        cols = [(field.remainder(dd * eye[j], t)
                 - field.remainder(-dd * eye[j], t)) / (2.0 * dd)
                for j in range(q)]
        return np.stack(cols, axis=1)

    for t in _ORDER_TIMES:
        J = (4.0 * jac(d2, t) - jac(d1, t)) / 3.0
        worst = max(worst, float(np.linalg.norm(J)))
    return worst


# ---------------------------------------------------------------------------
# custom field files


_TOP_KEYS = {"dim", "breakpoints", "linear", "quadratic"}
_CONST_BLOCK_KEYS = {"until", "constant"}
_TRIG_BLOCK_KEYS = {"until", "base", "sin", "cos", "frequency"}
_QUAD_KEYS = {"out_index", "in_indices", "coeff_re", "coeff_im", "time_profile"}
_PROFILE_KEYS = {"kind", "offset", "amplitude", "frequency", "phase"}


def _parse_profile(obj):
    if obj == "constant":
        return None  # means multiply by 1
    if not isinstance(obj, dict):
        raise InvalidInputError("time_profile must be 'constant' or an object")
    _check_keys(obj, _PROFILE_KEYS, "time_profile keys")
    if obj.get("kind") != "trig":
        raise InvalidInputError("time_profile.kind must be 'trig'")
    return tuple(check_real(obj.get(key, default), f"time_profile.{key}")
                 for key, default in (("offset", 0.0), ("amplitude", 1.0),
                                      ("frequency", 1.0), ("phase", 0.0)))


def parse_field_config(cfg: dict) -> FieldSpec:
    """Build a FieldSpec from the strict JSON schema.

    Top-level keys: ``dim`` (required, an integer in [1, 8]), ``linear``
    (required, a list of piecewise blocks), ``breakpoints`` (optional),
    ``quadratic`` (optional, a list of coefficient records).  Unknown
    keys anywhere are rejected.  Every number is a finite real (JSON
    booleans, strings and NaN are rejected); matrix entries are reals or
    [re, im] pairs; indices are 0-based.  A linear block is either
    ``{"until": T | null, "constant": M}`` or
    ``{"until": ..., "base": M, "sin": M, "cos": M, "frequency": w}``
    meaning A(t) = base + sin(w t) * sin_M + cos(w t) * cos_M on its
    time span; blocks partition [0, inf) in order, the last must have
    ``until: null``.  A quadratic record
    ``{"out_index": i, "in_indices": [j, k], "coeff_re": a,
    "coeff_im": b, "time_profile": p}`` adds
    (a + i b) p(t) z_j z_k to component i, where p is 1 for
    "constant" or offset + amplitude * sin(frequency t + phase) for
    ``{"kind": "trig", ...}``.
    """
    if not isinstance(cfg, dict):
        raise InvalidInputError("field config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "field config keys")
    if "dim" not in cfg or "linear" not in cfg:
        raise InvalidInputError("field config requires 'dim' and 'linear'")
    q = check_dim(cfg["dim"], "dim")
    declared_bps = cfg.get("breakpoints", [])
    if not isinstance(declared_bps, list):
        raise InvalidInputError("breakpoints must be a list of reals")
    breakpoints = [check_real(b, "breakpoint") for b in declared_bps]

    blocks_cfg = cfg["linear"]
    if not isinstance(blocks_cfg, list) or not blocks_cfg:
        raise InvalidInputError("linear must be a non-empty list of blocks")
    zero = np.zeros((q, q), dtype=complex)
    # (until or None, base, sin, cos, frequency); a constant block is a
    # trig block with zero sin and cos parts
    blocks = []
    prev_until = 0.0
    for bi, blk in enumerate(blocks_cfg):
        if not isinstance(blk, dict):
            raise InvalidInputError(f"linear block {bi} must be an object")
        last = bi == len(blocks_cfg) - 1
        until = blk.get("until", None)
        if last:
            if until is not None:
                raise InvalidInputError("the last linear block must have until: null")
        else:
            until = check_real(until, f"linear block {bi} until")
            if until <= prev_until:
                raise InvalidInputError(
                    f"linear block {bi} needs an increasing 'until' time")
            prev_until = until

        def matrix(key):
            return complex_rows(blk[key], q, f"block {bi} {key}", rows=q) \
                if key in blk else zero

        if "constant" in blk:
            _check_keys(blk, _CONST_BLOCK_KEYS, f"keys in linear block {bi}")
            blocks.append((until, matrix("constant"), zero, zero, 0.0))
        else:
            _check_keys(blk, _TRIG_BLOCK_KEYS, f"keys in linear block {bi}")
            blocks.append((until, matrix("base"), matrix("sin"), matrix("cos"),
                           check_real(blk.get("frequency", 1.0),
                                      f"linear block {bi} frequency")))
    block_edges = np.array([b[0] for b in blocks[:-1]])
    breakpoints = sorted(set(breakpoints) | set(block_edges.tolist()))
    coeffs = np.array([b[1:4] for b in blocks])    # (blocks, 3, q, q)
    freqs = np.array([b[4] for b in blocks])

    def eval_A(ts: np.ndarray) -> np.ndarray:
        # block i covers [until_{i-1}, until_i); the last one is open
        which = np.searchsorted(block_edges, ts, side="right")
        wt = (freqs[which] * ts)[:, None, None]
        base, sinM, cosM = np.swapaxes(coeffs[which], 0, 1)
        return base + np.sin(wt) * sinM + np.cos(wt) * cosM

    quad_cfg = cfg.get("quadratic", [])
    if not isinstance(quad_cfg, list):
        raise InvalidInputError("quadratic must be a list of records")
    records = []  # (out, j, k, coeff, profile)
    for ri, rec in enumerate(quad_cfg):
        if not isinstance(rec, dict):
            raise InvalidInputError(f"quadratic record {ri} must be an object")
        _check_keys(rec, _QUAD_KEYS, f"keys in quadratic record {ri}")
        try:
            out = rec["out_index"]
            jk = rec["in_indices"]
        except KeyError as exc:
            raise InvalidInputError(
                f"quadratic record {ri} missing {exc.args[0]}") from None
        if not _is_index(out, q):
            raise InvalidInputError(
                f"quadratic record {ri}: out_index outside [0, {q - 1}]")
        if (not isinstance(jk, list) or len(jk) != 2
                or not all(_is_index(x, q) for x in jk)):
            raise InvalidInputError(
                f"quadratic record {ri}: in_indices must be two indices in "
                f"[0, {q - 1}]")
        coeff = complex(check_real(rec.get("coeff_re", 0.0), "coeff_re"),
                        check_real(rec.get("coeff_im", 0.0), "coeff_im"))
        profile = _parse_profile(rec.get("time_profile", "constant"))
        records.append((out, jk[0], jk[1], coeff, profile))

    def profile_value(profile, t):
        if profile is None:
            return 1.0
        off, amp, freq, ph = profile
        return off + amp * np.sin(freq * t + ph)

    def remainder(z, t):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for (o, j, kk, coeff, profile) in records:
            out[..., o] += coeff * profile_value(profile, t) \
                * z[..., j] * z[..., kk]
        return out

    path = LinearPath.constant(coeffs[0, 0]) \
        if len(blocks) == 1 and "constant" in blocks_cfg[0] \
        else LinearPath(q, eval_A, breakpoints=breakpoints)
    return FieldSpec(dim=q, linear=path, remainder=remainder,
                     family_tag="custom", breakpoints=tuple(breakpoints))


def read_field_config(path: str):
    """The JSON document in a field file.  A file that cannot be opened or
    is not UTF-8 JSON raises InvalidInputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read field file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"field file is not valid JSON: {exc}") from None


def load_field_file(path: str) -> FieldSpec:
    """Load a custom field from a JSON file (strict schema)."""
    return parse_field_config(read_field_config(path))
