"""Correctness oracles, run on each request's output outside the timed
region.  Each oracle returns a list of problems; an empty list passes.

Tolerances:

* limit maps with closed forms are held to a relative error of 1e-8.
  The program stops a chain once two increments fall below 1e-9 and
  integrates every leg at a relative tolerance of 1e-10; koebe-1d
  states with |z| = 0.8 at t = 0.9 and 0.99 came within 1e-11.
* schedule times u_n must satisfy |M(u_n) - n| <= 1e-8 * (1 + n), with
  M recomputed from ``np.linalg.eigvalsh`` and composite Gauss-Legendre
  quadrature on panels of width at most 1/32.  The program solves
  M(u_n) = n to 1e-10 with mass integrals accurate to 1e-10 per query.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

CHAIN_RTOL = 1e-8
SCHEDULE_ATOL = 1e-8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_PANEL = 1.0 / 32.0


def _status(payload, code) -> list:
    if code != 0:
        return [f"exit code {code}"]
    if payload.get("status") != "ok":
        return [f"status {payload.get('status')!r}"]
    return []


def _complex_rows(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def chain_oracle(kind: str, points: np.ndarray, t: float):
    """``koebe``: f_t(z) = e^t z / (1 - z)^2.  ``identity``: A = I, so
    f_t(z) = e^t z.  ``converged``: every point converged."""

    def check(payload, code, out_dir) -> list:
        problems = _status(payload, code)
        if problems:
            return problems
        result = payload["result"]
        if not all(result["converged"]):
            problems.append("a limit map did not converge")
        if kind == "converged":
            return problems
        got = _complex_rows(result["values"])
        if kind == "koebe":
            want = math.exp(t) * points / (1.0 - points) ** 2
        else:
            want = math.exp(t) * points
        err = np.abs(got - want) / (1.0 + np.abs(want))
        if not float(np.max(err)) <= CHAIN_RTOL:
            problems.append(f"{kind} limit map off by {float(np.max(err)):.3e}")
        return problems
    return check


def _lower_bound(base, sin_m, cos_m, freq, times) -> np.ndarray:
    """m(A(t)) = smallest eigenvalue of the Hermitian part, per time."""
    s = np.sin(freq * times)[:, None, None]
    c = np.cos(freq * times)[:, None, None]
    A = base[None] + s * sin_m[None] + c * cos_m[None]
    H = 0.5 * (A + np.conj(np.swapaxes(A, 1, 2)))
    return np.linalg.eigvalsh(H)[:, 0]


def _mass(base, sin_m, cos_m, freq, a: float, b: float) -> float:
    panels = max(1, math.ceil((b - a) / _GL_PANEL))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mids[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    vals = _lower_bound(base, sin_m, cos_m, freq, nodes).reshape(panels, -1)
    return float(np.sum(half[:, None] * _GL_WEIGHTS[None, :] * vals))


def schedule_oracle(base, sin_m, cos_m, freq, horizon: int, ell_bound: float):
    """M(u_n) = n for every n, the budget verdict equals mu**h < nu,
    and the mass ratio used stays within [1, the provable bound]."""

    def check(payload, code, out_dir) -> list:
        problems = _status(payload, code)
        if problems:
            return problems
        sched = payload["result"]["schedule"]
        u = sched["u"]
        if len(u) != horizon + 1 or u[0] != 0.0:
            return [f"schedule has {len(u)} times, want {horizon + 1}"]
        mass = 0.0
        for n in range(1, horizon + 1):
            mass += _mass(base, sin_m, cos_m, freq, u[n - 1], u[n])
            if not abs(mass - n) <= SCHEDULE_ATOL * (1 + n):
                problems.append(f"M(u_{n}) = {mass!r}, want {n}")
        verdict = sched["mu"] ** sched["h"] < sched["nu"]
        if sched["accepted"] != verdict:
            problems.append("accepted disagrees with mu**h < nu")
        if not sched["accepted"]:
            problems.append("schedule rejected")
        if not 1.0 <= sched["ell"] <= ell_bound * (1.0 + 1e-12):
            problems.append(f"ell {sched['ell']} outside [1, {ell_bound}]")
        return problems
    return check


def verify_oracle(payload, code, out_dir) -> list:
    problems = _status(payload, code)
    if not problems and payload["result"].get("all_passed") is not True:
        failed = [name for name, c in payload["result"]["checks"].items()
                  if not c.get("passed")]
        problems.append(f"verify checks failed: {failed}")
    return problems


def dense_flow_oracle(seen: dict):
    """Manifest digests equal the sha256 of each written file, and a
    repeated request writes the same bytes as its first run."""

    def check(payload, code, out_dir) -> list:
        problems = _status(payload, code)
        if problems:
            return problems
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            manifest = json.loads(fh.read())
        files = manifest["files"]
        if sorted(files) != ["flow.json", "trajectories.csv"]:
            problems.append(f"manifest lists {sorted(files)}")
        digests = {}
        for name, digest in files.items():
            with open(os.path.join(out_dir, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
            if actual != digest:
                problems.append(f"{name} digest differs from its manifest")
            digests[name] = actual
        key = id(check)
        if seen.setdefault(key, digests) != digests:
            problems.append("rerun wrote different bytes")
        return problems
    return check
