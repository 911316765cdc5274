"""Seeded request streams for the benchmark workloads.

A workload is a closed loop of ``loewner_basin`` CLI requests issued
back to back by one client.  Requests come in rounds: one round is one
pass over the workload's request kinds, so every round has the same mix
and a run of whole rounds has a mix that does not depend on the seed.
The seed only chooses the inputs (states, times, field coefficients,
sampling seeds and the order of draws), and the program sees nothing
but those inputs.  Every request names its field by CLI arguments, so
the program builds fresh field objects each time and none of its
caches carry over between requests.

Each ``Request`` carries its argv, the work it counts toward
``work_per_s`` and the oracle that checks its output (``oracles.py``).

``BENCHMARK.json`` lists limit-map and mass-schedule.  ``certify`` runs
the same way (``--workload certify``) but is left out of the gated set:
its requests take 1 to 3 s, so a run holds too few of them to keep the
run-to-run spread of its latency percentiles inside the bounds on a
machine whose speed drifts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

#: the named instances of ``loewner_basin.fields.builtin_corpus()`` as
#: CLI arguments; ``run.py`` checks the names against the program
CORPUS = {
    "constant-identity-1d": ("constant-linear", {"dim": 1}),
    "constant-identity-2d": ("constant-linear", {"dim": 2}),
    "constant-diag-1-2": ("constant-linear", {"matrix": [[1, 0], [0, 2]]}),
    "constant-diag-2-3": ("constant-linear", {"matrix": [[2, 0], [0, 3]]}),
    "diagonal-periodic": ("diagonal-periodic", {}),
    "diagonal-periodic-mild": (
        "diagonal-periodic",
        {"base": [1.0, 1.0], "amplitude": [0.25, 0.25],
         "frequency": [1.0, 1.0], "phase": [0.0, 1.5707963267948966]}),
    "koebe-1d": ("koebe-1d", {}),
    "quadratic-perturbation": ("quadratic-perturbation",
                               {"dim": 2, "epsilon": 0.25}),
}

KOEBE = ("koebe-1d", {})
QP2 = ("quadratic-perturbation", {"dim": 2, "epsilon": 0.25})
QP8 = ("quadratic-perturbation", {"dim": 8, "epsilon": 0.1})
LINEAR8 = ("constant-linear", {"dim": 8})

#: Frobenius norm of each of the sin and cos coefficient matrices of a
#: generated trig field; their Hermitian parts move the eigenvalues of
#: the Hermitian part of A(t) by at most delta = sqrt(2) * TRIG_AMPLITUDE
TRIG_AMPLITUDE = 0.08
#: (dimension q, horizon N, pass the provable ell bound) per request of
#: a mass-schedule round.  The q = 4 request is the fastest and the
#: q = 8 one the slowest; the seven q = 2 requests in between span the
#: 11th to 89th percentiles, so they hold the median and the tail
#: percentile for any run of 20 to 80 requests.  Their cost also varies
#: least with the drawn coefficients.
SCHEDULE_KINDS = ((4, 1, True), *((2, 12, False),) * 4, (8, 1, True),
                  *((2, 12, False),) * 3)


@dataclass
class Request:
    kind: str
    argv: list
    work: int
    check: object                     # callable(payload, code, out_dir)
    field: tuple                      # ("builtin", family, params) | ("file", path)
    out_dir: str | None = None


def field_dim(family: str, params: dict) -> int:
    if "dim" in params:
        return params["dim"]
    if "matrix" in params:
        return len(params["matrix"])
    if family == "diagonal-periodic":
        return len(params.get("base", (1.0, 1.0)))
    return 1


def builtin_args(family: str, params: dict) -> list:
    args = ["--builtin", family]
    for key, value in params.items():
        args += ["--param", f"{key}={json.dumps(value)}"]
    return args


def _ball_points(rng, n: int, q: int, rmin: float, rmax: float) -> np.ndarray:
    raw = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radii = rng.uniform(rmin, rmax, size=(n, 1))
    return radii * dirs


def _points_json(points: np.ndarray) -> str:
    return json.dumps([[[float(c.real), float(c.imag)] for c in row]
                       for row in points])


# ---------------------------------------------------------------------------
# limit-map: integrator-bound.  Every linear path is constant, so eigen
# and quadrature work is almost nil and a change to ``linear`` should
# leave this workload flat.  Each chain leg runs sequentially along the
# schedule with relative error control.

#: koebe-1d states near z = 0.8 converge after 29 to 31 unit-mass steps,
#: past the default horizon of 30
CHAIN_HORIZON = 40


def _chain_request(rng, fieldspec, n_points: int, oracle_kind: str) -> Request:
    family, params = fieldspec
    q = field_dim(family, params)
    pts = _ball_points(rng, n_points, q, 0.05, 0.8)
    t = float(rng.uniform(0.0, 1.0))
    fargs = builtin_args(family, params)
    argv = ["chain", *fargs, "--horizon", str(CHAIN_HORIZON), "--t", repr(t),
            "--points", _points_json(pts)]
    return Request(kind=f"chain:{family}:q{q}", argv=argv, work=n_points,
                   check=oracles.chain_oracle(oracle_kind, pts, t),
                   field=("builtin", family, params))


def limit_map_round(rng, ctx) -> list:
    # Latency groups, fastest first: constant-linear, q = 2, koebe (six
    # requests), q = 8.  The koebe group spans the 22nd to 89th
    # percentiles, so it holds the median and the tail percentile for
    # any run of 20 to 80 requests, away from a group boundary.
    koebe = [_chain_request(rng, KOEBE, 2, "koebe") for _ in range(6)]
    return [
        *koebe[:3],
        _chain_request(rng, QP2, 2, "converged"),
        _chain_request(rng, LINEAR8, 2, "identity"),
        *koebe[3:],
        _chain_request(rng, QP8, 3, "converged"),
    ]


# ---------------------------------------------------------------------------
# mass-schedule: no integration at all.  Time goes to Hermitian bounds
# of dense time-varying A(t), the adaptive mass quadrature behind M and
# K, and (q = 2) the measured mass ratio ell; an integrator change
# should leave this workload flat.  q = 4 and q = 8 pass a provable ell
# bound, because measuring ell costs 4097 eigen solves per request.


def _trig_matrices(rng, q: int):
    def cplx():
        return rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))

    skew = cplx()
    skew = 0.25 * (skew - skew.conj().T)
    sin_m = cplx()
    cos_m = cplx()
    sin_m *= TRIG_AMPLITUDE / np.linalg.norm(sin_m)
    cos_m *= TRIG_AMPLITUDE / np.linalg.norm(cos_m)
    base = np.eye(q) + skew
    freq = float(rng.uniform(0.8, 1.25))
    return base, sin_m, cos_m, freq


def _matrix_json(M) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in M]


def ell_bound(sin_m, cos_m) -> float:
    """Provable sup k/m for A(t) = base + sin(w t) S + cos(w t) C whose
    base has Hermitian part I: the Hermitian part of the perturbation
    has 2-norm at most |sin| |S|_F + |cos| |C|_F <= delta."""
    delta = math.hypot(float(np.linalg.norm(sin_m)),
                       float(np.linalg.norm(cos_m)))
    return (1.0 + delta) / (1.0 - delta)


def _schedule_request(rng, ctx, q: int, horizon: int, give_ell: bool):
    base, sin_m, cos_m, freq = _trig_matrices(rng, q)
    cfg = {"dim": q, "linear": [{"until": None, "base": _matrix_json(base),
                                 "sin": _matrix_json(sin_m),
                                 "cos": _matrix_json(cos_m),
                                 "frequency": freq}]}
    path = ctx.new_input_path(f"trig-q{q}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    bound = ell_bound(sin_m, cos_m)
    argv = ["schedule", "--field", path, "--horizon", str(horizon)]
    if give_ell:
        argv += ["--ell", repr(bound)]
    return Request(kind=f"schedule:q{q}", argv=argv, work=horizon,
                   check=oracles.schedule_oracle(base, sin_m, cos_m, freq,
                                                 horizon, bound),
                   field=("file", path))


def mass_schedule_round(rng, ctx) -> list:
    return [_schedule_request(rng, ctx, q, n, give)
            for q, n, give in SCHEDULE_KINDS]


# ---------------------------------------------------------------------------
# certify: the same integrator used differently, with many independent
# points per interval (decay, semigroup, contraction shells), which is
# what batching targets.  It also covers every sampling check of
# ``fields``, time-varying ``linear`` work, chain residuals, the h = 3
# field that skips the chain, and CSV plus manifest writing in ``cli``.

#: 12 decay-check states on [0, 1] and six contraction steps; one round
#: (all nine fields) takes about 16 s.
VERIFY_OPTIONS = ["--radii", "0.3,0.6", "--directions", "6",
                  "--intervals", "0:1", "--horizon", "6"]
#: a dense flow request precedes every this many verify requests
FLOW_EVERY = 3


def _verify_request(rng, name, fieldspec) -> Request:
    family, params = fieldspec
    fargs = builtin_args(family, params)
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["verify", *fargs, *VERIFY_OPTIONS, "--seed", str(seed)]
    return Request(kind=f"verify:{name}", argv=argv, work=1,
                   check=oracles.verify_oracle,
                   field=("builtin", family, params))


def _flow_request(rng, ctx, fieldspec) -> Request:
    family, params = fieldspec
    pts = _ball_points(rng, 2, field_dim(family, params), 0.1, 0.8)
    t = float(rng.uniform(0.5, 1.5))
    out_dir = ctx.new_output_dir()
    fargs = builtin_args(family, params)
    argv = ["flow", *fargs, "--t", repr(t), "--points", _points_json(pts),
            "--dense", "--out", out_dir]
    return Request(kind=f"flow:{family}", argv=argv, work=0,
                   check=oracles.dense_flow_oracle(ctx.digests),
                   field=("builtin", family, params), out_dir=out_dir)


def certify_round(rng, ctx) -> list:
    draws = [(name, CORPUS[name]) for name in rng.permutation(sorted(CORPUS))]
    draws.insert(int(rng.integers(0, len(draws) + 1)),
                 ("quadratic-perturbation-8d", QP8))
    if ctx.flows is None:
        # drawn once per run and repeated in every round, so each rerun
        # must reproduce its files byte for byte
        names = rng.choice(sorted(CORPUS), replace=False,
                           size=math.ceil(len(draws) / FLOW_EVERY))
        ctx.flows = [_flow_request(rng, ctx, CORPUS[name]) for name in names]
    out = []
    for i, (name, spec) in enumerate(draws):
        if i % FLOW_EVERY == 0:
            out.append(ctx.flows[i // FLOW_EVERY])
        out.append(_verify_request(rng, name, spec))
    return out


@dataclass(frozen=True)
class Workload:
    make_round: object                 # callable(rng, ctx) -> [Request]
    work_unit: str


WORKLOADS = {
    "limit-map": Workload(limit_map_round, "limit-map points"),
    "mass-schedule": Workload(mass_schedule_round, "unit-mass steps"),
    "certify": Workload(certify_round, "verify requests"),
}


class Context:
    """Per-run state: the scratch directory inside the checkout, the
    dense flow requests of every round and the digests they repeat."""

    def __init__(self, root: str):
        self.root = root
        self.flows = None
        self.digests: dict = {}
        self._count = 0
        os.makedirs(root, exist_ok=True)

    def new_input_path(self, name: str) -> str:
        self._count += 1
        return os.path.join(self.root, f"{self._count:05d}-{name}")

    def new_output_dir(self) -> str:
        self._count += 1
        return os.path.join(self.root, f"{self._count:05d}-out")
