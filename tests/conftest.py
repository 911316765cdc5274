"""Shared fixtures: the built-in corpus and cached chain evaluators.

Chain evaluators are expensive to warm up (each one lazily integrates
per-step transition matrices), so a session-scoped factory hands out
one evaluator per (field name, horizon) pair and every test shares it.
"""

import numpy as np
import pytest

from loewner_basin import (ChainEvaluator, build_schedule, builtin_corpus,
                           builtin_field)

#: corpus fields whose mass-ratio bound stays below 2, so the
#: linear-normalization limit maps are available (budget h == 2)
CHAIN_FIELD_NAMES = (
    "constant-identity-1d",
    "constant-identity-2d",
    "constant-diag-2-3",
    "diagonal-periodic",
    "diagonal-periodic-mild",
    "koebe-1d",
    "quadratic-perturbation",
)

#: stopping tolerance advertised by every shared evaluator
CHAIN_TOL = 1e-9
#: leg tolerance kept tighter than the stopping tolerance so measured
#: increments reflect the maps, not integrator noise
CHAIN_LEG_TOL = 1e-11


def unit_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit vectors in C^dim, rows of shape (count, dim)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal(
        (count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def trig_coefficients(q: int, seed: int):
    """(base, S, C, w) of a dense A(t) = base + sin(w t) S + cos(w t) C
    whose base has Hermitian part I and whose S, C have Frobenius norm
    0.08, so m(A(t)) >= 1 - 0.08 sqrt(2) > 0."""
    rng = np.random.default_rng(seed)

    def cplx():
        return rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))

    skew = cplx()
    base = np.eye(q) + 0.25 * (skew - skew.conj().T)
    S, C = cplx(), cplx()
    S *= 0.08 / np.linalg.norm(S)
    C *= 0.08 / np.linalg.norm(C)
    return base, S, C, float(rng.uniform(0.8, 1.25))


def gauss_legendre_mass(coeffs, a: float, b: float, panels: int = 64,
                        order: int = 8) -> float:
    """Reference int_a^b m(A(t)) dt for trig coefficients: composite
    Gauss-Legendre with one stacked eigvalsh over all nodes."""
    base, S, C, w = coeffs
    x, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * x
    wt = w * nodes.ravel()[:, None, None]
    A = base + np.sin(wt) * S + np.cos(wt) * C
    m = np.linalg.eigvalsh(0.5 * (A + np.conj(np.swapaxes(A, 1, 2))))[:, 0]
    return float(np.sum(half * wts * m.reshape(panels, order)))


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture(scope="session")
def corpus_map(corpus):
    return dict(corpus)


@pytest.fixture(scope="session")
def koebe():
    return builtin_field("koebe-1d")


@pytest.fixture(scope="session")
def chain_for(corpus_map):
    """Factory: chain_for(name, N=30) -> shared ChainEvaluator."""
    cache = {}

    def get(name: str, N: int = 30) -> ChainEvaluator:
        key = (name, N)
        if key not in cache:
            field = corpus_map[name]
            sched = build_schedule(field.linear, N=N)
            cache[key] = ChainEvaluator(field, sched, tol_chain=CHAIN_TOL,
                                        tol_ode=CHAIN_LEG_TOL)
        return cache[key]

    return get
