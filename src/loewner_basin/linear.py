"""Linear-part analysis for vector fields with attracting origin.

A time-dependent linear part ``A(t)`` on C^q (1 <= q <= 8) drives
everything downstream: membership checks, decay envelopes, and the time
discretization.  This module provides

* ``hermitian_bounds``: the extreme values m(A) <= k(A) of the real
  inner product Re<A z, z> over the unit sphere, computed as the
  eigenvalue extremes of the Hermitian part (A + A*)/2 with LAPACK
  (``np.linalg.eigvalsh``);
* ``spectral_abscissa`` / ``eigenvalues``: the full (generally
  non-Hermitian) spectrum from ``np.linalg.eigvals``;
* ``LinearPath``: a validated path t -> A(t), evaluated on arrays of
  times, with stacked Hermitian bounds over a time grid
  (``bounds_many``) and the mass integrals of m(A) and k(A) over any
  interval (``masses``), so M(t) = int_0^t m(A) and K(t) = int_0^t k(A);
* ``gauss_kronrod``: the adaptive, breakpoint-aware 7-point Gauss /
  15-point Kronrod quadrature behind those integrals, which evaluates
  all open panels of a refinement round in one call;
* ``ell_estimate`` and ``classify_hypotheses``: grid-based bunching
  constants and per-criterion verdicts with explicit witnesses;
* ``transition_matrix``: the linear flow J' = -A(t) J, one factor or a
  stack of factors over many spans from one integrator call;
* ``InverseTransitionProduct``: the ordered product of transition
  factors as one scaled matrix, whose inverse it applies to vectors by
  one linear solve (never an explicit inverse), with its condition number.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from ._integrate import check_tol, integrate_adaptive
from .errors import (DegenerateTransitionError, HypothesisViolationError,
                     InvalidInputError, NumericalFailureError)

MAX_DIM = 8
#: margin below which a satisfied grid condition is reported as
#: undecidable rather than satisfied
GRID_MARGIN = 1e-8
#: relative tolerance for the commuting-integrals test
COMMUTATOR_TOL = 1e-10
#: cap on the 2-norm condition number of an accumulated factor product
CONDITION_CAP = 1e12
#: grid points between which classify_hypotheses tests commutation
_COMMUTATION_ANCHORS = 7


def check_dim(q, what: str = "dimension") -> int:
    """Return ``q`` if it is an integer (not a bool) in [1, MAX_DIM]."""
    if (isinstance(q, bool) or not isinstance(q, (int, np.integer))
            or not 1 <= q <= MAX_DIM):
        raise InvalidInputError(
            f"{what} must be an integer in [1, {MAX_DIM}], got {q!r}")
    return int(q)


def as_complex_array(x, what: str = "matrix") -> np.ndarray:
    """``x`` as a complex array; entries that are not numbers (booleans
    and strings included) raise InvalidInputError."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad {what}: {exc}") from None
    if arr.dtype.kind not in "iufc":
        raise InvalidInputError(
            f"bad {what}: entries of type {arr.dtype} are not numbers")
    return arr.astype(complex, copy=False)


def validate_matrix(A) -> np.ndarray:
    """Coerce to a square complex matrix with dim in [1, 8], all finite."""
    M = as_complex_array(A)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {M.shape}")
    check_dim(M.shape[0])
    if not np.isfinite(M).all():
        raise InvalidInputError("matrix has non-finite entries")
    return M


class HermitianBounds(NamedTuple):
    """Extremes of Re<A z, z> over |z| = 1: m <= k."""

    m: float
    k: float


def _hermitian_eigvalsh(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian parts of (..., q, q) matrices."""
    return np.linalg.eigvalsh(0.5 * (M + np.conj(np.swapaxes(M, -1, -2))))


def hermitian_bounds(A) -> HermitianBounds:
    """Extremes of the numerical range's real part.

    m(A) = min over |z| = 1 of Re<A z, z> and k(A) = max of the same,
    which equal the smallest/largest eigenvalues of (A + A*)/2.
    """
    ev = _hermitian_eigvalsh(validate_matrix(A))
    return HermitianBounds(float(ev[0]), float(ev[-1]))


def operator_norm(A) -> float:
    """Largest singular value (spectral norm)."""
    return float(np.linalg.norm(validate_matrix(A), ord=2))


def eigenvalues(A) -> np.ndarray:
    """Full spectrum of A."""
    return np.linalg.eigvals(validate_matrix(A))


def spectral_abscissa(A) -> float:
    """max Re(lambda) over the spectrum of A."""
    return float(np.max(eigenvalues(A).real))


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature (vector valued, batched per round)

# QUADPACK's 15-point Kronrod rule on [-1, 1] (Piessens et al., 1983):
# nodes x_0 > ... > x_7 = 0 (used with both signs) and their weights;
# the 7-point Gauss rule uses the odd-indexed nodes x_1, x_3, x_5, x_7.
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0])
_WK = np.array([0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649,
                0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082,
                0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975,
                0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_GK_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
_G_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])
#: equal panels seeded per breakpoint piece (prime, see gauss_kronrod)
_SEED_PANELS = 7
#: bisection depth at which a panel that still misses its tolerance fails
_MAX_DEPTH = 48
#: most integrand nodes one gauss_kronrod call may evaluate
_MAX_NODES = 60_000


def gauss_kronrod(f, a: float, b: float, tol: float, *,
                  breakpoints=()) -> np.ndarray:
    """Adaptive G7K15 integral of a vector-valued function on [a, b].

    ``f`` maps a 1-D array of n times to values of shape (n, d) (or (n,)
    for d = 1).  ``tol`` is an absolute tolerance on the max-norm of the
    result, split across panels in proportion to their width: a panel
    is accepted when the max-norm of its K15 - G7 difference is within
    its share, and bisected otherwise.  Each round evaluates every open
    panel's 15 nodes in one call to ``f``.

    Each breakpoint piece is seeded with a prime number of equal panels,
    so periodic integrands whose zeros sit on dyadic subdivision points
    of [a, b] (sin on [0, 4 pi], say) cannot alias the error estimate
    into early acceptance.  Nodes are interior to their panel, so no
    breakpoint is ever sampled or straddled.  A panel narrower than
    1e-13 max(1, |t|) is accepted as it is (it contributes at most
    O(|f| width)), so a jump pinned at a panel end cannot recurse
    forever; any other panel still open after 48 bisections raises
    NumericalFailureError, and so does a round that would take the call
    past 60,000 nodes (rounding in t can keep an absolute ``tol`` out of
    reach, and the open panels would double until memory ran out).
    """
    if b < a:
        raise InvalidInputError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0 * np.asarray(f(np.array([a])), dtype=float).reshape(-1)
    cuts = [a, *sorted({float(x) for x in breakpoints if a < float(x) < b}), b]
    edges = [np.linspace(x0, x1, _SEED_PANELS + 1)
             for x0, x1 in zip(cuts, cuts[1:])]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    total = b - a
    out = 0.0
    depth = used = 0
    while lo.size:
        used += lo.size * _GK_NODES.size
        if used > _MAX_NODES:
            raise NumericalFailureError(
                f"adaptive Gauss-Kronrod needs more than {_MAX_NODES} nodes "
                f"on [{float(a)!r}, {float(b)!r}] to reach tolerance {tol:g}",
                iterations=depth)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(
            lo.size, _GK_NODES.size, -1)
        kron = half[:, None] * np.einsum("k,pkd->pd", _GK_WEIGHTS, vals)
        gauss = half[:, None] * np.einsum("k,pkd->pd", _G_WEIGHTS, vals)
        err = np.max(np.abs(kron - gauss), axis=1)
        share = np.maximum(tol * (hi - lo) / total, 1e-300)
        sliver = (hi - lo) <= 1e-13 * np.maximum(
            1.0, np.maximum(np.abs(lo), np.abs(hi)))
        done = (err <= share) | sliver
        if depth >= _MAX_DEPTH and not np.all(done):
            raise NumericalFailureError(
                "adaptive Gauss-Kronrod hit maximum depth", iterations=depth)
        out = out + np.sum(kron[done], axis=0)
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        depth += 1
    return out


# ---------------------------------------------------------------------------
# LinearPath


class LinearPath:
    """A validated time-dependent linear part t -> A(t) on [0, inf).

    ``evaluate`` maps a 1-D array of n times to the stacked matrices
    A(t), shape (n, q, q).
    ``masses(a, b)`` integrates the Hermitian-part bounds m(A) and k(A)
    over [a, b] by adaptive Gauss-Kronrod quadrature that never
    straddles a declared breakpoint; M(t) and K(t) are the integrals
    from 0.  A path holds no mutable state, so every value is a pure
    function of the query and a path may be shared across threads.
    """

    def __init__(self, dim: int, evaluate: Callable[[np.ndarray], np.ndarray],
                 *, breakpoints=(), quad_tol: float = 1e-10):
        self.dim = check_dim(dim)
        self.evaluate = evaluate
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self.quad_tol = check_tol(quad_tol, "quadrature tolerance")
        self._const: tuple[np.ndarray, float, float] | None = None

    @classmethod
    def constant(cls, A) -> "LinearPath":
        """Path with A(t) a read-only copy of the given matrix; its
        masses come in closed form."""
        A = validate_matrix(A).copy()
        A.setflags(write=False)
        path = cls(A.shape[0],
                   lambda ts: np.broadcast_to(A, (len(ts),) + A.shape))
        mk = hermitian_bounds(A)
        path._const = (A, mk.m, mk.k)
        return path

    @property
    def is_constant(self) -> bool:
        return self._const is not None

    def _matrices(self, ts: np.ndarray) -> np.ndarray:
        """Validated stack A(t) for a 1-D time array, shape (n, q, q)."""
        As = np.asarray(self.evaluate(ts), dtype=complex)
        if As.shape != (ts.size, self.dim, self.dim):
            raise InvalidInputError(
                f"path evaluate() returned shape {As.shape}, want "
                f"{(ts.size, self.dim, self.dim)}")
        if not np.isfinite(As).all():
            raise InvalidInputError("matrix has non-finite entries")
        return As

    def A(self, t) -> np.ndarray:
        """A(t), shape (q, q), or for an array of times the stack t.shape +
        (q, q); a constant path returns its one matrix, which broadcasts."""
        if self._const is not None:
            return self._const[0]
        ts = np.asarray(t, dtype=float)
        return self._matrices(ts.ravel()).reshape(ts.shape + (self.dim,) * 2)

    def bounds_many(self, ts) -> np.ndarray:
        """Hermitian-part bounds at each time of a 1-D array: column 0 is
        m(A(t)), column 1 is k(A(t)); one stacked eigensolve."""
        ts = np.asarray(ts, dtype=float).ravel()
        if self._const is not None:
            return np.tile([self._const[1], self._const[2]], (ts.size, 1))
        return _hermitian_eigvalsh(self._matrices(ts))[:, [0, -1]]

    def bounds(self, t: float) -> HermitianBounds:
        """Hermitian-part bounds (m(A(t)), k(A(t)))."""
        m, k = self.bounds_many([float(t)])[0]
        return HermitianBounds(float(m), float(k))

    def masses(self, a: float, b: float) -> tuple[float, float]:
        """(int_a^b m(A), int_a^b k(A)) for 0 <= a <= b, from one
        adaptive Gauss-Kronrod call to absolute tolerance ``quad_tol``."""
        a, b = float(a), float(b)
        if not 0.0 <= a <= b:
            raise InvalidInputError(
                f"mass integrals need 0 <= a <= b, got [{a}, {b}]")
        if self._const is not None:
            return self._const[1] * (b - a), self._const[2] * (b - a)
        dm, dk = gauss_kronrod(self.bounds_many, a, b, self.quad_tol,
                               breakpoints=self.breakpoints)
        return float(dm), float(dk)

    def M(self, t: float) -> float:
        """Cumulative lower mass int_0^t m(A(tau)) dtau."""
        return self.masses(0.0, t)[0]

    def K(self, t: float) -> float:
        """Cumulative upper mass int_0^t k(A(tau)) dtau."""
        return self.masses(0.0, t)[1]

    def integral_matrix(self, a: float, b: float) -> np.ndarray:
        """Entrywise integral int_a^b A(tau) dtau (adaptive Gauss-Kronrod)."""
        if b < a:
            raise InvalidInputError("integration bounds must satisfy a <= b")
        if self._const is not None:
            return (b - a) * self._const[0]
        q = self.dim

        def f(ts):
            As = self._matrices(ts).reshape(ts.size, q * q)
            return np.concatenate([As.real, As.imag], axis=1)

        flat = gauss_kronrod(f, a, b, self.quad_tol,
                             breakpoints=self.breakpoints)
        return (flat[:q * q] + 1j * flat[q * q:]).reshape(q, q)


def ell_estimate(path: LinearPath, grid) -> float:
    """Grid supremum of k(A(t)) / m(A(t)).

    Raises HypothesisViolationError with a witness time if m(A(t)) <= 0
    anywhere on the grid.  The estimate is monotone under grid
    refinement (a superset of sample points can only raise it).
    """
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise InvalidInputError("empty grid")
    mk = path.bounds_many(grid)
    bad = np.flatnonzero(mk[:, 0] <= 0.0)
    if bad.size:
        t, m = float(grid[bad[0]]), float(mk[bad[0], 0])
        raise HypothesisViolationError(f"m(A(t)) = {m} <= 0 at t = {t}",
                                       t=t, quantity="m(A(t))", value=m)
    return float(np.max(mk[:, 1] / mk[:, 0]))


VERDICT_SATISFIED = "satisfied"
VERDICT_VIOLATED = "violated"
VERDICT_UNDECIDABLE = "undecidable-on-grid"

#: keys of the per-criterion verdicts produced by classify_hypotheses
CRITERIA = ("constant_spectral_gap", "constant_positive_spectrum",
            "commuting_uniform_bunching", "general_bunching")


def _witness(t: float, quantity: str, value: float) -> dict:
    """A concrete (time, quantity, value) record backing a verdict."""
    return {"t": t, "quantity": quantity, "value": value}


def _margin_verdict(margin: float) -> str:
    if margin <= 0.0:
        return VERDICT_VIOLATED
    if margin < GRID_MARGIN:
        return VERDICT_UNDECIDABLE
    return VERDICT_SATISFIED


def _combine(parts: list[str]) -> str:
    if VERDICT_VIOLATED in parts:
        return VERDICT_VIOLATED
    if VERDICT_UNDECIDABLE in parts:
        return VERDICT_UNDECIDABLE
    return VERDICT_SATISFIED


def classify_hypotheses(path: LinearPath, grid) -> dict:
    """Check the four sufficient-condition sets on a time grid.

    The criteria, named by what they require of A(t):

    * ``constant_spectral_gap``: A(t) constant and twice its lower
      numerical-range bound strictly exceeds its spectral abscissa,
      2 m(A) > max Re spectrum(A);
    * ``constant_positive_spectrum``: A(t) constant and every
      eigenvalue has strictly positive real part;
    * ``commuting_uniform_bunching``: m(A(t)) > 0 with uniform margin
      2 m >= k + delta on the grid, and the integrated matrices
      int_s^t A commute across sampled interval pairs (Frobenius
      commutator norm <= 1e-10 times the product of factor norms).
      Boundedness of ||A(t)|| holds trivially on a finite grid and is
      not separately decided;
    * ``general_bunching``: m(A(t)) > 0 on the grid and the ratio
      k/m admits the finite grid supremum reported as ``ell``.

    All verdicts are decided from grid samples only; margins below
    1e-8 downgrade 'satisfied' to 'undecidable-on-grid'.

    Returns {"verdicts", "witnesses", "ell", "grid_size"}: verdicts maps
    each criterion key to 'satisfied', 'violated' or
    'undecidable-on-grid'; witnesses maps each criterion with a
    violation to its {"t", "quantity", "value"} records (a violated
    verdict always has one); ``ell`` is the grid supremum of k/m, or
    None when m <= 0 somewhere on the grid.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size < 2:
        raise InvalidInputError("classification grid needs >= 2 points")
    ms, ks = path.bounds_many(grid).T
    if path.is_constant:
        A0 = path.A(float(grid[0]))
        dev, dev_t = 0.0, float(grid[0])
    else:
        As = path._matrices(grid)
        A0 = As[0]
        devs = np.max(np.abs(As - A0), axis=(1, 2))
        i_dev = int(np.argmax(devs))
        dev, dev_t = float(devs[i_dev]), float(grid[i_dev])
    constant = dev <= 1e-12 * (1.0 + float(np.max(np.abs(A0))))

    verdicts: dict[str, str] = {}
    witnesses: dict[str, list[dict]] = {kk: [] for kk in CRITERIA}

    # constant-coefficient criteria
    if not constant:
        for key in ("constant_spectral_gap", "constant_positive_spectrum"):
            verdicts[key] = VERDICT_VIOLATED
            witnesses[key].append(
                _witness(dev_t, "max |A(t) - A(0)| entry deviation", dev))
    else:
        gap = 2.0 * float(np.min(ms)) - spectral_abscissa(A0)
        verdicts["constant_spectral_gap"] = _margin_verdict(gap)
        if gap <= 0.0:
            witnesses["constant_spectral_gap"].append(
                _witness(float(grid[0]),
                         "2*m(A) - max Re spectrum(A)", gap))
        re_min = float(np.min(eigenvalues(A0).real))
        verdicts["constant_positive_spectrum"] = _margin_verdict(re_min)
        if re_min <= 0.0:
            witnesses["constant_positive_spectrum"].append(
                _witness(float(grid[0]), "min Re eigenvalue", re_min))

    # positivity of m on the grid (shared by the last two criteria)
    i_min_m = int(np.argmin(ms))
    m_verdict = _margin_verdict(float(ms[i_min_m]))
    m_witness = _witness(float(grid[i_min_m]), "m(A(t))", float(ms[i_min_m]))

    # uniform bunching 2m >= k + delta
    bunch = 2.0 * ms - ks
    i_bunch = int(np.argmin(bunch))
    delta_verdict = _margin_verdict(float(bunch[i_bunch]))
    parts = [m_verdict, delta_verdict]
    if m_verdict == VERDICT_VIOLATED:
        witnesses["commuting_uniform_bunching"].append(m_witness)
    if delta_verdict == VERDICT_VIOLATED:
        witnesses["commuting_uniform_bunching"].append(
            _witness(float(grid[i_bunch]), "2*m(A(t)) - k(A(t))",
                     float(bunch[i_bunch])))
    # commuting integrated family over sampled triples r < s < t
    if constant:
        parts.append(VERDICT_SATISFIED)
    else:
        idx = np.unique(np.linspace(0, grid.size - 1,
                                    _COMMUTATION_ANCHORS).astype(int))
        anchors = grid[idx]
        prefixes = [path.integral_matrix(float(grid[0]), float(a))
                    for a in anchors]
        comm_verdict = VERDICT_SATISFIED
        for i, j, kk in itertools.combinations(range(len(anchors)), 3):
            X = prefixes[j] - prefixes[i]   # int_{a_i}^{a_j} A
            Y = prefixes[kk] - prefixes[j]  # int_{a_j}^{a_k} A
            comm = float(np.linalg.norm(X @ Y - Y @ X))
            bound = COMMUTATOR_TOL * max(
                float(np.linalg.norm(X)) * float(np.linalg.norm(Y)), 1e-30)
            if comm > bound:
                comm_verdict = VERDICT_VIOLATED
                witnesses["commuting_uniform_bunching"].append(
                    _witness(float(anchors[kk]),
                             "commutator norm of integrated blocks", comm))
                break
        parts.append(comm_verdict)
    verdicts["commuting_uniform_bunching"] = _combine(parts)

    # general bunching: m > 0 and finite ell
    ell: float | None = None
    if m_verdict == VERDICT_VIOLATED:
        verdicts["general_bunching"] = VERDICT_VIOLATED
        witnesses["general_bunching"].append(m_witness)
    else:
        ell = float(np.max(ks / ms))
        verdicts["general_bunching"] = m_verdict
    return {"verdicts": verdicts,
            "witnesses": {kk: ws for kk, ws in witnesses.items() if ws},
            "ell": ell, "grid_size": int(grid.size)}


def transition_matrix(path: LinearPath, s, t, tol: float = 1e-10
                      ) -> np.ndarray:
    """Linear transition factor: solve J' = -A(tau) J, J(s) = I, to t.

    For commuting families this equals exp(-int_s^t A).  Integrated
    with the shared embedded RK pair, each factor relative to its own
    max-norm (J is invertible, so no factor vanishes and a decaying one
    stays resolved); steps never straddle path breakpoints.  Scalar s
    and t give one (q, q) factor; arrays of starts and ends (or one
    scalar and one array) give the stack (n, q, q) from one integrator
    call, each factor bit-identical to its scalar call.
    """
    n = max(np.size(s), np.size(t))
    J, _ = integrate_adaptive(lambda tau, J: -(path.A(tau) @ J), s, t,
                              np.tile(np.eye(path.dim, dtype=complex),
                                      (n, 1, 1)), tol,
                              breakpoints=path.breakpoints)
    return J if np.ndim(s) or np.ndim(t) else J[0]


class InverseTransitionProduct:
    """Applies the inverse of an ordered product of transition factors.

    For factors L_0, L_1, ..., L_{m-1} (composing left to right) it holds
    the product P = L_{m-1} @ ... @ L_0 as 2^e Q, Q scaled by a power of
    two to a largest entry of modulus in [1/2, 1): P shrinks like
    e^-K(u_m), so its entries would underflow once K passes about 700.
    ``apply(v)`` returns P^{-1} v by one linear solve with Q, for a vector
    or every row of a block at once, then scales by 2^-e; no explicit
    inverse is ever formed.  ``condition_estimate`` is the 2-norm
    condition number of P (exactly that of Q), one SVD per push; a push
    that lifts it past 1e12, or makes P singular, raises
    DegenerateTransitionError.  ``len`` counts the factors pushed.
    Instances are immutable values; ``push`` returns a new accumulator,
    so one instance may be shared across threads for reading.
    """

    __slots__ = ("dim", "_Q", "_exp", "_count", "condition_estimate")

    def __init__(self, dim: int, Q: np.ndarray, exp: int, count: int,
                 condition_estimate: float):
        Q.setflags(write=False)
        self.dim, self._Q, self._exp, self._count = dim, Q, exp, count
        self.condition_estimate = condition_estimate

    @classmethod
    def identity(cls, dim: int) -> "InverseTransitionProduct":
        return cls(check_dim(dim), np.eye(dim, dtype=complex), 0, 0, 1.0)

    def __len__(self) -> int:
        return self._count

    def push(self, factor) -> "InverseTransitionProduct":
        """Return a new accumulator whose application also undoes ``factor``."""
        F = validate_matrix(factor)
        if F.shape[0] != self.dim:
            raise InvalidInputError("factor dimension mismatch")
        Q = F @ self._Q
        s = np.linalg.svd(Q, compute_uv=False)  # np.linalg.cond's ratio
        cond = float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf
        if cond > CONDITION_CAP:
            raise DegenerateTransitionError(
                f"condition number {cond:.3e} of the normalization product "
                f"exceeds cap {CONDITION_CAP:.0e}", condition_estimate=cond)
        e = int(np.frexp(np.abs(Q).max())[1])
        return InverseTransitionProduct(
            self.dim, _ldexp(Q, -e), self._exp + e, self._count + 1, cond)

    def apply(self, v) -> np.ndarray:
        """(L_{m-1} ... L_0)^{-1} v for a vector or each row of an (n, dim)
        block: one solve, each row a single right-hand side, so a row gets
        the bits it gets alone.  Always returns a new array."""
        x = np.array(v, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise InvalidInputError(f"expected a vector of length {self.dim} "
                                    f"or an (n, {self.dim}) block of rows")
        return _ldexp(np.linalg.solve(self._Q, x[..., None])[..., 0],
                      -self._exp)


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """x 2^e for a complex array, exact unless a part over- or underflows:
    the real and imaginary parts scale as one interleaved float array."""
    return np.ldexp(np.ascontiguousarray(x).view(float), e).view(complex)
