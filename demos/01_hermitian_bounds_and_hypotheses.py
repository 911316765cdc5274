"""Hermitian-part bounds of a matrix path and what they certify.

The package measures a time-dependent matrix A(t) through the extremes
of Re<A(t) z, z> on the unit sphere: the lower extreme m(t) is the
worst-case contraction rate, the upper extreme k(t) the best-case one.
This script computes the bounds for a few constant matrices, then runs
the grid-based hypothesis classifier on three matrix paths and prints
the verdicts it returns.
"""

import numpy as np

from loewner_basin import (LinearPath, classify_hypotheses, ell_estimate,
                           hermitian_bounds, operator_norm,
                           spectral_abscissa)

print("=" * 72)
print("1. Hermitian bounds m <= k for constant matrices")
print("=" * 72)
for label, A in [
    ("identity", np.eye(2)),
    ("diag(1, 2)", np.diag([1.0, 2.0])),
    ("non-normal [[1, 2], [0, 1]]", np.array([[1.0, 2.0], [0.0, 1.0]])),
]:
    A = A.astype(complex)
    b = hermitian_bounds(A)
    print(f"  {label:30s} m = {b.m:+.6f}   k = {b.k:+.6f}   "
          f"|A| = {operator_norm(A):.6f}   "
          f"max Re(eigenvalue) = {spectral_abscissa(A):+.6f}")
print("  The bounds sandwich every contraction rate the flow can see;")
print("  for the non-normal example m = 0, so positivity of the")
print("  spectrum alone would overstate the guaranteed contraction.")

print()
print("=" * 72)
print("2. Hypothesis verdicts for three matrix paths")
print("=" * 72)
grid = np.linspace(0.0, 12.0, 2001)


def periodic(ts):
    """diag(1, 1 + 0.5 sin t) at every time of the array ts."""
    As = np.zeros((ts.size, 2, 2), dtype=complex)
    As[:, 0, 0] = 1.0
    As[:, 1, 1] = 1.0 + 0.5 * np.sin(ts)
    return As


paths = [
    ("constant identity", LinearPath.constant(np.eye(2, dtype=complex))),
    ("constant diag(1, 2)", LinearPath.constant(
        np.diag([1.0, 2.0]).astype(complex))),
    ("diag(1, 1 + 0.5 sin t)", LinearPath(2, periodic)),
]
for label, path in paths:
    rep = classify_hypotheses(path, grid)
    print(f"  {label}")
    for key, verdict in rep["verdicts"].items():
        mark = {"satisfied": "ok ", "violated": "NO ",
                "undecidable-on-grid": "?? "}[verdict]
        print(f"      [{mark}] {key:28s} {verdict}")
    print(f"      mass-ratio bound on the grid: ell = {rep['ell']}")
    if "commuting_uniform_bunching" in rep["witnesses"]:
        w = rep["witnesses"]["commuting_uniform_bunching"][0]
        print(f"      witness: t = {w['t']:.4f}, {w['quantity']} = "
              f"{w['value']:+.4f}")
    print()

print("  diag(1, 2) fails the strict-bunching margin (the ratio k/m is")
print("  exactly 2) while the finite-ratio condition still holds, so")
print("  downstream machinery can quote ell = 2 for it.")

print()
print("=" * 72)
print("3. Quick mass-ratio estimate")
print("=" * 72)
path = paths[2][1]
print(f"  max k/m over the grid for the periodic path: "
      f"{ell_estimate(path, grid):.9f}")
print("  (the true supremum is 2, attained where sin t = -1; a finite")
print("  grid reports the value it can see, which is why every verdict")
print("  above is explicitly grid-relative)")
