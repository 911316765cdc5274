"""Evolving states, checking the semigroup law, and decay certificates.

The evolution operator solves z' = -h(z, t) from time s to time t for
admissible fields.  Three things make its output trustworthy: a closed
form it must match on solvable cases, the two-parameter semigroup law
phi_{u,t} o phi_{s,u} = phi_{s,t}, and two-sided modulus decay bounds
driven only by the Hermitian bounds of the linear part.  This script
exercises all three on the 1-d Koebe field.
"""

import numpy as np

from loewner_basin import (FlowRequest, builtin_field, decay_bounds_check,
                           evolve, semigroup_defect, trace)

koebe = builtin_field("koebe-1d")


def K(z):
    return z / (1.0 - z) ** 2


def K_inv(w):
    # inverse of K on the slit plane, branch mapping back into the disk
    s = np.sqrt(1.0 + 4.0 * w)
    return (2.0 * w + 1.0 - s) / (2.0 * w)


print("=" * 72)
print("1. The Koebe flow against its closed form")
print("=" * 72)
print("  For h(z) = z (1 - z)/(1 + z) the flow is K^-1(e^{-(t-s)} K(z)).")
pts = np.array([[0.4 + 0.0j], [-0.35 + 0.2j], [0.1 - 0.6j]])
res = evolve(FlowRequest(field=koebe, s=0.0, t=1.25, points=pts, tol=1e-11))
for z0, z1 in zip(pts[:, 0], res.images[:, 0]):
    exact = K_inv(np.exp(-1.25) * K(z0))
    print(f"    {z0:+.3f} -> {z1:+.12f}   |error| = {abs(z1 - exact):.2e}")
print(f"  accepted steps: {res.steps_taken}, rejected: {res.steps_rejected},"
      f" worst local error estimate: {res.max_local_error:.2e}")

print()
print("=" * 72)
print("2. Two-parameter semigroup law")
print("=" * 72)
defect = semigroup_defect(koebe, 0.0, 0.7, 1.9, pts, tol=1e-11)
print(f"  max |phi_(0.7,1.9)(phi_(0,0.7)(z)) - phi_(0,1.9)(z)| = "
      f"{defect:.2e}")
print("  Stopping at an intermediate time and restarting lands on the")
print("  same state, to within the integration tolerance.")

print()
print("=" * 72)
print("3. Decay certificate for the modulus")
print("=" * 72)
shells = np.array([[r + 0j] for r in (0.2, 0.5, 0.8)])
rep = decay_bounds_check(koebe, [(0.0, 2.0)], shells,
                         tol=1e-10)["intervals"][0]
print(f"  exp(-C(r0) K) <= |phi|/|z| <= exp(-c(r0) M) on {rep['points']} "
      f"states: passed = {rep['passed']}")
print(f"  worst lower margin {rep['min_lower_margin']:.3e}, "
      f"worst upper margin {rep['min_upper_margin']:.3e}")
print("  (margins are logarithmic slack against the declared bounds)")

times, states = trace(koebe, 0.0, 2.0, np.array([0.8 + 0j]))
print("  sample trajectory from z = 0.8 (a few of the recorded steps):")
stride = max(1, len(times) // 5)
for tt, zz in list(zip(times, states))[::stride][:6]:
    print(f"    t = {tt:6.4f}   |z| = {abs(zz[0]):.6f}")
print(f"    t = {times[-1]:6.4f}   |z| = {abs(states[-1][0]):.6f}")

