"""The unit-mass discretization and its contraction budget.

To build limit maps the time axis is cut at u_0 < u_1 < ... where the
accumulated worst-case mass M(u_n) = integral of m(A) hits each integer.
Each step must contract states near the origin by at least a fixed
factor for the construction to telescope; the budget test is
mu^h < nu, where mu = exp(-c(r)) bounds one step from below,
nu = exp(-C(r) * step mass) bounds it from above, h is one more than
the integer part of the mass-ratio bound ell, and r is the working
radius solved from C(r)^2 = (1 + h/ell)/2.  This script builds accepted
schedules, shows the closed-form constants for ell = 1, and provokes a
rejection by understating ell.
"""

import math

import numpy as np

from loewner_basin import (ScheduleRejectedError, builtin_field,
                           build_schedule, contraction_check, log_ratio_check)

print("=" * 72)
print("1. Identity field: unit-mass times are the integers")
print("=" * 72)
ident = builtin_field("constant-linear", {"dim": 2})
sched = build_schedule(ident.linear, N=6)
print(f"  u = {[round(x, 10) for x in sched.u]}")
print(f"  measured mass-ratio bound ell = {sched.ell}  ->  h = {sched.h}")
print(f"  working radius r = {sched.r:.15f}")
print(f"  per-step floor   mu = {sched.mu:.15f}")
print(f"  per-step ceiling nu = {sched.nu:.15f}")
print(f"  accepted (mu^h < nu): {sched.accepted}   "
      f"mu^2 = {sched.mu**2:.15f}")
print("  closed forms at ell = 1:  r = (sqrt(1.5)-1)/(sqrt(1.5)+1), "
      "mu = e^(-1/sqrt(1.5)), nu = e^(-sqrt(1.5))")
print(f"  |r - closed form|  = "
      f"{abs(sched.r - (math.sqrt(1.5)-1)/(math.sqrt(1.5)+1)):.2e}")
print(f"  |mu - closed form| = "
      f"{abs(sched.mu - math.exp(-1/math.sqrt(1.5))):.2e}")
print(f"  |nu - closed form| = {abs(sched.nu - math.exp(-math.sqrt(1.5))):.2e}")
print(f"  log-ratio consistency check: {log_ratio_check(ident.linear, sched):.2e}")

print()
print("=" * 72)
print("2. A time-varying field: steps stretch where the mass grows slowly")
print("=" * 72)
periodic = builtin_field("diagonal-periodic",
                         {"base": [1.0, 1.0],
                          "amplitude": [0.0, 0.25]})
sched2 = build_schedule(periodic.linear, N=6)
widths = [b - a for a, b in zip(sched2.u, sched2.u[1:])]
print(f"  u = {[round(x, 6) for x in sched2.u]}")
print(f"  step widths = {[round(w, 6) for w in widths]}")
print(f"  ell = {sched2.ell:.6f}, h = {sched2.h}, accepted = "
      f"{sched2.accepted}")
print("  Where m(A(t)) dips, reaching the next unit of mass takes")
print("  longer, so the schedule slows down by itself.")

print()
print("=" * 72)
print("3. Understating the mass ratio gets caught")
print("=" * 72)
gap = builtin_field("constant-linear", {"matrix": [[1, 0], [0, 2]]})
try:
    build_schedule(gap.linear, N=4, ell=1.2)
except ScheduleRejectedError as exc:
    s = exc.schedule
    print(f"  rejected: {exc}")
    print(f"  claimed ell = {s.ell}, so h = {s.h} and the budget test is")
    print(f"  mu^{s.h} = {s.mu**s.h:.9f}  <  nu_{exc.failing_n} = "
          f"{s.nu_per_step[exc.failing_n]:.9f}  -- which fails.")
print("  With the honest ell = 2 the same field is accepted:")
sched3 = build_schedule(gap.linear, N=4)
print(f"  measured ell = {sched3.ell}, h = {sched3.h}, accepted = "
      f"{sched3.accepted}")

print()
print("=" * 72)
print("4. Measured per-step contraction sits inside [nu_n, mu]")
print("=" * 72)
rep = contraction_check(ident, sched)
for step in rep["intervals"]:
    a, b = step["interval"]
    print(f"  [{a:.6f}, {b:.6f}]: {step['points']} shell states, "
          f"log-margins {step['min_lower_margin']:.3e} (nu_n side), "
          f"{step['min_upper_margin']:.3e} (mu side)")
print(f"  passed = {rep['passed']}")
print("  This is the decay check on each step at r0 = r, where its bounds")
print("  are nu_n and mu: every measured one-step modulus ratio obeys the")
print("  budget that the schedule promised, which is exactly what the")
print("  limit-map construction spends.")
