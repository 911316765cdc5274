"""Which vector fields the package accepts, and how it refuses one.

A field h(z, t) = A(t) z + (higher order) is admissible when it fixes
the origin and points outward in the real inner product:
Re<h(z, t), z> > 0 away from 0.  Admissibility is certified by sampling
(`class_n_check`), and the linear part is certified to dominate the
field through the two-sided sandwich
c(|z|) Re<A z, z> <= Re<h, z> <= C(|z|) Re<A z, z>  (`gurganus_check`),
with c(r) = (1 - r)/(1 + r) and C = 1/c.  This script tours the
built-in corpus, shows the sandwich attaining equality for the
1-d Koebe field, and watches an inadmissible field get rejected with
a concrete witness.
"""

import numpy as np

from loewner_basin import (FieldRejectedError, SamplePlan, builtin_corpus,
                           builtin_field, c_of, class_n_check,
                           gurganus_check)

plan = SamplePlan(radii=(0.2, 0.5, 0.8), directions=64)

print("=" * 72)
print("1. The built-in corpus passes both membership checks")
print("=" * 72)
print(f"  {'field':26s} {'dim':>3s} {'min Re<h,z>/|z|^2':>18s} "
      f"{'sandwich slack':>15s}")
for name, field in builtin_corpus():
    membership = class_n_check(field, plan)
    sandwich = gurganus_check(field, plan)
    slack = min(sandwich["min_lower_slack"], sandwich["min_upper_slack"])
    print(f"  {name:26s} {field.dim:3d} {membership['min_inner']:18.6f} "
          f"{slack:15.2e}")
print("  A positive minimum ratio certifies inward pointing on every")
print("  sample; non-negative slack certifies the sandwich.")

print()
print("=" * 72)
print("2. The Koebe field attains the lower sandwich bound exactly")
print("=" * 72)
koebe = builtin_field("koebe-1d")
print("  On the positive real axis Re<h(r), r> equals c(r) r^2:")
for r in (0.1, 0.5, 0.9):
    z = np.array([r + 0j])
    actual = float(np.real(koebe.h(z, 0.0)[0] * np.conj(z[0])))
    bound = c_of(r) * r * r
    print(f"    r = {r:.1f}:  Re<h, z> = {actual:.12f}   "
          f"c(r) r^2 = {bound:.12f}   gap = {actual - bound:.2e}")
print("  so the sandwich constant c(r) cannot be improved.")

print()
print("=" * 72)
print("3. An outward-pointing field is rejected with a witness")
print("=" * 72)
try:
    builtin_field("quadratic-perturbation", {"dim": 1, "epsilon": 5.0})
except FieldRejectedError as exc:
    w = exc.witnesses[0]
    z = np.array([complex(re, im) for re, im in w["z"]])
    print(f"  rejected at construction: {exc}")
    print(f"  witness state z = {z}, time t = {w['t']}")
    print(f"  Re<h(z, t), z> / |z|^2 = {w['value']:.6f}  (must be > 0)")
print("  A strong quadratic term overwhelms the linear part near the")
print("  sphere, so the field stops pointing inward and every")
print("  downstream construction refuses to run on it.")
