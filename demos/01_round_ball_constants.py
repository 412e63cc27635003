#!/usr/bin/env python3
"""Walk through the closed-form tube constants for the flat round ball.

The unit disk is the canonical benchmark: every quantity the toolkit
computes has a hand-checkable value here.  The boundary's principal
curvature with respect to the outward normal is -1, so the curvature
budget is H = 1 and the flat plane gives K = 0.  From these two numbers
alone the library produces the focal radius, the admissible rolling
radius, the exterior/interior volume-ratio profiles, the tube
distortion, and the explicit squared-norm bound on the extension
operator.
"""

import math

import numpy as np

from sobex import (
    ComparisonProfile,
    CurvatureData,
    admissible_rolling_radius,
    distortion_factor,
    extension_norm_bound,
    focal_radius,
    round_ball_norm_bound,
)

K, H = 0.0, 1.0
print("curvature budget: K =", K, " H =", H)

r0 = focal_radius(K, H)
r_adm = admissible_rolling_radius(K, H)
print(f"focal radius r0 = {r0}  (normals focus at the disk centre)")
print(f"admissible rolling radius = {r_adm}  (half the disk radius)")

# comparison-derived profiles coincide with the exact ball ratios
data = CurvatureData(k_lower=-K, K_upper=K, H_min=-H, H_max=H, n=2)
r = r_adm
profile = ComparisonProfile.from_curvature(data, r)
s = np.linspace(0.0, r, 6)
print("\n   s      d(s)=1/(1+s)   D(s)=1/(1-s)")
for si, d, D in zip(s, profile.d_base(s), profile.D_base(s)):
    print(f"  {si:.2f}   {d:12.8f}   {D:12.8f}")

dist = distortion_factor(profile)
print(f"\ndistortion max D(t)/d(s) over [0, {r}]^2 = {dist}  (exactly 3)")

print("\nsquared-norm bound of the extension operator:")
for rr in (0.25, 0.5):
    general = extension_norm_bound(dist, math.sqrt(8.0), rr)
    preset = round_ball_norm_bound(2, rr)
    print(f"  r = {rr}: 1 + 3 * max(164, 82 + 1312/r^2) = {preset}"
          f"   (general formula agrees: {general})")

print("\nscaling note: the bound is invariant under scaling the ball,")
print("r is measured in units of the ball radius.")
