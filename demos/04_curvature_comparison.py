#!/usr/bin/env python3
"""Geodesics, Jacobi fields and volume comparison on curved models.

Integrates geodesics on the round sphere and on a warped product with
sign-changing curvature, transports normal Jacobi fields along them,
and shows that measured hypersurface volume elements sit between the
closed-form comparison profiles built from the tube curvature bounds.
"""

import math

import numpy as np

from sobex import (
    DomainSpec,
    FermiChart,
    GeodesicDisk,
    GeodesicState,
    JacobiValue,
    ModelSurface,
    integrate_geodesic,
    jacobi_factor,
    jacobi_transport,
    poly_cosh_mix_profile,
)

print("== great circle on the unit sphere ==")
sphere = ModelSurface.constant_curvature(1.0)
start = GeodesicState(position=(math.pi / 2, 0.0), velocity=(0.0, 1.0))
traj = integrate_geodesic(sphere, start, math.pi, tol=1e-10)
end = traj.end
print(f"after arclength pi the equator reaches ({end.position[0]:.8f}, "
      f"{end.position[1]:.8f})  [expected (pi/2, pi)]")
jac = jacobi_transport(traj, JacobiValue(1.0, 0.0), s=1.0)
print(f"Jacobi field J(1) = {jac.value:.10f}  (cos 1 = {math.cos(1.0):.10f})")

print("\n== warped product with sign-changing curvature ==")
surf = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05]))
r_grid = np.linspace(0.2, 1.6, 8)
print("radius   Gauss curvature")
for r in r_grid:
    print(f"  {r:.2f}   {surf.gauss_curvature(float(r)):+.5f}")

print("\n== volume-element sandwich on a cap of that surface ==")
spec = DomainSpec(surf, GeodesicDisk((0.0, 0.0), 1.2))
chart = FermiChart(spec, 0.35)
data = chart.curvature_data()
print(f"tube curvature range: [{data.k_lower:.4f}, {data.K_upper:.4f}],"
      f" boundary spread {-data.H_min:.4f}")
print("   s    lower profile   measured ratio   upper profile")
for s in np.linspace(0.0, 0.3, 7):
    lo = jacobi_factor(data.K_upper, -data.H_max, s)
    hi = jacobi_factor(data.k_lower, -data.H_min, s)
    mid = chart.volume_element_ratio(0.0, s)
    print(f"  {s:.2f}   {lo:12.6f}   {mid:14.6f}   {hi:12.6f}")
    assert lo - 1e-9 <= mid <= hi + 1e-9
print("measured volume elements stay inside the comparison sandwich.")
