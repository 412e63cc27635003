"""Closed-form Neumann heat-kernel diagonals and ball areas on model domains.

Oracles for the discrete systems of :mod:`sobex.heat`: each series is
summed until its omitted terms fall below ``TAIL`` relative to the
first, so at ``t >= 0.005`` each takes a few hundred terms at most.  The
ball areas ``|B(x, rho) ∩ D|`` of a pole-centred disk ``D`` are the
lens of two circles in the plane and of two caps on the unit sphere.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_legendre, jnp_zeros, jv

TAIL = 1e-17


def disk_diagonal(t, r):
    """``h_t(x, x)`` at radii ``r`` of the flat unit disk.

    The Neumann modes are ``J_n(j r) (cos, sin)(n theta)`` over the zeros
    ``j`` of ``J_n'``, so ``h_t(x, x) = 1/pi + sum eps_n exp(-j^2 t)
    J_n(j r)^2 / (pi (1 - n^2/j^2) J_n(j)^2)`` with ``eps_0 = 1`` and
    ``eps_n = 2``.  Every zero of ``J_n'`` exceeds ``n``, so the
    wavenumbers stop at the cut-off ``j_max``.
    """
    r = np.asarray(r, dtype=float)
    j_max = math.sqrt(-math.log(TAIL) / t)
    out = np.full(r.shape, 1.0 / math.pi)
    for n in range(int(j_max) + 1):
        j = jnp_zeros(n, int(j_max / math.pi) + 2)
        j = j[j < j_max]
        # one jv call: the rows of r, then the boundary radius 1
        values = jv(n, np.append(r, 1.0)[:, None] * j)
        weight = (1.0 if n == 0 else 2.0) * np.exp(-j * j * t) \
            / (math.pi * (1.0 - (n / j) ** 2) * values[-1] ** 2)
        out += values[:-1] ** 2 @ weight
    return out


def hemisphere_diagonal(t, r):
    """``h_t(x, x)`` at polar radii ``r`` of the unit hemisphere (curvature 1,
    geodesic radius ``pi/2`` about the pole).

    Reflection in the equator gives the Neumann kernel from the sphere's,
    ``h^S_t = sum_l (2l+1)/(4 pi) exp(-l(l+1) t) P_l(cos d)``: ``h_t(x, x) =
    h^S_t(x, x) + h^S_t(x, x*)``, where the mirror point ``x*`` lies at
    ``d = pi - 2r``.  It tends to ``1/(2 pi)``, one over the area, at large ``t``.
    """
    r = np.asarray(r, dtype=float)
    l = np.arange(int(math.sqrt(-math.log(TAIL) / t)) + 2)
    weight = (2 * l + 1) / (4.0 * math.pi) * np.exp(-l * (l + 1) * t)
    return (1.0 + eval_legendre(l, -np.cos(2.0 * r)[..., None])) @ weight


def interval_diagonal(t, x, L):
    """``h_t(x, x) = 1/L + (2/L) sum_k exp(-(k pi/L)^2 t) cos(k pi x/L)^2`` on ``[0, L]``."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, int(L / math.pi * math.sqrt(-math.log(TAIL) / t)) + 2)
    w = k * (math.pi / L)
    return 1.0 / L + (2.0 / L) * (np.cos(np.multiply.outer(x, w)) ** 2 @ np.exp(-w * w * t))


def _acos(x):
    """``acos`` of a cosine that roundoff may have pushed past +-1."""
    return math.acos(min(1.0, max(-1.0, x)))


def flat_lens_area(r_x, rho, a):
    """``|B(x, rho) ∩ D_a|`` in the plane, for the disk ``D_a`` of radius ``a``
    about the origin and ``|x| = r_x``: the lens of two circles whose centres
    lie ``r_x`` apart, two circular sectors less their kite."""
    d = r_x
    if rho >= d + a or rho + d <= a:  # one disk inside the other
        return math.pi * min(rho, a) ** 2
    if d >= rho + a:
        return 0.0
    kite = 0.5 * math.sqrt(max((a + rho - d) * (d + rho - a) * (d + a - rho) * (d + rho + a),
                               0.0))
    return (rho * rho * _acos((d * d + rho * rho - a * a) / (2.0 * d * rho))
            + a * a * _acos((d * d + a * a - rho * rho) / (2.0 * d * a)) - kite)


def cap_lens_area(r_x, rho, a):
    """``|B(x, rho) ∩ C_a|`` on the unit sphere, for the cap ``C_a`` of geodesic
    radius ``a`` about the pole and ``x`` at polar radius ``r_x``: the area of
    two intersecting spherical caps.  By Gauss-Bonnet the lens has area
    ``2 phi - 2 alpha cos(rho) - 2 beta cos(a)``, with ``phi`` its angle at
    each corner and ``alpha``, ``beta`` the half-angles its arcs subtend at the
    two centres (the arcs' geodesic curvatures are ``cot rho`` and ``cot a``).
    The hemisphere is ``a = pi/2``.  Needs ``rho + a + r_x <= 2 pi``, so that
    the caps do not also meet behind the pole."""
    d = r_x
    if rho >= d + a or rho + d <= a:  # one cap inside the other
        return 2.0 * math.pi * (1.0 - math.cos(min(rho, a)))
    if d >= rho + a:
        return 0.0
    cd, cr, ca = math.cos(d), math.cos(rho), math.cos(a)
    sd, sr, sa = math.sin(d), math.sin(rho), math.sin(a)
    return 2.0 * (math.pi - _acos((cd - cr * ca) / (sr * sa))
                  - cr * _acos((ca - cd * cr) / (sd * sr))
                  - ca * _acos((cr - cd * ca) / (sd * sa)))
