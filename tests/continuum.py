"""Closed-form Neumann heat-kernel diagonals on model domains.

Oracles for the discrete systems of :mod:`sobex.heat`: each series is
summed until its omitted terms fall below ``TAIL`` relative to the
first, so at ``t >= 0.005`` each takes a few hundred terms at most.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jnp_zeros, jv

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


def interval_diagonal(t, x, L):
    """``h_t(x, x) = 1/L + (2/L) sum_k exp(-(k pi/L)^2 t) cos(k pi x/L)^2`` on ``[0, L]``."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, int(L / math.pi * math.sqrt(-math.log(TAIL) / t)) + 2)
    w = k * (math.pi / L)
    return 1.0 / L + (2.0 / L) * (np.cos(np.multiply.outer(x, w)) ** 2 @ np.exp(-w * w * t))
