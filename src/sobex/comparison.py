"""Closed-form curvature comparison machinery for boundary tubes.

Everything in this module is a scalar closed form built on the normal
Jacobi equation

    J'' + k J = 0,   J(0) = 1,   J'(0) = h,

whose solution ``jacobi_factor(k, h, s) = sn_k'(s) + h sn_k(s)``
controls how distance hypersurfaces stretch along geodesics leaving a
hypersurface with principal curvature data ``h`` through a region of
sectional curvature ``k``.  From it we derive focal radii, admissible
tube radii, volume ratio profiles, the tube distortion factor and the
explicit bound on the squared norm of the Sobolev extension operator.

A :class:`ComparisonProfile` is stored as Jacobi data ``(k, h)`` for
each side of the boundary, so the tube distortion is exact too: on
``[0, r]`` the factor ``J`` takes its extremes at the ends or at the
zero of ``J' = h J(k, -k/h, .)``, itself a :func:`jacobi_factor_zero`.

Sign conventions
----------------
Two conventions appear and are documented per function:

* "spread" convention: ``h`` is the initial logarithmic derivative
  ``J'(0)/J(0)`` of the normal Jacobi field in the direction of travel.
  Outward normals of a round disk of radius ``R0`` have spread
  ``+1/R0`` (neighbouring normals open up).
* "shape" convention (used by :class:`CurvatureData` and the regularity
  checker): the second fundamental form of the boundary with respect to
  the outward normal is the negative of the outward spread, so the unit
  disk carries ``II = -1`` and the smallest ``H >= 0`` with
  ``II >= -H`` for both normals is ``H = 1/R0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonBreakdownError, ParameterError
from .surfaces import sn, sn_prime

__all__ = [
    "jacobi_factor",
    "jacobi_factor_prime",
    "jacobi_factor_zero",
    "focal_radius",
    "admissible_rolling_radius",
    "CurvatureData",
    "ComparisonProfile",
    "distortion_factor",
    "extension_norm_bound",
    "round_ball_norm_bound",
    "mean_curvature_bound",
]


def jacobi_factor(k, h, s):
    """Solution of ``J'' + k J = 0`` with ``J(0) = 1``, ``J'(0) = h``.

    Parameters
    ----------
    k : float
        Curvature parameter (1/length^2).
    h : float
        Initial slope, in the spread convention.
    s : float or ndarray
        Arclength(s), may be negative.

    Returns
    -------
    float or ndarray
        ``sn_prime(k, s) + h sn(k, s)``: ``cos(sqrt(k) s) + h/sqrt(k)
        sin(sqrt(k) s)`` for ``k > 0``, ``1 + h s`` for ``k = 0`` and the
        hyperbolic analogue for ``k < 0``.  Total function, no domain
        restriction.
    """
    out = sn_prime(k, s) + h * sn(k, s)
    return out if np.ndim(out) else float(out)


def jacobi_factor_prime(k, h, s):
    """Arclength derivative of :func:`jacobi_factor` (same conventions)."""
    out = -k * sn(k, s) + h * sn_prime(k, s)
    return out if np.ndim(out) else float(out)


def jacobi_factor_zero(k, h):
    """First positive zero of ``jacobi_factor(k, h, .)``, or ``inf``.

    For ``k > 0`` a zero always exists; for ``k = 0`` it exists iff
    ``h < 0``; for ``k < 0`` iff ``h < -sqrt(-k)``.
    """
    if k > 0.0:
        rk = math.sqrt(k)
        # cot(rk s) = -h/rk has a unique root with rk s in (0, pi); atan2
        # keeps it accurate where pi/2 + atan(h/rk) cancels (h << -rk)
        return math.atan2(rk, -h) / rk
    if k < 0.0:
        rk = math.sqrt(-k)
        ratio = -h / rk
        if ratio <= 1.0:
            return math.inf
        return math.atanh(1.0 / ratio) / rk
    return math.inf if h >= 0.0 else -1.0 / h


def focal_radius(K, H):
    """Distance to the first focal point of a hypersurface, or ``inf``.

    Consumes the comparison-lemma convention: the second fundamental
    form of the hypersurface satisfies ``II >= H`` with respect to the
    normal *opposite* to the direction of travel, and the sectional
    curvature is at most ``K``.  The result is the smallest positive
    root of

    * ``cot(sqrt(K) r) = H / sqrt(K)`` for ``K > 0``,
    * ``r = 1 / H`` for ``K = 0``,
    * ``coth(sqrt(|K|) r) = H / sqrt(|K|)`` for ``K < 0``,

    and ``inf`` when no positive root exists (no focal points).  For
    ``K < 0`` the square root is read as ``sqrt(|K|)``.

    Equivalently this is the first positive zero of
    ``jacobi_factor(K, -H, .)``.
    """
    return jacobi_factor_zero(K, -H)


def admissible_rolling_radius(K, H):
    """Largest admissible rolling radius ``r`` in ``(0, 1]``.

    ``K >= 0`` bounds ``|Sec|`` in the boundary tube and ``H >= 0``
    bounds the second fundamental form from below by ``-H`` (shape
    convention).  The radius must satisfy both

        sqrt(K) tan(r sqrt(K)) <= (1 + H) / 2
        (H / sqrt(K)) tan(r sqrt(K)) <= 1 / 2

    which for ``K = 0`` degenerate to the single condition
    ``H r <= 1/2``.  The result is capped at 1.
    """
    if K < 0.0 or H < 0.0:
        raise ParameterError("admissible_rolling_radius expects K >= 0 and H >= 0")
    if K > 0.0:
        rk = math.sqrt(K)
        r1 = math.atan(0.5 * (1.0 + H) / rk) / rk
        r2 = math.atan(0.5 * rk / H) / rk if H > 0.0 else math.inf
    else:
        r1 = math.inf
        r2 = 0.5 / H if H > 0.0 else math.inf
    return min(1.0, r1, r2)


@dataclass(frozen=True)
class CurvatureData:
    """Curvature bounds for a boundary tube, in the shape convention.

    ``k_lower <= Sec <= K_upper`` holds on the tube and the principal
    curvatures of the boundary with respect to the outward normal lie
    in ``[H_min, H_max]`` (unit disk: both equal ``-1``).  ``n`` is the
    ambient dimension and enters only through the exponent ``n - 1``.
    """

    k_lower: float
    K_upper: float
    H_min: float
    H_max: float
    n: int = 2

    def __post_init__(self):
        if self.k_lower > self.K_upper:
            raise ParameterError("k_lower must not exceed K_upper")
        if self.H_min > self.H_max:
            raise ParameterError("H_min must not exceed H_max")
        if self.n < 2:
            raise ParameterError("dimension must be at least 2")


def _power(base, n):
    """``base`` to the dimensional power ``n - 1``, overflowing to ``inf`` silently.

    The base is made a numpy float first: a Python float's ``**`` ignores
    ``np.errstate`` and raises ``OverflowError`` instead."""
    with np.errstate(over="ignore"):
        return np.asarray(base, dtype=float) ** (n - 1)


def _reciprocal_jacobi(k, h, s):
    """``1 / jacobi_factor(k, h, s)``; raises once the factor has vanished."""
    m = jacobi_factor(k, h, s)
    if np.any(np.asarray(m) <= 0.0):
        raise ComparisonBreakdownError(
            f"comparison profile (k={k:g}, h={h:g}) degenerates within depth "
            f"{float(np.max(np.abs(s))):g}"
        )
    return 1.0 / m


def _extremal_depths(k, h, r):
    """Depths in ``[0, r]`` where ``jacobi_factor(k, h, .)`` can be extremal.

    These are the ends and, if it lies between them, the zero of
    ``J' = h J(k, -k/h, .)``; for ``h = 0`` that zero is the end ``0``.
    """
    s_c = jacobi_factor_zero(k, -k / h) if h != 0.0 else 0.0
    return np.array([0.0, r, s_c] if 0.0 < s_c < r else [0.0, r])


@dataclass(frozen=True)
class ComparisonProfile:
    """Tube volume-ratio profiles ``d`` (exterior) and ``D`` (interior).

    Stored as Jacobi data: the dimension-free base ratios are
    ``d_base = 1/J(k_ext, h_ext, .)`` and ``D_base = 1/J(k_int, h_int, .)``
    (spread convention), and the usable profiles are ``d = d_base**(n-1)``
    and ``D = D_base**(n-1)`` in the profile's own dimension ``n``.  ``d``
    bounds the boundary volume element from below relative to the exterior
    distance hypersurfaces (``d(s) dvol_s <= dvol_0``) and ``D`` bounds it
    from above relative to the interior ones (``dvol_0 <= D(s) dvol_{-s}``).
    The orientation is anchored to the round ball, where the exact ratios
    are ``R0/(R0+s)`` and ``R0/(R0-s)``.

    ``r0`` is the first zero of either Jacobi factor and ``r`` the
    working tube radius, which must satisfy ``0 < r < r0``; another radius
    or dimension is ``dataclasses.replace(profile, r=..., n=...)``, which
    checks the radius again.
    """

    k_ext: float
    h_ext: float
    k_int: float
    h_int: float
    r: float
    n: int = 2

    def __post_init__(self):
        if not (self.r > 0.0):
            raise ParameterError("working radius must be positive")
        if not (self.r < self.r0):
            raise ComparisonBreakdownError(
                f"working radius r={self.r} reaches degeneration radius r0={self.r0}"
            )

    @property
    def r0(self):
        """Degeneration radius: the first zero of either Jacobi factor."""
        return min(jacobi_factor_zero(self.k_ext, self.h_ext),
                   jacobi_factor_zero(self.k_int, self.h_int))

    @classmethod
    def from_curvature(cls, data: CurvatureData, r: float) -> "ComparisonProfile":
        """Profiles in ``data.n`` driven by the largest outward spread ``-H_min``."""
        return cls(data.k_lower, -data.H_min, data.K_upper, data.H_min, r, data.n)

    @classmethod
    def round_ball(cls, R0: float, r: float) -> "ComparisonProfile":
        """Exact profiles ``R0/(R0 +- s)`` of the flat round disk of radius ``R0`` (n = 2)."""
        if R0 <= 0.0:
            raise ParameterError("ball radius must be positive")
        return cls(0.0, 1.0 / R0, 0.0, -1.0 / R0, r)

    def d_base(self, s):
        """Dimension-free exterior ratio ``1/J(k_ext, h_ext, s)``."""
        return _reciprocal_jacobi(self.k_ext, self.h_ext, s)

    def D_base(self, s):
        """Dimension-free interior ratio ``1/J(k_int, h_int, s)``."""
        return _reciprocal_jacobi(self.k_int, self.h_int, s)

    def d(self, s):
        """Exterior profile: ``d_base(s)`` to the power ``n - 1``."""
        return _power(self.d_base(s), self.n)

    def D(self, s):
        """Interior profile: ``D_base(s)`` to the power ``n - 1``."""
        return _power(self.D_base(s), self.n)


def distortion_factor(profile: ComparisonProfile):
    """Worst ratio ``max_{s,t in [0,r]} D(t)/d(s)`` of a profile, exactly.

    Works over the profile's own radius ``r`` and in its dimension ``n``.
    ``d`` is smallest where the exterior Jacobi factor peaks and ``D``
    largest where the interior one bottoms out; each candidate set is
    the ends of ``[0, r]`` and the zero of ``J'`` between them.  Always
    at least 1, and ``inf`` once the power overflows.
    """
    d_min = np.min(profile.d_base(_extremal_depths(profile.k_ext, profile.h_ext, profile.r)))
    D_max = np.max(profile.D_base(_extremal_depths(profile.k_int, profile.h_int, profile.r)))
    return max(1.0, float(_power(D_max / d_min, profile.n)))


def extension_norm_bound(distortion: float, G: float, r: float):
    """Squared-norm bound of the extension operator.

    ``1 + distortion * max(164, 82 + 164 G^2 / r^2)`` where
    ``distortion`` is the tube distortion factor and ``G/r`` bounds the
    cutoff gradient.  Nonincreasing in ``r`` and at least 165.
    """
    if distortion < 1.0:
        raise ParameterError("distortion factor must be at least 1")
    if G < 0.0 or r <= 0.0:
        raise ParameterError("need G >= 0 and r > 0")
    # (G/r)^2, not G^2/r^2: r * r underflows to 0 for r below 1e-162
    return 1.0 + distortion * max(164.0, 82.0 + 164.0 * (G / r) * (G / r))


def round_ball_norm_bound(n: int, r: float):
    """Squared-norm bound for the flat round ball with its stock cutoff.

    The ball admits a distortion factor of ``3**(n-1)`` once the tube
    radius is at most half the ball radius, and its cutoff family gives
    ``1 + 3**(n-1) * max(164, 82 + 1312 / r^2)``.
    """
    if r <= 0.0:
        raise ParameterError("need r > 0")
    return 1.0 + _power(3.0, n) * max(164.0, 82.0 + 1312.0 / (r * r))


def mean_curvature_bound(k: float, h: float, s, n: int = 2):
    """Upper comparison bound for the mean curvature of distance hypersurfaces.

    Returns ``(n - 1) J'(s)/J(s)`` for ``J = jacobi_factor(k, h, .)``
    (spread convention), valid for ``0 <= s`` below the first zero of
    ``J``.  Raises :class:`ComparisonBreakdownError` at or beyond the
    zero, where the bound diverges to ``-inf``.
    """
    s_arr = np.asarray(s, dtype=float)
    m = jacobi_factor(k, h, s_arr)
    if np.any(np.asarray(m) <= 0.0):
        raise ComparisonBreakdownError("mean-curvature comparison broke down (J <= 0)")
    out = (n - 1) * jacobi_factor_prime(k, h, s_arr) / m
    return float(out) if np.ndim(s) == 0 else out
