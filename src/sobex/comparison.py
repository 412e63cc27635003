"""Closed-form curvature comparison machinery for boundary tubes.

Everything in this module is a scalar closed form built on the normal
Jacobi equation

    J'' + k J = 0,   J(0) = 1,   J'(0) = h,

whose solution ``jacobi_factor(k, h, s)`` controls how distance
hypersurfaces stretch along geodesics leaving a hypersurface with
principal curvature data ``h`` through a region of sectional curvature
``k``.  From it we derive focal radii, admissible tube radii, volume
ratio profiles, the tube distortion factor and the explicit bound on
the squared norm of the Sobolev extension operator.

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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ComparisonBreakdownError, DegenerateTubeError, ParameterError

__all__ = [
    "jacobi_factor",
    "jacobi_factor_prime",
    "jacobi_factor_zero",
    "focal_radius",
    "admissible_rolling_radius",
    "CurvatureData",
    "ComparisonProfile",
    "volume_ratio_bounds",
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
        ``cos(sqrt(k) s) + h/sqrt(k) sin(sqrt(k) s)`` for ``k > 0``,
        ``1 + h s`` for ``k = 0`` and the hyperbolic analogue for
        ``k < 0``.  Total function, no domain restriction.
    """
    s = np.asarray(s, dtype=float)
    if k > 0.0:
        rk = math.sqrt(k)
        out = np.cos(rk * s) + (h / rk) * np.sin(rk * s)
    elif k < 0.0:
        rk = math.sqrt(-k)
        out = np.cosh(rk * s) + (h / rk) * np.sinh(rk * s)
    else:
        out = 1.0 + h * s
    return out if out.ndim else float(out)


def jacobi_factor_prime(k, h, s):
    """Arclength derivative of :func:`jacobi_factor` (same conventions)."""
    s = np.asarray(s, dtype=float)
    if k > 0.0:
        rk = math.sqrt(k)
        out = -rk * np.sin(rk * s) + h * np.cos(rk * s)
    elif k < 0.0:
        rk = math.sqrt(-k)
        out = rk * np.sinh(rk * s) + h * np.cosh(rk * s)
    else:
        out = np.full_like(s, h)
    return out if out.ndim else float(out)


def jacobi_factor_zero(k, h):
    """First positive zero of ``jacobi_factor(k, h, .)``, or ``inf``.

    For ``k > 0`` a zero always exists; for ``k = 0`` it exists iff
    ``h < 0``; for ``k < 0`` iff ``h < -sqrt(-k)``.
    """
    if k > 0.0:
        rk = math.sqrt(k)
        # cot(rk s) = -h/rk has a unique root with rk s in (0, pi)
        return (0.5 * math.pi + math.atan(h / rk)) / rk
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

    @property
    def spread_max(self):
        """Largest outward normal spread over the boundary (= -H_min)."""
        return -self.H_min


def _exterior_base(data: CurvatureData) -> Callable:
    """Reciprocal of the upper Jacobi profile for outward travel."""
    k, h = data.k_lower, data.spread_max

    def d_base(s):
        m = jacobi_factor(k, h, s)
        if np.any(np.asarray(m) <= 0.0):
            raise ComparisonBreakdownError(
                "exterior comparison profile degenerated before s=%r" % (s,)
            )
        return 1.0 / m

    return d_base


def _interior_base(data: CurvatureData) -> Callable:
    """Reciprocal of the lower Jacobi profile for inward travel."""
    k, h = data.K_upper, -data.spread_max

    def D_base(s):
        m = jacobi_factor(k, h, s)
        if np.any(np.asarray(m) <= 0.0):
            raise ComparisonBreakdownError(
                "interior comparison profile degenerated before s=%r" % (s,)
            )
        return 1.0 / m

    return D_base


@dataclass(frozen=True)
class ComparisonProfile:
    """Tube volume-ratio profiles ``d`` (exterior) and ``D`` (interior).

    The stored callables are dimension-free base ratios; the usable
    profiles are ``d_base**(n-1)`` and ``D_base**(n-1)``.  ``d`` bounds
    the boundary volume element from below relative to the exterior
    distance hypersurfaces (``d(s) dvol_s <= dvol_0``) and ``D`` bounds
    it from above relative to the interior ones
    (``dvol_0 <= D(s) dvol_{-s}``).  The orientation is anchored to the
    round ball, where the exact ratios are ``R0/(R0+s)`` and
    ``R0/(R0-s)``.

    ``r0`` is the first degeneration radius of either profile and ``r``
    the working tube radius, which must not exceed it.
    """

    d_base: Callable = field(repr=False)
    D_base: Callable = field(repr=False)
    r0: float
    r: float
    label: str = ""

    def __post_init__(self):
        if not (self.r > 0.0):
            raise ParameterError("working radius must be positive")
        if self.r > self.r0:
            raise ComparisonBreakdownError(
                f"working radius r={self.r} exceeds degeneration radius r0={self.r0}"
            )
        for name, fn in (("d", self.d_base), ("D", self.D_base)):
            if abs(float(fn(0.0)) - 1.0) > 1e-12:
                raise ParameterError(f"{name}(0) must equal 1")
        samples = np.linspace(0.0, self.r, 65)
        if np.any(self.d_base(samples) <= 0.0) or np.any(self.D_base(samples) <= 0.0):
            raise DegenerateTubeError("profile not positive on [0, r]")

    @classmethod
    def from_curvature(cls, data: CurvatureData, r: float) -> "ComparisonProfile":
        """Comparison-derived profiles for the given curvature bounds."""
        r0 = min(
            jacobi_factor_zero(data.k_lower, data.spread_max),
            jacobi_factor_zero(data.K_upper, -data.spread_max),
        )
        return cls(
            d_base=_exterior_base(data),
            D_base=_interior_base(data),
            r0=r0,
            r=r,
            label="comparison",
        )

    @classmethod
    def exact(cls, d_base, D_base, r, r0=math.inf, label="exact") -> "ComparisonProfile":
        """Wrap user-supplied exact base ratios (an override of the bounds)."""
        return cls(d_base=d_base, D_base=D_base, r0=r0, r=r, label=label)

    @classmethod
    def round_ball(cls, R0: float, r: float) -> "ComparisonProfile":
        """Exact profiles of the flat round ball of radius ``R0``."""
        if R0 <= 0.0:
            raise ParameterError("ball radius must be positive")
        return cls.exact(
            d_base=lambda s: R0 / (R0 + np.asarray(s, dtype=float)),
            D_base=lambda s: R0 / (R0 - np.asarray(s, dtype=float)),
            r=r,
            r0=R0,
            label="round-ball",
        )

    def d(self, s, n):
        """Exterior profile with the dimensional exponent applied."""
        return self.d_base(s) ** (n - 1)

    def D(self, s, n):
        """Interior profile with the dimensional exponent applied."""
        return self.D_base(s) ** (n - 1)


def volume_ratio_bounds(data: CurvatureData, s, profile: ComparisonProfile | None = None):
    """Volume-ratio bounds ``(d(s), D(s))`` at tube depth ``s``.

    By default the bounds are built from the curvature data via the
    Jacobi profiles; an exact :class:`ComparisonProfile` may be passed
    to override them (any pair satisfying the defining inequalities is
    valid).  Raises :class:`ComparisonBreakdownError` when ``s`` reaches
    a profile degeneration.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ParameterError("tube depth must be nonnegative")
    if profile is None:
        profile = ComparisonProfile.from_curvature(data, max(float(np.max(s)), 1e-300))
    if np.any(s > profile.r0):
        raise ComparisonBreakdownError("depth beyond profile degeneration radius")
    d = profile.d(s, data.n)
    D = profile.D(s, data.n)
    return (float(d), float(D)) if np.ndim(s) == 0 else (d, D)


def distortion_factor(profile: ComparisonProfile, n: int, r: float, grid_size: int = 1024):
    """Worst ratio ``max_{s,t in [0,r]} D(t)/d(s)`` of a profile pair.

    Evaluated on a dense grid with local golden-section refinement of
    the two one-dimensional extrema (the profiles are smooth, and the
    extrema typically sit at the endpoints, which the grid contains).
    Always at least 1.
    """
    if r > profile.r:
        raise ParameterError("requested radius exceeds the profile's working radius")
    grid = np.linspace(0.0, r, int(grid_size) + 1)
    d_vals = np.asarray(profile.d_base(grid), dtype=float)
    D_vals = np.asarray(profile.D_base(grid), dtype=float)
    if np.any(d_vals <= 0.0):
        raise DegenerateTubeError("exterior profile hit zero on [0, r]")

    i_min = int(np.argmin(d_vals))
    i_max = int(np.argmax(D_vals))
    d_min = d_vals[i_min]
    D_max = D_vals[i_max]
    if 0 < i_min < len(grid) - 1:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda s: float(profile.d_base(s)),
            bounds=(grid[i_min - 1], grid[i_min + 1]),
            method="bounded",
            options={"xatol": 1e-13 * max(1.0, r)},
        )
        d_min = min(d_min, float(res.fun))
    if 0 < i_max < len(grid) - 1:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda s: -float(profile.D_base(s)),
            bounds=(grid[i_max - 1], grid[i_max + 1]),
            method="bounded",
            options={"xatol": 1e-13 * max(1.0, r)},
        )
        D_max = max(D_max, -float(res.fun))
    if d_min <= 0.0:
        raise DegenerateTubeError("exterior profile hit zero on [0, r]")
    return max(1.0, (D_max / d_min) ** (n - 1))


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
    return 1.0 + distortion * max(164.0, 82.0 + 164.0 * G * G / (r * r))


def round_ball_norm_bound(n: int, r: float):
    """Squared-norm bound for the flat round ball with its stock cutoff.

    The ball admits a distortion factor of ``3**(n-1)`` once the tube
    radius is at most half the ball radius, and its cutoff family gives
    ``1 + 3**(n-1) * max(164, 82 + 1312 / r^2)``.
    """
    if r <= 0.0:
        raise ParameterError("need r > 0")
    return 1.0 + 3.0 ** (n - 1) * max(164.0, 82.0 + 1312.0 / (r * r))


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
