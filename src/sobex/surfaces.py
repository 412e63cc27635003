"""Analytic model surfaces: metric, curvature, geodesics and Jacobi fields.

Two families of two-dimensional charts are supported, both of the
warped form ``g = dr^2 + f(r)^2 dtheta^2``:

* constant curvature ``kappa`` in geodesic polar coordinates, where
  ``f`` is the generalized sine ``sn_kappa``;
* explicit warped products with a user-supplied positive profile ``f``
  (plus ``f'`` and ``f''``).

These surfaces provide exact ground truth (closed-form geodesics and
distances in the constant-curvature case) against which the numerical
integrators are checked.  The chart excludes the coordinate singularity
at ``r = 0``; domains must fit a single chart.

A ``dimension`` attribute ``n`` in ``{2, 3}`` is carried along but only
enters downstream volume-ratio exponents ``n - 1``; the geometry itself
is computed on the two-dimensional chart (``n = 3`` is restricted to
constant curvature, where the normal Jacobi equation is the same scalar
ODE with multiplicity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import (
    ChartDomainError,
    ChartExitError,
    IntegrationFailure,
    InvalidSurfaceError,
    ParameterError,
)

__all__ = [
    "WarpProfile",
    "poly_cosh_mix_profile",
    "ModelSurface",
    "GeodesicState",
    "JacobiValue",
    "Trajectory",
    "integrate_geodesic",
    "jacobi_transport",
    "sn",
    "sn_prime",
    "polar_to_cartesian",
    "cartesian_to_polar",
    "constant_curvature_distance",
    "constant_curvature_geodesic",
]

_CURVATURE_SAMPLES = 512  # radii of ModelSurface.curvature_range
_JACOBI_TOL = 1e-12  # relative and absolute tolerance of the Jacobi transport
_ROW_BLOCK = 64  # rows of a squared-distance block: 1 MB a float array at 2048 columns


def sn(kappa, r):
    """Generalized sine: sin(sqrt(k) r)/sqrt(k), r, or sinh analogue."""
    r = np.asarray(r, dtype=float)
    if kappa > 0.0:
        rk = math.sqrt(kappa)
        out = np.sin(rk * r) / rk
    elif kappa < 0.0:
        rk = math.sqrt(-kappa)
        out = np.sinh(rk * r) / rk
    else:
        out = r.copy() if r.ndim else float(r)
    return out if np.ndim(out) else float(out)


def sn_prime(kappa, r):
    """Derivative of the generalized sine (cos, 1, or cosh)."""
    r = np.asarray(r, dtype=float)
    if kappa > 0.0:
        out = np.cos(math.sqrt(kappa) * r)
    elif kappa < 0.0:
        out = np.cosh(math.sqrt(-kappa) * r)
    else:
        out = np.ones_like(r)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class WarpProfile:
    """Warp factor ``f`` with first and second derivatives.

    ``(0, r_max)`` is the radial chart domain, on which ``f > 0``.
    ``has_pole`` declares that ``f(0) = 0, f'(0) = 1`` so that the chart
    closes up smoothly at ``r = 0`` and pole-centred disks make sense.
    """

    f: Callable = dc_field(repr=False)
    df: Callable = dc_field(repr=False)
    d2f: Callable = dc_field(repr=False)
    r_max: float = math.inf
    has_pole: bool = True


def poly_cosh_mix_profile(coeffs):
    """Pole profile ``f(r) = c0*r + c1*r^3 + c2*(cosh r - 1)``.

    ``coeffs`` supplies ``(c0, c1, c2)``; trailing entries default to
    zero.  ``c0 = 1`` gives a smooth pole.  Mixing a negative ``c2``
    into a positive ``c1`` produces sign-changing Gauss curvature,
    which is the interesting regime for the integral-curvature checks.
    """
    c = list(coeffs) + [0.0] * (3 - len(coeffs))
    if len(c) != 3:
        raise ParameterError("poly_cosh_mix takes at most three coefficients")
    c0, c1, c2 = (float(v) for v in c)

    def f(r):
        r = np.asarray(r, dtype=float)
        return c0 * r + c1 * r**3 + c2 * (np.cosh(r) - 1.0)

    def df(r):
        r = np.asarray(r, dtype=float)
        return c0 + 3.0 * c1 * r**2 + c2 * np.sinh(r)

    def d2f(r):
        r = np.asarray(r, dtype=float)
        return 6.0 * c1 * r + c2 * np.cosh(r)

    # conservative positive-radius cap: the last grid point before f first
    # stops being positive, so the cap stays at or below the zero of f
    r_max = math.inf
    grid = np.linspace(1e-6, 50.0, 20001)
    bad = np.nonzero(f(grid) <= 0.0)[0]
    if bad.size:
        r_max = float(grid[bad[0] - 1]) if bad[0] else 0.0
    return WarpProfile(f=f, df=df, d2f=d2f, r_max=r_max, has_pole=(c0 > 0.0))


@dataclass(frozen=True)
class ModelSurface:
    """A model Riemannian chart ``dr^2 + f(r)^2 dtheta^2``."""

    kind: str  # "constant" or "warped"
    kappa: float = 0.0
    profile: WarpProfile | None = None
    dimension: int = 2

    def __post_init__(self):
        if self.kind not in ("constant", "warped"):
            raise InvalidSurfaceError(f"unknown surface kind {self.kind!r}")
        if self.kind == "warped" and self.profile is None:
            raise InvalidSurfaceError("warped surface needs a profile")
        if not math.isfinite(self.kappa):
            raise InvalidSurfaceError("curvature kappa must be finite")
        if self.dimension not in (2, 3):
            raise InvalidSurfaceError("dimension must be 2 or 3")
        if self.dimension == 3 and self.kind != "constant":
            raise InvalidSurfaceError("n = 3 is supported for constant curvature only")

    @classmethod
    def constant_curvature(cls, kappa, dimension=2):
        return cls(kind="constant", kappa=float(kappa), dimension=dimension)

    @classmethod
    def warped(cls, profile: WarpProfile, dimension=2):
        return cls(kind="warped", profile=profile, dimension=dimension)

    # -- chart bookkeeping -------------------------------------------------

    @property
    def r_limits(self):
        """Open radial interval on which the chart is valid."""
        if self.kind == "constant":
            hi = math.pi / math.sqrt(self.kappa) if self.kappa > 0.0 else math.inf
            return (0.0, hi)
        return (0.0, self.profile.r_max)

    @property
    def has_pole(self):
        return True if self.kind == "constant" else self.profile.has_pole

    def _require_in_chart(self, r):
        lo, hi = self.r_limits
        r = np.asarray(r, dtype=float)
        if np.any(r <= lo) or np.any(r >= hi):
            raise ChartDomainError(
                f"radial coordinate outside chart domain ({lo}, {hi})"
            )

    # -- metric and curvature ----------------------------------------------

    def warp(self, r):
        """Warp factor ``f(r)`` (the length of the angular coordinate vector)."""
        if self.kind == "constant":
            return sn(self.kappa, r)
        return self.profile.f(r)

    def warp_prime(self, r):
        if self.kind == "constant":
            return sn_prime(self.kappa, r)
        return self.profile.df(r)

    def gauss_curvature(self, r):
        """Gauss curvature at radii ``r``: ``kappa`` or ``-f''/f``."""
        if self.kind == "constant":
            return self.kappa if np.ndim(r) == 0 else np.full(np.shape(r), self.kappa)
        f = self.profile.f(np.asarray(r, dtype=float))
        if np.any(np.asarray(f) <= 0.0):
            raise InvalidSurfaceError("warp factor must be positive")
        out = -self.profile.d2f(np.asarray(r, dtype=float)) / f
        return float(out) if np.ndim(r) == 0 else out

    def curvature_range(self, r_lo, r_hi):
        """(min, max) Gauss curvature over a radial interval of the chart."""
        if self.kind == "constant":
            return (self.kappa, self.kappa)
        lo, hi = self.r_limits
        grid = np.linspace(max(r_lo, lo + 1e-12), min(r_hi, hi - 1e-12), _CURVATURE_SAMPLES)
        vals = self.gauss_curvature(grid)
        return (float(np.min(vals)), float(np.max(vals)))

    def speed(self, position, velocity):
        """Metric norm of a chart tangent vector at ``position``."""
        f = self.warp(position[0])
        return math.hypot(velocity[0], f * velocity[1])


@dataclass(frozen=True)
class GeodesicState:
    """Chart position, chart velocity (unit metric norm) and arclength."""

    position: tuple
    velocity: tuple
    arclength: float = 0.0


@dataclass(frozen=True)
class JacobiValue:
    """Scalar normal Jacobi data: value and arclength derivative."""

    value: float
    derivative: float


class Trajectory:
    """A unit-speed geodesic computed by the adaptive integrator.

    Behaves as a sequence of :class:`GeodesicState` at the accepted
    integrator steps and offers dense evaluation via :meth:`state_at`.
    No per-step renormalization is applied, so the unit-speed invariant
    genuinely measures integrator quality.
    """

    def __init__(self, surface, sol, length):
        self.surface = surface
        self._sol = sol
        self.length = float(length)
        self.states = [
            GeodesicState(
                position=(float(y[0]), float(y[1])),
                velocity=(float(y[2]), float(y[3])),
                arclength=float(t),
            )
            for t, y in zip(sol.t, sol.y.T)
        ]

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def state_at(self, s):
        y = self._sol.sol(float(s))
        return GeodesicState(
            position=(float(y[0]), float(y[1])),
            velocity=(float(y[2]), float(y[3])),
            arclength=float(s),
        )

    def position_at(self, s):
        y = self._sol.sol(np.asarray(s, dtype=float))
        return y[0], y[1]

    @property
    def end(self):
        return self.states[-1]


def _geodesic_rhs(surface):
    f = surface.warp
    df = surface.warp_prime

    def rhs(_, y):
        r, _theta, pr, pt = y
        fr = f(r)
        dfr = df(r)
        return [pr, pt, fr * dfr * pt * pt, -2.0 * (dfr / fr) * pr * pt]

    return rhs


def _jacobi_rhs(surface, trajectory):
    """Right-hand side of ``J'' + K(gamma(s)) J = 0`` along ``trajectory``."""
    if surface.kind == "constant":
        def curv(_):
            return surface.kappa
    else:
        def curv(t):
            r, _ = trajectory.position_at(t)
            return surface.gauss_curvature(float(r))

    def rhs(t, y):
        return [y[1], -curv(t) * y[0]]

    return rhs


def integrate_geodesic(surface, start: GeodesicState, length, tol=1e-10):
    """Integrate the geodesic flow from ``start`` for a given arclength.

    The requested ``tol`` is the contract on the returned trajectory
    (unit-speed drift and endpoint error); the solver runs two orders
    of magnitude tighter to deliver it.  If the trajectory leaves the
    chart a :class:`ChartExitError` is raised carrying the usable
    partial trajectory in its ``partial`` attribute.
    """
    if tol <= 0.0:
        raise ParameterError("tolerance must be positive")
    if length < 0.0:
        raise ParameterError("length must be nonnegative; flip the velocity instead")
    r0 = start.position[0]
    surface._require_in_chart(r0)
    nrm = surface.speed(start.position, start.velocity)
    if abs(nrm - 1.0) > 1e-8:
        raise ParameterError("start velocity must be unit length in the metric")

    lo, hi = surface.r_limits
    margin = 1e-12

    def exit_low(_, y):
        return y[0] - (lo + margin)

    exit_low.terminal = True
    exit_low.direction = -1.0

    def exit_high(_, y):
        return (hi - margin) - y[0] if math.isfinite(hi) else 1.0

    exit_high.terminal = True
    exit_high.direction = -1.0

    from scipy.integrate import solve_ivp

    y0 = [start.position[0], start.position[1], start.velocity[0], start.velocity[1]]
    solver_tol = max(tol * 1e-2, 1e-13)
    sol = solve_ivp(
        _geodesic_rhs(surface),
        (0.0, float(length)),
        y0,
        method="DOP853",
        rtol=solver_tol,
        atol=solver_tol,
        dense_output=True,
        events=[exit_low, exit_high],
    )
    if sol.status == 1:  # a terminal event fired: left the chart
        partial = Trajectory(surface, sol, sol.t[-1])
        raise ChartExitError(
            f"geodesic left the chart at arclength {sol.t[-1]:.6g}", partial=partial
        )
    if not sol.success:
        raise IntegrationFailure(f"geodesic integration failed: {sol.message}")
    return Trajectory(surface, sol, length)


def jacobi_transport(surface, trajectory: Trajectory, initial: JacobiValue, s=None):
    """Transport scalar normal Jacobi data ``J'' + K(gamma(s)) J = 0``.

    ``s`` defaults to the trajectory length.  The transport is linear
    in the initial data and is integrated numerically along the given
    trajectory; closed-form solutions exist in constant curvature and
    serve as independent oracles in the test-suite.
    """
    s_end = trajectory.length if s is None else float(s)
    if s_end < 0.0 or s_end > trajectory.length + 1e-12:
        raise ParameterError("requested arclength outside the trajectory")
    if s_end == 0.0:
        return JacobiValue(initial.value, initial.derivative)
    value, derivative = jacobi_values(surface, trajectory, initial, [s_end])
    return JacobiValue(float(value[0]), float(derivative[0]))


def jacobi_values(surface, trajectory: Trajectory, initial: JacobiValue, s_grid):
    """Jacobi field values on a grid of arclengths (one integration pass)."""
    from scipy.integrate import solve_ivp

    s_grid = np.asarray(s_grid, dtype=float)
    sol = solve_ivp(
        _jacobi_rhs(surface, trajectory),
        (0.0, float(s_grid[-1])),
        [initial.value, initial.derivative],
        method="DOP853",
        rtol=_JACOBI_TOL,
        atol=_JACOBI_TOL,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationFailure(f"Jacobi transport failed: {sol.message}")
    out = sol.sol(s_grid)
    return out[0], out[1]


# -- closed forms for constant curvature ------------------------------------


def polar_to_cartesian(points):
    """Map chart points ``(r, theta)`` of a flat chart to the plane."""
    pts = np.asarray(points, dtype=float)
    r, th = pts[..., 0], pts[..., 1]
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def cartesian_to_polar(points):
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([np.hypot(x, y), np.mod(np.arctan2(y, x), 2.0 * math.pi)], axis=-1)


def row_blocks(n):
    """Slices of at most ``_ROW_BLOCK`` rows covering ``range(n)``: the row
    blocks callers of :func:`squared_distances` sweep a table in."""
    return (slice(lo, lo + _ROW_BLOCK) for lo in range(0, n, _ROW_BLOCK))


def squared_distances(x, y):
    """Squared plane distances ``dx*dx + dy*dy`` from each row of ``x`` to each
    row of ``y``, shape ``(len(x), len(y))``.

    Their square roots are bit for bit SciPy's ``cdist`` and ``pdist``
    Euclidean distances, and the square root is monotone, so a nearest or
    farthest point can be found on the squares.  A distance past the float
    range reads ``inf`` without a warning."""
    with np.errstate(over="ignore"):
        d2 = x[:, None, 0] - y[None, :, 0]
        dy = x[:, None, 1] - y[None, :, 1]
        d2 *= d2
        dy *= dy
        d2 += dy
    return d2


def _embed(kappa, points):
    """Embed chart points into the model quadric (sphere or hyperboloid)."""
    pts = np.asarray(points, dtype=float)
    r, th = pts[..., 0], pts[..., 1]
    if kappa > 0.0:
        R = 1.0 / math.sqrt(kappa)
        s = R * np.sin(r / R)
        return np.stack([s * np.cos(th), s * np.sin(th), R * np.cos(r / R)], axis=-1)
    R = 1.0 / math.sqrt(-kappa)
    s = R * np.sinh(r / R)
    return np.stack([s * np.cos(th), s * np.sin(th), R * np.cosh(r / R)], axis=-1)


def _unembed(kappa, X):
    X = np.asarray(X, dtype=float)
    th = np.mod(np.arctan2(X[..., 1], X[..., 0]), 2.0 * math.pi)
    if kappa > 0.0:
        R = 1.0 / math.sqrt(kappa)
        c = np.clip(X[..., 2] / R, -1.0, 1.0)
        return np.stack([R * np.arccos(c), th], axis=-1)
    R = 1.0 / math.sqrt(-kappa)
    c = np.maximum(X[..., 2] / R, 1.0)
    return np.stack([R * np.arccosh(c), th], axis=-1)


def constant_curvature_distance(kappa, p, q):
    """Exact geodesic distance between chart points on a constant-curvature surface."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if kappa == 0.0:
        return np.linalg.norm(polar_to_cartesian(p) - polar_to_cartesian(q), axis=-1)
    r1, t1 = p[..., 0], p[..., 1]
    r2, t2 = q[..., 0], q[..., 1]
    dth = t1 - t2
    if kappa > 0.0:
        rk = math.sqrt(kappa)
        cosd = np.cos(rk * r1) * np.cos(rk * r2) + np.sin(rk * r1) * np.sin(rk * r2) * np.cos(dth)
        return np.arccos(np.clip(cosd, -1.0, 1.0)) / rk
    rk = math.sqrt(-kappa)
    coshd = np.cosh(rk * r1) * np.cosh(rk * r2) - np.sinh(rk * r1) * np.sinh(rk * r2) * np.cos(dth)
    return np.arccosh(np.maximum(coshd, 1.0)) / rk


def constant_curvature_geodesic(kappa, start: GeodesicState, s):
    """Exact geodesic flow on a constant-curvature surface.

    Serves as the independent oracle for :func:`integrate_geodesic`.
    Returns chart positions at the arclengths ``s``.
    """
    s = np.asarray(s, dtype=float)
    r0, th0 = start.position
    vr, vt = start.velocity
    if kappa == 0.0:
        X0 = polar_to_cartesian(np.array([r0, th0]))
        er = np.array([math.cos(th0), math.sin(th0)])
        et = np.array([-math.sin(th0), math.cos(th0)])
        V = vr * er + (r0 * vt) * et
        pts = X0[None, :] + s[..., None] * V[None, :]
        return cartesian_to_polar(pts)
    X0 = _embed(kappa, np.array([r0, th0]))
    f = sn(kappa, r0)
    fp = sn_prime(kappa, r0)
    # orthonormal chart frame pushed to the quadric
    if kappa > 0.0:
        e_r = np.array([fp * math.cos(th0), fp * math.sin(th0), -math.sqrt(kappa) * f])
    else:
        e_r = np.array([fp * math.cos(th0), fp * math.sin(th0), math.sqrt(-kappa) * f])
    e_t = np.array([-math.sin(th0), math.cos(th0), 0.0])
    V = vr * e_r + (f * vt) * e_t
    if kappa > 0.0:
        R = 1.0 / math.sqrt(kappa)
        X = np.cos(s / R)[..., None] * X0 + (R * np.sin(s / R))[..., None] * V
    else:
        R = 1.0 / math.sqrt(-kappa)
        X = np.cosh(s / R)[..., None] * X0 + (R * np.sinh(s / R))[..., None] * V
    return _unembed(kappa, X)
