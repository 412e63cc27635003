"""Domains with smooth boundary on model surfaces and their normal charts.

A :class:`DomainSpec` couples a model surface with a boundary curve
(geodesic disk, or a truncated-Fourier radial profile in the flat
chart).  A :class:`FermiChart` parametrizes the tube around the
boundary by signed normal distance ``s`` and boundary parameter
``theta`` through the map ``(s, theta) -> exp_{c(theta)}(s nu)``,
with ``s > 0`` on the outside.  The chart also evaluates the volume
element of the distance hypersurfaces through scalar normal Jacobi
fields, and :func:`check_regularity` certifies the rolling-ball,
curvature and injectivity conditions numerically.

On flat charts (Fourier blobs, off-centre disks) the tube geometry is
formed in one place, ``_FlatCurveEngine._frame``: one evaluation of the
boundary curve gives the point, velocity, outward normal, spread and
speed, and the map, both Jacobians, the volume ratio, the focal reach
and the foot-point Newton steps read that frame.  Newton starts at the
nearest of 2048 boundary samples, found on the table of squared
distances swept 64 points at a time; a point has two feet (is
ambiguous) when the nearest sample more than 8 samples away from the
nearest one is within ``1e-6`` of as near.

The rolling-ball margins read each engine's ``boundary_distance``: exact
on disks (``|rho - a|`` about the pole, ``| |x - c0| - a |`` off it) and
the nearest of the 2048 samples on Fourier blobs.

Sign convention: ``second_fundamental`` (II) is reported with respect
to the outward normal and anchored so that the unit disk carries
``II = -1``; the outward normal spread used by the Jacobi fields is
``-II``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import comparison
from .errors import (
    FocalPointError,
    InvalidDomainError,
    OutOfTubeError,
    ParameterError,
)
from .surfaces import (
    ModelSurface,
    cartesian_to_polar,
    polar_to_cartesian,
    row_blocks,
    squared_distances,
)

__all__ = [
    "GeodesicDisk",
    "RadialProfile",
    "DomainSpec",
    "BoundarySample",
    "FermiChart",
    "RegularityReport",
    "check_regularity",
]

_TWO_PI = 2.0 * math.pi
# the flat foot-point search: full Newton steps from the nearest of
# _N_BOUNDARY boundary samples (also the blob's rolling-ball distances);
# feet more than _SEPARATION samples apart and within _FOOT_TIE of
# equally near make a point ambiguous; Newton stops below _FOOT_TOL times
# a point's size (at least 1), and a residual of 10 _FOOT_TOL is a miss
_NEWTON_STEPS, _N_BOUNDARY, _SEPARATION, _FOOT_TIE, _FOOT_TOL = 60, 2048, 8, 1e-6, 1e-9
# boundary samples of a chart
_N_THETA = 256


@dataclass(frozen=True)
class GeodesicDisk:
    """Geodesic disk of the given radius about a chart point."""

    center: tuple = (0.0, 0.0)
    radius: float = 1.0


@dataclass(frozen=True)
class RadialProfile:
    """Boundary ``rho(theta) > 0`` as a truncated Fourier series (flat chart only).

    ``rho(theta) = cos_coeffs[0] + sum_k cos_coeffs[k] cos(k theta)
    + sum_k sin_coeffs[k-1] sin(k theta)``.
    """

    cos_coeffs: tuple = (1.0,)
    sin_coeffs: tuple = ()

    def _modes(self):
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        return a, b

    def rho(self, theta):
        return self.derivatives(theta)[0]

    def derivatives(self, theta):
        """``(rho, rho', rho'')`` at ``theta``; each ``cos k theta``, ``sin k theta`` once."""
        theta = np.asarray(theta, dtype=float)
        a, b = self._modes()
        rho = np.full_like(theta, a[0])
        d1, d2 = np.zeros_like(theta), np.zeros_like(theta)
        for k in range(1, max(len(a) - 1, len(b)) + 1):
            ck, sk = np.cos(k * theta), np.sin(k * theta)
            if k < len(a):
                rho, d1, d2 = rho + a[k] * ck, d1 - k * a[k] * sk, d2 - k * k * a[k] * ck
            if k <= len(b):
                bk = b[k - 1]
                rho, d1, d2 = rho + bk * sk, d1 + k * bk * ck, d2 - k * k * bk * sk
        return rho, d1, d2


@dataclass(frozen=True)
class DomainSpec:
    """A smooth bounded domain on a model surface with outward orientation."""

    surface: ModelSurface
    boundary: object

    def __post_init__(self):
        if isinstance(self.boundary, RadialProfile):
            if not (self.surface.kind == "constant" and self.surface.kappa == 0.0):
                raise InvalidDomainError("radial profiles live in the flat chart only")
            a, b = self.boundary._modes()
            if a.size == 0 or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise InvalidDomainError(
                    "radial profile needs a constant term and finite coefficients"
                )
            theta = np.linspace(0.0, _TWO_PI, 4096, endpoint=False)
            if np.any(self.boundary.rho(theta) <= 0.0):
                raise InvalidDomainError("radial profile must be positive")
        elif isinstance(self.boundary, GeodesicDisk):
            cx, cy = self.boundary.center
            if not (math.isfinite(cx) and math.isfinite(cy)):
                raise InvalidDomainError("disk centre must be finite")
            off_pole = (cx != 0.0) or (cy != 0.0)
            flat = self.surface.kind == "constant" and self.surface.kappa == 0.0
            if off_pole and not flat:
                raise InvalidDomainError(
                    "geodesic disks on curved surfaces must be centred at the chart pole"
                )
            if not off_pole and not self.surface.has_pole:
                raise InvalidDomainError("surface chart has no pole to centre a disk on")
            lo, hi = self.surface.r_limits
            if not (0.0 < self.boundary.radius < hi):
                raise InvalidDomainError("disk radius outside the chart")
            with np.errstate(all="ignore"):  # the overflow is the answer, not a warning
                f = float(self.surface.warp(self.boundary.radius))
            if not math.isfinite(f * f):
                raise InvalidDomainError(
                    f"disk radius {self.boundary.radius:g} overflows the metric f(radius)^2")
        else:
            raise InvalidDomainError(f"unknown boundary type {type(self.boundary).__name__}")

    # -- membership, sizes ---------------------------------------------------

    def contains(self, points):
        """Closed-domain membership test for chart points (vectorized)."""
        return self._engine().contains(points)

    def diameter(self):
        if isinstance(self.boundary, GeodesicDisk):
            # 2a without building the engine, which overflows on a huge disk
            return 2.0 * float(self.boundary.radius)
        return self._engine().diameter()

    def _engine(self):
        eng = getattr(self, "_engine_cache", None)
        if eng is None:
            eng = _make_engine(self)
            object.__setattr__(self, "_engine_cache", eng)
        return eng

    def boundary_point(self, theta):
        """Boundary data at parameter(s) ``theta``: see :class:`BoundarySample`."""
        return self._engine().boundary(np.mod(np.asarray(theta, dtype=float), _TWO_PI))


@dataclass(frozen=True)
class BoundarySample:
    """Boundary data on a parameter grid.

    ``point`` are chart coordinates, ``normal`` outward-unit chart
    components, ``second_fundamental`` the scalar II in the disk-anchored
    convention (unit disk: -1), ``spread = -II`` the outward normal
    spread rate, and ``speed`` the length of the parameter velocity
    (line element of the boundary measure).
    """

    theta: np.ndarray
    point: np.ndarray
    normal: np.ndarray
    second_fundamental: np.ndarray
    spread: np.ndarray
    speed: np.ndarray


# ---------------------------------------------------------------------------
# geometry engines
# ---------------------------------------------------------------------------


class _PoleDiskEngine:
    """Pole-centred geodesic disk on any model surface (radial normals)."""

    c0 = np.zeros(2)  # plane centre of the domain rule's polar coordinates

    def __init__(self, domain):
        self.surface = domain.surface
        self.a = float(domain.boundary.radius)
        self.f_a = float(self.surface.warp(self.a))
        self.df_a = float(self.surface.warp_prime(self.a))
        self.sigma0 = self.df_a / self.f_a

    def boundary(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        n = theta.shape[0]
        pts = np.stack([np.full(n, self.a), theta], axis=-1)
        normals = np.tile(np.array([1.0, 0.0]), (n, 1))
        sig = np.full(n, self.sigma0)
        return BoundarySample(theta, pts, normals, -sig, sig, np.full(n, self.f_a))

    def map(self, s, theta):
        s, theta = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(theta, dtype=float)
        )
        return np.stack([self.a + s, np.mod(theta, _TWO_PI)], axis=-1)

    def invert(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = pts[:, 0] - self.a
        theta = np.mod(pts[:, 1], _TWO_PI)
        ok = np.ones(pts.shape[0], dtype=bool)
        amb = np.zeros(pts.shape[0], dtype=bool)
        return s, theta, ok, amb

    def ratio(self, theta, s):
        s = np.asarray(s, dtype=float)
        return np.asarray(self.surface.warp(self.a + s), dtype=float) / self.f_a

    def _radial_frame(self, s, theta):
        """Radius ``a + s`` of the mapped points and their radial unit vector."""
        rho, th = np.moveaxis(self.map(s, theta), -1, 0)
        return rho, np.stack([np.cos(th), np.sin(th)], axis=-1)

    def theta_jacobian(self, s, theta):
        """d(map)/d(theta) in the plane: ``(a + s)(-sin theta, cos theta)``."""
        rho, e = self._radial_frame(s, theta)
        return np.stack([rho * -e[..., 1], rho * e[..., 0]], axis=-1)

    def s_jacobian(self, s, theta):
        """d(map)/ds in the plane: the radial unit vector ``(cos theta, sin theta)``."""
        return self._radial_frame(s, theta)[1]

    def radial_extent(self, theta):
        """Boundary radius about ``c0`` above each angle (for domain quadrature)."""
        theta = np.asarray(theta, dtype=float)
        return np.full(theta.shape, self.a)

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts[:, 0] <= self.a + 0.0

    def focal_reach(self):
        """Largest s with positive Jacobi ratio on (-s, s) for all directions."""
        surf = self.surface
        lo, hi = surf.r_limits
        inward = self.a - lo
        outward = hi - self.a
        if surf.kind == "constant":
            inward = min(inward, comparison.jacobi_factor_zero(surf.kappa, -self.sigma0))
            outward = min(outward, comparison.jacobi_factor_zero(surf.kappa, self.sigma0))
        return min(inward, outward)

    def tube_curvature_range(self, r):
        return self.surface.curvature_range(self.a - r, self.a + r)

    def boundary_distance(self, points):
        """Distance from chart points to the boundary circle: ``|rho - a|``.

        The radial coordinate is the distance from the pole, so it is
        1-Lipschitz (the metric ``dr^2 + f^2 dtheta^2`` is at least
        ``dr^2``): no curve from ``rho`` to the circle ``rho = a`` is shorter
        than ``|rho - a|``, and the radial segment has exactly that length.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(pts[:, 0] - self.a)


class _Frame(NamedTuple):
    """Point, velocity ``c'``, outward normal, spread and speed of a flat curve.

    In the plane ``dn/dtheta = spread * c'``, so the tube point
    ``c + s n`` moves with ``c' (1 + spread s)`` along the curve.
    """

    point: np.ndarray
    velocity: np.ndarray
    normal: np.ndarray
    spread: np.ndarray
    speed: np.ndarray

    def at(self, s):
        """Cartesian tube point at depth ``s``."""
        return self.point + s[..., None] * self.normal

    def theta_velocity(self, s):
        """d/dtheta of the tube point at depth ``s``: ``c' (1 + spread s)``."""
        return self.velocity * (1.0 + self.spread * s)[..., None]


class _FlatCurveEngine:
    """Flat chart, boundary a closed Cartesian curve: subclasses define
    ``curve(theta) -> (c, c', c'')``, ``contains`` and ``radial_extent``."""

    c0 = np.zeros(2)  # plane centre of the domain rule's polar coordinates

    def __init__(self, domain):
        self.surface = domain.surface

    def _frame(self, theta):
        c, dc, d2c = self.curve(theta)
        speed = np.linalg.norm(dc, axis=-1)
        tangent = dc / speed[..., None]
        normal = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
        cross = dc[..., 0] * d2c[..., 1] - dc[..., 1] * d2c[..., 0]
        sigma = cross / speed**3  # signed curvature = outward spread (circle: +1/R)
        return _Frame(c, dc, normal, sigma, speed)

    def _tube(self, s, theta):
        # the frame at the given angles only; depths broadcast against it
        s = np.asarray(s, dtype=float)
        f = self._frame(np.asarray(theta, dtype=float))
        return s, f, f.at(s)

    def boundary(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        f = self._frame(theta)
        return BoundarySample(
            theta, cartesian_to_polar(f.point), f.normal, -f.spread, f.spread, f.speed
        )

    def map(self, s, theta):
        return cartesian_to_polar(self._tube(s, theta)[2])

    def theta_jacobian(self, s, theta):
        """d(map)/d(theta) in the plane: ``c' (1 + spread s)``."""
        s, f, _ = self._tube(s, theta)
        return f.theta_velocity(s)

    def s_jacobian(self, s, theta):
        """d(map)/ds in the plane: the outward normal, at every depth."""
        _, f, pos = self._tube(s, theta)
        return np.broadcast_to(f.normal, pos.shape)

    def ratio(self, theta, s):
        sigma = self._frame(np.asarray(theta, dtype=float)).spread
        return 1.0 + sigma * np.asarray(s, dtype=float)

    @cached_property
    def _samples(self):
        """The boundary at angles ``k 2 pi / _N_BOUNDARY``, shape ``(_N_BOUNDARY, 2)``."""
        return self.curve(np.arange(_N_BOUNDARY) * (_TWO_PI / _N_BOUNDARY))[0]

    def _dense_feet(self, x):
        """Nearest dense sample of Cartesian points (the first of a tie), its
        distance, and the two-feet flag, one block of the squared table at a time."""
        n = x.shape[0]
        idx, best, runner = np.zeros(n, dtype=int), np.empty(n), np.empty(n)
        band = np.arange(-_SEPARATION, _SEPARATION + 1)
        for rows in row_blocks(n):
            d2 = squared_distances(x[rows], self._samples)
            k = np.arange(d2.shape[0])
            i = np.argmin(d2, axis=1)
            idx[rows], best[rows] = i, d2[k, i]
            # the runner-up lies more than _SEPARATION samples from the nearest
            d2[k[:, None], (i[:, None] + band) % _N_BOUNDARY] = np.inf
            runner[rows] = np.min(d2, axis=1)
        d_best = np.sqrt(best)
        # overflowing distances tie everywhere at +inf
        amb = (np.sqrt(runner) <= d_best + _FOOT_TIE) | np.isinf(d_best)
        return idx, d_best, amb

    def invert(self, points):
        pts_polar = np.atleast_2d(np.asarray(points, dtype=float))
        x = polar_to_cartesian(pts_polar)
        idx, d_best, amb = self._dense_feet(x)
        theta = idx * (_TWO_PI / _N_BOUNDARY)

        f = self._frame(theta)
        s = np.sum((x - f.point) * f.normal, axis=-1)
        # a point whose distances overflow is ambiguous and keeps its dense
        # foot: Newton would square its coordinates past the float range
        finite = np.isfinite(d_best)
        active = finite.copy()
        # each point converges relative to its own size
        scale = np.ones(x.shape[0])
        scale[finite] = np.maximum(1.0, np.linalg.norm(x[finite], axis=-1))
        for _ in range(_NEWTON_STEPS):
            if not np.any(active):
                break
            th_a, s_a, x_a = theta[active], s[active], x[active]
            f = self._frame(th_a)
            res = f.at(s_a) - x_a
            res_norm = np.linalg.norm(res, axis=-1)
            done = res_norm < _FOOT_TOL * scale[active]
            # the Jacobian's columns d/dtheta and d/ds = n are orthogonal
            j_theta = f.theta_velocity(s_a)
            j_sq = np.maximum(np.sum(j_theta * j_theta, axis=-1), 1e-300)
            dth = -np.sum(res * j_theta, axis=-1) / j_sq
            ds = -np.sum(res * f.normal, axis=-1)
            theta[active] = np.where(done, th_a, th_a + dth)
            s[active] = np.where(done, s_a, s_a + ds)
            still = np.zeros(x.shape[0], dtype=bool)
            still[active] = ~done
            active = still

        resid = np.linalg.norm(self._frame(theta[finite]).at(s[finite]) - x[finite], axis=-1)
        ok = np.zeros(x.shape[0], dtype=bool)
        ok[finite] = resid < 10.0 * _FOOT_TOL * scale[finite]
        # for ambiguous points report the conservative (dense-sample) signed
        # distance, so callers can still classify them as in/out of a tube
        if np.any(amb):
            sign = np.where(self.contains(pts_polar[amb]), -1.0, 1.0)
            s[amb] = sign * d_best[amb]
            ok = ok | amb
        return s, np.mod(theta, _TWO_PI), ok, amb

    def boundary_distance(self, points):
        """Distance from chart points to the nearest of the 2048 dense samples."""
        x = polar_to_cartesian(np.atleast_2d(np.asarray(points, dtype=float)))
        d2 = np.empty(x.shape[0])
        for rows in row_blocks(x.shape[0]):
            d2[rows] = np.min(squared_distances(x[rows], self._samples), axis=1)
        return np.sqrt(d2)

    def focal_reach(self):
        """``1 / max |spread|``: where ``1 + spread s`` first vanishes either way."""
        sigma = self._frame(np.arange(4096) * (_TWO_PI / 4096)).spread
        return 1.0 / float(np.max(np.abs(sigma)))

    def tube_curvature_range(self, r):
        return (0.0, 0.0)


class _FlatCircleEngine(_FlatCurveEngine):
    """Circle of radius ``a`` about an arbitrary flat-chart centre."""

    def __init__(self, domain):
        super().__init__(domain)
        self.a = float(domain.boundary.radius)
        # the centre is a chart (polar) point like everything else
        self.c0 = polar_to_cartesian(np.asarray(domain.boundary.center, dtype=float))

    def curve(self, theta):
        theta = np.asarray(theta, dtype=float)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        de = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        c = self.c0 + self.a * e
        return c, self.a * de, -self.a * e

    def invert(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x = polar_to_cartesian(pts) - self.c0
        rr = np.hypot(x[:, 0], x[:, 1])
        s = rr - self.a
        theta = np.mod(np.arctan2(x[:, 1], x[:, 0]), _TWO_PI)
        ok = rr > 1e-14
        amb = ~ok
        return s, theta, ok, amb

    def contains(self, points):
        return self._centre_distance(points) <= self.a

    def radial_extent(self, theta):
        """Boundary radius ``a`` about the centre ``c0`` above each angle."""
        return np.full(np.shape(theta), self.a)

    def boundary_distance(self, points):
        """Distance from chart points to the circle: ``| |x - c0| - a |``."""
        return np.abs(self._centre_distance(points) - self.a)

    def _centre_distance(self, points):
        x = polar_to_cartesian(np.atleast_2d(np.asarray(points, dtype=float))) - self.c0
        return np.hypot(x[:, 0], x[:, 1])


class _FlatFourierEngine(_FlatCurveEngine):
    """Flat-chart boundary from a truncated Fourier radial profile."""

    def __init__(self, domain):
        super().__init__(domain)
        self.profile = domain.boundary

    def curve(self, theta):
        theta = np.asarray(theta, dtype=float)
        rho, dr, d2r = self.profile.derivatives(theta)
        ct, st = np.cos(theta), np.sin(theta)
        e = np.stack([ct, st], axis=-1)
        de = np.stack([-st, ct], axis=-1)
        c = rho[..., None] * e
        dc = dr[..., None] * e + rho[..., None] * de
        d2c = (d2r - rho)[..., None] * e + 2.0 * dr[..., None] * de
        return c, dc, d2c

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts[:, 0] <= self.profile.rho(pts[:, 1])

    def radial_extent(self, theta):
        return self.profile.rho(np.asarray(theta, dtype=float))

    def diameter(self):
        return self._diameter

    @cached_property
    def _diameter(self):
        """The largest chord between dense samples: the diameter of a compact
        planar set is attained on its boundary.

        The row of the sample farthest from the centroid bounds it below by
        ``L``.  A chord of length ``L`` or more has each end at distance
        ``r_i >= L - r_max`` from the centroid, so only those samples (with a
        rounding margin) enter the sweep over pairs."""
        c = self._samples
        r = np.sqrt(squared_distances(np.mean(c, axis=0)[None], c)[0])
        far = int(np.argmax(r))
        best = np.max(squared_distances(c[far:far + 1], c))
        keep = c[(r + r[far]) * (1.0 + 1e-9) >= np.sqrt(best)]
        for rows in row_blocks(keep.shape[0]):
            best = max(best, np.max(squared_distances(keep[rows], keep[rows.start:])))
        return float(np.sqrt(best))


def _make_engine(domain: DomainSpec):
    b = domain.boundary
    if isinstance(b, RadialProfile):
        return _FlatFourierEngine(domain)
    flat = domain.surface.kind == "constant" and domain.surface.kappa == 0.0
    if isinstance(b, GeodesicDisk):
        cx, cy = b.center
        if flat and (cx != 0.0 or cy != 0.0):
            return _FlatCircleEngine(domain)
        return _PoleDiskEngine(domain)
    raise InvalidDomainError("unsupported boundary type")


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------


class FermiChart:
    """Signed-normal-distance parametrization of a boundary tube.

    Immutable after construction; all queries are vectorized and safe
    for concurrent use.  ``r`` must stay below the focal reach of the
    boundary (first vanishing of a normal Jacobi field in either
    direction), which is verified at build time.
    """

    def __init__(self, domain: DomainSpec, r: float):
        if r <= 0.0:
            raise ParameterError("tube radius must be positive")
        self.domain = domain
        self.r = float(r)
        self.engine = domain._engine()
        reach = self.engine.focal_reach()
        if self.r >= reach:
            raise FocalPointError(
                f"tube radius {r} reaches a focal point (reach {reach:.6g})"
            )
        theta = np.arange(_N_THETA) * (_TWO_PI / _N_THETA)
        self.samples = self.engine.boundary(theta)
        self._quad_cache = {}

    # -- basic queries -------------------------------------------------------

    @property
    def surface(self):
        return self.domain.surface

    def fermi_map(self, s, theta):
        """Chart point at signed depth ``s`` along the normal from ``theta``.

        ``s > 0`` lands outside the domain, ``s < 0`` inside.  Raises
        :class:`OutOfTubeError` when ``|s| >= r``.
        """
        s_arr = np.asarray(s, dtype=float)
        if np.any(np.abs(s_arr) >= self.r):
            raise OutOfTubeError(f"|s| must stay below the tube radius {self.r}")
        return self.engine.map(s_arr, np.asarray(theta, dtype=float))

    def map_unchecked(self, s, theta):
        """Like :meth:`fermi_map` without the tube-radius guard (internal uses)."""
        return self.engine.map(np.asarray(s, dtype=float), np.asarray(theta, dtype=float))

    def invert_soft(self, points):
        """Signed distance ``s``, foot parameter ``theta`` and the masks ``ok``
        and ``amb`` of chart points, as arrays.

        ``ok`` marks a converged foot and ``amb`` a point with two boundary
        feet within tolerance of equally near (a regularity violation); a
        foot is usable where ``ok & ~amb``, and in the tube where also
        ``|s| < r``.  Only a non-finite point raises (:class:`ParameterError`).
        """
        if not np.all(np.isfinite(points)):
            raise ParameterError("chart points must be finite")
        return self.engine.invert(points)

    def volume_element_ratio(self, theta, s):
        """dvol_s / dvol_0 along the normal geodesic at ``theta``.

        Computed from the scalar normal Jacobi field with unit initial
        value and initial slope equal to the outward spread ``-II``.
        Raises :class:`FocalPointError` if the field vanishes.
        """
        s_arr = np.asarray(s, dtype=float)
        if np.any(np.abs(s_arr) >= self.r):
            raise OutOfTubeError("depth outside the tube")
        out = self.engine.ratio(np.asarray(theta, dtype=float), s_arr)
        if np.any(np.asarray(out) <= 0.0):
            raise FocalPointError("normal Jacobi field vanished inside the tube")
        return float(out) if np.ndim(out) == 0 else out

    # -- derived data ----------------------------------------------------------

    def curvature_data(self) -> comparison.CurvatureData:
        """Tube curvature bounds measured from the chart samples."""
        k_lo, k_up = self.engine.tube_curvature_range(self.r)
        ii = self.samples.second_fundamental
        return comparison.CurvatureData(
            k_lower=k_lo,
            K_upper=k_up,
            H_min=float(np.min(ii)),
            H_max=float(np.max(ii)),
            n=self.surface.dimension,
        )

    @cached_property
    def regularity(self):
        return check_regularity(self.domain, self.r)


# ---------------------------------------------------------------------------
# regularity certification
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    """Sampled certificate of the rolling-ball and chart conditions.

    Margins are the worst signed-distance violations over the ball
    centres on ``n_theta`` sampled normals: zero up to roundoff when the
    condition holds with tangency.  Distances to the boundary are exact
    on disks; on Fourier blobs they go to the nearest of ``n_dense``
    (2048) boundary samples, so there the balls are certified only up to
    that sampling.
    """

    admissible: bool
    interior_ball_ok: bool
    exterior_ball_ok: bool
    injectivity_ok: bool
    radius_ok: bool
    H: float
    K: float
    r0: float
    r: float
    interior_margin: float
    exterior_margin: float
    roundtrip_error: float
    ambiguous_points: int
    n_theta: int
    n_dense: int
    notes: list = dc_field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def check_regularity(domain: DomainSpec, r: float) -> RegularityReport:
    """Certify the rolling-ball, curvature and injectivity conditions.

    Never raises for geometric failures; the report carries them.  The
    interior (exterior) check places a ball centre at depth ``-r``
    (``+r``) on each sampled normal and verifies that it lies inside
    (outside) at distance at least ``r`` from the boundary, so that the
    ball touches the boundary only at the foot point; the margin
    ``min(distance) - r`` records the worst violation.  ``H`` is
    the smallest bound with II >= -H for both normals, ``K`` the
    largest ``|Sec|`` seen in the tube, and ``r0`` the focal radius for
    those worst-case bounds.
    """
    notes = []
    engine = domain._engine()
    theta = np.arange(_N_THETA) * (_TWO_PI / _N_THETA)
    bnd = engine.boundary(theta)
    sigma = bnd.spread
    H = float(np.max(np.abs(sigma)))
    k_lo, k_up = engine.tube_curvature_range(r)
    K = float(max(abs(k_lo), abs(k_up)))
    r0 = comparison.focal_radius(K, H)
    radius_ok = r <= r0 + 1e-12
    if not radius_ok:
        notes.append(f"tube radius {r:.6g} exceeds the focal radius r0 = {r0:.6g}")

    reach = engine.focal_reach()
    chart_ok = r < reach
    if not chart_ok:
        notes.append(f"tube radius reaches a focal point (reach {reach:.6g})")

    tol = 1e-9 * (1.0 + r)

    def rolling_ball(depth):
        """``(ok, margin)`` of the balls of radius ``r`` centred at signed ``depth``."""
        if not chart_ok:
            return False, -math.inf
        centers = engine.map(np.full(theta.shape, depth, dtype=float), theta)
        inside = engine.contains(centers)
        placed = bool(np.all(inside)) if depth < 0 else bool(not np.any(inside))
        margin = float(np.min(engine.boundary_distance(centers)) - r)
        side = "interior" if depth < 0 else "exterior"
        if not placed:
            notes.append(f"{side} ball centres at depth {depth:.6g} are not "
                         f"{'inside' if depth < 0 else 'outside'} the domain "
                         f"(margin {margin:.6g})")
        if margin < -tol:
            notes.append(f"{side} balls of radius {r:.6g} cross the boundary "
                         f"(margin {margin:.6g})")
        return placed and margin >= -tol, margin

    interior_ok, interior_margin = rolling_ball(-r)
    exterior_ok, exterior_margin = rolling_ball(r)

    # injectivity: round-trip of the parametrization over a tube grid
    roundtrip = 0.0
    ambiguous = 0
    injective = chart_ok
    if chart_ok:
        s_grid = np.linspace(-0.95 * r, 0.95 * r, 9)
        th_grid = theta[:: _N_THETA // 64]
        S, T = np.meshgrid(s_grid, th_grid, indexing="ij")
        pts = engine.map(S.ravel(), T.ravel())
        s_back, th_back, ok, amb = engine.invert(pts)
        ambiguous = int(np.count_nonzero(amb))
        if not np.all(ok):
            injective = False
            notes.append("foot-point inversion failed on the tube grid")
        if ambiguous:
            injective = False
            notes.append("ambiguous boundary feet detected (tube self-overlap)")
        dth = np.abs(np.angle(np.exp(1j * (th_back - T.ravel()))))
        err = np.maximum(np.abs(s_back - S.ravel()), dth * float(np.max(bnd.speed)))
        roundtrip = float(np.max(err[ok])) if np.any(ok) else math.inf
        if roundtrip > 1e-8 * max(1.0, r):
            injective = False
            notes.append("round-trip error above tolerance")

    admissible = bool(interior_ok and exterior_ok and injective and radius_ok and chart_ok)
    return RegularityReport(
        admissible=admissible,
        interior_ball_ok=bool(interior_ok),
        exterior_ball_ok=bool(exterior_ok),
        injectivity_ok=bool(injective),
        radius_ok=bool(radius_ok),
        H=H,
        K=K,
        r0=float(r0),
        r=float(r),
        interior_margin=float(interior_margin),
        exterior_margin=float(exterior_margin),
        roundtrip_error=float(roundtrip),
        ambiguous_points=ambiguous,
        n_theta=_N_THETA,
        n_dense=_N_BOUNDARY,
        notes=notes,
    )
