"""The boundary extension operator and its certification machinery.

A field ``u`` defined on a closed domain is pushed across the boundary
along the normal geodesics of a :class:`~sobex.fermi.FermiChart` by the
one-dimensional reflection rule

    (E u)(s) = (-3 u(-s) + 4 u(-s/2)) * phi(s),   0 < s < r,

which reproduces constants and affine traces and matches one-sided
first derivatives at the boundary.  ``phi`` is a cutoff of the tube
depth with ``|phi'| <= G / r``, equal to 1 up to depth ``r/2`` and 0 at
depth ``r``.  The module provides pointwise evaluation of the extended
field, quadrature H1 norms over the domain and the exterior tube, the
per-geodesic inequality check and the global operator-norm estimate
against the closed-form bound from :mod:`sobex.comparison`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import Callable

import numpy as np

from .comparison import (
    ComparisonProfile,
    distortion_factor,
    extension_norm_bound,
)
from .errors import (
    EvaluationError,
    FootAmbiguityError,
    OutOfTubeError,
    ParameterError,
    RegularityError,
)
from .fermi import FermiChart
from .quadrature import composite_gauss, gauss_legendre, periodic_nodes
from .surfaces import constant_curvature_distance, polar_to_cartesian

__all__ = [
    "ScalarField",
    "constant_field",
    "polynomial_field",
    "trig_field",
    "random_smooth_fields",
    "CutoffFamily",
    "smoothstep_cutoff",
    "cutoff_value",
    "Trace1D",
    "random_fourier_trace",
    "extend_1d",
    "ExtendedField",
    "h1_norm",
    "verify_1d_inequality",
    "OperatorNormResult",
    "operator_norm_estimate",
    "c1_matching_error",
]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A C1 (or C2) field on the plane ``(x, y) = (r cos theta, r sin theta)``.

    ``evaluate`` maps plane points of shape (N, 2) to values (N,);
    ``partials`` returns the plane gradient ``(d/dx, d/dy)`` as an
    (N, 2) array.  Callers holding chart points convert them with
    :func:`~sobex.surfaces.polar_to_cartesian`.
    """

    evaluate: Callable = dc_field(repr=False)
    partials: Callable = dc_field(repr=False)


def constant_field(c=1.0):
    def ev(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(pts.shape[0], float(c))

    def grad(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros((pts.shape[0], 2))

    return ScalarField(ev, grad)


def _powers(x, n):
    """Rows ``x**0, ..., x**(n-1)`` of one ``(n, N)`` array, by running products."""
    out = np.ones((n,) + x.shape)
    for k in range(1, n):
        np.multiply(out[k - 1], x, out=out[k])
    return out


def _dot(g, e):
    """Pointwise dot product of two stacks of plane vectors."""
    return g[..., 0] * e[..., 0] + g[..., 1] * e[..., 1]


def polynomial_field(coeffs):
    """Polynomial in the plane coordinates ``(x, y)``.

    ``coeffs[i, j]`` multiplies ``x^i y^j``; anything but a finite
    non-empty 2-D array is a :class:`ParameterError`.  Smooth across the
    chart pole, hence usable on every supported domain.  The powers are
    running products, and the value and each partial are one contraction
    ``sum_i x^i (C @ y^.)_i`` with ``C`` the coefficients or their
    derivative coefficients ``i c_ij``, ``j c_ij``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
        raise ParameterError("polynomial coefficients must be a finite non-empty 2-D array")
    n_x, n_y = coeffs.shape
    c_x = coeffs[1:] * np.arange(1, n_x)[:, None]
    c_y = coeffs[:, 1:] * np.arange(1, n_y)

    def contract(c, xp, yp):
        return np.sum(xp[:c.shape[0]] * (c @ yp[:c.shape[1]]), axis=0)

    def ev(points):
        x, y = np.atleast_2d(np.asarray(points, dtype=float)).T
        return contract(coeffs, _powers(x, n_x), _powers(y, n_y))

    def grad(points):
        x, y = np.atleast_2d(np.asarray(points, dtype=float)).T
        xp, yp = _powers(x, n_x), _powers(y, n_y)
        return np.stack([contract(c_x, xp, yp), contract(c_y, xp, yp)], axis=-1)

    return ScalarField(ev, grad)


def trig_field(amps, waves, phases):
    """Plane-wave mixture ``sum_m a_m sin(k_m . (x, y) + p_m)``.

    ``waves`` is ``(M, 2)`` and ``amps``, ``phases`` are ``(M,)``, else
    :class:`ParameterError`.  All waves go in one broadcast: the value
    is ``amps @ sin(K (x, y) + p)``, the gradient ``(amps K)^T @ cos(...)``.
    """
    amps, waves, phases = (np.asarray(a, dtype=float) for a in (amps, waves, phases))
    m = waves.shape[:1]
    if waves.shape != m + (2,) or amps.shape != m or phases.shape != m:
        raise ParameterError("plane waves need waves (M, 2), amps (M,) and phases (M,)")
    slopes = (amps[:, None] * waves).T

    def angles(points):
        return waves @ np.atleast_2d(np.asarray(points, dtype=float)).T + phases[:, None]

    def ev(points):
        return amps @ np.sin(angles(points))

    def grad(points):
        return (slopes @ np.cos(angles(points))).T

    return ScalarField(ev, grad)


def random_smooth_fields(rng, count):
    """A deterministic sample of ``count`` smooth test fields from a seeded ``rng``.

    Each field is, with even odds, a mixture of one to three plane waves
    or a polynomial of total degree at most 4 whose ``x^i y^j``
    coefficient is a standard normal draw divided by ``(i + j)!``.
    """
    fields = []
    for m in range(count):
        if rng.uniform() < 0.5:
            n_waves = int(rng.integers(1, 4))
            amps = rng.normal(size=n_waves)
            waves = rng.normal(size=(n_waves, 2)) * 1.5
            phases = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
            fields.append(trig_field(amps, waves, phases))
        else:
            degree = np.add.outer(np.arange(5), np.arange(5))
            c = rng.normal(size=(5, 5)) / np.vectorize(math.factorial)(degree)
            fields.append(polynomial_field(np.where(degree > 4, 0.0, c)))
    return fields


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffFamily:
    """1D cutoff profile on [0, inf): 1 on [0, 1/2], 0 from ``t_end`` on.

    ``eta`` is C1 and monotone on the transition band
    ``[1/2, t_end] subset [1/2, 1]`` with ``sup |eta'| = G``.  Applied
    to the relative tube depth ``s / r`` it yields gradient bound
    ``G / r``.
    """

    eta: Callable = dc_field(repr=False)
    eta_prime: Callable = dc_field(repr=False)
    G: float = 3.0
    t_end: float = 1.0


def smoothstep_cutoff(G=3.0):
    """Cubic smoothstep cutoff with gradient budget ``G`` (minimum 3).

    The transition band is ``[1/2, 1/2 + 3/(2G)]``; at the minimum
    ``G = 3`` it fills ``[1/2, 1]`` exactly.
    """
    if G < 3.0:
        raise ParameterError("the cubic smoothstep needs G >= 3")
    w = 1.5 / G
    t_end = 0.5 + w

    def eta(t):
        t = np.asarray(t, dtype=float)
        x = np.clip((t - 0.5) / w, 0.0, 1.0)
        return 1.0 - (3.0 * x * x - 2.0 * x * x * x)

    def eta_prime(t):  # vanishes at both ends of the band, so clipping is exact
        t = np.asarray(t, dtype=float)
        x = np.clip((t - 0.5) / w, 0.0, 1.0)
        return (6.0 * x * x - 6.0 * x) / w

    return CutoffFamily(eta=eta, eta_prime=eta_prime, G=float(G), t_end=t_end)


def cutoff_value(family: CutoffFamily, surface, center, r, points):
    """Ambient-ball cutoff ``eta(d(center, point) / r)``.

    Needs a computable distance, i.e. a constant-curvature surface.
    """
    if surface.kind != "constant":
        raise ParameterError("ambient-ball cutoffs need a closed-form distance")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = constant_curvature_distance(surface.kappa, pts,
                                    np.asarray(center, dtype=float))
    out = family.eta(d / float(r))
    return float(out[0]) if np.ndim(points) == 1 else out


# ---------------------------------------------------------------------------
# one-dimensional extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace1D:
    """A C1 trace on the inward ray: value and derivative callables."""

    value: Callable = dc_field(repr=False)
    derivative: Callable = dc_field(repr=False)


def random_fourier_trace(rng, modes=5, scale=1.0):
    a = scale * rng.normal(size=modes + 1) / (1.0 + np.arange(modes + 1))
    b = scale * rng.normal(size=modes) / (1.0 + np.arange(1, modes + 1))

    def value(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, a[0])
        for k in range(1, modes + 1):
            out = out + a[k] * np.cos(k * math.pi * t) + b[k - 1] * np.sin(k * math.pi * t)
        return out

    def derivative(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for k in range(1, modes + 1):
            w = k * math.pi
            out = out - a[k] * w * np.sin(w * t) + b[k - 1] * w * np.cos(w * t)
        return out

    return Trace1D(value, derivative)


def extend_1d(trace, cutoff_profile, s):
    """Reflected extension of a one-sided trace along one geodesic.

    ``trace`` is defined on ``(-r, 0]``; for ``s > 0`` the value is
    ``(-3 trace(-s) + 4 trace(-s/2)) * cutoff_profile(s)``.
    Reproduces constant and affine traces where the cutoff equals 1.
    """
    s = np.asarray(s, dtype=float)
    neg = np.minimum(s, 0.0)
    pos = np.maximum(s, 0.0)
    inside_vals = np.asarray(trace(neg), dtype=float)
    reflected = _reflect(np.asarray(trace(-pos), dtype=float),
                         np.asarray(trace(-0.5 * pos), dtype=float))
    out = np.where(s <= 0.0, inside_vals,
                   reflected * np.asarray(cutoff_profile(pos), dtype=float))
    return float(out) if out.ndim == 0 else out


def _reflect(far, near):
    """The reflection rule ``-3 u(-s) + 4 u(-s/2)`` from ``far = u(-s)`` and ``near = u(-s/2)``."""
    return -3.0 * far + 4.0 * near


def _reflection_jet(u, du, eta, eta_p):
    """Value ``E eta`` and depth derivative ``(3 u'(-s) - 2 u'(-s/2)) eta + E eta_p`` of the
    cut-off reflection, ``E = -3 u(-s) + 4 u(-s/2)``, from the pairs ``u`` and ``du`` of
    source values and depth derivatives at ``-s`` and ``-s/2``."""
    base = _reflect(*u)
    return base * eta, (3.0 * du[0] - 2.0 * du[1]) * eta + base * eta_p


def _depth_breaks(r, cutoff):
    """The depths ``0, r/2, min(t_end, 1) r, r`` where the cutoff kinks, sorted, once each."""
    return tuple(sorted({0.0, 0.5 * r, min(cutoff.t_end, 1.0) * r, r}))


# ---------------------------------------------------------------------------
# the extended field
# ---------------------------------------------------------------------------


class ExtendedField:
    """Pointwise evaluator of the extended field over the whole chart.

    Three branches: the source field itself on the closed domain
    (identical code path, so the restriction identity is exact), the
    reflection formula with depth cutoff on the exterior tube, and zero
    beyond.  Evaluation is pure and vectorized.
    """

    def __init__(self, chart: FermiChart, source: ScalarField, cutoff: CutoffFamily):
        self.chart = chart
        self.source = source
        self.cutoff = cutoff
        self.r = chart.r

    def depth_cutoff(self, s):
        return self.cutoff.eta(np.asarray(s, dtype=float) / self.r)

    def tube_profile(self, s, theta):
        """Extended values at known tube coordinates (no inversion needed)."""
        s = np.asarray(s, dtype=float)
        depths = np.stack([-s, -0.5 * s])
        u = _on_points(self.source.evaluate,
                       polar_to_cartesian(self.chart.map_unchecked(depths, theta)))
        return _reflect(*u) * self.depth_cutoff(s)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            # a non-finite angle inside a pole-centred disk never reaches the inversion
            raise ParameterError("chart points must be finite")
        vals = np.zeros(pts.shape[0])
        inside = self.chart.domain.contains(pts)
        if np.any(inside):
            vals[inside] = self.source.evaluate(polar_to_cartesian(pts[inside]))
        out_idx = np.nonzero(~inside)[0]
        if out_idx.size:
            s, th, ok, amb = self.chart.invert_soft(pts[out_idx])
            in_tube = ok & ~amb & (s > 0.0) & (s < self.r)
            bad = amb & (np.abs(s) < self.r)
            if np.any(bad):
                raise FootAmbiguityError(
                    "ambiguous boundary foot inside the tube; domain is not regular"
                )
            if np.any(~ok & ~amb & (np.abs(s) < self.r)):
                raise OutOfTubeError("foot-point inversion failed inside the tube")
            sel = out_idx[in_tube]
            if sel.size:
                vals[sel] = self.tube_profile(s[in_tube], th[in_tube])
        return float(vals[0]) if np.ndim(points) == 1 else vals

    # -- analytic tube partials ------------------------------------------------

    def fermi_partials(self, s, theta):
        """Analytic (d/ds, d/dtheta) of the extension in tube coordinates."""
        s, theta = np.broadcast_arrays(np.asarray(s, dtype=float),
                                       np.asarray(theta, dtype=float))
        return self.jet(s, *_reflection_sources(self.chart, s, theta))[1:]

    def jet(self, s, sources, s_jac, theta_jac):
        """Values and analytic ``(d/ds, d/dtheta)`` of the extension at depths ``s``.

        ``sources`` stacks the plane points at depths ``-s`` and ``-s/2``
        as ``(2,) + s.shape + (2,)``, and ``s_jac``, ``theta_jac`` stack the
        engine's plane Jacobians there (see :func:`_reflection_sources`).
        The source is evaluated and differentiated once per source depth;
        along the normal geodesic ``d/ds u(-s) = -grad u . J_s``, and the
        cutoff adds its own derivative (see :func:`_reflection_jet`).
        """
        u, du_s, du_t = [], [], []
        for points, j_s, j_t in zip(sources, s_jac, theta_jac):
            u.append(_on_points(self.source.evaluate, points))
            grad = _on_points(self.source.partials, points)
            du_s.append(_dot(grad, j_s))
            du_t.append(_dot(grad, j_t))
        eta = self.depth_cutoff(s)
        value, d_s = _reflection_jet(u, du_s, eta, self.cutoff.eta_prime(s / self.r) / self.r)
        return value, d_s, _reflect(*du_t) * eta


def _on_points(fn, points):
    """``fn`` on every plane point of an ``(..., 2)`` array in one call, reshaped back."""
    out = np.asarray(fn(points.reshape(-1, 2)), dtype=float)
    return out.reshape(points.shape[:-1] + out.shape[1:])


def _reflection_sources(chart: FermiChart, s, theta):
    """Plane points and the engine's plane s- and theta-Jacobians at depths ``-s``
    and ``-s/2``, each stacked as ``(2,) + shape + (2,)``, first depth ``-s``."""
    depths = np.stack([-s, -0.5 * s])
    eng = chart.engine
    return (polar_to_cartesian(chart.map_unchecked(depths, theta)), eng.s_jacobian(depths, theta),
            eng.theta_jacobian(depths, theta))


# ---------------------------------------------------------------------------
# quadrature H1 norms
# ---------------------------------------------------------------------------


def _omega_grid(chart: FermiChart, quad: int):
    """The domain rule, once per chart: plane points, weights and metric frame.

    Polar about the engine's plane centre ``c0``: per angle a radial
    Gauss rule scaled to the boundary radius, uniform in the angle, with
    the area element ``f(r)``.  ``frame`` holds ``e1 = (cos t, sin t)``
    and ``e2 = (r/f)(-sin t, cos t)``, so a plane gradient ``g`` has
    squared metric length ``(g.e1)^2 + (g.e2)^2``.
    """
    key = ("omega", quad)
    cached = chart._quad_cache.get(key)
    if cached is not None:
        return cached
    eng = chart.engine
    theta, w_t = periodic_nodes(max(2 * quad, 64))
    radius = eng.radial_extent(theta)
    x01, w01 = gauss_legendre(quad, 0.0, 1.0)
    R = np.outer(x01, radius).ravel()
    T = np.tile(theta, quad)
    f = np.asarray(chart.surface.warp(R), dtype=float)
    ct, st = np.cos(T), np.sin(T)
    grid = dict(points=np.stack([R * ct, R * st], axis=-1) + eng.c0,
                weights=np.outer(w01, radius * w_t).ravel() * f,
                frame=(np.stack([ct, st], axis=-1),
                       (R / f)[:, None] * np.stack([-st, ct], axis=-1)))
    chart._quad_cache[key] = grid
    return grid


def _tube_rule(chart: FermiChart, quad: int, cutoff: CutoffFamily):
    """The exterior-tube rule and the field-independent data it reads, once per chart.

    ``s``, ``theta``, ``weights`` and ``metric`` (the angular length
    element ``g_theta^(1/2)``) live on the depth x angle grid.
    ``sources`` and ``jacobians`` (the engine's s- and theta-Jacobians)
    hold that grid's reflection data at depths ``-s`` and ``-s/2``, as
    :func:`_reflection_sources` stacks them; the depth rule is composite
    across the cutoff's breaks, which key the cache, and stops at ``r``.
    """
    breaks = _depth_breaks(chart.r, cutoff)
    key = ("tube", quad, breaks)
    cached = chart._quad_cache.get(key)
    if cached is not None:
        return cached
    s_nodes, s_w = composite_gauss(quad, breaks)
    n_t = max(2 * quad, 64)
    theta, w_t = periodic_nodes(n_t)
    S, T = np.meshgrid(s_nodes, theta, indexing="ij")
    speed = chart.boundary_point(theta).speed
    ratio = chart.engine.ratio(theta, S)
    sources, s_jac, theta_jac = _reflection_sources(chart, S, theta)
    rule = dict(s=S, theta=T, metric=speed[None, :] * ratio,
                weights=s_w[:, None] * w_t[None, :] * speed[None, :] * ratio,
                sources=sources, jacobians=(s_jac, theta_jac))
    chart._quad_cache[key] = rule
    return rule


def h1_norm(field, region, chart: FermiChart, quad: int = 64):
    """Squared L2 and gradient-L2 norms of a field over a chart region.

    ``region="omega"`` takes a :class:`ScalarField` and integrates its
    own ``evaluate`` and analytic ``partials`` over the domain.
    ``region="tube_exterior"`` takes an :class:`ExtendedField` and
    integrates it over the exterior tube, with the radial rule composite
    across the cutoff's depth breaks (where it kinks) and
    the analytic gradient of :meth:`ExtendedField.jet` from the rule's
    cached sources and Jacobians.  Both rules are
    Gauss-Legendre radially and uniform periodic angularly, with the
    exact metric area weights.  Any other pairing of field and region is a
    :class:`ParameterError`.

    Returns ``(l2_sq, grad_l2_sq)``.
    """
    if quad < 16:
        raise ParameterError("need at least 16 quadrature nodes per axis")
    if region == "omega" and isinstance(field, ScalarField):
        grid = _omega_grid(chart, quad)
        pts, w = grid["points"], grid["weights"]
        vals = np.asarray(field.evaluate(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("non-finite value at a quadrature node")
        grad = np.asarray(field.partials(pts), dtype=float)
        e1, e2 = grid["frame"]
        grad_sq = _dot(grad, e1) ** 2 + _dot(grad, e2) ** 2
        return float(np.sum(w * vals**2)), float(np.sum(w * grad_sq))
    if region != "tube_exterior" or not isinstance(field, ExtendedField):
        raise ParameterError(f"no H1 norm of a {type(field).__name__} on region {region!r}")

    rule = _tube_rule(chart, quad, field.cutoff)
    vals, d_s, d_t = field.jet(rule["s"], rule["sources"], *rule["jacobians"])
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("non-finite value at a tube quadrature node")
    W = rule["weights"]
    grad_sq = d_s**2 + (d_t / rule["metric"]) ** 2
    return float(np.sum(W * vals**2)), float(np.sum(W * grad_sq))


# ---------------------------------------------------------------------------
# the certified inequalities
# ---------------------------------------------------------------------------


def verify_1d_inequality(trace: Trace1D, r: float, G: float, quad: int = 48):
    """Quadrature check of the per-geodesic extension inequality.

    Computes ``lhs``, the squared H1 norm of the extended trace on the
    outward ray ``(0, r)``, and ``rhs``, the certified budget
    ``164 |u'|^2 + (82 + 164 G^2/r^2) |u|^2`` over the inward ray.
    Returns ``(lhs, rhs, ratio)`` with ratio defined as 0 when both
    vanish.
    """
    cutoff = smoothstep_cutoff(G)
    s, w_s = composite_gauss(quad, _depth_breaks(r, cutoff))
    e_val, e_der = _reflection_jet((trace.value(-s), trace.value(-0.5 * s)),
                                   (trace.derivative(-s), trace.derivative(-0.5 * s)),
                                   cutoff.eta(s / r), cutoff.eta_prime(s / r) / r)
    lhs = float(np.sum(w_s * (e_val**2 + e_der**2)))

    t, w_t = gauss_legendre(2 * quad, -r, 0.0)
    u_sq = float(np.sum(w_t * trace.value(t) ** 2))
    du_sq = float(np.sum(w_t * trace.derivative(t) ** 2))
    rhs = 164.0 * du_sq + (82.0 + 164.0 * G * G / (r * r)) * u_sq
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return lhs, rhs, ratio


@dataclass
class OperatorNormResult:
    """Rayleigh quotients against the bound, and how they were computed.

    ``passed`` says whether ``max_ratio`` stays within ``bound``;
    ``gradient`` names the gradient method per region; ``quadrature_nodes``
    counts the nodes of the domain and tube rules.
    """

    passed: bool
    max_ratio: float
    bound: float
    distortion: float
    per_sample: list
    gradient: dict
    quadrature_nodes: dict

    def to_dict(self):
        return asdict(self)


def operator_norm_estimate(chart: FermiChart, cutoff: CutoffFamily,
                           sample_fields, quad: int = 64):
    """Rayleigh quotients of the extension against the closed-form bound.

    For each sample field the squared H1 norm of the extension over the
    whole chart (domain plus exterior tube; the extension vanishes
    beyond) is divided by the squared H1 norm over the domain.  The
    restriction identity makes the domain part common to both.  The
    chart must be admissible (else :class:`RegularityError`); the bound
    is ``extension_norm_bound(distortion, G, r)`` with the distortion
    from the chart's comparison profile.  A ratio above the bound is
    reported as ``passed=False``.
    """
    reg = chart.regularity
    if not reg.admissible:
        raise RegularityError(f"chart is not admissible: {reg.notes}")
    data = chart.curvature_data()
    dist = distortion_factor(ComparisonProfile.from_curvature(data, chart.r), data.n, chart.r)
    bound = extension_norm_bound(dist, cutoff.G, chart.r)

    rule = _tube_rule(chart, quad, cutoff)
    ratios = []
    for fld in sample_fields:
        l2_o, g_o = h1_norm(fld, "omega", chart, quad)
        inner = l2_o + g_o
        if inner == 0.0:
            ratios.append(0.0)
            continue
        l2_t, g_t = h1_norm(ExtendedField(chart, fld, cutoff), "tube_exterior", chart, quad)
        ratios.append((inner + l2_t + g_t) / inner)
    max_ratio = max(ratios) if ratios else 0.0
    return OperatorNormResult(
        passed=bool(max_ratio <= bound), max_ratio=float(max_ratio), bound=float(bound), distortion=float(dist),
        per_sample=ratios,
        gradient={"omega": "analytic", "tube": "analytic"},
        quadrature_nodes={"omega": _omega_grid(chart, quad)["weights"].size,
                          "tube": rule["weights"].size},
    )


def c1_matching_error(chart: FermiChart, fld: ScalarField, cutoff: CutoffFamily,
                      n_probes: int = 256, step: float = 1e-4):
    """Worst mismatch of one-sided normal derivatives across the boundary.

    Second-order one-sided stencils of the extended field at depth
    ``+/- step`` along each sampled normal; for a C2 source the two
    normal derivatives agree up to O(step^2).
    """
    ext = ExtendedField(chart, fld, cutoff)
    theta = np.arange(n_probes) * (2.0 * math.pi / n_probes)
    h = step

    def source(depth):
        pts = chart.map_unchecked(np.full(n_probes, depth), theta)
        return fld.evaluate(polar_to_cartesian(pts))

    u0 = source(0.0)
    outer = (-3.0 * u0 + 4.0 * ext.tube_profile(np.full(n_probes, h), theta)
             - ext.tube_profile(np.full(n_probes, 2 * h), theta)) / (2 * h)
    inner = (3.0 * u0 - 4.0 * source(-h) + source(-2 * h)) / (2 * h)
    return float(np.max(np.abs(outer - inner)))
