"""The discrete heat kernels against the continuum (``continuum.py``), and the
flat disks' scale covariance."""

import math

import numpy as np
import pytest

import continuum as C
from sobex import heat as H
from sobex.fermi import DomainSpec, GeodesicDisk

_SIZES = (32, 64, 128)


def _free_kernel(t, d):
    return np.exp(-d * d / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


@pytest.mark.parametrize("t", [0.005, 0.02])
def test_series_match_the_free_kernel(t):
    """Away from the boundary the disk's diagonal is the plane's ``1/(4 pi t)`` up to
    ``exp(-1/(4t))``; the interval's is the method of images."""
    assert C.disk_diagonal(t, np.array([0.0]))[0] * 4.0 * math.pi * t == pytest.approx(
        1.0, rel=1e-14)
    x = np.linspace(0.0, 1.0, 11)
    images = sum(_free_kernel(t, 2.0 * m) + _free_kernel(t, 2.0 * x - 2.0 * m)
                 for m in range(-5, 6))
    np.testing.assert_allclose(C.interval_diagonal(t, x, 1.0), images, rtol=1e-14)
    np.testing.assert_allclose(C.disk_diagonal(20.0, x), 1.0 / math.pi, rtol=1e-15)
    np.testing.assert_allclose(C.hemisphere_diagonal(20.0, x), 0.5 / math.pi, rtol=1e-15)


def _orders(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


def _assert_pole_disk_order(spec, diagonal, t):
    """``h_t(x, x)`` at one node per ring of a pole disk against the continuum
    ``diagonal(t, r)``: the worst relative error falls at order 2 from n = 64 to 128."""
    errors = []
    for n in _SIZES:
        dom = H.DiscreteDomain.disk_like(spec, n, n)
        idx = np.arange(n) * n
        exact = diagonal(t, dom.nodes[idx, 0])
        errors.append(np.max(np.abs(H.assemble(dom).heat_diag(t, idx) / exact - 1.0)))
    assert errors[0] > errors[1] > errors[2]
    assert 1.8 <= _orders(errors)[1] <= 2.2


@pytest.mark.parametrize("t", [0.05, 0.145])
def test_disk_kernel_converges_at_second_order(flat, t):
    """The flat unit disk (32 to 64 is pre-asymptotic at t = 0.05)."""
    _assert_pole_disk_order(DomainSpec(flat, GeodesicDisk((0.0, 0.0), 1.0)),
                            C.disk_diagonal, t)


@pytest.mark.parametrize("t", [0.05, 0.145])
def test_hemisphere_kernel_converges_at_second_order(sphere, t):
    """The hemisphere, whose rim is the equator."""
    _assert_pole_disk_order(DomainSpec(sphere, GeodesicDisk((0.0, 0.0), math.pi / 2.0)),
                            C.hemisphere_diagonal, t)


@pytest.mark.parametrize("t", [0.005, 0.02])
def test_interval_kernel_converges_at_second_order(t):
    """``h_t(x, x)`` at every node of the unit interval, as on the disk."""
    errors = []
    for n in _SIZES:
        dom = H.DiscreteDomain.interval(1.0, n)
        exact = C.interval_diagonal(t, dom.nodes, 1.0)
        diag = H.assemble(dom).heat_diag(t, np.arange(dom.size))
        errors.append(np.max(np.abs(diag / exact - 1.0)))
    assert errors[0] > errors[1] > errors[2]
    assert 1.8 <= _orders(errors)[1] <= 2.2


def test_flat_disks_are_scale_covariant(flat):
    """A flat disk of radius R is the unit grid scaled by R, so ``eta1 diam^2`` and
    ``c_obs`` (with t scaled by R^2) do not depend on R."""
    t_unit = np.geomspace(1e-3, 4.0, 16)
    scaled, c_obs = [], []
    for R in (0.5, 1.0, 2.0, 3.7):
        dom = H.DiscreteDomain.disk_like(DomainSpec(flat, GeodesicDisk((0.0, 0.0), R)), 24, 48)
        system = H.assemble(dom)
        scaled.append(H.eigenvalue_diagnostic(system, dom)[1])
        c_obs.append(H.diagonal_bound_check(dom, system, R * R * t_unit).c_obs)
    np.testing.assert_allclose(scaled, scaled[1], rtol=1e-12)
    np.testing.assert_allclose(c_obs, c_obs[1], rtol=1e-12)


# the ball areas of the flat unit disk and of the hemisphere: (area, domain
# radius a, ring measure f, law-of-cosines cos w(r_x, s, rho), area of a whole ball)
_LENSES = {
    "flat": (C.flat_lens_area, 1.0, lambda s: s,
             lambda r_x, s, rho: (r_x * r_x + s * s - rho * rho) / (2.0 * r_x * s),
             lambda rho: math.pi * rho * rho),
    "hemisphere": (C.cap_lens_area, 0.5 * math.pi, np.sin,
                   lambda r_x, s, rho: (math.cos(rho) - math.cos(r_x) * np.cos(s))
                   / (math.sin(r_x) * np.sin(s)),
                   lambda rho: 2.0 * math.pi * (1.0 - math.cos(rho))),
}


def _ring_integral(r_x, rho, a, f, cos_w, ball, n=32):
    """``|B(x, rho) ∩ D_a|`` as ``int 2 w(s) f(s) ds`` over the rings ``s`` of the
    disk, ``w`` the ball's angular half-width on ring ``s``.  The rings below
    ``rho - r_x`` lie whole in the ball.  ``w`` has square-root ends at
    ``lo = |r_x - rho|`` and ``hi = r_x + rho``; ``s = lo + (hi - lo) sin^2 u``
    removes both, and ``n``-point Gauss-Legendre in ``u`` runs up to ``s = a``."""
    lo, hi = abs(r_x - rho), r_x + rho
    whole = ball(min(rho - r_x, a)) if rho > r_x else 0.0
    if a <= lo:
        return whole
    u_end = math.asin(math.sqrt(min(1.0, (a - lo) / (hi - lo))))
    x, wx = np.polynomial.legendre.leggauss(n)
    u, du = 0.5 * u_end * (x + 1.0), 0.5 * u_end * wx
    s = lo + (hi - lo) * np.sin(u) ** 2
    ds = 2.0 * (hi - lo) * np.sin(u) * np.cos(u)
    w = np.arccos(np.clip(cos_w(r_x, s, rho), -1.0, 1.0))
    return whole + float(np.sum(du * ds * 2.0 * w * f(s)))


@pytest.mark.parametrize("name", sorted(_LENSES))
def test_ball_areas_at_their_limits(name):
    """A ball that holds the disk has the disk's area, one inside it its own; the
    lens meets both, to the roundoff of an ``acos`` near its ends, at tangency."""
    area, a, _, _, ball = _LENSES[name]
    for r_x in (0.0, 0.2 * a, 0.6 * a, a):
        for rho in (r_x + a, r_x + a + 0.4):
            assert area(r_x, rho, a) == ball(a)
        for rho in (a - r_x, 0.5 * (a - r_x)):
            if rho > 0.0:
                assert area(r_x, rho, a) == ball(rho)
        if r_x > 0.0:
            assert area(r_x, r_x + a - 1e-9, a) == pytest.approx(ball(a), rel=1e-7)
            if r_x < a:
                assert area(r_x, a - r_x + 1e-9, a) == pytest.approx(ball(a - r_x), rel=1e-7)


@pytest.mark.parametrize("name", sorted(_LENSES))
def test_ball_areas_match_the_ring_integral(name):
    """The closed forms against the half-width integral, 32 nodes, on a grid of
    centres and radii from a sliver to past the whole disk."""
    area, a, f, cos_w, ball = _LENSES[name]
    for r_x in np.linspace(0.05, 0.95, 10) * a:
        for rho in np.linspace(0.02, 1.1, 23) * (r_x + a):
            exact = area(r_x, rho, a)
            assert _ring_integral(r_x, rho, a, f, cos_w, ball) == pytest.approx(exact, rel=1e-10)
