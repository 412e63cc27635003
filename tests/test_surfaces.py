import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobex.errors import ChartDomainError, ChartExitError, ParameterError
from sobex.surfaces import (
    GeodesicState,
    JacobiValue,
    ModelSurface,
    constant_curvature_distance,
    constant_curvature_geodesic,
    cosh_profile,
    integrate_geodesic,
    jacobi_transport,
    jacobi_values,
    poly_cosh_mix_profile,
)


def test_metric_closed_forms(flat, sphere):
    g = flat.metric_at((1.0, 0.0))
    assert np.allclose(g, np.diag([1.0, 1.0]))
    g = sphere.metric_at((math.pi / 2.0, 0.3))
    assert g[1, 1] == pytest.approx(1.0, abs=1e-15)
    warped = ModelSurface.warped(cosh_profile())
    g = warped.metric_at((1.0, 0.0))
    assert g[1, 1] == pytest.approx(math.cosh(1.0) ** 2, abs=1e-12)
    with pytest.raises(ChartDomainError):
        sphere.metric_at((3.2, 0.0))


def test_gauss_curvature(hyperbolic):
    assert hyperbolic.gauss_curvature(0.7) == -1.0
    warped = ModelSurface.warped(cosh_profile())
    for r in (0.3, 1.0, 2.5):
        assert warped.gauss_curvature(r) == pytest.approx(-1.0, abs=1e-14)
    poly = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.1]))
    # f = r + 0.1 r^3 at r = 0.5: f'' = 0.3, f = 0.5125
    assert poly.gauss_curvature(0.5) == pytest.approx(-0.3 / 0.5125, abs=1e-12)
    # two radii give two curvatures, not the curvature at a point (0.5, 0.7)
    np.testing.assert_allclose(poly.gauss_curvature(np.array([0.5, 0.7])),
                               [-0.3 / 0.5125, -0.42 / 0.7343], rtol=1e-14)


def test_nonpositive_warp_rejected():
    from sobex.errors import InvalidSurfaceError
    from sobex.surfaces import WarpProfile

    bad = ModelSurface.warped(WarpProfile(
        f=lambda r: 1.0 - r, df=lambda r: -1.0 + 0.0 * r,
        d2f=lambda r: 0.0 * r, r_min=0.0, r_max=5.0, has_pole=False))
    with pytest.raises(InvalidSurfaceError):
        bad.gauss_curvature(2.0)
    with pytest.raises(InvalidSurfaceError):
        bad.metric_at((2.0, 0.0))


def test_poly_cosh_mix_cap_stays_below_the_zero():
    """The warp of coefficients (1, 0, -1) vanishes at 1.616138; the chart
    stops at the last grid point before it, not at the first one past."""
    r_max = poly_cosh_mix_profile([1.0, 0.0, -1.0]).r_max
    assert 1.6138 < r_max <= 1.616138


@settings(max_examples=60)
@given(c0=st.floats(0.05, 2.0), c1=st.floats(-1.0, 1.0), c2=st.floats(-2.0, 1.0))
def test_poly_cosh_mix_positive_below_the_cap(c0, c1, c2):
    """``f > 0`` on a grid ten times finer than the cap's, up to ``r_max``; and
    ``f`` stops being positive within one coarse step past a finite cap."""
    prof = poly_cosh_mix_profile([c0, c1, c2])
    top = min(prof.r_max, 50.0)
    fine = np.linspace(1e-6, top, max(2, int(top / 2.5e-4)) + 1)
    assert np.all(prof.f(fine) > 0.0)
    if math.isfinite(prof.r_max):
        past = np.linspace(prof.r_max, prof.r_max + 2.51e-3, 11)
        assert np.any(prof.f(past) <= 0.0)


def test_curvature_finite_difference_consistency(flat, sphere, hyperbolic):
    # K = -f''/f recovered from the metric by finite differences
    h = 1e-4
    for surf in (flat, sphere, hyperbolic):
        for r in (0.6, 1.1):
            f = [math.sqrt(surf.metric_at((r + d, 0.0))[1, 1]) for d in (-h, 0.0, h)]
            k_fd = -(f[0] - 2.0 * f[1] + f[2]) / (h * h) / f[1]
            assert k_fd == pytest.approx(surf.kappa, abs=1e-6)


def _radial_state(r0, outward=True):
    return GeodesicState(position=(r0, 0.0), velocity=(1.0 if outward else -1.0, 0.0))


def test_flat_radial_geodesic(flat):
    traj = integrate_geodesic(flat, _radial_state(0.5), 2.0, tol=1e-10)
    end = traj.end
    assert end.position[0] == pytest.approx(2.5, abs=1e-10)
    assert end.position[1] == pytest.approx(0.0, abs=1e-12)


def test_sphere_equator_antipodal(sphere):
    start = GeodesicState(position=(math.pi / 2.0, 0.0), velocity=(0.0, 1.0))
    traj = integrate_geodesic(sphere, start, math.pi, tol=1e-10)
    end_pos = np.array(traj.end.position)
    target = np.array([math.pi / 2.0, math.pi])
    assert constant_curvature_distance(1.0, end_pos, target) < 1e-8


def test_hyperbolic_radial_exact(hyperbolic):
    traj = integrate_geodesic(hyperbolic, _radial_state(0.25), 1.75, tol=1e-10)
    assert traj.end.position[0] == pytest.approx(2.0, abs=1e-10)


def test_unit_speed_invariant(sphere):
    start = GeodesicState(position=(1.0, 0.2),
                          velocity=(math.cos(0.6), math.sin(0.6) / math.sin(1.0)))
    traj = integrate_geodesic(sphere, start, 1.2, tol=1e-10)
    for state in traj:
        speed = sphere.speed(state.position, state.velocity)
        assert abs(speed - 1.0) < 1e-10


def test_integrator_matches_closed_form(sphere, hyperbolic):
    tol = 1e-10
    for surf in (sphere, hyperbolic):
        start = GeodesicState(position=(0.8, 0.5),
                              velocity=(math.cos(1.1),
                                        math.sin(1.1) / float(surf.warp(0.8))))
        traj = integrate_geodesic(surf, start, 1.0, tol=tol)
        s_grid = np.linspace(0.1, 1.0, 7)
        exact = constant_curvature_geodesic(surf.kappa, start, s_grid)
        for s, target in zip(s_grid, exact):
            pos = np.array(traj.state_at(s).position)
            # componentwise comparison: the trig distance formula cannot
            # resolve separations below ~sqrt(eps)
            assert abs(pos[0] - target[0]) < 10.0 * tol
            assert abs(pos[1] - target[1]) < 10.0 * tol


def test_chart_exit_carries_partial(sphere):
    start = _radial_state(2.0)
    with pytest.raises(ChartExitError) as err:
        integrate_geodesic(sphere, start, 3.0, tol=1e-10)
    partial = err.value.partial
    assert partial is not None
    assert partial.end.arclength < 3.0
    assert partial.end.position[0] == pytest.approx(math.pi, abs=1e-6)


def test_bad_start_rejected(flat):
    bad = GeodesicState(position=(1.0, 0.0), velocity=(2.0, 0.0))
    with pytest.raises(ParameterError):
        integrate_geodesic(flat, bad, 1.0)


def test_jacobi_closed_forms(flat, sphere):
    traj = integrate_geodesic(flat, _radial_state(0.2), 2.0, tol=1e-11)
    out = jacobi_transport(flat, traj, JacobiValue(0.0, 1.0), s=1.7)
    assert out.value == pytest.approx(1.7, abs=1e-10)
    start = GeodesicState(position=(math.pi / 2.0, 0.0), velocity=(0.0, 1.0))
    traj_s = integrate_geodesic(sphere, start, 2.0, tol=1e-11)
    out = jacobi_transport(sphere, traj_s, JacobiValue(1.0, 0.0), s=1.3)
    assert out.value == pytest.approx(math.cos(1.3), abs=1e-10)
    warped = ModelSurface.warped(cosh_profile())
    traj_w = integrate_geodesic(warped, _radial_state(0.0, outward=True), 2.0, tol=1e-11)
    out = jacobi_transport(warped, traj_w, JacobiValue(1.0, 0.0), s=1.5)
    assert out.value == pytest.approx(math.cosh(1.5), abs=1e-8)


def test_jacobi_linearity(sphere):
    start = GeodesicState(position=(1.0, 0.0), velocity=(1.0, 0.0))
    traj = integrate_geodesic(sphere, start, 1.5, tol=1e-11)
    j1 = jacobi_transport(sphere, traj, JacobiValue(1.0, 0.0))
    j2 = jacobi_transport(sphere, traj, JacobiValue(0.0, 1.0))
    a, b = 0.7, -1.3
    mix = jacobi_transport(sphere, traj, JacobiValue(a, b))
    assert mix.value == pytest.approx(a * j1.value + b * j2.value, abs=1e-10)
    assert mix.derivative == pytest.approx(a * j1.derivative + b * j2.derivative,
                                           abs=1e-10)


def test_jacobi_residual_dyadic():
    warped = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.08, -0.03]))
    traj = integrate_geodesic(warped, _radial_state(0.4), 1.6, tol=1e-12)
    s = np.linspace(0.0, 1.6, 513)   # dyadic refinement of the trajectory
    vals, _ = jacobi_values(warped, traj, JacobiValue(1.0, 0.3), s)
    h = s[1] - s[0]
    second = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (h * h)
    r_mid = np.array([traj.position_at(t)[0] for t in s[1:-1]])
    curv = warped.gauss_curvature(r_mid)
    resid = second + curv * vals[1:-1]
    assert np.max(np.abs(resid)) < 1e-6 * max(1.0, np.max(np.abs(vals)))
