import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from sobex import comparison as C
from sobex.errors import ComparisonBreakdownError, ParameterError


def test_jacobi_factor_closed_forms():
    assert C.jacobi_factor(0.0, 0.0, 5.0) == 1.0
    assert C.jacobi_factor(1.0, 0.0, math.pi / 3.0) == pytest.approx(0.5, abs=1e-15)
    # hyperbolic case against an independent numerical integration
    sol = solve_ivp(lambda t, y: [y[1], y[0]], (0.0, 1.0), [1.0, 1.0],
                    rtol=1e-12, atol=1e-13)
    assert C.jacobi_factor(-1.0, 1.0, 1.0) == pytest.approx(sol.y[0, -1], abs=1e-10)
    assert C.jacobi_factor(-1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-12)


def test_jacobi_factor_ode_residual():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = rng.uniform(-4.0, 4.0)
        h = rng.uniform(-3.0, 3.0)
        zero = C.jacobi_factor_zero(k, h)
        s_hi = min(zero, 5.0) * 0.95
        s = rng.uniform(0.0, s_hi)
        # analytic second derivative is exactly -k mu: residual vanishes
        mu_dd = -k * C.jacobi_factor(k, h, s)
        assert abs(mu_dd + k * C.jacobi_factor(k, h, s)) < 1e-9
        # independent finite-difference second derivative
        eps = 1e-4
        fd = (C.jacobi_factor(k, h, s + eps) - 2.0 * C.jacobi_factor(k, h, s)
              + C.jacobi_factor(k, h, s - eps)) / eps**2
        scale = max(1.0, abs(C.jacobi_factor(k, h, s)))
        assert abs(fd + k * C.jacobi_factor(k, h, s)) < 5e-5 * scale


def test_riccati_consistency():
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(400):
        k = rng.uniform(-4.0, 4.0)
        h = rng.uniform(-3.0, 3.0)
        s = rng.uniform(0.0, 2.0)
        mu = C.jacobi_factor(k, h, s)
        if abs(mu) <= 0.1:
            continue
        lam = C.jacobi_factor_prime(k, h, s) / mu
        lam_p = (C.jacobi_factor_prime(k, h, s + eps) / C.jacobi_factor(k, h, s + eps)
                 - C.jacobi_factor_prime(k, h, s - eps) / C.jacobi_factor(k, h, s - eps)
                 ) / (2.0 * eps)
        assert abs(lam_p + lam * lam + k) < 1e-8 * max(1.0, lam * lam)


def test_focal_radius_examples():
    assert C.focal_radius(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert C.focal_radius(-1.0, 0.5) == math.inf
    # K = 1, H = -1: root of cot r = -1 lies at 3 pi / 4
    root = brentq(lambda r: 1.0 / math.tan(r) + 1.0, 1.6, 3.1, xtol=1e-14)
    assert root == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
    assert C.focal_radius(1.0, -1.0) == pytest.approx(root, abs=1e-12)
    # nearly flat: the zero stays near 1/H where pi/2 + atan(-H/sqrt(K)) cancels
    assert C.focal_radius(1e-56, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert C.focal_radius(1e-20, 2.0) == pytest.approx(0.5, rel=1e-15)


def test_focal_radius_is_first_jacobi_zero():
    rng = np.random.default_rng(5)
    for _ in range(200):
        K = rng.uniform(0.05, 4.0)
        H = rng.uniform(-3.0, 3.0)
        r0 = C.focal_radius(K, H)
        # bracket the zero of the Jacobi factor with slope -H
        lo, hi = 0.9999 * r0, 1.0001 * r0
        zero = brentq(lambda s: C.jacobi_factor(K, -H, s), lo, hi, xtol=1e-14)
        assert abs(zero - r0) < 1e-10
    for _ in range(100):
        K = -rng.uniform(0.05, 4.0)
        H = rng.uniform(math.sqrt(-K) * 1.01, math.sqrt(-K) * 4.0)
        r0 = C.focal_radius(K, H)
        zero = brentq(lambda s: C.jacobi_factor(K, -H, s),
                      0.9999 * r0, 1.0001 * r0, xtol=1e-14)
        assert abs(zero - r0) < 1e-10


def test_admissible_rolling_radius():
    assert C.admissible_rolling_radius(0.0, 0.0) == 1.0
    assert C.admissible_rolling_radius(0.0, 2.0) == pytest.approx(0.25, abs=1e-15)
    assert C.admissible_rolling_radius(1.0, 0.0) == pytest.approx(
        math.atan(0.5), abs=1e-15)
    with pytest.raises(ParameterError):
        C.admissible_rolling_radius(-1.0, 0.0)


def test_volume_ratio_bounds_flat_ball():
    data = C.CurvatureData(0.0, 0.0, -1.0, -1.0, n=2)
    profile = C.ComparisonProfile.from_curvature(data, 0.5)
    assert (profile.d(0.0), profile.D(0.0)) == (1.0, 1.0)
    d, D = profile.d(0.5), profile.D(0.5)
    # the bounds reproduce the exact unit-ball ratios and in particular
    # dominate the cruder linear profile 1 - s
    assert d == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert D == pytest.approx(2.0, abs=1e-15)
    assert d >= 0.5
    # past the degeneration radius r0 = 1, neither a profile nor a depth
    with pytest.raises(ComparisonBreakdownError):
        C.ComparisonProfile.from_curvature(data, 1.5)
    with pytest.raises(ComparisonBreakdownError):
        profile.D(1.5)


def test_comparison_profile_matches_exact_ball():
    data = C.CurvatureData(0.0, 0.0, -1.0, -1.0, n=2)
    derived = C.ComparisonProfile.from_curvature(data, 0.5)
    exact = C.ComparisonProfile.round_ball(1.0, 0.5)
    s = np.linspace(0.0, 0.5, 33)
    assert np.allclose(derived.d_base(s), exact.d_base(s), atol=1e-14)
    assert np.allclose(derived.D_base(s), exact.D_base(s), atol=1e-14)
    assert derived.r0 == pytest.approx(1.0)


def test_distortion_factor():
    flat = C.ComparisonProfile(0, 0, 0, 0, r=1)
    assert C.distortion_factor(flat) == 1.0
    ball = C.ComparisonProfile.round_ball(1.0, 0.5)
    assert C.distortion_factor(ball) == pytest.approx(3.0, abs=1e-9)
    assert C.distortion_factor(replace(ball, n=3)) == pytest.approx(9.0, abs=1e-9)
    third = C.ComparisonProfile.round_ball(1.0, 1.0 / 3.0)
    assert C.distortion_factor(third) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_scalar_powers_overflow_to_inf():
    """At a scalar depth the base of ``d``/``D`` is a Python float, whose ``**``
    raises ``OverflowError`` where a numpy float reads ``inf``; neither warns."""
    profile = C.ComparisonProfile.from_curvature(C.CurvatureData(-1, 1, -1, 1, n=1000), 0.46)
    assert profile.D(0.46) == math.inf
    assert C.round_ball_norm_bound(1000, 0.5) == math.inf


def test_profile_carries_its_dimension():
    """A profile built from n = 3 data squares the n = 2 profile and distortion."""
    data = C.CurvatureData(-0.5, 1.0, -0.7, 0.4)
    planar = C.ComparisonProfile.from_curvature(data, 0.3)
    solid = C.ComparisonProfile.from_curvature(replace(data, n=3), 0.3)
    assert (planar.n, solid.n) == (2, 3)
    s = np.linspace(0.0, 0.3, 17)
    assert np.allclose(solid.d(s), planar.d(s) ** 2, rtol=1e-15, atol=0.0)
    assert np.allclose(solid.D(s), planar.D(s) ** 2, rtol=1e-15, atol=0.0)
    assert C.distortion_factor(solid) == pytest.approx(C.distortion_factor(planar) ** 2,
                                                       rel=1e-15)
    with pytest.raises(ComparisonBreakdownError):  # replace checks the radius again
        replace(solid, r=solid.r0)


def _grid_search_distortion(profile, grid_size=1024):
    """The former numerical distortion: a dense grid, then golden-section
    refinement around each grid extremum.  The former code refined only
    extrema inside the grid, and so missed a critical point in the first
    or last cell; here the end cells are refined too."""
    r = profile.r
    grid = np.linspace(0.0, r, grid_size + 1)

    def refined_min(fn):
        vals = fn(grid)
        i = int(np.argmin(vals))
        res = minimize_scalar(lambda s: float(fn(s)),
                              bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid_size)]),
                              method="bounded", options={"xatol": 1e-13 * max(1.0, r)})
        return min(vals[i], float(res.fun))

    d_min = refined_min(profile.d_base)
    D_max = -refined_min(lambda s: -profile.D_base(s))
    return max(1.0, (D_max / d_min) ** (profile.n - 1))


@st.composite
def _curvature_and_radius(draw):
    k_lower = draw(st.floats(-4.0, 4.0))
    K_upper = k_lower + draw(st.floats(1e-3, 4.0))
    spread = draw(st.floats(-3.0, 3.0))
    data = C.CurvatureData(k_lower, K_upper, -spread, -spread + draw(st.floats(0.0, 2.0)),
                           n=draw(st.sampled_from([2, 3])))
    r0 = min(C.jacobi_factor_zero(k_lower, spread), C.jacobi_factor_zero(K_upper, -spread))
    return data, draw(st.floats(0.01, 0.99)) * min(r0, 4.0)


@settings(max_examples=400)
@given(_curvature_and_radius())
@example((C.CurvatureData(1.0, 1.5, -0.5, -0.5), 0.8))   # exterior J peaks inside
@example((C.CurvatureData(-3.0, -1.0, -0.5, 0.0), 2.0))  # interior J bottoms out inside
def test_distortion_closed_form_matches_grid_search(case):
    """The exact distortion agrees with the former grid-plus-golden-section
    search and dominates a finer grid, interior critical points included."""
    data, r = case
    profile = C.ComparisonProfile.from_curvature(data, r)
    for k, h in ((profile.k_ext, profile.h_ext), (profile.k_int, profile.h_int)):
        if h != 0.0 and 0.0 < C.jacobi_factor_zero(k, -k / h) < r:
            event("interior critical point")
    exact = C.distortion_factor(profile)
    assert exact == pytest.approx(_grid_search_distortion(profile), rel=1e-14)
    grid = np.linspace(0.0, r, 4097)
    on_grid = max(1.0, (np.max(profile.D_base(grid)) / np.min(profile.d_base(grid)))
                  ** (data.n - 1))
    assert exact >= on_grid * (1.0 - 1e-15)  # up to the grid values' rounding


def test_distortion_monotone_in_radius():
    ball = C.ComparisonProfile.round_ball(1.0, 0.45)
    radii = np.linspace(0.05, 0.45, 9)
    vals = [C.distortion_factor(replace(ball, r=r)) for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_extension_norm_bound():
    assert C.extension_norm_bound(1.0, 0.0, 1.0) == 165.0
    assert C.extension_norm_bound(2.0, 8.0, 4.0) == pytest.approx(1477.0, abs=1e-12)
    for r in (0.1, 0.5, 1.0, 2.0):
        assert C.round_ball_norm_bound(2, r) == pytest.approx(
            1.0 + 3.0 * max(164.0, 82.0 + 1312.0 / r**2), abs=1e-9)
    radii = np.linspace(0.05, 3.0, 40)
    vals = [C.extension_norm_bound(2.0, 3.0, r) for r in radii]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert min(vals) >= 165.0


def test_mean_curvature_bound():
    assert C.mean_curvature_bound(0.0, 0.0, 2.0, 2) == 0.0
    assert C.mean_curvature_bound(0.0, 1.0, 1.0, 2) == pytest.approx(0.5, abs=1e-15)
    # blows down near the cosine zero and is flagged at it
    val = C.mean_curvature_bound(1.0, 0.0, math.pi / 2.0 - 1e-3, 2)
    assert val < -900.0
    with pytest.raises(ComparisonBreakdownError):
        C.mean_curvature_bound(1.0, 0.0, math.pi / 2.0 + 1e-6, 2)


def test_degenerate_tube_error():
    data = C.CurvatureData(0.0, 0.0, 2.0, 2.0, n=2)  # spread -2: zero at 0.5
    for r in (0.7, 0.5):  # past and at the degeneration radius
        with pytest.raises(ComparisonBreakdownError):
            C.ComparisonProfile.from_curvature(data, r)
    profile = C.ComparisonProfile.from_curvature(data, 0.4)
    with pytest.raises(ComparisonBreakdownError, match="^[^\n]*$"):
        profile.d_base(np.linspace(0.0, 0.6, 65))
