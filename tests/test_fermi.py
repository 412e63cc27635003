import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobex import fermi
from sobex.comparison import jacobi_factor, mean_curvature_bound
from sobex.errors import (
    FocalPointError,
    InvalidDomainError,
    InvalidSurfaceError,
    OutOfTubeError,
    ParameterError,
)
from sobex.fermi import (
    DomainSpec,
    FermiChart,
    GeodesicDisk,
    RadialProfile,
    check_regularity,
)
from sobex.heat import DiscreteDomain
from sobex.surfaces import (
    GeodesicState,
    JacobiValue,
    ModelSurface,
    integrate_geodesic,
    jacobi_transport,
    polar_to_cartesian,
    poly_cosh_mix_profile,
)


def test_boundary_point_disk(flat, unit_disk):
    """The outward normal ``jacobians(0, theta)[0]`` of the unit disk is the
    plane's radial unit vector, about the pole and off it (a translated pole disk)."""
    bp = unit_disk._engine().boundary(0.7)
    assert bp.second_fundamental[0] == pytest.approx(-1.0, abs=1e-14)
    assert bp.speed[0] == pytest.approx(1.0, abs=1e-14)
    radial = [math.cos(0.7), math.sin(0.7)]
    assert np.allclose(unit_disk._engine().jacobians(0.0, np.array([0.7]))[0][0], radial)
    off = DomainSpec(flat, GeodesicDisk((0.5, 1.0), 1.0))._engine()
    assert np.allclose(off.jacobians(0.0, np.array([0.7]))[0][0], radial)


def test_boundary_point_cap(spherical_cap, sphere):
    a = math.pi / 4.0
    bp = spherical_cap._engine().boundary(1.1)
    assert abs(bp.second_fundamental[0]) == pytest.approx(1.0 / math.tan(a), abs=1e-12)
    assert bp.speed[0] == pytest.approx(math.sin(a), abs=1e-14)
    # cross-check the spread sign by shooting the normal Jacobi field
    start = GeodesicState(position=(a, 1.1), velocity=(1.0, 0.0))
    traj = integrate_geodesic(sphere, start, 0.4, tol=1e-11)
    out = jacobi_transport(traj, JacobiValue(1.0, -float(bp.second_fundamental[0])), s=0.4)
    assert out.value == pytest.approx(math.sin(a + 0.4) / math.sin(a), abs=1e-9)


def test_circle_profile_matches_disk(flat, unit_disk):
    circle = DomainSpec(flat, RadialProfile(cos_coeffs=(1.0,)))
    theta = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    a = unit_disk._engine().boundary(theta)
    b = circle._engine().boundary(theta)
    assert np.allclose(a.second_fundamental, b.second_fundamental, atol=1e-10)
    assert np.allclose(a.speed, b.speed, atol=1e-10)
    assert np.allclose(unit_disk._engine().map(0.0, theta), circle._engine().map(0.0, theta),
                       atol=1e-10)


def test_rho_positive_required(flat):
    with pytest.raises(InvalidDomainError):
        DomainSpec(flat, RadialProfile(cos_coeffs=(0.5, 0.0, 0.6)))


# 1 + 1.5 sin(4096 theta): 1 at the 4096 angles k 2 pi / 4096, -0.5 between them
_DIPS_BETWEEN_SAMPLES = RadialProfile((1.0,), (0.0,) * 4095 + (1.5,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("profile, message", [
    (_DIPS_BETWEEN_SAMPLES, "radial profile must be positive"),
    # 1 + 0.999999 sin(theta) is positive, but only by 1e-6: more than 2^20
    # angles would certify it
    (RadialProfile((1.0,), (0.999999,)), "not certified positive on 2\\^20 arcs"),
])
def test_rho_positivity_is_certified_between_samples(flat, profile, message):
    with pytest.raises(InvalidDomainError, match=message):
        DomainSpec(flat, profile)


@settings(max_examples=100)
@given(a=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
       b=st.lists(st.floats(-1.0, 1.0), max_size=6))
def test_accepted_profiles_are_positive(a, b):
    """A profile the domain check accepts is positive on 2^16 angles."""
    profile = RadialProfile((1.0,) + tuple(a), tuple(b))
    try:
        DomainSpec(_FLAT, profile)
    except InvalidDomainError:
        return
    assert np.min(profile.rho(np.arange(2**16) * (2.0 * math.pi / 2**16))) > 0.0


_FLAT = ModelSurface.constant_curvature(0.0)
EPS = np.finfo(float).eps


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: DomainSpec(_FLAT, RadialProfile((math.nan,))),
                 InvalidDomainError, id="profile-nan"),
    pytest.param(lambda: DomainSpec(_FLAT, RadialProfile((math.inf,))),
                 InvalidDomainError, id="profile-inf"),
    pytest.param(lambda: DomainSpec(_FLAT, RadialProfile((1.0, 0.1), (-math.inf,))),
                 InvalidDomainError, id="profile-sine-inf"),
    pytest.param(lambda: DomainSpec(_FLAT, GeodesicDisk((math.nan, 0.0), 1.0)),
                 InvalidDomainError, id="centre-nan"),
    pytest.param(lambda: DomainSpec(_FLAT, GeodesicDisk((0.5, math.inf), 1.0)),
                 InvalidDomainError, id="centre-inf"),
    pytest.param(lambda: ModelSurface.constant_curvature(math.nan),
                 InvalidSurfaceError, id="kappa-nan"),
    pytest.param(lambda: ModelSurface.constant_curvature(math.inf),
                 InvalidSurfaceError, id="kappa-inf"),
    pytest.param(lambda: ModelSurface.constant_curvature(-math.inf),
                 InvalidSurfaceError, id="kappa-minus-inf"),
])
def test_non_finite_inputs_rejected(build, error):
    with pytest.raises(error):
        build()


def test_disk_centre_needs_two_chart_coordinates():
    with pytest.raises(InvalidDomainError, match="disk centre must hold two chart coordinates"):
        DomainSpec(_FLAT, GeodesicDisk((0.0, 0.0, 0.0), 1.0))


# the heat grid of each geometry class: an off-centre flat disk has the pole
# disk's grid about its own centre
_GRIDS = {"blob": "blob", "pole_disk": "pole_disk", "offcentre_disk": "pole_disk"}


@pytest.mark.parametrize("boundary, kind, engine", [
    (RadialProfile((1.0, 0.0, 0.15)), "blob", fermi._FlatCurveEngine),
    (GeodesicDisk((0.0, 0.0), 1.0), "pole_disk", fermi._PoleDiskEngine),
    (GeodesicDisk((0.3, 0.2), 0.6), "offcentre_disk", fermi._FlatCircleEngine),
])
def test_domain_kind_selects_engine_and_grid(boundary, kind, engine):
    """One geometry class per domain: it picks the chart engine and the heat grid."""
    spec = DomainSpec(_FLAT, boundary)
    assert spec.kind == kind
    assert type(spec._engine()) is engine
    assert DiscreteDomain.disk_like(spec, 16, 16).kind == _GRIDS[kind]


def test_off_centre_disk_is_the_translated_pole_disk():
    """The off-centre engine is the pole disk's, with ``invert`` in its own body
    (the benchmark's tracer wraps it there)."""
    engine = DomainSpec(_FLAT, GeodesicDisk((0.3, 0.2), 0.6))._engine()
    assert type(engine) is fermi._FlatCircleEngine
    assert isinstance(engine, fermi._PoleDiskEngine)
    assert "invert" in vars(fermi._FlatCircleEngine)


_SINE_BLOB = ((1.0, 0.0, 0.15), (0.0, 0.05))
_FLAGS = ("admissible", "interior_ball_ok", "exterior_ball_ok", "injectivity_ok",
          "radius_ok", "ambiguous_points", "notes")


@pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e2, 1e4, 1e6])
def test_blob_certificate_is_free_of_the_unit_of_length(scale):
    """The tolerances are relative to the domain's size: the blob scaled by
    ``scale`` at the tube radius scaled alike certifies with the same flags,
    and its ``H`` is ``H / scale``."""
    ref = check_regularity(DomainSpec(_FLAT, RadialProfile(*_SINE_BLOB)), 0.3)
    scaled = RadialProfile(*(tuple(scale * c for c in cs) for cs in _SINE_BLOB))
    rep = check_regularity(DomainSpec(_FLAT, scaled), 0.3 * scale)
    assert ref.admissible
    assert {k: getattr(rep, k) for k in _FLAGS} == {k: getattr(ref, k) for k in _FLAGS}
    assert rep.H * scale == pytest.approx(ref.H, rel=1e-12)


def test_fermi_map_examples(disk_chart, cap_chart):
    p = disk_chart.fermi_map(0.3, 0.0)
    assert np.allclose(p, [1.3, 0.0], atol=1e-14)
    p = disk_chart.fermi_map(-0.3, 0.0)
    assert np.allclose(p, [0.7, 0.0], atol=1e-14)
    p = cap_chart.fermi_map(0.2, 0.0)
    assert p[0] == pytest.approx(math.pi / 4.0 + 0.2, abs=1e-14)
    with pytest.raises(OutOfTubeError):
        disk_chart.fermi_map(0.5, 0.0)


def _foot(chart, points):
    """``(s, theta)`` of tube points, after asserting that every foot is usable."""
    s, th, ok, amb = chart.invert_soft(points)
    assert np.all(ok & ~amb)
    return s, th


def test_fermi_invert_examples(disk_chart, flat):
    (s,), (th,) = _foot(disk_chart, np.array([1.2, 0.0]))
    assert s == pytest.approx(0.2, abs=1e-12)
    assert th == pytest.approx(0.0, abs=1e-12)
    wide = FermiChart(DomainSpec(flat, GeodesicDisk((0.0, 0.0), 1.0)), 0.6)
    (s,), (th,) = _foot(wide, np.array([0.5, 1.0]))
    assert s == pytest.approx(-0.5, abs=1e-12)
    assert th == pytest.approx(1.0, abs=1e-12)
    # outside the tube
    (s,), _ = _foot(disk_chart, np.array([1.9, 0.0]))
    assert abs(s) >= disk_chart.r


def test_fermi_invert_blob_newton(flat):
    blob = DomainSpec(flat, RadialProfile(cos_coeffs=(1.0, 0.0, 0.2)))
    chart = FermiChart(blob, 0.25)
    theta0 = math.pi / 4.0
    target = chart.fermi_map(0.11, theta0)
    (s,), (th,) = _foot(chart, target)
    again = chart.fermi_map(s, th)
    err = np.linalg.norm(
        np.array([again[0] * math.cos(again[1]), again[0] * math.sin(again[1])])
        - np.array([target[0] * math.cos(target[1]), target[0] * math.sin(target[1])])
    )
    assert err < 1e-9
    assert s == pytest.approx(0.11, abs=1e-9)
    assert th == pytest.approx(theta0, abs=1e-9)


@pytest.mark.parametrize("chart_name", ["disk_chart", "cap_chart", "blob_chart"])
def test_roundtrip_grid(chart_name, request):
    chart = request.getfixturevalue(chart_name)
    r = chart.r
    s = np.linspace(-0.95 * r, 0.95 * r, 9)
    th = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    S, T = np.meshgrid(s, th, indexing="ij")
    pts = chart.map_unchecked(S.ravel(), T.ravel())
    s_back, th_back = _foot(chart, pts)
    assert np.max(np.abs(s_back - S.ravel())) < 1e-8
    dth = np.abs(np.angle(np.exp(1j * (th_back - T.ravel()))))
    speed = chart.engine.boundary(np.arange(256) * (2.0 * math.pi / 256)).speed
    assert np.max(dth) < 1e-8 / min(float(np.min(speed)), 1.0)


@pytest.mark.parametrize("chart_name", ["disk_chart", "cap_chart", "blob_chart"])
def test_metric_splitting(chart_name, request):
    # the normal parametrization splits the metric: |d psi/ds| = 1 and
    # d psi/ds perpendicular to d psi/dtheta
    chart = request.getfixturevalue(chart_name)
    surf = chart.surface
    h = 1e-6
    s = np.linspace(-0.8 * chart.r, 0.8 * chart.r, 7)
    th = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    S, T = np.meshgrid(s, th, indexing="ij")
    base = chart.map_unchecked(S.ravel(), T.ravel())
    plus_s = chart.map_unchecked(S.ravel() + h, T.ravel())
    minus_s = chart.map_unchecked(S.ravel() - h, T.ravel())
    plus_t = chart.map_unchecked(S.ravel(), T.ravel() + h)
    minus_t = chart.map_unchecked(S.ravel(), T.ravel() - h)

    def diff(a, b):
        d = (a - b) / (2.0 * h)
        d[:, 1] = np.angle(np.exp(1j * (a[:, 1] - b[:, 1]))) / (2.0 * h)
        return d

    dpsi_s = diff(plus_s, minus_s)
    dpsi_t = diff(plus_t, minus_t)
    f = np.asarray(surf.warp(base[:, 0]), dtype=float)
    norm_s = dpsi_s[:, 0] ** 2 + (f * dpsi_s[:, 1]) ** 2
    cross = dpsi_s[:, 0] * dpsi_t[:, 0] + f**2 * dpsi_s[:, 1] * dpsi_t[:, 1]
    assert np.max(np.abs(norm_s - 1.0)) < 1e-7
    scale = np.maximum(1.0, np.abs(dpsi_t[:, 0]) + np.abs(f * dpsi_t[:, 1]))
    assert np.max(np.abs(cross) / scale) < 1e-7


def test_volume_element_ratio_examples(disk_chart, cap_chart):
    assert disk_chart.volume_element_ratio(0.3, 0.44) == pytest.approx(1.44, abs=1e-14)
    assert disk_chart.volume_element_ratio(1.2, 0.0) == 1.0
    a = math.pi / 4.0
    for s in (-0.2, 0.1, 0.25):
        assert cap_chart.volume_element_ratio(0.5, s) == pytest.approx(
            math.sin(a + s) / math.sin(a), abs=1e-14)


@pytest.mark.parametrize("s", [0.45, -0.45, 0.6, [0.1, 0.45]])
def test_volume_element_ratio_outside_the_tube_raises(disk_chart, s):
    """Depths with ``|s| >= r`` (``r = 0.45``) lie outside the tube."""
    with pytest.raises(OutOfTubeError, match="depth outside the tube"):
        disk_chart.volume_element_ratio(np.zeros(np.shape(s)), s)


@pytest.mark.parametrize("chart_name", ["disk_chart", "cap_chart", "blob_chart"])
def test_comparison_sandwich(chart_name, request):
    chart = request.getfixturevalue(chart_name)
    data = chart.curvature_data()
    sig_lo, sig_hi = -data.H_max, -data.H_min
    th = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    s = np.linspace(0.0, 0.9 * chart.r, 12)
    for si in s:
        ratio = np.asarray(chart.volume_element_ratio(th, np.full_like(th, si)))
        lower = jacobi_factor(data.K_upper, sig_lo, si) ** (data.n - 1)
        upper = jacobi_factor(data.k_lower, sig_hi, si) ** (data.n - 1)
        assert np.all(ratio >= lower * (1.0 - 1e-6))
        assert np.all(ratio <= upper * (1.0 + 1e-6))


@pytest.mark.parametrize("chart_name", ["disk_chart", "cap_chart", "blob_chart"])
def test_mean_curvature_comparison(chart_name, request):
    # d/ds log(ratio) stays below the comparison bound with the tube's
    # lower curvature bound and the per-angle boundary spread
    chart = request.getfixturevalue(chart_name)
    data = chart.curvature_data()
    th = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    spread = -chart.engine.boundary(th).second_fundamental
    h = 1e-6
    for si in np.linspace(0.0, 0.9 * chart.r, 10):
        # central difference of the log volume ratio
        up, down = (np.log(chart.volume_element_ratio(th, np.full_like(th, si + d)))
                    for d in (h, -h))
        slope = (up - down) / (2.0 * h)
        bound = np.array([
            mean_curvature_bound(data.k_lower, sg, si, data.n) for sg in spread
        ])
        assert np.all(slope <= bound + 1e-6)


def test_check_regularity_disk(unit_disk):
    rep = check_regularity(unit_disk, 0.5)
    assert rep.admissible
    assert rep.H == pytest.approx(1.0, abs=1e-12)
    assert rep.K == 0.0
    assert rep.r0 == pytest.approx(1.0, abs=1e-12)
    assert rep.interior_margin > -1e-9
    assert rep.exterior_margin > -1e-9
    d = rep.to_dict()
    assert d["admissible"] is True


def test_check_regularity_disk_too_fat(unit_disk):
    rep = check_regularity(unit_disk, 1.5)
    assert not rep.admissible
    assert not rep.interior_ball_ok


def test_check_regularity_neck(flat):
    # deep three-lobed neck: the tube self-overlaps, mirroring the
    # problematic-neighborhood failure mode
    neck = DomainSpec(flat, RadialProfile(cos_coeffs=(1.0, 0.0, 0.0, 0.45)))
    rep = check_regularity(neck, 0.35)
    assert not rep.admissible
    assert (not rep.exterior_ball_ok) or (not rep.injectivity_ok)


def test_check_regularity_cap(spherical_cap):
    rep = check_regularity(spherical_cap, 0.3)
    assert rep.admissible
    assert rep.K == pytest.approx(1.0)
    assert rep.H == pytest.approx(1.0, abs=1e-9)


def test_focal_guard(flat):
    small = DomainSpec(flat, GeodesicDisk((0.0, 0.0), 0.4))
    with pytest.raises(FocalPointError):
        FermiChart(small, 0.45)  # reaches the disk centre


def test_ambiguous_foot_detected(flat):
    blob = DomainSpec(flat, RadialProfile(cos_coeffs=(1.0, 0.0, 0.15)))
    chart = FermiChart(blob, 0.3)
    # a point essentially at the origin is equidistant from the two
    # nearest lobes of the symmetric boundary
    amb = chart.invert_soft(np.array([1e-7, 0.3]))[3]
    assert amb[0]


def test_off_center_flat_disk(flat):
    off = DomainSpec(flat, GeodesicDisk((0.5, 1.0), 0.8))  # centre at polar (0.5, 1.0)
    chart = FermiChart(off, 0.3)
    (s,), (th,) = _foot(chart, chart.fermi_map(0.2, 0.9))
    assert s == pytest.approx(0.2, abs=1e-12)
    assert th == pytest.approx(0.9, abs=1e-12)
    rep = check_regularity(off, 0.3)
    assert rep.admissible


# the flat engines' frames: a blob with sine terms, a blob whose inward
# dents curve more sharply than its lobes, and an off-centre circle
_FRAME_BOUNDARIES = {
    "sine_blob": RadialProfile((1.0, 0.07, 0.15, -0.02), (0.05, 0.03)),
    "dented_blob": RadialProfile((1.0, 0.0, 0.25, 0.0, -0.05)),
    "off_centre_circle": GeodesicDisk((0.3, 1.0), 0.8),
}


# the same checks on pole-centred disks, whose plane Jacobians turn with theta
_JACOBIAN_DOMAINS = {
    **{name: DomainSpec(_FLAT, b) for name, b in _FRAME_BOUNDARIES.items()},
    "pole_disk_plane": DomainSpec(_FLAT, GeodesicDisk((0.0, 0.0), 1.0)),
    "pole_disk_sphere": DomainSpec(ModelSurface.constant_curvature(1.0),
                                   GeodesicDisk((0.0, 0.0), math.pi / 4.0)),
    "pole_disk_warped": DomainSpec(
        ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05])),
        GeodesicDisk((0.0, 0.0), 0.8)),
}


@pytest.mark.parametrize("name", sorted(_JACOBIAN_DOMAINS))
def test_flat_frame_jacobians_match_differences_of_the_map(name):
    # the engine's plane Jacobians against central differences of the map,
    # taken in the plane so that the polar angle's wrap at 2 pi does not enter
    domain = _JACOBIAN_DOMAINS[name]
    eng = domain._engine()
    th = np.linspace(0.0, 2.0 * math.pi, 37, endpoint=False)
    S, T = np.meshgrid(np.linspace(-0.25, 0.25, 7), th, indexing="ij")
    h = 1e-5

    def cart(s, t):
        return polar_to_cartesian(eng.map(s, t))

    d_theta = (cart(S, T + h) - cart(S, T - h)) / (2.0 * h)
    d_s = (cart(S + h, T) - cart(S - h, T)) / (2.0 * h)
    j_s, j_theta = eng.jacobians(S, T)
    assert np.allclose(j_theta, d_theta, rtol=0.0, atol=1e-8)
    assert np.allclose(j_s, d_s, rtol=0.0, atol=1e-8)
    # the volume ratio (1 + sigma s on flat frames) is the stretch of the tube's
    # level curves: a plane vector at radius rho has metric length f(rho)/rho times its own
    rho = eng.map(S, T)[..., 0]
    stretch = np.linalg.norm(d_theta, axis=-1) * domain.surface.warp(rho) / rho
    speed = eng.boundary(th).speed[None, :]
    assert np.allclose(eng.ratio(T, S) * speed, stretch, rtol=0.0, atol=1e-8)


# an asymmetric blob whose curvature extremes lie off the 256 sampled normals
_ASYM_BLOB = RadialProfile((1.0, 0.0, 0.12, 0.0, 0.03), (0.0, 0.05, 0.02))
_SURVEYED = {**_FRAME_BOUNDARIES, "asym_blob": _ASYM_BLOB}


@pytest.mark.parametrize("name", sorted(_SURVEYED))
def test_regularity_focal_radius_is_the_focal_reach(name):
    """One survey serves both: on flat boundaries ``r0 = 1/H`` and the reach agree bitwise."""
    spec = DomainSpec(_FLAT, _SURVEYED[name])
    assert check_regularity(spec, 0.1).r0 == spec._engine().focal_reach()


@pytest.mark.parametrize("spec", [DomainSpec(_FLAT, b) for b in _SURVEYED.values()]
                         + [DomainSpec(ModelSurface.constant_curvature(1.0),
                                       GeodesicDisk((0.0, 0.0), math.pi / 4.0))],
                         ids=sorted(_SURVEYED) + ["pole_disk_sphere"])
def test_curvature_data_is_the_survey_extremes(spec):
    """The chart's ``H_min`` and ``H_max`` are the extremes of II over 4096 angles."""
    ii = spec._engine().boundary(np.arange(4096) * (2.0 * math.pi / 4096)).second_fundamental
    data = FermiChart(spec, 0.1).curvature_data()
    assert (data.H_min, data.H_max) == (np.min(ii), np.max(ii))


@pytest.mark.parametrize("name", sorted(_FRAME_BOUNDARIES))
def test_flat_focal_reach_is_the_inverse_largest_spread(name):
    eng = DomainSpec(_FLAT, _FRAME_BOUNDARIES[name])._engine()
    spread = -eng.boundary(np.arange(4096) * (2.0 * math.pi / 4096)).second_fundamental
    assert eng.focal_reach() == 1.0 / np.max(np.abs(spread))


_COEFF = st.floats(-1.0, 1.0)


@settings(max_examples=200)
@given(a=st.lists(_COEFF, min_size=1, max_size=6), b=st.lists(_COEFF, max_size=6),
       theta=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6))
def test_profile_derivatives_match_the_per_mode_sum(a, b, theta):
    """``(rho, rho', rho'')`` against an ``fsum`` of the modes one at a time,
    to a few ``eps`` of the sum of the terms' magnitudes."""
    got = RadialProfile(tuple(a), tuple(b)).derivatives(np.array(theta))
    for i, t in enumerate(theta):
        terms = ([a[0]], [], [])
        for k, ak in enumerate(a[1:], 1):
            c, s = math.cos(k * t), math.sin(k * t)
            terms[0].append(ak * c)
            terms[1].append(-k * ak * s)
            terms[2].append(-k * k * ak * c)
        for k, bk in enumerate(b, 1):
            c, s = math.cos(k * t), math.sin(k * t)
            terms[0].append(bk * s)
            terms[1].append(k * bk * c)
            terms[2].append(-k * k * bk * s)
        for value, parts in zip(got, terms):
            size = math.fsum(abs(x) for x in parts)
            assert abs(value[i] - math.fsum(parts)) <= (len(parts) + 4) * EPS * size


def _dense_table_feet(eng, x, n=2048, separation=8, tie=1e-6):
    """Oracle for the flat foot search: the argmin of the full table of squared
    distances to ``n`` boundary samples, and the runner-up more than
    ``separation`` samples away.  Also flags exact ties for the nearest sample,
    which a KD-tree may order either way."""
    c = eng.curve(np.arange(n) * (2.0 * math.pi / n))[0]
    d2 = (x[:, 0, None] - c[None, :, 0]) ** 2 + (x[:, 1, None] - c[None, :, 1]) ** 2
    rows, idx = np.arange(x.shape[0]), np.argmin(d2, axis=1)
    d = np.sqrt(d2)
    offs = (np.arange(n)[None, :] - idx[:, None]) % n
    far = (offs > separation) & (offs < n - separation)
    runner = np.min(np.where(far, d, np.inf), axis=1)
    ties = np.count_nonzero(d2 == d2[rows, idx][:, None], axis=1) > 1
    return idx, d[rows, idx], runner <= d[rows, idx] + tie, ties


_SMALL = st.floats(-0.15, 0.15)
_POINT = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=60)
@given(a=st.lists(_SMALL, min_size=1, max_size=3), b=st.lists(_SMALL, min_size=1, max_size=3),
       box=st.lists(_POINT, min_size=1, max_size=20),
       tube=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 2.0 * math.pi)),
                     min_size=1, max_size=20))
def test_flat_feet_match_the_dense_table(a, b, box, tube):
    """Nearest sample (the first of a tie), its distance and the two-feet flag
    of the blocked sweep equal the full table's on box points and mapped tube
    points."""
    eng = DomainSpec(_FLAT, RadialProfile((1.0, *a), tuple(b)))._engine()  # rho >= 1 - 6 * 0.15
    s, t = np.array(tube).T
    x = np.concatenate([np.array(box), polar_to_cartesian(eng.map(s, t)), [[0.0, 0.0]]])
    idx, d_best, amb = eng._dense_feet(x)
    o_idx, o_best, o_amb, _ = _dense_table_feet(eng, x)
    assert np.array_equal(idx, o_idx)
    assert np.array_equal(d_best, o_best)
    assert np.array_equal(amb, o_amb)


def _kd_tree_feet(eng, x, n=2048, separation=8, tie=1e-6):
    """The KD-tree foot search the blocked sweep replaced: one query of the
    ``2 separation + 2`` nearest samples."""
    from scipy.spatial import cKDTree

    d, idx = cKDTree(eng.curve(np.arange(n) * (2.0 * math.pi / n))[0]).query(
        x, k=2 * separation + 2)
    idx %= n
    offs = (idx[:, 1:] - idx[:, :1]) % n
    far = (offs > separation) & (offs < n - separation)
    amb = np.any(far & (d[:, 1:] <= d[:, :1] + tie), axis=1)
    return idx[:, 0], d[:, 0], amb | np.isinf(d[:, 0])


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_SMALL, max_size=3), b=st.lists(_SMALL, max_size=3),
       box=st.lists(_POINT, min_size=1, max_size=150),
       tube=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 2.0 * math.pi)),
                     max_size=20))
def test_flat_feet_match_the_kd_tree(a, b, box, tube):
    """The blocked sweep finds the KD-tree's nearest distance bit for bit, and
    its nearest sample and two-feet flag wherever the nearest is no exact tie;
    up to 170 points span three 64-row blocks, and overflowing points are
    ambiguous in both."""
    eng = DomainSpec(_FLAT, RadialProfile((1.0, *a), tuple(b)))._engine()
    x = np.array(box)
    if tube:
        s, t = np.array(tube).T
        x = np.concatenate([x, polar_to_cartesian(eng.map(s, t))])
    x = np.concatenate([x, [[0.0, 0.0], [1e300, 0.1]]])
    idx, d_best, amb = eng._dense_feet(x)
    o_idx, o_best, o_amb = _kd_tree_feet(eng, x)
    with np.errstate(over="ignore"):
        ties = _dense_table_feet(eng, x)[3]
    assert np.array_equal(d_best, o_best)
    assert np.array_equal(idx[~ties], o_idx[~ties])
    assert np.array_equal(amb[~ties], o_amb[~ties])
    assert amb[-1] and o_amb[-1]


def test_invert_tolerance_is_per_point(blob_chart):
    # a far point in the same batch must not loosen another point's Newton stop
    p = blob_chart.fermi_map(0.2, 0.37)
    s1, th1, ok1, amb1 = blob_chart.invert_soft(p[None])
    s2, th2, ok2, amb2 = blob_chart.invert_soft(np.stack([p, [1e7, 0.0]]))
    assert ok1[0] and ok2[0] and not (amb1[0] or amb2[0])
    assert s2[0] == pytest.approx(s1[0], abs=1e-12)
    assert th2[0] == pytest.approx(th1[0], abs=1e-12)
    assert th1[0] == pytest.approx(0.37, abs=1e-9)


def test_overflowing_point_is_ambiguous_and_outside(blob_chart):
    # squared distances overflow: every boundary sample ties at +inf, and
    # the point skips Newton (which used to warn and return theta = NaN)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        s, th, ok, amb = blob_chart.invert_soft(np.array([1e300, 0.1]))
    assert amb[0] and ok[0] and s[0] == math.inf
    assert np.isfinite(th[0])


def test_off_centre_circle_overflowing_point_is_outside(flat):
    # |x|^2 overflows for (1e300, 0.1); the circle's distance must not
    spec = DomainSpec(flat, GeodesicDisk((0.3, 0.5), 0.6))
    chart = FermiChart(spec, 0.2)
    far = np.array([1e300, 0.1])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        s, th, ok, amb = chart.invert_soft(far)
        inside = spec.contains(far)
    assert ok[0] and not amb[0] and s[0] == pytest.approx(1e300, rel=1e-12)
    assert np.isfinite(th[0]) and not inside[0]


def test_invert_memory_stays_small(blob_chart):
    # 8192 tube points: the search holds 64 rows of the 2048-sample table at a time
    S, T = np.meshgrid(np.linspace(-0.95 * blob_chart.r, 0.95 * blob_chart.r, 8),
                       np.arange(1024) * (2.0 * math.pi / 1024), indexing="ij")
    pts = blob_chart.map_unchecked(S.ravel(), T.ravel())
    blob_chart.invert_soft(pts[:1])  # build the cached boundary samples first
    tracemalloc.start()
    try:
        s, th, ok, amb = blob_chart.invert_soft(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(ok) and not np.any(amb)
    assert np.max(np.abs(s - S.ravel())) < 1e-8
    assert peak < 16 * 2**20
