import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from sobex import extension as E
from sobex.errors import ParameterError, RegularityError
from sobex.fermi import DomainSpec, FermiChart, GeodesicDisk, RadialProfile
from sobex.surfaces import polar_to_cartesian


def x_field():
    return E.polynomial_field([[0.0, 0.0], [1.0, 0.0]])


def test_field_partials_match_finite_differences(rng):
    # the declared analytic plane partials of every field factory agree
    # with central finite differences at interior probe points
    h = 1e-6
    pts = polar_to_cartesian(np.stack([rng.uniform(0.2, 0.9, 50),
                                       rng.uniform(0.0, 2 * math.pi, 50)], axis=-1))
    for fld in E.random_smooth_fields(rng, 6):
        grad = fld.partials(pts)
        for axis in (0, 1):
            shift = np.zeros(2)
            shift[axis] = h
            fd = (fld.evaluate(pts + shift) - fld.evaluate(pts - shift)) / (2 * h)
            scale = np.maximum(1.0, np.abs(grad[:, axis]))
            assert np.max(np.abs(fd - grad[:, axis]) / scale) < 1e-5


def test_cutoff_values():
    cut = E.smoothstep_cutoff(3.0)
    assert cut.eta(0.2) == 1.0
    assert cut.eta(1.1) == 0.0
    assert cut.eta(0.75) == pytest.approx(0.5, abs=1e-15)
    grid = np.linspace(0.0, 1.3, 200001)
    assert np.max(np.abs(cut.eta_prime(grid))) <= 3.0 + 1e-9
    cut8 = E.smoothstep_cutoff(8.0)
    assert np.max(np.abs(cut8.eta_prime(grid))) <= 8.0 + 1e-9
    assert cut8.eta(cut8.t_end + 1e-9) == 0.0
    with pytest.raises(ParameterError):
        E.smoothstep_cutoff(2.0)


def test_extend_1d_examples():
    # the reflection rule from u(-s) and u(-s/2) at s = 0.4: a constant and the
    # affine trace u(t) = t are reproduced, and u(t) = t^2 gives -3 s^2 + s^2
    s = 0.4
    assert E._reflect(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert E._reflect(-s, -s / 2) == pytest.approx(0.4, abs=1e-14)
    assert E._reflect(s**2, (s / 2) ** 2) == pytest.approx(-0.32, abs=1e-14)
    # the cut-off jet reads u'(-s) and u'(-s/2): d/ds (-2 s^2) = -4 s for u(t) = t^2,
    # and cutoff 0.5 with slope 2 takes the affine trace to 0.5 s and 0.5 + 2 s
    value, d_s = E._reflection_jet((s**2, (s / 2) ** 2), (-2 * s, -s), 1.0, 0.0)
    assert value == pytest.approx(-0.32, abs=1e-14)
    assert d_s == pytest.approx(-1.6, abs=1e-14)
    value, d_s = E._reflection_jet((-s, -s / 2), (1.0, 1.0), 0.5, 2.0)
    assert value == pytest.approx(0.2, abs=1e-15)
    assert d_s == pytest.approx(1.3, abs=1e-14)


def test_extend_branches(disk_chart):
    cut = E.smoothstep_cutoff(3.0)
    ext1 = E.ExtendedField(disk_chart, E.constant_field(1.0), cut)
    r = disk_chart.r
    assert ext1(np.array([1.0 + 0.2 * r, 0.0])) == pytest.approx(1.0, abs=1e-14)
    assert ext1(np.array([1.0 + 1.2 * r, 0.0])) == 0.0
    extx = E.ExtendedField(disk_chart, x_field(), cut)
    s = 0.2  # below r/2 so the cutoff equals 1
    assert extx(np.array([1.0 + s, 0.0])) == pytest.approx(1.0 + s, abs=1e-12)


def test_restriction_identity_bitwise(disk_chart, rng):
    cut = E.smoothstep_cutoff(3.0)
    fld = E.random_smooth_fields(rng, 1)[0]
    ext = E.ExtendedField(disk_chart, fld, cut)
    r_pts = np.sqrt(rng.uniform(0.0, 1.0, 300))
    th_pts = rng.uniform(0.0, 2.0 * math.pi, 300)
    pts = np.stack([r_pts, th_pts], axis=-1)
    pts[:30, 0] = 1.0  # include boundary points
    assert np.all(ext(pts) == fld.evaluate(polar_to_cartesian(pts)))


def test_linearity(disk_chart, rng):
    cut = E.smoothstep_cutoff(3.0)
    f1, f2 = E.random_smooth_fields(rng, 2)
    a, b = 1.37, -0.61
    combo = E.ScalarField(
        evaluate=lambda p: a * f1.evaluate(p) + b * f2.evaluate(p),
        partials=lambda p: a * f1.partials(p) + b * f2.partials(p),
    )
    e1 = E.ExtendedField(disk_chart, f1, cut)
    e2 = E.ExtendedField(disk_chart, f2, cut)
    ec = E.ExtendedField(disk_chart, combo, cut)
    pts = np.stack([rng.uniform(0.0, 1.4, 400), rng.uniform(0.0, 2 * math.pi, 400)],
                   axis=-1)
    assert np.max(np.abs(ec(pts) - (a * e1(pts) + b * e2(pts)))) < 1e-12


def test_support_confinement(disk_chart, rng):
    cut = E.smoothstep_cutoff(3.0)
    fld = E.random_smooth_fields(rng, 1)[0]
    ext = E.ExtendedField(disk_chart, fld, cut)
    far = np.stack([rng.uniform(1.0 + disk_chart.r + 1e-9, 3.0, 200),
                    rng.uniform(0.0, 2 * math.pi, 200)], axis=-1)
    assert np.all(ext(far) == 0.0)


@pytest.mark.parametrize("chart_name", ["disk_chart", "cap_chart", "blob_chart"])
def test_c1_matching(chart_name, request, rng):
    chart = request.getfixturevalue(chart_name)
    cut = E.smoothstep_cutoff(3.0)
    for fld in E.random_smooth_fields(rng, 4):
        assert E.c1_matching_error(chart, fld, cut) < 1e-5


def test_h1_norm_closed_forms(disk_chart):
    one = E.constant_field(1.0)
    l2, g2 = E.h1_norm(one, "omega", disk_chart, 32)
    assert l2 == pytest.approx(math.pi, rel=1e-12)
    assert g2 == pytest.approx(0.0, abs=1e-12)
    fx = x_field()
    l2, g2 = E.h1_norm(fx, "omega", disk_chart, 32)
    assert l2 == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert g2 == pytest.approx(math.pi, rel=1e-12)


def test_h1_norm_off_centre_disk(flat):
    """The flat circle off the pole integrates in polar coordinates about its own
    centre: on the unit disk about Cartesian (0.5, 0.3), ``1`` has norms
    ``(pi, 0)`` and ``x`` has ``(pi/4 + 0.5^2 pi, pi)``."""
    centre = (math.hypot(0.5, 0.3), math.atan2(0.3, 0.5))
    chart = FermiChart(DomainSpec(flat, GeodesicDisk(centre, 1.0)), 0.4)
    assert E._omega_grid(chart, 32)["weights"].size == 32 * 64
    for fld, expected in ((E.constant_field(1.0), (math.pi, 0.0)),
                          (x_field(), (math.pi / 2.0, math.pi))):
        assert E.h1_norm(fld, "omega", chart, 32) == pytest.approx(expected, abs=1e-14)


def test_h1_norm_degree8_polynomial(disk_chart):
    # u = x^4 y^4 on the unit disk against an independent dblquad oracle
    coeffs = np.zeros((5, 5))
    coeffs[4, 4] = 1.0
    fld = E.polynomial_field(coeffs)
    l2, g2 = E.h1_norm(fld, "omega", disk_chart, 64)
    l2_oracle = 3.0 * math.pi / 640.0 / 2.0  # int r^9 dr * int cos^4 sin^4 = (1/10)(3pi/64)
    val, _ = dblquad(lambda t, r: r * (r**8 * math.cos(t) ** 4 * math.sin(t) ** 4) ** 2,
                     0.0, 1.0, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13)
    assert l2 == pytest.approx(val, rel=1e-9)
    grad_oracle, _ = dblquad(
        lambda t, r: r * ((4 * (r * math.cos(t)) ** 3 * (r * math.sin(t)) ** 4) ** 2
                          + (4 * (r * math.cos(t)) ** 4 * (r * math.sin(t)) ** 3) ** 2),
        0.0, 1.0, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13)
    assert g2 == pytest.approx(grad_oracle, rel=1e-9)


def test_h1_norm_extension_bounded_by_area(disk_chart):
    cut = E.smoothstep_cutoff(3.0)
    ext = E.ExtendedField(disk_chart, E.constant_field(1.0), cut)
    l2, _ = E.h1_norm(ext, "tube_exterior", disk_chart, 32)
    r = disk_chart.r
    tube_area = math.pi * ((1.0 + r) ** 2 - 1.0)
    assert 0.0 < l2 <= tube_area


def test_verify_1d_inequality_examples(rng):
    zero = E.Trace1D(lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                     lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    lhs, rhs, ratio = E.verify_1d_inequality(zero, 1.0, 3.0)
    assert (lhs, rhs, ratio) == (0.0, 0.0, 0.0)
    ones = E.Trace1D(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                     lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    lhs, rhs, ratio = E.verify_1d_inequality(ones, 1.0, 3.0)
    assert rhs == pytest.approx(82.0 + 164.0 * 9.0, rel=1e-12)
    assert 0.0 < ratio < 1.0
    worst = 0.0
    for _ in range(100):
        tr = E.random_fourier_trace(rng)
        for r in (0.25, 0.5, 1.0):
            worst = max(worst, E.verify_1d_inequality(tr, r, 3.0)[2])
    assert worst < 1.0


def test_operator_norm_disk(disk_chart, rng):
    cut = E.smoothstep_cutoff(3.0)
    fields = [E.constant_field(1.0), x_field()] + E.random_smooth_fields(rng, 4)
    res = E.operator_norm_estimate(disk_chart, cut, fields, quad=32)
    assert res.passed and res.max_ratio <= res.bound
    assert res.per_sample[0] > 1.0
    zero = E.constant_field(0.0)
    res0 = E.operator_norm_estimate(disk_chart, cut, [zero], quad=24)
    assert res0.max_ratio == 0.0


def test_operator_norm_requires_admissible(flat):
    # inadmissible geometries refuse chart construction outright, so the
    # guard is exercised on a chart whose certificate reports a failure
    from dataclasses import replace

    dom = DomainSpec(flat, GeodesicDisk((0.0, 0.0), 1.0))
    chart = FermiChart(dom, 0.4)
    chart.regularity = replace(chart.regularity, admissible=False)
    cut = E.smoothstep_cutoff(3.0)
    with pytest.raises(RegularityError):
        E.operator_norm_estimate(chart, cut, [E.constant_field(1.0)], quad=24)


def test_h1_norm_rejects_nonfinite(disk_chart):
    from sobex.errors import EvaluationError

    def bad(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(pts.shape[0])
        out[pts[:, 0] > 0.5] = np.nan
        return out

    with pytest.raises(EvaluationError):
        E.h1_norm(E.ScalarField(bad, lambda p: np.zeros((len(p), 2))), "omega", disk_chart, 16)


def test_h1_norm_takes_one_field_type_per_region(disk_chart):
    # the domain norm reads a ScalarField's own partials, the tube norm an
    # ExtendedField's reflection; nothing else has a gradient to integrate
    fld = x_field()
    ext = E.ExtendedField(disk_chart, fld, E.smoothstep_cutoff(3.0))
    for field, region in ((fld.evaluate, "omega"), (ext, "omega"), (fld, "tube_exterior"),
                          (fld, "all"), (ext, "all")):
        with pytest.raises(ParameterError):
            E.h1_norm(field, region, disk_chart, 16)


def test_operator_norm_reports_a_bound_violation(disk_chart, rng, monkeypatch):
    monkeypatch.setattr(E, "extension_norm_bound", lambda *args: 1.0)
    cut = E.smoothstep_cutoff(3.0)
    res = E.operator_norm_estimate(disk_chart, cut, E.random_smooth_fields(rng, 3), quad=24)
    assert not res.passed and res.bound == 1.0
    assert len(res.per_sample) == 3 and res.max_ratio == max(res.per_sample) > 1.0


def test_fermi_partials_cross_check(blob_chart, rng):
    # Jacobi-frame analytic tube gradient against finite differences
    cut = E.smoothstep_cutoff(3.0)
    fld = E.random_smooth_fields(rng, 1)[0]
    ext = E.ExtendedField(blob_chart, fld, cut)
    r = blob_chart.r
    s = rng.uniform(0.05 * r, 0.9 * r, 20)
    th = rng.uniform(0.0, 2.0 * math.pi, 20)
    d_s, d_t = ext.jet(s, *E._reflection_sources(blob_chart, s, th))[1:]
    h = 1e-6
    ds_fd = (ext.tube_profile(s + h, th) - ext.tube_profile(s - h, th)) / (2 * h)
    dt_fd = (ext.tube_profile(s, th + h) - ext.tube_profile(s, th - h)) / (2 * h)
    assert np.max(np.abs(d_s - ds_fd)) < 1e-4
    assert np.max(np.abs(d_t - dt_fd)) < 1e-4


def _tube_fd_oracle(ext, chart, quad):
    """The tube norms by central differences, one extension call per shifted grid.

    The step is ``1e-5 * diam``, at most half the smallest depth node, so
    no shifted depth goes below 0.
    """
    rule = E._tube_rule(chart, quad, ext.cutoff)
    S, T, W, metric = rule["s"], rule["theta"], rule["weights"], rule["metric"]
    h = min(1e-5 * chart.domain.diameter(), 0.5 * float(S.min()))

    def F(s, t):
        return np.asarray(ext.tube_profile(s, t), dtype=float)

    vals = F(S, T)
    d_s = (F(S + h, T) - F(S - h, T)) / (2 * h)
    d_t = (F(S, T + h) - F(S, T - h)) / (2 * h)
    grad_sq = d_s**2 + (d_t / metric) ** 2
    return float(np.sum(W * vals**2)), float(np.sum(W * grad_sq))


@pytest.mark.parametrize("domain, r", [("unit_disk", 0.45), ("spherical_cap", 0.3),
                                       ("fourier_blob", 0.3)])
def test_tube_norm_analytic_gradient_matches_differences(domain, r, request, rng):
    """The analytic tube norms from one cached rule per chart: the same bits on
    the first call and from the cache, and within 1e-6 of central differences."""
    chart = FermiChart(request.getfixturevalue(domain), r)
    cut = E.smoothstep_cutoff(4.0)
    for fld in [x_field()] + E.random_smooth_fields(rng, 3):
        ext = E.ExtendedField(chart, fld, cut)
        for quad in (24, 96):
            chart._quad_cache.clear()
            first = E.h1_norm(ext, "tube_exterior", chart, quad)
            assert E.h1_norm(ext, "tube_exterior", chart, quad) == first
            assert first == pytest.approx(_tube_fd_oracle(ext, chart, quad), rel=1e-6)


EPS = np.finfo(float).eps
_COEFF = st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(-10.0, -0.01))
# 0 or at least 1e-3, so no power of x or y underflows
_POINTS = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 1.5)),
                             st.one_of(st.just(0.0), st.floats(1e-3, 2 * math.pi))),
                   min_size=1, max_size=8)


def _assert_partials_within(parts, ux, uy, ax, ay, k):
    """Plane partials ``parts`` against the oracle gradient ``(ux, uy)``.

    ``ax``, ``ay`` bound the magnitudes the computed ``ux``, ``uy`` are
    rounded from; ``k`` is the allowed multiple of ``eps``.
    """
    for n in range(len(ux)):
        assert abs(Fraction(parts[n, 0]) - ux[n]) <= k * EPS * ax[n]
        assert abs(Fraction(parts[n, 1]) - uy[n]) <= k * EPS * ay[n]


def _exact_partial(coeffs, x, y, di, dj):
    """The ``(di, dj)`` partial of ``sum c_ij x^i y^j`` in rational arithmetic
    at the floats ``x, y``, and the sum of its terms' magnitudes."""
    X, Y = Fraction(x), Fraction(y)
    n_x, n_y = coeffs.shape
    terms = [math.perm(i, di) * math.perm(j, dj) * Fraction(coeffs[i, j])
             * X ** (i - di) * Y ** (j - dj)
             for i in range(di, n_x) for j in range(dj, n_y)]
    return sum(terms, Fraction(0)), float(sum(abs(t) for t in terms))


@settings(max_examples=200)
@given(data=st.data())
def test_polynomial_field_matches_the_exact_sum(data):
    """Values and partials against exact rational arithmetic at the same
    float ``(x, y)``, to a few ``eps`` of the sum of the terms' magnitudes.

    Shapes 1x1 to 6x6 with zeroed rows and columns; with one row or one
    column a partial is identically zero and must come out exactly 0.
    """
    n_x, n_y = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    coeffs = np.array(data.draw(st.lists(_COEFF, min_size=n_x * n_y, max_size=n_x * n_y)))
    coeffs = coeffs.reshape(n_x, n_y)
    coeffs[sorted(data.draw(st.sets(st.integers(0, n_x - 1))))] = 0.0
    coeffs[:, sorted(data.draw(st.sets(st.integers(0, n_y - 1))))] = 0.0
    pts = polar_to_cartesian(np.array(data.draw(_POINTS)))
    x, y = pts[:, 0], pts[:, 1]
    fld = E.polynomial_field(coeffs)
    val, parts = fld.evaluate(pts), fld.partials(pts)
    k = 2 * (n_x + n_y) + 4
    for n in range(x.size):
        value, size = _exact_partial(coeffs, x[n], y[n], 0, 0)
        assert abs(Fraction(val[n]) - value) <= k * EPS * size
    ux, ax = zip(*(_exact_partial(coeffs, x[n], y[n], 1, 0) for n in range(x.size)))
    uy, ay = zip(*(_exact_partial(coeffs, x[n], y[n], 0, 1) for n in range(x.size)))
    _assert_partials_within(parts, ux, uy, ax, ay, k + 4)


@settings(max_examples=200)
@given(data=st.data())
def test_trig_field_matches_the_per_wave_sum(data):
    """Values and partials against an ``fsum`` of the waves one at a time."""
    m = data.draw(st.integers(0, 4))
    wave = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
    amps = np.array(data.draw(st.lists(wave, min_size=m, max_size=m)))
    waves = np.array(data.draw(st.lists(st.tuples(wave, wave), min_size=m, max_size=m)))
    waves = waves.reshape(m, 2)
    phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * math.pi),
                                         min_size=m, max_size=m)))
    pts = polar_to_cartesian(np.array(data.draw(_POINTS)))
    x, y = pts[:, 0], pts[:, 1]
    fld = E.trig_field(amps, waves, phases)
    val, parts = fld.evaluate(pts), fld.partials(pts)
    k = 16
    ux, uy, ax, ay = [], [], [], []
    for n in range(x.size):
        angle = [waves[w, 0] * x[n] + waves[w, 1] * y[n] + phases[w] for w in range(m)]
        # rounding of the angle moves sin and cos by at most its magnitude times eps
        size = [1.0 + abs(waves[w, 0] * x[n]) + abs(waves[w, 1] * y[n]) + phases[w]
                for w in range(m)]
        exact = math.fsum(amps[w] * math.sin(angle[w]) for w in range(m))
        tol = k * EPS * math.fsum(abs(amps[w]) * size[w] for w in range(m))
        assert abs(val[n] - exact) <= tol
        for axis, u, a in ((0, ux, ax), (1, uy, ay)):
            u.append(Fraction(math.fsum(amps[w] * waves[w, axis] * math.cos(angle[w])
                                        for w in range(m))))
            a.append(math.fsum(abs(amps[w] * waves[w, axis]) * size[w] for w in range(m)))
    _assert_partials_within(parts, ux, uy, ax, ay, k)


@pytest.mark.parametrize("coeffs", [[1.0, 2.0], 3.0, [], [[]], [[[1.0]]],
                                    [[1.0, math.nan]], [[math.inf, 0.0]]])
def test_polynomial_field_rejects_malformed_coefficients(coeffs):
    with pytest.raises(ParameterError):
        E.polynomial_field(coeffs)


@pytest.mark.parametrize("amps, waves, phases", [
    ([1.0, 2.0, 3.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0]),  # a wave short
    ([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [0.0]),
    ([1.0], [1.0, 0.0], [0.0]),
    ([1.0], [[1.0, 0.0, 0.0]], [0.0]),
    ([[1.0]], [[1.0, 0.0]], [0.0]),
    (1.0, 1.0, 0.0),
])
def test_trig_field_rejects_mismatched_waves(amps, waves, phases):
    with pytest.raises(ParameterError):
        E.trig_field(amps, waves, phases)


_FLAT_BOUNDARIES = {
    "blob": RadialProfile((1.0, 0.0, 0.15)),
    "off_centre_circle": GeodesicDisk((0.3, 1.0), 0.8),
    "pole_disk": GeodesicDisk((0.0, 0.0), 1.0),
}


@pytest.fixture(params=sorted(_FLAT_BOUNDARIES))
def any_flat_chart(request, flat):
    return FermiChart(DomainSpec(flat, _FLAT_BOUNDARIES[request.param]), 0.3)


@pytest.mark.parametrize("point", [(math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3),
                                   (0.3, -math.inf)])
def test_non_finite_chart_points_rejected(any_flat_chart, point):
    # a NaN radius used to extend by a vacuous 0, a NaN angle in the pole
    # disk by NaN
    ext = E.ExtendedField(any_flat_chart, x_field(), E.smoothstep_cutoff(3.0))
    p = np.array(point)
    for call in (any_flat_chart.invert_soft, ext):
        with pytest.raises(ParameterError):
            call(p)
        with pytest.raises(ParameterError):
            call(np.array([[1.1, 0.2], point]))


def test_far_finite_chart_point_extends_by_zero(any_flat_chart):
    ext = E.ExtendedField(any_flat_chart, x_field(), E.smoothstep_cutoff(3.0))
    with np.errstate(all="ignore"):
        assert ext(np.array([1e300, 0.1])) == 0.0


def test_overflowing_point_extends_by_zero_without_warnings(blob_chart):
    ext = E.ExtendedField(blob_chart, x_field(), E.smoothstep_cutoff(3.0))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert ext(np.array([1e300, 0.1])) == 0.0
