"""Acceptance suite: one test per certified criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jnp_zeros

from sobex import cli
from sobex import comparison as C
from sobex import extension as E
from sobex import heat as H
from sobex.fermi import DomainSpec, GeodesicDisk, check_regularity
from sobex.surfaces import (
    GeodesicState,
    JacobiValue,
    ModelSurface,
    integrate_geodesic,
    jacobi_transport,
    polar_to_cartesian,
)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:2d} [PASS] {name}: {detail}")


# ---------------------------------------------------------------------------


def test_c01_ball_constants(unit_disk):
    t0 = time.time()
    R0 = 1.0
    rep = check_regularity(unit_disk, 0.5)
    assert abs(rep.H - 1.0 / R0) < 1e-9
    r_adm = C.admissible_rolling_radius(rep.K, rep.H)
    assert abs(r_adm - R0 / 2.0) < 1e-9

    data = C.CurvatureData(k_lower=-rep.K, K_upper=rep.K,
                           H_min=-rep.H, H_max=rep.H, n=2)
    r = R0 / 2.0
    profile = C.ComparisonProfile.from_curvature(data, r)
    s = np.linspace(0.0, r, 65)
    assert np.max(np.abs(profile.d_base(s) - R0 / (R0 + s))) < 1e-9
    assert np.max(np.abs(profile.D_base(s) - R0 / (R0 - s))) < 1e-9

    dist = C.distortion_factor(profile, 2, r)
    assert abs(dist - 3.0) < 1e-9

    for rr in (0.25, 0.5):
        expected = 1.0 + 3.0 * max(164.0, 82.0 + 1312.0 / rr**2)
        assert abs(C.round_ball_norm_bound(2, rr) - expected) < 1e-9
        # the ball preset corresponds to gradient budget G with G^2 = 8
        assert abs(C.extension_norm_bound(dist, math.sqrt(8.0), rr) - expected) < 1e-9
    dt = time.time() - t0
    assert dt < 1.0
    _report(1, "ball constants", f"r_adm={r_adm}, H={rep.H}, distortion={dist}, "
            f"bound(r=1/2)={C.round_ball_norm_bound(2, 0.5)}, {dt:.2f}s")


def test_c02_extension_correctness(disk_chart, cap_chart, blob_chart):
    t0 = time.time()
    rng = np.random.default_rng(11)
    cut = E.smoothstep_cutoff(3.0)
    worst_c1 = 0.0
    for chart in (disk_chart, cap_chart, blob_chart):
        fields = E.random_smooth_fields(rng, 10)
        for fld in fields:
            err = E.c1_matching_error(chart, fld, cut, n_probes=256, step=1e-4)
            worst_c1 = max(worst_c1, err)
            assert err < 1e-5
        # restriction identity is bitwise on the closed domain
        ext = E.ExtendedField(chart, fields[0], cut)
        scale = float(chart.engine.radial_extent(np.zeros(1))[0])
        pts = np.stack([np.sqrt(rng.uniform(0.0, 1.0, 400)) * scale * 0.999,
                        rng.uniform(0.0, 2 * math.pi, 400)], axis=-1)
        inside = chart.domain.contains(pts)
        assert np.all(ext(pts[inside]) == fields[0].evaluate(polar_to_cartesian(pts[inside])))
        # support confinement is exact
        far = chart.map_unchecked(np.full(128, chart.r * 1.01),
                                  rng.uniform(0, 2 * math.pi, 128))
        assert np.all(ext(far) == 0.0)
    dt = time.time() - t0
    assert dt < 60.0
    _report(2, "extension correctness",
            f"worst C1 mismatch {worst_c1:.2e} < 1e-5, {dt:.1f}s")


def test_c03_one_dimensional_inequality():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    violations = 0
    for _ in range(300):
        trace = E.random_fourier_trace(rng, modes=int(rng.integers(2, 7)),
                                       scale=float(rng.uniform(0.3, 3.0)))
        for r in (0.25, 0.5, 1.0):
            for G in (3.0, 8.0):
                _, _, ratio = E.verify_1d_inequality(trace, r, G)
                worst = max(worst, ratio)
                violations += ratio > 1.0
    assert violations == 0
    dt = time.time() - t0
    assert dt < 60.0
    _report(3, "per-geodesic inequality",
            f"1800 checks, worst ratio {worst:.4f} <= 1, {dt:.1f}s")


def test_c04_operator_norm_bound(disk_chart, cap_chart, blob_chart):
    t0 = time.time()
    cut = E.smoothstep_cutoff(3.0)
    details = []
    for name, chart in (("disk", disk_chart), ("cap", cap_chart),
                        ("blob", blob_chart)):
        rng = np.random.default_rng(55)
        fields = E.random_smooth_fields(rng, 50)
        res = E.operator_norm_estimate(chart, cut, fields, quad=64)
        assert res.max_ratio <= res.bound
        assert res.max_ratio < 0.05 * res.bound
        details.append(f"{name} {res.max_ratio:.1f}/{res.bound:.0f}")
    dt = time.time() - t0
    assert dt < 600.0
    _report(4, "operator-norm bound", ", ".join(details) + f", {dt:.1f}s")


def test_c05_comparison_sandwich(disk_chart, cap_chart, blob_chart):
    t0 = time.time()
    for chart in (disk_chart, cap_chart, blob_chart):
        data = chart.curvature_data()
        sig_lo, sig_hi = -data.H_max, -data.H_min
        th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        for s in np.linspace(0.0, 0.9 * chart.r, 16):
            ratio = np.asarray(chart.volume_element_ratio(th, np.full_like(th, s)))
            lo = C.jacobi_factor(data.K_upper, sig_lo, s) ** (data.n - 1)
            hi = C.jacobi_factor(data.k_lower, sig_hi, s) ** (data.n - 1)
            assert np.all(ratio >= lo * (1.0 - 1e-6))
            assert np.all(ratio <= hi * (1.0 + 1e-6))

    # focal radius against the first zero of a shot Jacobi field
    cases = [(1.0, 0.8), (1.0, -0.5), (0.0, 1.3), (-1.0, 1.7)]
    worst = 0.0
    for K, Hh in cases:
        surf = ModelSurface.constant_curvature(K)
        r0 = C.focal_radius(K, Hh)
        start = GeodesicState(position=(0.5, 0.0), velocity=(1.0, 0.0))
        traj = integrate_geodesic(surf, start, min(r0 * 1.2, 2.5), tol=1e-12)

        def jac(s):
            return jacobi_transport(surf, traj, JacobiValue(1.0, -Hh), s=s).value

        zero = brentq(jac, 0.5 * r0, min(1.2 * r0, traj.length), xtol=1e-12)
        worst = max(worst, abs(zero - r0))
        assert abs(zero - r0) < 1e-8
    dt = time.time() - t0
    assert dt < 60.0
    _report(5, "comparison sandwich",
            f"3 domains sandwiched, focal-vs-shooting {worst:.1e} < 1e-8, {dt:.1f}s")


def test_c06_heat_spectrum_oracles(unit_disk):
    t0 = time.time()
    L = math.pi
    dom_i = H.DiscreteDomain.interval(L, 1000)
    sys_i = H.assemble(dom_i)
    lam_i, _ = sys_i.eigenpairs(3)
    exact_i = (math.pi / L) ** 2
    assert abs(lam_i[1] - exact_i) / exact_i < 1e-3

    dom_d = H.DiscreteDomain.disk_like(unit_disk, 256, 256)
    sys_d = H.assemble(dom_d)
    lam_d, _ = sys_d.eigenpairs(2)
    exact_d = jnp_zeros(1, 1)[0] ** 2
    assert abs(lam_d[1] - exact_d) / exact_d < 1e-2

    Hm = sys_i.kernel_matrix(0.05)
    stoch = float(np.max(np.abs(Hm @ dom_i.weights - 1.0)))
    sym = float(np.max(np.abs(Hm - Hm.T)))
    assert stoch < 1e-9 and sym < 1e-9
    equil = abs(sys_i.heat_kernel(60.0, 5, 431) - 1.0 / dom_i.volume)
    assert equil < 1e-10
    dt = time.time() - t0
    assert dt < 120.0
    _report(6, "heat spectrum oracles",
            f"interval eta1 err {abs(lam_i[1]-exact_i)/exact_i:.1e}, "
            f"disk eta1 err {abs(lam_d[1]-exact_d)/exact_d:.1e}, "
            f"stoch {stoch:.1e}, equil {equil:.1e}, {dt:.1f}s")


def test_c07_diagonal_bound_stability(unit_disk, fourier_blob):
    t0 = time.time()
    details = []
    for name, spec in (("disk", unit_disk), ("blob", fourier_blob)):
        dom = H.DiscreteDomain.disk_like(spec, 24, 48)
        t_grid = np.geomspace(1e-3, dom.diameter() ** 2, 15)
        coarse = H.diagonal_bound_check(dom, H.assemble(dom), t_grid)
        fine_dom = dom.refine()
        with pytest.warns(UserWarning):
            # the refined systems truncate their spectra at the mode cap
            fine = H.diagonal_bound_check(fine_dom, H.assemble(fine_dom), t_grid)
        assert np.isfinite(coarse.c_obs) and np.isfinite(fine.c_obs)
        drift = abs(coarse.c_obs - fine.c_obs) / fine.c_obs
        assert drift < 0.20
        details.append(f"{name} c_obs={fine.c_obs:.3f} drift={drift:.1%}")
    dt = time.time() - t0
    assert dt < 300.0
    _report(7, "diagonal kernel bound", ", ".join(details) + f", {dt:.1f}s")


def test_c08_weighted_semigroup_equivalences(unit_disk, fourier_blob):
    t0 = time.time()
    systems = []
    dom_i = H.DiscreteDomain.interval(1.0, 200)
    systems.append((dom_i, H.assemble(dom_i)))
    for spec in (unit_disk, fourier_blob):
        dom = H.DiscreteDomain.disk_like(spec, 16, 32)
        systems.append((dom, H.assemble(dom)))
    worst_dp = 0.0
    for dom, sys_ in systems:
        t = 0.25 * dom.diameter() ** 2 / 16.0
        v = (dom.distance_rows(np.arange(dom.size)) < math.sqrt(t)) @ dom.weights
        n12 = H.vev_norm(sys_, v, 1.0, 2.0, 0.0, t / 2.0)
        n1inf = H.vev_norm(sys_, v, 1.0, math.inf, 0.5, t)
        worst_dp = max(worst_dp, abs(n12**2 - n1inf))
        assert abs(n12**2 - n1inf) < 1e-10
        sweep = H.vev_finiteness_sweep(sys_, dom, 0.25 * dom.diameter() ** 2)
        assert sweep["flags_agree"]
    dt = time.time() - t0
    _report(8, "weighted semigroup equivalences",
            f"3 systems, worst duality defect {worst_dp:.1e} < 1e-10, {dt:.1f}s")


def test_c09_kato_eigenvalue_liyau(flat):
    t0 = time.time()
    dom = H.DiscreteDomain.interval(1.0, 400)
    sys_ = H.assemble(dom)
    c, T = 0.83, 1.7
    kato = H.kato_quantity(sys_, np.full(dom.size, c), T)
    assert abs(kato - c * T) < 1e-10

    scaled_vals = []
    for L in (0.5, 1.0, 2.0):
        d = H.DiscreteDomain.interval(L, 400)
        _, scaled = H.eigenvalue_diagnostic(H.assemble(d), d)
        scaled_vals.append(scaled)
        assert scaled >= 9.0
    disk_scaled = []
    for R in (0.5, 1.0, 2.0):
        spec = DomainSpec(flat, GeodesicDisk((0.0, 0.0), R))
        d = H.DiscreteDomain.disk_like(spec, 24, 48)
        _, scaled = H.eigenvalue_diagnostic(H.assemble(d), d)
        disk_scaled.append(scaled)
    disk_floor = min(disk_scaled)
    assert disk_floor > 0.0
    assert max(disk_scaled) / disk_floor - 1.0 < 1e-2

    t_grid = np.geomspace(0.02, 1.0, 10)
    lam, phi = sys_.eigenpairs(2)
    res = H.li_yau_check(sys_, dom, 1.0 + 0.5 * phi[:, 1], t_grid, alpha=1.0)
    assert res.violations == 0
    fine = dom.refine()
    fsys = H.assemble(fine)
    lam2, phi2 = fsys.eigenpairs(2)
    sign = math.copysign(1.0, phi2[0, 1] * phi[0, 1])
    res_f = H.li_yau_check(fsys, fine, 1.0 + 0.5 * sign * phi2[:, 1], t_grid,
                           alpha=1.0)
    assert np.all(res_f.sup_profile <= res.envelope(t_grid) * 1.05 + 1e-9)
    dt = time.time() - t0
    _report(9, "Kato / eigenvalue / gradient-envelope diagnostics",
            f"kato defect {abs(kato - c*T):.1e}, interval eta1*diam^2="
            f"{scaled_vals[1]:.4f} >= 9, disk family floor {disk_floor:.2f}, "
            f"no envelope violations, {dt:.1f}s")


def test_c10_determinism(tmp_path):
    t0 = time.time()
    dom = '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}'
    blobs = []
    for tag in ("a", "b"):
        rep1 = tmp_path / f"c_{tag}.json"
        rep2 = tmp_path / f"v_{tag}.json"
        assert cli.main(["constants", "--K", "1.0", "--H", "0.7",
                         "--report", str(rep1)]) == 0
        assert cli.main(["verify-extension", "--domain", dom, "--r", "0.3",
                         "--samples", "3", "--quad", "24", "--seed", "9",
                         "--report", str(rep2)]) == 0
        blobs.append(rep1.read_bytes() + rep2.read_bytes())
    assert blobs[0] == blobs[1]
    dt = time.time() - t0
    _report(10, "determinism", f"byte-identical reports across reruns, {dt:.1f}s")
