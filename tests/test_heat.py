import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import jnp_zeros

from sobex import heat as H
from sobex.errors import AssemblyError, ParameterError
from sobex.fermi import DomainSpec, GeodesicDisk, RadialProfile
from sobex.surfaces import ModelSurface, poly_cosh_mix_profile


@pytest.fixture(scope="module")
def interval():
    dom = H.DiscreteDomain.interval(math.pi, 1000)
    return dom, H.assemble(dom)


@pytest.fixture(scope="module")
def unit_interval():
    dom = H.DiscreteDomain.interval(1.0, 400)
    return dom, H.assemble(dom)


@pytest.fixture(scope="module")
def disk_system(unit_disk):
    dom = H.DiscreteDomain.disk_like(unit_disk, 32, 64)
    return dom, H.assemble(dom)


@pytest.fixture(scope="module")
def blob_system(fourier_blob):
    dom = H.DiscreteDomain.disk_like(fourier_blob, 24, 48)
    return dom, H.assemble(dom)


def test_weights_sum_to_volume(interval, disk_system, blob_system, fourier_blob):
    dom, _ = interval
    assert dom.volume == pytest.approx(math.pi, rel=1e-12)
    dom, _ = disk_system
    assert dom.volume == pytest.approx(math.pi, rel=1e-12)
    dom, _ = blob_system
    a, b = (np.asarray(c) for c in (fourier_blob.boundary.cos_coeffs,
                                    fourier_blob.boundary.sin_coeffs))
    exact = math.pi * (a[0] ** 2 + 0.5 * np.sum(a[1:] ** 2) + 0.5 * np.sum(b**2))
    assert dom.volume == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n_t", [34, 68, 96])
def test_blob_cell_masses_match_the_per_cell_rule(flat, n_t):
    # the angular cell integrals of rho^2, one 16-point Gauss rule per cell
    prof = RadialProfile((1.0, 0.07, 0.15, -0.02), (0.05, 0.03))
    dom = H.DiscreteDomain.disk_like(DomainSpec(flat, prof), 16, n_t)
    dt = 2.0 * math.pi / n_t
    edges = (np.arange(n_t + 1) - 0.5) * dt
    gx, gw = np.polynomial.legendre.leggauss(16)
    cells = np.array([0.5 * dt * np.sum(gw * prof.rho(0.5 * (lo + hi) + 0.5 * dt * gx) ** 2)
                      for lo, hi in zip(edges[:-1], edges[1:])])
    xi = (np.arange(16) + 1) * (1.0 / 16)
    ring = 0.5 * (np.minimum(xi + 0.5 / 16, 1.0) ** 2 - (xi - 0.5 / 16) ** 2)
    assert np.array_equal(dom.weights[1:], (ring[:, None] * cells[None, :]).ravel())


@pytest.mark.parametrize("kappa", [1e-10, -1e-10, 5e-324, 1.0, -1.0])
def test_pole_disk_weights_any_curvature(kappa):
    """Cell masses stay exact as the curvature tends to zero."""
    surf = ModelSurface.constant_curvature(kappa)
    radius = 0.9
    dom = H.DiscreteDomain.disk_like(DomainSpec(surf, GeodesicDisk((0.0, 0.0), radius)), 16, 16)
    # area of a geodesic disk: 2 pi (1 - cn(R)) / kappa = 4 pi sn(R/2)^2
    exact = 4.0 * math.pi * float(surf.warp(0.5 * radius)) ** 2
    assert np.all(dom.weights > 0.0)
    assert dom.volume == pytest.approx(exact, rel=1e-12)


def test_triangle_inequality_on_samples(disk_system, rng):
    dom, _ = disk_system
    idx = rng.integers(0, dom.size, 12)
    d = dom.distance_rows(idx)
    sub = d[:, idx]
    for i in range(len(idx)):
        for j in range(len(idx)):
            assert np.all(d[i] <= sub[i, j] + d[j] + 1e-12)


class _TableDomain(H.DiscreteDomain):
    """A domain whose distance rows are read from a given table."""

    def __init__(self, table, weights):
        super().__init__()
        self.table, self.weights = table, weights

    def distance_rows(self, idx):
        return self.table[np.atleast_1d(idx)]


_QUARTERS = st.integers(0, 12).map(lambda k: 0.25 * k)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 30))
def test_ball_sums_match_the_mask_oracle(data, n):
    """``ball_sums`` is ``(dist < r) @ values`` for every row and radius: on
    distances tied with radii, unsorted and repeated radii, values that are
    not weights, and row counts off the block size.  Quarter-integer
    distances and half-integer values make every sum exact in any order."""
    table = np.array(data.draw(st.lists(st.lists(_QUARTERS, min_size=n, max_size=n),
                                        min_size=n, max_size=n)))
    weights = np.full(n, 0.5)
    dom = _TableDomain(table, weights)
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=21)), dtype=int)
    radii = np.array(data.draw(st.lists(_QUARTERS | st.sampled_from([-1.0, math.inf, 0.3]),
                                        max_size=9)))
    values = data.draw(st.none() | st.lists(st.integers(-8, 8).map(lambda k: 0.5 * k),
                                            min_size=n, max_size=n).map(np.array))
    want = (table[idx][:, None, :] < radii[None, :, None]) \
        @ (weights if values is None else values)
    assert np.array_equal(dom.ball_sums(idx, radii, values), want)


def test_ball_sums_on_a_disk(disk_system):
    dom, _ = disk_system
    idx = dom.sample_indices(21)
    radii = np.array([0.5, 0.1, 2.5, 0.1, 0.0])
    dist = dom.distance_rows(idx)
    want = np.stack([(dist < r) @ dom.weights for r in radii], axis=-1)
    np.testing.assert_allclose(dom.ball_sums(idx, radii), want, rtol=1e-13, atol=0.0)


def test_ball_diagnostics_match_their_table_loops(disk_system):
    """Doubling, comparability and the diagonal product against the loops
    over full distance tables that computed them before ``ball_sums``."""
    dom, sys_ = disk_system
    idx = dom.sample_indices(64)
    dist = dom.distance_rows(idx)
    radii = np.geomspace(2.0 * dom.mesh_width, dom.diameter(), 24)
    vols = np.stack([(dist < r) @ dom.weights for r in radii], axis=-1)
    c = 1.0
    for i in range(len(radii)):
        for j in range(i, len(radii)):
            c = max(c, float(np.max(vols[:, j] / vols[:, i] * (radii[i] / radii[j]) ** 2)))
    assert H.doubling_constant(dom, dom.diameter()) == pytest.approx(c, rel=1e-13)

    idx = dom.sample_indices(48)
    dist = dom.distance_rows(idx)
    vol = (dist < 0.3) @ dom.weights
    worst = max(float(np.max(vol[dist[a, idx] <= 0.3]) / vol[a]) for a in range(len(idx)))
    assert H.doubling_comparability(dom, 0.3) == pytest.approx(max(1.0, worst), rel=1e-13)

    t_grid = np.geomspace(1e-3, 4.0, 7)
    idx = dom.sample_indices(96)
    dist = dom.distance_rows(idx)
    prods = np.array([sys_.heat_diag(t, idx) * ((dist < math.sqrt(t)) @ dom.weights)
                      for t in t_grid])
    res = H.diagonal_bound_check(dom, sys_, t_grid)
    np.testing.assert_allclose(res.table, np.stack([t_grid, prods.max(axis=1)], axis=-1),
                               rtol=1e-13, atol=0.0)
    assert res.c_obs == pytest.approx(prods.max(), rel=1e-13)
    assert res.t_at == t_grid[np.argmax(prods.max(axis=1))]


def test_dense_constant_mode_is_exact(blob_system):
    """``eigh`` on the 24 x 48 blob gives lambda_0 = 2.3e-12: the solve pins
    lambda_0 = 0 and phi_0 = 1/sqrt(V), with the other modes mass-orthogonal."""
    dom, sys_ = blob_system
    assert sys_.solver == "dense"
    _assert_constant_mode_exact(sys_)
    h = sys_.heat_kernel(10.0 * dom.diameter() ** 2, 0, dom.size - 1)
    assert h == pytest.approx(1.0 / sys_.volume, rel=1e-14)


def test_sparse_constant_mode_is_exact(fourier_blob, monkeypatch):
    monkeypatch.setattr(H.NeumannSystem, "DENSE_LIMIT", 100)
    sys_ = H.assemble(H.DiscreteDomain.disk_like(fourier_blob, 16, 32))
    assert sys_.solver == "sparse"
    _assert_constant_mode_exact(sys_)


def _assert_constant_mode_exact(system):
    lam, phi = system.eigenpairs(12)
    assert lam[0] == 0.0 and np.all(lam[1:] > 0.0)
    assert np.all(phi[:, 0] == 1.0 / math.sqrt(system.volume))
    gram = phi.T @ (system.mass[:, None] * phi)
    assert np.max(np.abs(gram[0, 1:])) < 1e-14
    assert np.max(np.abs(gram - np.eye(lam.shape[0]))) < 1e-9


def test_interval_spectrum(interval):
    dom, sys_ = interval
    lam, phi = sys_.eigenpairs(4)
    assert lam[0] < 1e-10
    assert np.max(np.abs(phi[:, 0] - 1.0 / math.sqrt(dom.volume))) < 1e-8
    assert abs(lam[1] - 1.0) < 1e-3  # within 0.1 percent
    assert np.max(np.abs(sys_.stiffness @ np.ones(dom.size))) == 0.0


def test_disk_spectrum(disk_system):
    _, sys_ = disk_system
    lam, _ = sys_.eigenpairs(3)
    exact = jnp_zeros(1, 1)[0] ** 2
    assert abs(lam[1] - exact) / exact < 0.01


def test_assemble_validations(unit_disk):
    with pytest.raises(AssemblyError):
        H.DiscreteDomain.interval(1.0, 8)
    with pytest.raises(AssemblyError):
        H.DiscreteDomain.disk_like(unit_disk, 8, 64)


def test_heat_kernel_values(interval):
    dom, sys_ = interval
    i = int(np.argmin(np.abs(dom.nodes - math.pi / 2.0)))
    val = sys_.heat_kernel(1.0, i, i)
    oracle = 1.0 / math.pi + (2.0 / math.pi) * sum(
        math.exp(-k * k) * math.cos(k * math.pi / 2.0) ** 2 for k in range(1, 60)
    )
    assert val == pytest.approx(oracle, abs=1e-4)
    # equilibrium
    assert sys_.heat_kernel(50.0, 3, 77) == pytest.approx(1.0 / dom.volume, abs=1e-10)


def test_kernel_stochastic_symmetric_conserving(unit_interval):
    dom, sys_ = unit_interval
    Hm = sys_.kernel_matrix(0.02)
    assert np.max(np.abs(Hm @ dom.weights - 1.0)) < 1e-9
    assert np.max(np.abs(Hm - Hm.T)) < 1e-12
    rng = np.random.default_rng(0)
    u = rng.normal(size=dom.size)
    assert np.sum(dom.weights * sys_.semigroup(u, 0.37)(0.37)) == pytest.approx(
        np.sum(dom.weights * u), abs=1e-10)


def test_semigroup_property(unit_interval):
    dom, sys_ = unit_interval
    h1 = sys_.kernel_matrix(0.3)
    h2 = sys_.kernel_matrix(0.2)
    h3 = sys_.kernel_matrix(0.5)
    comp = h1 @ (dom.weights[:, None] * h2)
    assert np.max(np.abs(comp - h3)) < 1e-9


def test_kernel_positivity_above_mesh_scale(unit_interval, disk_system):
    for dom, sys_ in (unit_interval, disk_system):
        t = 4.0 * dom.mesh_width**2
        idx = dom.sample_indices(40)
        lam, phi = sys_.eigenpairs(sys_.modes_for(t))
        block = (phi[idx] * np.exp(-lam * t)) @ phi.T
        assert np.min(block) > -1e-10


def test_diagonal_bound_interval(unit_interval):
    dom, sys_ = unit_interval
    sat = H.diagonal_bound_check(dom, sys_, [1.0, 2.0, 4.0])
    assert sat.c_obs == pytest.approx(1.0, rel=1e-3)
    # at the midpoint the short-time product is the line's 2 / sqrt(4 pi); the
    # default samples reach nodes near the ends, where it is larger
    mid, t = [dom.size // 2], 1e-4
    small = sys_.heat_diag(t, mid) * dom.ball_sums(mid, [math.sqrt(t)])[:, 0]
    assert small[0] == pytest.approx(2.0 / math.sqrt(4.0 * math.pi), rel=0.02)


def test_diagonal_bound_disk_refinement(unit_disk):
    dom = H.DiscreteDomain.disk_like(unit_disk, 16, 32)
    t_grid = np.geomspace(1e-3, dom.diameter() ** 2, 13)
    coarse = H.diagonal_bound_check(dom, H.assemble(dom), t_grid)
    fine_dom = dom.refine()
    fine = H.diagonal_bound_check(fine_dom, H.assemble(fine_dom), t_grid)
    assert np.isfinite(coarse.c_obs) and np.isfinite(fine.c_obs)
    assert abs(coarse.c_obs - fine.c_obs) / fine.c_obs < 0.20


def test_doubling_interval_exact(unit_interval):
    dom, _ = unit_interval
    h = dom.mesh_width
    radii = (np.arange(1, 30) + 0.5) * h
    interior = np.arange(150, 250, 7)
    dist = dom.distance_rows(interior)
    vols = np.stack([(dist < rr) @ dom.weights for rr in radii], axis=-1)
    c = 1.0
    for i in range(len(radii)):
        for j in range(i, len(radii)):
            c = max(c, float(np.max(vols[:, j] / vols[:, i] * (radii[i] / radii[j]))))
    assert c == pytest.approx(1.0, abs=1e-12)


def test_doubling_disk(disk_system):
    dom, _ = disk_system
    c = H.doubling_constant(dom, dom.diameter())
    assert 1.0 <= c <= 4.0
    comp = H.doubling_comparability(dom, 0.3)
    assert comp <= 2.0**dom.n * c


def test_gn_parameters(disk_system, unit_interval):
    dom_i, sys_i = unit_interval
    res = H.gn_check(dom_i, sys_i, math.inf, [0.05, 0.2, 0.5])
    assert np.isfinite(res.c_gn) and res.c_gn > 0.0
    dom_d, sys_d = disk_system
    with pytest.raises(ParameterError):
        H.gn_check(dom_d, sys_d, math.inf, [0.2])
    with pytest.raises(ParameterError):
        H.gn_check(dom_d, sys_d, 1.5, [0.2])


def test_gn_refinement_stability(fourier_blob):
    dom = H.DiscreteDomain.disk_like(fourier_blob, 16, 32)
    res = H.gn_check(dom, H.assemble(dom), 4.0, [0.2, 0.5])
    dom2 = dom.refine()
    res2 = H.gn_check(dom2, H.assemble(dom2), 4.0, [0.2, 0.5])
    assert abs(res.c_gn - res2.c_gn) / res2.c_gn < 0.2


def test_vev_norms(unit_interval):
    dom, sys_ = unit_interval
    ones = np.ones(dom.size)
    assert H.vev_norm(sys_, ones, math.inf, math.inf, 0.0, 0.1) == pytest.approx(
        1.0, abs=1e-10)
    with pytest.raises(ParameterError):
        H.vev_norm(sys_, ones, 2.0, 2.0, 0.0, 0.1)
    t = 0.06
    v = (dom.distance_rows(np.arange(dom.size)) < math.sqrt(t)) @ dom.weights
    n12 = H.vev_norm(sys_, v, 1.0, 2.0, 0.0, t / 2.0)
    n1inf = H.vev_norm(sys_, v, 1.0, math.inf, 0.5, t)
    assert n12**2 == pytest.approx(n1inf, abs=1e-10)
    sweep = H.vev_finiteness_sweep(sys_, dom, 0.25)
    assert sweep["flags_agree"]


def test_integral_ricci(disk_system, hyperbolic):
    dom, _ = disk_system
    assert H.integral_ricci(dom, H.ricci_negative_part(dom), 2.0, 0.5) == 0.0
    hyp_dom = H.DiscreteDomain.disk_like(
        DomainSpec(hyperbolic, GeodesicDisk((0.0, 0.0), 0.8)), 20, 40)
    assert H.integral_ricci(hyp_dom, H.ricci_negative_part(hyp_dom), 3.0, 0.4) == \
        pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        H.integral_ricci(dom, H.ricci_negative_part(dom), 0.9, 0.4)


def test_integral_ricci_warped_brute_force():
    surf = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05]))
    spec = DomainSpec(surf, GeodesicDisk((0.0, 0.0), 1.2))
    dom = H.DiscreteDomain.disk_like(spec, 32, 64)
    K = dom.spec.surface.gauss_curvature(dom.nodes[:, 0])
    assert np.min(K) < 0.0 < np.max(K)  # genuinely sign-changing
    rho_minus = H.ricci_negative_part(dom)
    np.testing.assert_array_equal(rho_minus, np.where(K < 0.0, -K, 0.0))
    p, R = 2.0, 0.5
    val = H.integral_ricci(dom, rho_minus, p, R)
    # independent brute-force evaluation over the same samples
    idx = dom.sample_indices(64)
    worst = 0.0
    for i in idx:
        d = dom.distance_rows([i])[0]
        inside = d < R
        mean = np.sum(dom.weights[inside] * rho_minus[inside] ** p) / \
            np.sum(dom.weights[inside])
        worst = max(worst, mean ** (1.0 / p))
    assert val == pytest.approx(worst, abs=1e-6)


def test_kato_quantity(unit_interval):
    dom, sys_ = unit_interval
    c, T = 0.7, 1.3
    assert H.kato_quantity(sys_, np.full(dom.size, c), T) == pytest.approx(
        c * T, abs=1e-10)
    assert H.kato_quantity(sys_, np.zeros(dom.size), T) == 0.0
    bump = np.where(np.abs(dom.nodes - 0.5) < 0.1, 1.0, 0.0)
    val = H.kato_quantity(sys_, bump, 0.5)
    lam, phi = sys_.eigenpairs(dom.size)
    coef = phi.T @ (dom.weights * bump)
    tt = np.linspace(1e-9, 0.5, 20001)
    g = np.array([np.max(phi @ (np.exp(-lam * s) * coef)) for s in tt])
    assert val == pytest.approx(np.trapezoid(g, tt), abs=1e-6)


@pytest.mark.parametrize("call", [
    pytest.param(lambda dom, system: H.li_yau_check(system, dom, np.ones(dom.size),
                                                    [0.0, 0.1]), id="li_yau-zero"),
    pytest.param(lambda dom, system: H.li_yau_check(system, dom, np.ones(dom.size),
                                                    [-0.1, 0.1]), id="li_yau-negative"),
    pytest.param(lambda dom, system: H.li_yau_check(system, dom, np.ones(dom.size),
                                                    [0.1, math.inf]), id="li_yau-inf"),
    pytest.param(lambda dom, system: H.li_yau_check(system, dom, np.ones(dom.size),
                                                    [math.inf]), id="li_yau-only-inf"),
    pytest.param(lambda dom, system: H.kato_quantity(system, np.ones(dom.size), 1e-320),
                 id="kato-underflow"),
    pytest.param(lambda dom, system: system.heat_diag(math.nan, [0]), id="heat_diag-nan"),
    pytest.param(lambda dom, system: system.heat_diag(math.inf, [0]), id="heat_diag-inf"),
    pytest.param(lambda dom, system: system.semigroup(np.ones(dom.size), math.nan),
                 id="semigroup-nan"),
    pytest.param(lambda dom, system: system.semigroup(np.ones(dom.size), math.inf),
                 id="semigroup-inf"),
])
def test_times_must_be_positive_and_finite(unit_interval, call):
    """Unchecked, these divide by zero (a 0 in a Li-Yau grid, Kato's ``T / 1e4``
    underflowed to 0), pass vacuously (a negative time) or sum to nan (nan, inf;
    an inf in a Li-Yau grid above its smallest time)."""
    with pytest.raises(ParameterError, match="time must be positive and finite"):
        call(*unit_interval)


@pytest.mark.parametrize("call", [
    pytest.param(lambda dom, system: H.diagonal_bound_check(dom, system, []), id="diagonal"),
    pytest.param(lambda dom, system: H.li_yau_check(system, dom, np.ones(dom.size), []),
                 id="li_yau"),
])
def test_empty_time_grids_rejected(call):
    """Unchecked, an empty grid ends in numpy's ``ValueError``: operands that do
    not broadcast (diagonal bound) or a minimum over no times (Li-Yau)."""
    dom = H.DiscreteDomain.interval(1.0, 64)
    with pytest.raises(ParameterError, match="time grid is empty"):
        call(dom, H.assemble(dom))


@pytest.mark.parametrize("call", [
    pytest.param(lambda dom, system: H.doubling_comparability(dom, 0.0), id="comparability"),
    pytest.param(lambda dom, system: H.integral_ricci(dom, H.ricci_negative_part(dom), 2.0, 0.0),
                 id="integral_ricci"),
    pytest.param(lambda dom, system: H.gn_check(dom, system, math.inf, [0.2, 0.0]),
                 id="gn_check"),
    pytest.param(lambda dom, system: H.vev_finiteness_sweep(system, dom, 0.0), id="vev"),
    pytest.param(lambda dom, system: H.vev_finiteness_sweep(system, dom, math.inf),
                 id="vev-inf"),
])
def test_diagnostics_reject_non_positive_radii_and_times(unit_interval, call):
    """Unchecked, these divide 0 by 0 over empty balls (comparability, integral Ricci),
    read 0.0 (a zero GN radius) or fail inside ``geomspace`` (a zero or infinite
    sweep time)."""
    with pytest.raises(ParameterError, match="must be positive"):
        call(*unit_interval)


def test_eigenvalue_diagnostic(interval, disk_system):
    dom, sys_ = interval
    eta1, scaled = H.eigenvalue_diagnostic(sys_, dom)
    assert scaled == pytest.approx(math.pi**2, rel=1e-3)
    dom_d, sys_d = disk_system
    _, scaled_d = H.eigenvalue_diagnostic(sys_d, dom_d)
    assert scaled_d == pytest.approx(4.0 * jnp_zeros(1, 1)[0] ** 2, rel=0.01)


def test_disk_family_scale_invariance(flat):
    vals = []
    for R in (0.5, 1.0, 2.0):
        spec = DomainSpec(flat, GeodesicDisk((0.0, 0.0), R))
        dom = H.DiscreteDomain.disk_like(spec, 24, 48)
        _, scaled = H.eigenvalue_diagnostic(H.assemble(dom), dom)
        vals.append(scaled)
    assert max(vals) / min(vals) - 1.0 < 1e-2


def test_li_yau(unit_interval):
    dom, sys_ = unit_interval
    t_grid = np.geomspace(0.01, 1.0, 12)
    res0 = H.li_yau_check(sys_, dom, np.ones(dom.size), t_grid)
    assert np.max(np.abs(res0.sup_profile)) < 1e-10
    lam, phi = sys_.eigenpairs(2)
    u0 = 1.0 + 0.5 * phi[:, 1]
    res = H.li_yau_check(sys_, dom, u0, t_grid)
    assert res.violations == 0
    assert np.isfinite(res.a) and np.isfinite(res.b)
    # envelope fitted on the coarse profile still covers the refined one
    dom2 = dom.refine()
    sys2 = H.assemble(dom2)
    lam2, phi2 = sys2.eigenpairs(2)
    sign = math.copysign(1.0, phi2[0, 1] * phi[0, 1])
    u02 = 1.0 + 0.5 * sign * phi2[:, 1]
    res2 = H.li_yau_check(sys2, dom2, u02, t_grid)
    assert np.all(res2.sup_profile <= res.envelope(t_grid) * 1.05 + 1e-9)
    with pytest.raises(ParameterError):
        H.li_yau_check(sys_, dom, -np.ones(dom.size), t_grid)
    with pytest.raises(ParameterError):
        H.fit_inverse_time_envelope(t_grid, np.full(t_grid.shape, np.nan))


def _twice_signed_area(a, b, c):
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _loop_triangles(n_r, n_t):
    """The blob's triangles listed one by one: the pole fan, then per ring gap
    the quads' lower and upper halves."""
    def vid(i, j):  # node j of ring i >= 1
        return 1 + (i - 1) * n_t + j % n_t

    tris = [(0, vid(1, j), vid(1, j + 1)) for j in range(n_t)]
    for i in range(1, n_r):
        tris += [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)) for j in range(n_t)]
        tris += [(vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)) for j in range(n_t)]
    return np.array(tris)


@pytest.mark.parametrize("n_r, n_theta", [(16, 16), (16, 17), (24, 48)])
def test_blob_mesh_tiles_the_blob(fourier_blob, n_r, n_theta):
    """The blob's triangles turn counter-clockwise, tile the polygon of ring
    ``n_r``, and meet edge to edge: each interior edge lies in two triangles,
    traversed in opposite directions, and each boundary edge in one.  They
    come in the order of the one-by-one listing, which the cotangent sums
    and the gradient's accumulation follow."""
    dom = H.DiscreteDomain.disk_like(fourier_blob, n_r, n_theta)
    tris, c = dom._triangles, dom.cartesian()
    np.testing.assert_array_equal(tris, _loop_triangles(n_r, n_theta))
    area2 = _twice_signed_area(c[tris[:, 0]], c[tris[:, 1]], c[tris[:, 2]])
    assert np.all(area2 > 0.0)
    rim = np.flatnonzero(dom.ring == n_r)
    after = np.roll(rim, -1)
    shoelace = 0.5 * np.sum(c[rim, 0] * c[after, 1] - c[after, 0] * c[rim, 1])
    assert 0.5 * np.sum(area2) == pytest.approx(shoelace, rel=1e-14, abs=0.0)
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    assert np.unique(directed, axis=0).shape[0] == directed.shape[0]
    edges, counts = np.unique(np.sort(directed, axis=1), axis=0, return_counts=True)
    assert set(counts.tolist()) == {1, 2}
    once = {tuple(e) for e in edges[counts == 1].tolist()}
    assert once == {tuple(e) for e in np.sort(np.stack([rim, after], axis=-1), axis=1).tolist()}


def test_node_gradient_of_x(unit_disk, fourier_blob):
    """The gradient ``li_yau_check`` reads, away from the two outer rings: exact
    for the blob's P1 elements, second order on a pole disk, whose frame is
    ``(e_r, e_theta)``, so that the gradient of ``x`` is ``(cos, -sin)``."""
    blob = H.DiscreteDomain.disk_like(fourier_blob, 24, 48)
    inner = blob.interior_mask()
    assert np.count_nonzero(~inner) == 2 * 48
    grad = blob.node_gradient(blob.cartesian()[:, 0])
    assert np.max(np.abs(grad[inner] - [1.0, 0.0])) < 1e-13
    errors = []
    for n_r in (24, 48):
        disk = H.DiscreteDomain.disk_like(unit_disk, n_r, 2 * n_r)
        inner = disk.interior_mask()
        assert np.count_nonzero(~inner) == 2 * (2 * n_r)
        th = disk.nodes[inner, 1]
        grad = disk.node_gradient(disk.cartesian()[:, 0])[inner]
        errors.append(np.max(np.abs(grad - np.stack([np.cos(th), -np.sin(th)], axis=-1))))
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_li_yau_on_disks_and_blobs(unit_disk, fourier_blob):
    """Constant data has a zero profile; an envelope fitted at 16 x 32 covers
    the 32 x 64 profile within 5%, as C09 checks on intervals."""
    warped = DomainSpec(ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05])),
                        GeodesicDisk((0.0, 0.0), 0.8))
    t_grid = np.geomspace(0.01, 1.0, 8)
    for spec in (unit_disk, fourier_blob, warped):
        dom = H.DiscreteDomain.disk_like(spec, 16, 32)
        res = H.li_yau_check(H.assemble(dom), dom, np.ones(dom.size), t_grid)
        assert np.max(np.abs(res.sup_profile)) <= 1e-10
    for spec in (unit_disk, fourier_blob):
        results = []
        for n_r in (16, 32):
            dom = H.DiscreteDomain.disk_like(spec, n_r, 2 * n_r)
            system = H.assemble(dom)
            _, phi = system.eigenpairs(2)
            u0 = 1.0 + 0.4 * phi[:, 1] / np.max(np.abs(phi[:, 1]))
            results.append(H.li_yau_check(system, dom, u0, t_grid))
        coarse, fine = results
        assert coarse.violations == 0 and not coarse.clipped
        assert np.all(fine.sup_profile <= coarse.envelope(t_grid) * 1.05 + 1e-9)


def test_li_yau_reports_clipping_in_its_result(unit_interval, monkeypatch):
    """A solution value at or below the floor is clipped, and the result's
    ``clipped`` field is the one report of it: no warning is given."""
    dom, system = unit_interval
    flow = system.semigroup(np.ones(dom.size), 0.1)

    def dipped(t, order=0):
        u = flow(t, order)
        if order == 0:
            u[dom.size // 2] = 0.0
        return u

    monkeypatch.setattr(system, "semigroup", lambda vec, t_min: dipped)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = H.li_yau_check(system, dom, np.ones(dom.size), [0.1, 0.2])
    assert res.clipped and np.all(np.isfinite(res.sup_profile))


@settings(max_examples=200)
@given(data=st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(-100.0, 100.0)),
                     min_size=1, max_size=24))
@example(data=[(1.0, 1e-8)])
@example(data=[(1.0, 1e-10), (1.0, -1.0)])
def test_envelope_fit_is_the_linear_program_optimum(data):
    """The exact vertex solve covers the profile at no more cost than HiGHS's
    optimum.  HiGHS meets its constraints to an absolute 1e-7 (it returns 0
    for the profile ``[1e-8]``), so its ``a`` is first raised until every
    constraint holds."""
    from scipy.optimize import linprog

    t_grid = np.array([t for t, _ in data])
    profile = np.array([p for _, p in data])
    inv = 1.0 / t_grid
    a, b = H.fit_inverse_time_envelope(t_grid, profile)
    assert a >= 0.0 and b >= 0.0
    assert np.all(profile <= a + b * inv + 1e-12 * (1.0 + np.abs(profile)))
    ref = linprog(c=[1.0, float(np.mean(inv))], A_ub=np.stack([-np.ones_like(inv), -inv], axis=-1),
                  b_ub=-profile, bounds=[(0.0, None), (0.0, None)], method="highs")
    assert ref.success
    b_ref = max(0.0, ref.x[1])
    a_ref = max(0.0, ref.x[0], float(np.max(profile - b_ref * inv)))
    cost, cost_ref = a + b * np.mean(inv), a_ref + b_ref * np.mean(inv)
    assert cost <= cost_ref + max(1e-12, 1e-12 * abs(cost_ref))


# ---------------------------------------------------------------------------
# separable eigensolver against the dense oracle
# ---------------------------------------------------------------------------


def _materialized_eigenpairs(factors, keep):
    """The separable eigenpairs as a full ``N x keep`` matrix with the canonical
    sign and the pinned constant mode, built column by column."""
    from scipy.linalg import eigh_tridiagonal

    lam, wave, basis, j = factors._modes
    lam = np.concatenate([[0.0], lam[1:keep]])
    basis, j = basis[:keep], j[:keep]
    diag, off = factors._radial
    angular = factors._angular(wave)
    scale = 1.0 / np.sqrt(factors.m)
    phi = np.empty((factors.m.shape[0] * factors.n_theta, basis.shape[0]))
    for k in np.unique(wave[basis]):
        cols = np.nonzero(wave[basis] == k)[0]
        _, Y = eigh_tridiagonal(diag[k], off, select="i",
                                select_range=(0, int(j[cols].max())), lapack_driver="stemr")
        radial = scale[:, None] * Y
        if k == 0:  # phi_0 = 1/sqrt(V), the other columns mass-orthogonal to it
            radial -= (factors.m @ radial) / np.sum(factors.m)
            radial[:, 0] = 1.0 / math.sqrt(np.sum(factors.m))
        radial = radial[:, j[cols]]
        phi[:, cols] = (radial[:, None, :] * angular[:, basis[cols]][None, :, :]) \
            .reshape(phi.shape[0], cols.shape[0])
    peak = np.argmax(np.abs(phi), axis=0)
    phi *= np.where(phi[peak, np.arange(phi.shape[1])] < 0.0, -1.0, 1.0)
    return lam, phi


def _kernel_quantities(system, t, idx, vec):
    """Every kernel sum at time ``t``: diagonal, probe block, full matrix,
    semigroup, and ``sobex heat``'s probe row sums and symmetric block."""
    return {
        "diag": system.heat_diag(t, np.arange(system.size)),
        "diag_idx": system.heat_diag(t, idx),
        "block": system.heat_kernel(t, idx[:, None], idx[None, :]),
        "pairs": system.heat_kernel(t, idx, idx[::-1]),
        "matrix": system.kernel_matrix(t),
        "semigroup": system.semigroup(vec, t)(t),
        "rowsums": system.semigroup(np.ones(system.size), t)(t)[idx],
    }


def _materialized_quantities(lam, phi, mass, t, idx, vec):
    """The same sums over the columns of a materialized eigenvector matrix."""
    e = np.exp(-lam * t)
    K = (phi * e) @ phi.T
    return {
        "diag": (phi**2) @ e,
        "diag_idx": (phi[idx] ** 2) @ e,
        "block": K[np.ix_(idx, idx)],
        "pairs": K[idx, idx[::-1]],
        "matrix": K,
        "semigroup": phi @ (e * (phi.T @ (mass * vec))),
        "rowsums": K[idx] @ mass,
    }


def _assert_quantities_close(got, want, rtol):
    # kernel values far apart are roundoff on the scale of the diagonal
    scale = max(float(np.max(np.abs(value))) for value in want.values())
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=rtol, atol=rtol * scale,
                                   err_msg=name)


def _eigh_eigenpairs(system):
    """The dense oracle: ``scipy.linalg.eigh(driver="evd")`` on ``B = D A D``,
    back-transformed in full, with the constant mode pinned as the solvers
    pin it and each eigenvector's largest-magnitude entry positive."""
    from scipy.linalg import eigh

    d = 1.0 / np.sqrt(system.mass)
    B = system.stiffness.multiply(d[:, None]).multiply(d[None, :]).toarray()
    lam, Y = eigh(0.5 * (B + B.T), driver="evd")
    phi = d[:, None] * Y
    phi -= (system.mass @ phi) / system.volume
    phi[:, 0] = 1.0 / math.sqrt(system.volume)
    lam[0] = 0.0
    peak = np.argmax(np.abs(phi), axis=0)
    phi *= np.where(phi[peak, np.arange(phi.shape[1])] < 0.0, -1.0, 1.0)
    return lam, phi


def _assert_dense_matches_eigh(dom):
    """A dense system, its eigenvectors kept as reflectors and tridiagonal
    eigenvectors, against the full ``eigh`` oracle.  The sampled kernel
    values come first, so they read rows back-transformed for their node
    set; the all-node sums and the eigenvectors then read ``D Q Z``."""
    system = H.assemble(dom)
    assert system.solver == "dense"
    N = system.size
    lam_o, phi_o = _eigh_eigenpairs(system)
    idx = dom.sample_indices(40)
    vec = np.cos(np.arange(N) * 0.7) + 1.5
    times = (1e-3, 1e-2, 0.1, 1.0)
    for t in times:
        m = system.modes_for(t)
        want = _materialized_quantities(lam_o[:m], phi_o[:, :m], system.mass, t, idx, vec)
        got = {"diag_idx": system.heat_diag(t, idx),
               "block": system.heat_kernel(t, idx[:, None], idx[None, :]),
               "pairs": system.heat_kernel(t, idx, idx[::-1])}
        _assert_quantities_close(got, {name: want[name] for name in got}, 1e-12)
    assert "_factor" not in vars(system.spectrum)  # no all-node back-transform yet
    lam, _ = system.eigenpairs(N, vectors=False)
    assert np.max(np.abs(lam - lam_o)) <= 1e-13 * lam_o[-1]
    for t in times:
        m = system.modes_for(t)
        _assert_quantities_close(
            _kernel_quantities(system, t, idx, vec),
            _materialized_quantities(lam_o[:m], phi_o[:, :m], system.mass, t, idx, vec), 1e-12)
    lam, phi = system.eigenpairs(N)
    sign = np.where(np.sum(phi * phi_o, axis=0) < 0.0, -1.0, 1.0)
    np.testing.assert_allclose(phi, sign * phi_o, rtol=0.0, atol=1e-12 * np.max(np.abs(phi_o)))
    # canonical signs: each mode's largest-magnitude entry is positive.  A mode
    # signed apart from the oracle has two opposite entries of one magnitude
    # (a mirror-symmetric blob), which roundoff orders either way.
    top = np.max(np.abs(phi), axis=0)
    assert np.all(phi[np.argmax(np.abs(phi), axis=0), np.arange(N)] == top)
    flipped = np.flatnonzero(sign < 0.0)
    peak_o = np.argmax(np.abs(phi_o), axis=0)[flipped]
    assert np.all(top[flipped] - np.abs(phi[peak_o, flipped]) <= 1e-12 * top[flipped])
    residual = system.stiffness @ phi - (system.mass[:, None] * phi) * lam
    assert np.max(np.abs(residual)) < 1e-9
    gram = phi.T @ (system.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(N))) < 1e-12
    assert lam[0] == 0.0 and np.all(phi[:, 0] == 1.0 / math.sqrt(system.volume))
    assert np.max(np.abs(gram[0, 1:])) < 1e-14


def test_dense_solve_matches_eigh(fourier_blob):
    """The factored dense solve on the 24 x 48 blob against ``eigh``."""
    _assert_dense_matches_eigh(H.DiscreteDomain.disk_like(fourier_blob, 24, 48))


@settings(max_examples=8)
@given(n_r=st.integers(16, 24), n_theta=st.integers(16, 33),
       cos2=st.floats(-0.2, 0.2), cos3=st.floats(-0.1, 0.1))
def test_dense_solve_matches_eigh_property(n_r, n_theta, cos2, cos3):
    """Small blobs with random cos2 and cos3 terms, odd and even angular counts."""
    spec = DomainSpec(ModelSurface.constant_curvature(0.0),
                      RadialProfile(cos_coeffs=(1.0, 0.0, cos2, cos3)))
    _assert_dense_matches_eigh(H.DiscreteDomain.disk_like(spec, n_r, n_theta))


def test_dense_rows_are_cached_by_value(fourier_blob):
    """A dense spectrum keeps the rows of the last node set read and finds
    them again by the set's value: arrays built apart, the nodes reversed and
    ``sobex heat``'s symmetric pair reuse one entry; another set replaces it.
    Rows read before and after the all-node factor is formed agree."""
    dom = H.DiscreteDomain.disk_like(fourier_blob, 24, 48)
    system = H.assemble(dom)
    idx = dom.sample_indices(96)
    t = 0.01
    e = np.exp(-system.eigenpairs(system.size, vectors=False)[0][:system.modes_for(t)] * t)
    m = e.shape[0]
    spectrum = system.spectrum
    rows = spectrum.values(idx, m)
    key, kept = spectrum._last_rows
    assert key == np.unique(idx).tobytes()
    assert np.array_equal(spectrum.values(np.array([int(i) for i in idx]), m), rows)
    assert np.array_equal(spectrum.values(idx[::-1], m), rows[::-1])
    block = system.heat_kernel(t, idx[:, None], idx[None, :])
    assert spectrum._last_rows[1] is kept
    want = (rows * e) @ rows.T
    np.testing.assert_allclose(block, want, rtol=0.0, atol=1e-13 * np.max(want))
    # another set replaces the entry, and the first set is formed again
    other = (idx + 1) % system.size  # as many nodes as idx
    shifted = spectrum.values(other, m)
    assert spectrum._last_rows[0] == np.unique(other).tobytes()
    assert np.array_equal(spectrum.values(idx, m), rows)
    assert spectrum._last_rows[1] is not kept
    assert system.heat_diag(t, np.array([], dtype=int)).shape == (0,)
    system.heat_diag(t, np.arange(system.size))  # forms D Q Z on all nodes
    assert "_factor" in vars(spectrum)
    for nodes, before in ((idx, rows), (other, shifted)):
        np.testing.assert_allclose(spectrum.values(nodes, m), before,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(before)))


def test_dense_resolve_reads_new_rows(fourier_blob):
    """A re-solve at a larger ``keep`` serves rows of the new spectrum, with
    every new column, never the rows the old one formed (34 x 68 blob:
    2313 nodes, 2000 modes kept, then 2100)."""
    dom = H.DiscreteDomain.disk_like(fourier_blob, 34, 68)
    system = H.assemble(dom)
    idx = dom.sample_indices(96)
    system.heat_diag(1.0, idx)
    old = system.spectrum
    rows = old.values(idx, 2000)
    system.eigenpairs(2100, vectors=False)
    assert system.spectrum is not old and system._lam.shape[0] == 2100
    new = system.spectrum.values(idx, 2100)
    assert new.shape == (idx.shape[0], 2100)
    scale = np.max(np.abs(rows))
    np.testing.assert_allclose(new[:, :2000], rows, rtol=0.0, atol=1e-13 * scale)
    full = system.spectrum.values(np.arange(system.size), 2100)
    np.testing.assert_allclose(full[idx], new, rtol=0.0, atol=1e-13 * scale)


def test_dense_solve_failure_raises(fourier_blob, monkeypatch):
    """A tridiagonal solve that reports failure raises ``LinAlgError``, as
    ``eigh`` does, and leaves no spectrum: its eigenpairs would be garbage."""
    from scipy.linalg import lapack

    solve = lapack.dstevd
    monkeypatch.setattr(lapack, "dstevd", lambda *a, **k: solve(*a, **k)[:2] + (1,))
    system = H.assemble(H.DiscreteDomain.disk_like(fourier_blob, 16, 32))
    with pytest.raises(np.linalg.LinAlgError, match="dstevd"):
        system.eigenpairs(4)
    assert system.spectrum is None


def _assert_matches_dense(dom, split=0):
    """The separable spectrum of ``dom`` against dense ``eigh`` on the same matrix
    and against sums over the materialized eigenvector matrix.

    The complete spectra make the kernel sums independent of the basis
    chosen inside a cos/sin pair, so they must match the dense oracle.
    Then the mode cap is set to split the ``split``-th cos/sin pair: the
    separable system keeps one mode less, the whole pairs below the cap,
    so its truncated sums match the dense oracle's over those modes and
    the materialized ones over the same columns.
    """
    sys_ = H.assemble(dom)
    oracle = H.NeumannSystem(sys_.stiffness, sys_.mass)
    assert (sys_.solver, oracle.solver) == ("separable", "dense")
    N = sys_.size
    lam, phi = sys_.eigenpairs(N)
    lam_o, _ = oracle.eigenpairs(N)
    np.testing.assert_allclose(lam, lam_o, rtol=1e-10, atol=1e-10)
    # the dense system runs the factored solve: eigh itself is the oracle too
    lam_e, _ = _eigh_eigenpairs(sys_)
    np.testing.assert_allclose(lam, lam_e, rtol=1e-10, atol=1e-10)
    lam_m, phi_m = _materialized_eigenpairs(sys_.factors, N)
    assert np.array_equal(lam, lam_m) and np.array_equal(phi, phi_m)
    assert np.array_equal(sys_.eigenpairs(7)[1], phi_m[:, :7])
    idx = dom.sample_indices(40)
    vec = np.cos(np.arange(N) * 0.7) + 1.5
    for t in (1e-3, 1e-2, 0.1, 1.0):
        got = _kernel_quantities(sys_, t, idx, vec)
        # one kernel-value path: the diagonal is the kernel at (x, x), bit for bit
        assert np.array_equal(got["diag_idx"], sys_.heat_kernel(t, idx, idx))
        _assert_quantities_close(got, _kernel_quantities(oracle, t, idx, vec), 1e-10)
        m = sys_.modes_for(t)
        _assert_quantities_close(
            got, _materialized_quantities(lam[:m], phi[:, :m], sys_.mass, t, idx, vec), 1e-12)
    residual = sys_.stiffness @ phi - (sys_.mass[:, None] * phi) * lam
    assert np.max(np.abs(residual)) < 1e-9
    gram = phi.T @ (sys_.mass[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(N))) < 1e-9
    assert lam[0] == 0.0
    np.testing.assert_allclose(phi[:, 0], 1.0 / math.sqrt(sys_.volume), rtol=1e-12)

    _, wave, basis, _ = sys_.factors._modes
    pairs = np.flatnonzero((wave[basis[:-1]] == wave[basis[1:]]) & (basis[:-1] != basis[1:]))
    if pairs.size:
        cap = int(pairs[split % pairs.size]) + 1  # would keep the cos without its sin
        sys_.mode_cap, oracle.mode_cap = cap, cap - 1
        t = 10.0 / lam[cap - 1]  # exp(-lam t) >= e^-10 on every mode kept: the cap bites
        with pytest.warns(UserWarning, match="spectral truncation"):
            got = _kernel_quantities(sys_, t, idx, vec)
            want = _kernel_quantities(oracle, t, idx, vec)
            assert sys_.modes_for(t) == cap - 1
        _assert_quantities_close(got, want, 1e-10)
        want = _materialized_quantities(lam[:cap - 1], phi[:, :cap - 1], sys_.mass, t, idx, vec)
        _assert_quantities_close(got, want, 1e-12)
    return sys_


@pytest.mark.parametrize("case", ["flat_disk", "spherical_cap", "warped_disk", "interval"])
def test_separable_matches_dense(case, unit_disk, spherical_cap):
    warped = DomainSpec(ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05])),
                        GeodesicDisk((0.0, 0.0), 0.8))
    make = {
        "flat_disk": lambda: H.DiscreteDomain.disk_like(unit_disk, 16, 32),
        "spherical_cap": lambda: H.DiscreteDomain.disk_like(spherical_cap, 16, 20),
        "warped_disk": lambda: H.DiscreteDomain.disk_like(warped, 17, 24),
        "interval": lambda: H.DiscreteDomain.interval(2.0, 300),
    }[case]
    sys_ = _assert_matches_dense(make(), split=5)
    # reruns are bit-identical, pair order and signs included
    again = H.assemble(make())
    lam, phi = sys_.eigenpairs(sys_.size)
    lam2, phi2 = again.eigenpairs(again.size)
    assert np.array_equal(lam, lam2) and np.array_equal(phi, phi2)


@settings(max_examples=20)
@given(n_r=st.integers(16, 24), n_theta=st.integers(16, 25),
       radius=st.floats(0.3, 1.5), kappa=st.floats(-1.5, 1.5),
       warped=st.booleans(), split=st.integers(0, 200))
def test_separable_matches_dense_property(n_r, n_theta, radius, kappa, warped, split):
    """Flat, curved and warped pole disks, odd and even angular counts."""
    if warped:
        surface = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, 0.05 * kappa]))
    else:
        surface = ModelSurface.constant_curvature(kappa)
    spec = DomainSpec(surface, GeodesicDisk((0.0, 0.0), radius))
    _assert_matches_dense(H.DiscreteDomain.disk_like(spec, n_r, n_theta), split)


def test_solver_names(fourier_blob):
    blob = H.assemble(H.DiscreteDomain.disk_like(fourier_blob, 16, 32))
    assert blob.solver == "dense"
    big = H.DiscreteDomain.interval(1.0, 5000)
    assert H.NeumannSystem(H.assemble(big).stiffness, big.weights).solver == "sparse"


def test_truncation_warning_names_the_caller():
    """The spectral-truncation warning points at the first frame outside
    sobex, whether the sum is called directly or through a diagnostic."""
    dom = H.DiscreteDomain.interval(1.0, 200)
    system = H.assemble(dom)
    system.mode_cap = 20
    for call in (lambda: system.heat_diag(1e-4, np.arange(5)),
                 lambda: H.diagonal_bound_check(dom, system, [1e-4])):
        with pytest.warns(UserWarning, match="spectral truncation") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


def test_truncation_level_is_recorded():
    """``truncation`` keeps the largest level a capped sum warned about; a
    complete spectrum never truncates and leaves it at 0.0."""
    dom = H.DiscreteDomain.interval(1.0, 200)
    system = H.assemble(dom)
    system.mode_cap = 20
    with pytest.warns(UserWarning, match="spectral truncation"):
        system.heat_diag(1e-3, np.arange(5))
        system.heat_diag(1e-4, np.arange(5))
        system.heat_diag(1e-2, np.arange(5))
    lam, phi = system.eigenpairs(20, vectors=False)
    assert phi is None
    assert system.truncation == math.exp(-float(lam[-1]) * 1e-4)
    assert system.modes_used == 20

    complete = H.assemble(dom)
    complete.heat_diag(1e-4, np.arange(dom.size))
    assert (complete.truncation, complete.modes_used) == (0.0, 200)
