"""The distance layer: graph metric on warped grids, flat pairwise kernels, and
each chart engine's distance to its boundary."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from scipy.spatial.distance import pdist

from sobex import fermi, heat as H
from sobex.fermi import DomainSpec, GeodesicDisk, RadialProfile
from sobex.surfaces import (
    ModelSurface,
    constant_curvature_distance,
    poly_cosh_mix_profile,
    polar_to_cartesian,
)


@pytest.mark.parametrize("n_r, n_theta", [(16, 16), (24, 16), (32, 16), (48, 16),
                                          (64, 16), (16, 32), (16, 17)])
def test_flat_warp_graph_metric_brackets_euclidean(n_r, n_theta):
    """With ``f(r) = r`` the graph metric sits between the plane's distance and a
    bounded overshoot: every edge is at least its chord."""
    a = 0.8
    surf = ModelSurface.warped(poly_cosh_mix_profile([1.0]))
    dom = H.DiscreteDomain.disk_like(DomainSpec(surf, GeodesicDisk((0.0, 0.0), a)),
                                     n_r, n_theta)
    g = dom.distance_rows(np.arange(dom.size))
    e = constant_curvature_distance(0.0, dom.nodes[:, None, :], dom.nodes[None, :, :])
    dr, dtheta = a / n_r, 2.0 * math.pi / n_theta
    assert np.all(g >= e - 1e-12)
    assert np.all(g <= 1.09 * e + 2.0 * dr + a * dtheta)


def test_warped_graph_does_not_keep_its_surface_alive():
    """The warped grid's graph metric lives on its domain: no cache keyed by
    ``id(surface)`` holds the surface once the domain is gone."""
    surf = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05]))
    dom = H.DiscreteDomain.disk_like(DomainSpec(surf, GeodesicDisk((0.0, 0.0), 0.8)), 16, 32)
    assert dom.distance_rows([0])[0, 40] > 0.0
    ref = weakref.ref(surf)
    del dom, surf
    gc.collect()
    assert ref() is None


def _largest_chord(domain):
    theta = np.arange(2048) * (2.0 * math.pi / 2048)
    c, _, _ = domain._engine().curve(theta)
    return max(float(np.max(np.linalg.norm(c[lo:lo + 256, None, :] - c[None, :, :],
                                           axis=-1)))
               for lo in range(0, 2048, 256))


def test_blob_diameter_is_the_largest_boundary_chord(fourier_blob):
    assert fourier_blob.diameter() == _largest_chord(fourier_blob)


def test_blob_diameter_is_computed_once_per_engine(flat, monkeypatch):
    calls = []

    def counting_pdist(*args, **kwargs):
        calls.append(1)
        return pdist(*args, **kwargs)

    monkeypatch.setattr(fermi, "pdist", counting_pdist)
    blob = DomainSpec(flat, RadialProfile(cos_coeffs=(1.0, 0.0, 0.15)))
    values = {blob.diameter() for _ in range(3)}
    assert len(calls) == 1
    assert values == {_largest_chord(blob)}
    # an equal spec shares nothing: its own engine, its own single sweep
    assert DomainSpec(flat, blob.boundary).diameter() == blob.diameter()
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["unit_disk", "fourier_blob"])
def test_flat_distance_rows_match_broadcast_norm(name, request):
    dom = H.DiscreteDomain.disk_like(request.getfixturevalue(name), 16, 32)
    idx = np.arange(0, dom.size, 7)
    c = dom.cartesian()
    brute = np.linalg.norm(c[idx][:, None, :] - c[None, :, :], axis=-1)
    assert np.array_equal(dom.distance_rows(idx), brute)


# -- the rolling-ball distances: each engine's distance to its boundary ---------

_CHART_POINTS = np.random.default_rng(7).uniform([0.0, 0.0], [1.0, 2.0 * math.pi], (400, 2))


@pytest.mark.parametrize("kappa, a", [(0.0, 0.8), (1.0, math.pi / 4.0), (1.0, 2.0),
                                      (-1.0, 1.0)])
def test_pole_disk_distance_is_the_radial_gap(kappa, a):
    """``|rho - a|`` against the closed-form distance to 4096 boundary samples:
    never above it, and below it by at most the half-spacing arc ``f(a) pi / 4096``
    (the triangle inequality through the foot point)."""
    surf = ModelSurface.constant_curvature(kappa)
    spec = DomainSpec(surf, GeodesicDisk((0.0, 0.0), a))
    hi = surf.r_limits[1]
    pts = _CHART_POINTS * [min(2.5 * a, 0.999 * hi), 1.0]
    # half the points sit on a sample's angle, where the foot is a sample
    pts[::2, 1] = np.round(pts[::2, 1] * (4096 / (2.0 * math.pi))) * (2.0 * math.pi / 4096)
    samples = spec.boundary_point(np.arange(4096) * (2.0 * math.pi / 4096)).point
    oracle = np.min(constant_curvature_distance(kappa, pts[:, None, :], samples[None]), axis=1)
    got = spec._engine().boundary_distance(pts)
    # arccos/arccosh lose half the digits near zero distance
    assert np.all(got <= oracle + 1e-7)
    assert np.all(oracle - got <= float(surf.warp(a)) * math.pi / 4096 + 1e-7)
    np.testing.assert_allclose(got[::2], oracle[::2], rtol=0, atol=1e-7)


def test_off_centre_circle_distance_matches_dense_sampling(flat):
    spec = DomainSpec(flat, GeodesicDisk((0.5, 1.0), 0.8))
    engine = spec._engine()
    pts = _CHART_POINTS * [2.0, 1.0]
    samples = engine.curve(np.arange(8192) * (2.0 * math.pi / 8192))[0]
    x = polar_to_cartesian(pts)
    oracle = np.min(np.linalg.norm(x[:, None, :] - samples[None], axis=-1), axis=1)
    got = engine.boundary_distance(pts)
    assert np.all(got <= oracle + 1e-14)
    assert np.all(oracle - got <= 0.8 * math.pi / 8192)


def test_blob_distance_is_the_nearest_dense_sample(fourier_blob):
    engine = fourier_blob._engine()
    pts = _CHART_POINTS * [2.0, 1.0]
    dense = engine._dense_tree.data
    assert dense.shape == (2048, 2)
    brute = np.min(np.linalg.norm(polar_to_cartesian(pts)[:, None, :] - dense[None], axis=-1),
                   axis=1)
    np.testing.assert_allclose(engine.boundary_distance(pts), brute, rtol=1e-15, atol=1e-15)


def test_warped_regularity_builds_no_graph(tmp_path, monkeypatch):
    """``sobex regularity`` on the warped disk of the CLI defaults certifies the
    rolling balls without any graph metric or Dijkstra run."""
    import scipy.sparse.csgraph

    from sobex import cli

    def no_graph(*args, **kwargs):
        raise AssertionError("regularity built a graph metric")

    monkeypatch.setattr(H.DiscreteDomain, "_graph", property(no_graph))
    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", no_graph)
    cfg = tmp_path / "warped.json"
    cfg.write_text(json.dumps({
        "surface": {"kind": "warped", "profile": {"type": "poly_cosh_mix",
                                                  "coeffs": [1.0, 0.12, -0.05]}},
        "domain": {"type": "disk", "radius": 0.8}, "r": 0.3}))
    rep = tmp_path / "reg.json"
    assert cli.main(["regularity", "--config", str(cfg), "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["admissible"] is True
    assert abs(data["interior_margin"]) < 1e-15 and abs(data["exterior_margin"]) < 1e-15
    assert data["n_dense"] == 2048
