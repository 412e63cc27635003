"""The distance layer: graph metric on warped grids, flat pairwise kernels, the
pole disks' one distance row per ring, and each chart engine's distance to its
boundary."""

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


# every pole-disk surface kind, each with a radius inside its chart
_POLE_SURFACES = {
    "flat": (ModelSurface.constant_curvature(0.0), 1.0),
    "sphere": (ModelSurface.constant_curvature(1.0), 1.2),
    "hyperbolic": (ModelSurface.constant_curvature(-1.0), 1.0),
    "warped": (ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05])), 0.8),
}
_RING_GRIDS = [(16, 24), (24, 32)]


def _pole_disk(kind, n_r, n_theta):
    surf, a = _POLE_SURFACES[kind]
    return H.DiscreteDomain.disk_like(DomainSpec(surf, GeodesicDisk((0.0, 0.0), a)),
                                      n_r, n_theta)


@pytest.mark.parametrize("n_r, n_theta", _RING_GRIDS)
@pytest.mark.parametrize("kind", list(_POLE_SURFACES))
def test_pole_disk_ball_sums_are_ring_sums(kind, n_r, n_theta, rng):
    """All-node ball sums read one distance row per ring, yet match each node's
    own row bit for bit: the node weights against ``ball_sums`` of one node at a
    time, and integer values (ring-constant, or not and so summed per node)
    against the mask, whose sums are exact in any order.  The radii are the heat
    grid's ``sqrt(t)`` and the doubling grid, none of which ties a grid distance.
    At a radius that does (``k dr``, the gap between nodes on one ray), two nodes
    of a ring may round a closed-form distance to opposite sides of it; their
    ball volumes still agree, since both take the ring's one row."""
    dom = _pole_disk(kind, n_r, n_theta)
    radii = np.concatenate([np.sqrt(np.geomspace(1e-3, 4.0, 16)),
                            np.geomspace(2.0 * dom.mesh_width, dom.diameter(), 24)])
    every = np.arange(dom.size)
    rows_read = []
    distance_rows = dom.distance_rows

    def counting(idx):
        rows_read.append(len(idx))
        return distance_rows(idx)

    dom.distance_rows = counting
    got = dom.ball_sums(every, radii)
    assert sum(rows_read) == n_r
    per_node = np.concatenate([dom.ball_sums([i], radii) for i in every])
    assert np.array_equal(got, per_node)

    dist = distance_rows(every)
    ring_values = np.repeat(rng.integers(-8, 9, n_r), n_theta).astype(float)
    node_values = rng.integers(-8, 9, dom.size).astype(float)
    for values in (ring_values, node_values):
        want = np.stack([(dist < r) @ values for r in radii], axis=-1)
        assert np.array_equal(dom.ball_sums(every, radii, values), want)

    tied = dom.ball_sums(every, dom.dr * np.arange(1, n_r)).reshape(n_r, n_theta, -1)
    assert np.array_equal(tied, np.broadcast_to(tied[:, :1], tied.shape))


@pytest.mark.parametrize("n_r, n_theta", _RING_GRIDS)
def test_warped_rows_rotate_with_their_source(n_r, n_theta):
    """The warped grid graph is invariant under rotation by ``dtheta``: the
    Dijkstra row of node ``(i, j)`` is the row of ``(i, 0)`` rotated by ``j``,
    bit for bit, which the ring rule of ``ball_sums`` rests on."""
    dom = _pole_disk("warped", n_r, n_theta)
    dist = dom.distance_rows(np.arange(dom.size)).reshape(n_r, n_theta, n_r, n_theta)
    for j in range(n_theta):
        assert np.array_equal(dist[:, j], np.roll(dist[:, 0], j, axis=-1))


@pytest.mark.parametrize("n_r, n_theta", _RING_GRIDS)
def test_directed_dijkstra_matches_undirected(n_r, n_theta):
    """The graph is stored with both directions of each edge, so the directed
    Dijkstra of ``distance_rows`` equals scipy's undirected one."""
    from scipy.sparse.csgraph import dijkstra

    dom = _pole_disk("warped", n_r, n_theta)
    assert (dom._graph != dom._graph.T).nnz == 0
    assert np.array_equal(dom.distance_rows(np.arange(dom.size)),
                          dijkstra(dom._graph, directed=False))


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
