"""The distance layer: graph metric on warped charts, flat pairwise kernels."""

import gc
import math
import weakref

import numpy as np
import pytest

from scipy.spatial.distance import pdist

from sobex import fermi, heat as H
from sobex.fermi import DomainSpec, GeodesicDisk, RadialProfile
from sobex.surfaces import ModelSurface, constant_curvature_distance, poly_cosh_mix_profile


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


def test_warped_engine_does_not_keep_its_surface_alive():
    surf = ModelSurface.warped(poly_cosh_mix_profile([1.0, 0.12, -0.05]))
    spec = DomainSpec(surf, GeodesicDisk((0.0, 0.0), 0.8))
    assert spec._engine().distance(np.array([0.2, 0.0]), np.array([0.5, 1.0])) > 0.0
    ref = weakref.ref(surf)
    del spec, surf
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
