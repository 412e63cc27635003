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


def _orders(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("t", [0.05, 0.145])
def test_disk_kernel_converges_at_second_order(flat, t):
    """``h_t(x, x)`` at one node per ring of the flat unit disk: the worst relative
    error falls at order 2 from n = 64 to 128 (32 to 64 is pre-asymptotic at t = 0.05)."""
    disk = DomainSpec(flat, GeodesicDisk((0.0, 0.0), 1.0))
    errors = []
    for n in _SIZES:
        dom = H.DiscreteDomain.disk_like(disk, n, n)
        idx = np.arange(n) * n
        exact = C.disk_diagonal(t, dom.nodes[idx, 0])
        errors.append(np.max(np.abs(H.assemble(dom).heat_diag(t, idx) / exact - 1.0)))
    assert errors[0] > errors[1] > errors[2]
    assert 1.8 <= _orders(errors)[1] <= 2.2


@pytest.mark.parametrize("t", [0.005, 0.02])
def test_interval_kernel_converges_at_second_order(t):
    """``h_t(x, x)`` at every node of the unit interval, as on the disk."""
    errors = []
    for n in _SIZES:
        dom = H.DiscreteDomain.interval(1.0, n)
        exact = C.interval_diagonal(t, dom.nodes, 1.0)
        errors.append(np.max(np.abs(H.assemble(dom).heat_diag(t) / exact - 1.0)))
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
