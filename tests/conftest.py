import math

import numpy as np
import pytest
from hypothesis import settings

from sobex.fermi import DomainSpec, FermiChart, GeodesicDisk, RadialProfile
from sobex.surfaces import ModelSurface

# every property test: reproducible examples, no per-example time limit;
# each test sets its own max_examples
settings.register_profile("sobex", deadline=None, derandomize=True)
settings.load_profile("sobex")


@pytest.fixture(scope="session")
def flat():
    return ModelSurface.constant_curvature(0.0)


@pytest.fixture(scope="session")
def sphere():
    return ModelSurface.constant_curvature(1.0)


@pytest.fixture(scope="session")
def hyperbolic():
    return ModelSurface.constant_curvature(-1.0)


@pytest.fixture(scope="session")
def unit_disk(flat):
    return DomainSpec(flat, GeodesicDisk((0.0, 0.0), 1.0))


@pytest.fixture(scope="session")
def spherical_cap(sphere):
    return DomainSpec(sphere, GeodesicDisk((0.0, 0.0), math.pi / 4.0))


@pytest.fixture(scope="session")
def fourier_blob(flat):
    return DomainSpec(flat, RadialProfile(cos_coeffs=(1.0, 0.0, 0.15)))


@pytest.fixture(scope="session")
def disk_chart(unit_disk):
    return FermiChart(unit_disk, 0.45)


@pytest.fixture(scope="session")
def cap_chart(spherical_cap):
    return FermiChart(spherical_cap, 0.3)


@pytest.fixture(scope="session")
def blob_chart(fourier_blob):
    return FermiChart(fourier_blob, 0.3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
