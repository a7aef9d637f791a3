import numpy as np
import pytest

from trajloc import ArrayConfig, TrajectoryModel, TrajectoryParams, build_grid
from trajloc.model import trajectory_steering_matrix, wavelength_for

FOUR_LINEAR = ((-11.0, 3.5), (20.0, 1.5), (61.0, -2.25), (-52.0, -4.75))


@pytest.fixture
def array():
    return ArrayConfig(10)


@pytest.fixture
def linear_model():
    return TrajectoryModel.polynomial(1)


@pytest.fixture
def linear_grid(linear_model):
    return build_grid(
        [("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)], linear_model
    )


@pytest.fixture
def four_sources(linear_model):
    return [TrajectoryParams(linear_model, p, (a,)) for p, a in FOUR_LINEAR]


def random_params(model, rng, phi_range=(-80, 80), coeff_range=(-4.5, 4.5)):
    phi = rng.uniform(*phi_range)
    coeffs = rng.uniform(*coeff_range, size=model.n_params - 1)
    return TrajectoryParams(model, phi, tuple(coeffs))


def assert_allclose(a, b, **kw):
    np.testing.assert_allclose(a, b, **kw)


def source_order_pair(seed, order, snr_db=20.0, L=30):
    """Narrowband data of three separated off-grid linear sources, each with
    its own random amplitudes, plus noise, for a 10-sensor array: summed in
    source order and in ``order``. The pair differs only by rounding.
    Returns (noise variance, (Y, Y from the reordered sources))."""
    rng = np.random.default_rng(seed)
    model = TrajectoryModel.polynomial(1)
    sources = [
        TrajectoryParams(model, rng.uniform(*phis), (rng.uniform(-4, 4),))
        for phis in ((-70, -30), (-15, 15), (30, 70))
    ]
    array = ArrayConfig(10)
    lam = wavelength_for(array, None)
    signals = [
        trajectory_steering_matrix(s, array, L, lam)
        * ((rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2))
        for s in sources
    ]
    noise_variance = 10.0 ** (-snr_db / 10.0)
    noise = np.sqrt(noise_variance / 2) * (rng.standard_normal((10, L)) + 1j * rng.standard_normal((10, L)))
    pair = []
    for ks in (range(len(sources)), order):
        Y = np.zeros((10, L), complex)
        for k in ks:
            Y += signals[k]
        pair.append(Y + noise)
    return noise_variance, tuple(pair)
