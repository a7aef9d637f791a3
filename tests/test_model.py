import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajloc import (
    ArrayConfig,
    ObservationBlock,
    TrajectoryModel,
    TrajectoryParams,
    doa_at_snapshot,
    doas,
    steering_vector,
    synthesize_block,
    trajectory_steering_matrix,
)
from trajloc.model import block_wavelengths, trajectory_basis, trajectory_in_bounds, wavelength_for


class TestTrajectoryModels:
    def test_order_zero_is_static(self):
        params = TrajectoryParams(TrajectoryModel.polynomial(0), 20.0)
        assert all(doa_at_snapshot(params, l, 30) == 20.0 for l in range(30))

    def test_linear_endpoint(self):
        params = TrajectoryParams(TrajectoryModel.polynomial(1), 20.0, (1.5,))
        assert doa_at_snapshot(params, 29, 30) == pytest.approx(21.5, abs=1e-12)
        assert doa_at_snapshot(params, 0, 30) == pytest.approx(20.0, abs=1e-12)

    def test_bandlimited_at_zero(self):
        # sin 0 = 0, cos 0 = 1, so only phi and the beta sum survive at l = 0
        params = TrajectoryParams(TrajectoryModel.bandlimited(1, 0.3), 10.0, (0.0, 2.0))
        assert doa_at_snapshot(params, 0, 25) == pytest.approx(12.0, abs=1e-12)

    def test_rejects_snapshot_outside_block(self):
        params = TrajectoryParams(TrajectoryModel.polynomial(0), 5.0)
        with pytest.raises(ValueError):
            doa_at_snapshot(params, 30, 30)
        with pytest.raises(ValueError):
            doa_at_snapshot(params, -1, 30)

    def test_rejects_short_block_for_moving_source(self):
        params = TrajectoryParams(TrajectoryModel.polynomial(1), 5.0, (1.0,))
        with pytest.raises(ValueError):
            doas(params, 1)
        # static source is fine with one snapshot
        static = TrajectoryParams(TrajectoryModel.polynomial(0), 5.0)
        assert doas(static, 1).shape == (1,)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            TrajectoryParams(TrajectoryModel.polynomial(2), 0.0, (1.0,))
        with pytest.raises(ValueError):
            TrajectoryParams(TrajectoryModel.bandlimited(1, 0.1), 0.0, (1.0,))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            TrajectoryModel.polynomial(-1)
        with pytest.raises(ValueError):
            TrajectoryModel.bandlimited(0, 0.1)
        with pytest.raises(ValueError):
            TrajectoryModel.bandlimited(1, -0.1)
        with pytest.raises(ValueError):
            TrajectoryModel("spline", 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_non_finite_or_zero_nu_and_spacing_refused(self, bad):
        with pytest.raises(ValueError, match="^nu: "):
            TrajectoryModel.bandlimited(1, bad)
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            ArrayConfig(10, bad)

    def test_basis_is_doa_derivative_table(self):
        model = TrajectoryModel.bandlimited(2, 0.17)
        basis = trajectory_basis(model, 12)
        assert basis.shape == (4, 12)
        l = np.arange(12)
        np.testing.assert_allclose(basis[0], np.sin(0.17 * l))
        np.testing.assert_allclose(basis[3], np.cos(2 * 0.17 * l))


class TestSteering:
    def test_broadside_is_all_ones(self, array):
        np.testing.assert_array_equal(steering_vector(0.0, array, 1.0), np.ones(10))

    def test_half_wavelength_endfire_phase(self):
        arr = ArrayConfig(2, spacing=0.5)
        v = steering_vector(90.0 - 1e-9, arr, 1.0)
        assert v[1] == pytest.approx(-1.0, abs=1e-6)

    def test_thirty_degrees_quadrature(self):
        # sin 30 deg = 1/2, so the second sensor sits at exp(j pi/2) = j
        arr = ArrayConfig(2, spacing=0.5)
        v = steering_vector(30.0, arr, 1.0)
        assert v[1] == pytest.approx(1j, abs=1e-12)

    def test_rejects_bad_wavelength(self, array):
        with pytest.raises(ValueError):
            steering_vector(10.0, array, 0.0)
        with pytest.raises(ValueError):
            trajectory_steering_matrix(
                TrajectoryParams(TrajectoryModel.polynomial(0), 3.0), array, 5, -1.0
            )

    @given(theta=st.floats(-89.9, 89.9), ratio=st.floats(0.05, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus_and_first_element(self, theta, ratio):
        arr = ArrayConfig(8, spacing=ratio)
        v = steering_vector(theta, arr, 1.0)
        assert v[0] == 1.0 + 0.0j
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
        # a^H a = N
        assert np.vdot(v, v).real == pytest.approx(8.0, abs=1e-10)

    def test_matrix_columns_match_scalar_steering(self, array):
        params = TrajectoryParams(TrajectoryModel.polynomial(1), 20.0, (1.5,))
        A = trajectory_steering_matrix(params, array, 30, 1.0)
        np.testing.assert_allclose(A[:, 29], steering_vector(21.5, array, 1.0), atol=1e-12)
        np.testing.assert_allclose(np.abs(A), 1.0, atol=1e-12)

    def test_static_trajectory_gives_identical_columns(self, array):
        params = TrajectoryParams(TrajectoryModel.polynomial(0), -40.0)
        A = trajectory_steering_matrix(params, array, 7, 1.0)
        assert np.all(A == A[:, :1])


class TestSynthesis:
    def test_pure_noise_variance(self, array):
        blocks, truth = synthesize_block([], array, 10_000, 0.0, seed=9)
        assert truth.noise_variance == 1.0
        var = np.mean(np.abs(blocks[0].data) ** 2)
        assert var == pytest.approx(1.0, rel=0.05)

    def test_snr_definition(self, array, linear_model):
        src = TrajectoryParams(linear_model, 0.0, (1.0,))
        _, truth = synthesize_block([src], array, 4, 5.0, seed=0)
        assert truth.noise_variance == pytest.approx(10 ** (-0.5), rel=1e-12)
        assert truth.signal_variance == 1.0

    def test_noiseless_unit_amplitude_columns(self, array, linear_model):
        src = TrajectoryParams(linear_model, 20.0, (1.5,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=0, unit_amplitudes=True)
        lam = wavelength_for(array, None)
        for l in (0, 13, 29):
            theta = doa_at_snapshot(src, l, 30)
            np.testing.assert_allclose(
                blocks[0].data[:, l], steering_vector(theta, array, lam), atol=1e-12
            )

    def test_seed_reproducibility(self, array, four_sources):
        a, _ = synthesize_block(four_sources, array, 30, 5.0, seed=123)
        b, _ = synthesize_block(four_sources, array, 30, 5.0, seed=123)
        assert np.array_equal(a[0].data, b[0].data)
        c, _ = synthesize_block(four_sources, array, 30, 5.0, seed=124)
        assert not np.array_equal(a[0].data, c[0].data)

    def test_out_of_bounds_trajectory_rejected(self, array, linear_model):
        runaway = TrajectoryParams(linear_model, 88.0, (4.0,))
        assert not trajectory_in_bounds(runaway, 30)
        with pytest.raises(ValueError):
            synthesize_block([runaway], array, 30, 5.0, seed=0)

    @pytest.mark.parametrize("freqs", [[0.0, 1000.0], [-500.0, 1000.0]], ids=["zero", "negative"])
    def test_non_positive_frequency_rejected(self, linear_model, freqs):
        src = TrajectoryParams(linear_model, 0.0, (1.0,))
        with pytest.raises(ValueError, match="positive"):
            ArrayConfig.for_frequencies(4, freqs)
        with pytest.raises(ValueError, match="frequency must be positive"):
            synthesize_block([src], ArrayConfig(4, spacing=0.1), 10, 5.0, freqs, seed=0)

    def test_aliasing_rejected(self, linear_model):
        src = TrajectoryParams(linear_model, 0.0, (1.0,))
        wide = ArrayConfig(4, spacing=0.2)
        # at 1000 Hz the half wavelength is ~0.17 m < 0.2 m spacing
        with pytest.raises(ValueError):
            synthesize_block([src], wide, 10, 5.0, [1000.0], seed=0)

    def test_wideband_block_set(self, linear_model):
        src = TrajectoryParams(linear_model, 10.0, (0.5,))
        freqs = [1400.0, 1600.0, 1800.0]
        arr = ArrayConfig.for_frequencies(10, freqs)
        blocks, truth = synthesize_block([src], arr, 20, 5.0, freqs, seed=1)
        assert [b.frequency for b in blocks] == freqs
        assert truth.amplitudes.shape == (1, 3, 20)
        lams = block_wavelengths(arr, blocks)
        assert lams[1] == pytest.approx(343.0 / 1600.0)
        # highest band sits exactly at half-wavelength spacing
        assert arr.spacing == pytest.approx(343.0 / 1800.0 / 2.0)

    def test_array_validation(self):
        with pytest.raises(ValueError):
            ArrayConfig(1)
        with pytest.raises(ValueError):
            ArrayConfig(4, spacing=0.0)

    def test_non_finite_block_rejected(self):
        data = np.zeros((4, 6), complex)
        data[2, 5] = complex(0.0, np.inf)
        data[3, 1] = np.nan
        with pytest.raises(ValueError, match="sensor 2, snapshot 5"):
            ObservationBlock(data, None)
