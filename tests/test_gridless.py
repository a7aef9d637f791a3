import warnings

import numpy as np
import pytest

from trajloc import (
    Bounds,
    ObservationBlock,
    TrajectoryModel,
    TrajectoryParams,
    build_grid,
    grid_point,
    min_grid_rmse,
    synthesize_block,
    tl_nomp,
    tl_sfw,
    trajectory_rmse,
)

LINEAR = TrajectoryModel.polynomial(1)


class TestTlSfw:
    def test_single_off_grid_source(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=0)
        estimates, trace = tl_sfw(blocks, linear_grid, array, 1)
        assert trajectory_rmse(src, estimates[0].params, 30) < 1e-3
        assert len(estimates[0].amplitudes) == 1
        assert estimates[0].amplitudes[0].shape == (30,)

    def test_multi_start_recovers_source(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, 15.0, seed=20)
        single, _ = tl_sfw(blocks, linear_grid, array, 1, n_starts=1)
        multi, _ = tl_sfw(blocks, linear_grid, array, 1, n_starts=3)
        assert trajectory_rmse(src, multi[0].params, 30) < 0.1
        # extra starts can only match or improve the coarse stage
        assert trajectory_rmse(src, multi[0].params, 30) <= (
            trajectory_rmse(src, single[0].params, 30) + 1e-9
        )

    def test_multi_start_on_zero_data(self, array, linear_grid):
        # a zero residual has a zero beam-power field, which holds no peaks
        block = ObservationBlock(np.zeros((10, 30), complex), None, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimates, trace = tl_sfw([block], linear_grid, array, 2, n_starts=3)
        assert len(estimates) == 2
        assert "coarse-peak-shortfall" in trace.flags

    def test_k_zero_returns_data_as_residual(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, 20.0, (1.5,))
        blocks, _ = synthesize_block([src], array, 30, 5.0, seed=1)
        estimates, trace = tl_sfw(blocks, linear_grid, array, 0)
        assert estimates == []
        np.testing.assert_array_equal(trace.final_residuals[0], blocks[0].data)

    def test_joint_fit_error_non_increasing_across_sources(self, array, linear_grid, four_sources):
        # each joint refine starts from the previous sources plus one, so
        # its fit error starts no higher than the previous one's end
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=2)
        _, trace = tl_sfw(blocks, linear_grid, array, 4)
        history = dict(trace.fit_history)
        assert list(history) == [f"joint[{k}]" for k in range(1, 5)]
        assert history["joint[1]"] <= 0.5 * np.sum(np.abs(blocks[0].data) ** 2)
        for k in range(2, 5):
            assert history[f"joint[{k}]"] <= history[f"joint[{k - 1}]"] + 1e-9

    def test_residual_norms_non_increasing(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 0.0, seed=3)
        _, trace = tl_sfw(blocks, linear_grid, array, 4)
        norms = trace.residual_norms
        assert len(norms) == 4
        assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_estimates_within_bounds_and_off_grid(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, 25.0, seed=4)
        bounds = Bounds.from_grid(linear_grid)
        estimates, _ = tl_sfw(blocks, linear_grid, array, 1, bounds)
        est = estimates[0].params
        assert bounds.contains(est.vector())
        on_grid = any(
            np.allclose(est.vector(), grid_point(linear_grid, i).vector())
            for i in range(linear_grid.size)
        )
        assert not on_grid
        floor, _ = min_grid_rmse(src, linear_grid, 30)
        assert trajectory_rmse(src, est, 30) < floor


class TestTlNomp:
    def test_on_grid_source_stays_put(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, -11.0, (3.5,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        estimates, _ = tl_nomp(blocks, linear_grid, array, 1)
        np.testing.assert_allclose(estimates[0].params.vector(), src.vector(), atol=1e-6)

    def test_single_off_grid_source(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, -51.6, (-4.27,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=6)
        estimates, _ = tl_nomp(blocks, linear_grid, array, 1)
        assert trajectory_rmse(src, estimates[0].params, 30) < 1e-3

    def test_cyclic_sweep_energy_non_increasing(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=7)
        _, trace = tl_nomp(blocks, linear_grid, array, 4)
        per_outer = {}
        for label, value in trace.fit_history:
            outer = label.split("[")[1].split(".")[0]
            per_outer.setdefault(outer, []).append(value)
        for values in per_outer.values():
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_final_residual_orthogonal_to_estimates(self, array, linear_grid, four_sources):
        from trajloc.model import trajectory_steering_matrix, wavelength_for

        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=8)
        estimates, trace = tl_nomp(blocks, linear_grid, array, 4)
        lam = wavelength_for(array, None)
        R = trace.final_residuals[0]
        A = np.stack(
            [trajectory_steering_matrix(e.params, array, 30, lam) for e in estimates]
        )
        ip = np.abs(np.einsum("inl,nl->il", np.conj(A), R))
        norms = np.linalg.norm(R, axis=0)
        assert np.all(ip <= 1e-9 * np.maximum(norms, 1e-30)[None, :] * np.sqrt(10))

    def test_estimates_within_bounds(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=9)
        bounds = Bounds.from_grid(linear_grid)
        estimates, _ = tl_nomp(blocks, linear_grid, array, 4, bounds)
        for e in estimates:
            assert bounds.contains(e.params.vector())


class TestWidebandDegeneracy:
    def test_f1_equals_narrowband_for_all_estimators(self):
        from trajloc import ArrayConfig, tl_cbf_spectrum, tl_omp, tl_sbl

        model = LINEAR
        grid = build_grid([("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)], model)
        sources = [TrajectoryParams(model, -11.0, (3.5,)), TrajectoryParams(model, 20.0, (1.5,))]

        narrow_arr = ArrayConfig(10)
        wide_arr = ArrayConfig.for_frequencies(10, [1600.0])
        nb, _ = synthesize_block(sources, narrow_arr, 30, 5.0, None, seed=11)
        wb, _ = synthesize_block(sources, wide_arr, 30, 5.0, [1600.0], seed=11)
        assert np.array_equal(nb[0].data, wb[0].data)

        s_nb = tl_cbf_spectrum(nb, grid, narrow_arr)
        s_wb = tl_cbf_spectrum(wb, grid, wide_arr)
        assert np.array_equal(s_nb.values, s_wb.values)

        for fn, kwargs in ((tl_omp, {}), (tl_sfw, {}), (tl_nomp, {})):
            e_nb = fn(nb, grid, narrow_arr, 2, **kwargs)[0]
            e_wb = fn(wb, grid, wide_arr, 2, **kwargs)[0]
            for a, b in zip(e_nb, e_wb):
                assert np.array_equal(a.params.vector(), b.params.vector())
                for xa, xb in zip(a.amplitudes, b.amplitudes):
                    assert np.array_equal(xa, xb)

        g_nb = tl_sbl(nb, grid, narrow_arr, 2, 10 ** (-0.5))[0]
        g_wb = tl_sbl(wb, grid, wide_arr, 2, 10 ** (-0.5))[0]
        assert np.array_equal(g_nb.values, g_wb.values)


def deterministic_crb(src, array, L, snr_db, h=1e-5):
    """(sigma^2 / 2) Re(J^H P_perp J)^-1 for one source with unit amplitudes,
    J from central differences of the steering matrix, P_perp projecting each
    snapshot away from its steering vector (the amplitude nuisance)."""
    from trajloc.model import trajectory_steering_matrix, wavelength_for

    lam = wavelength_for(array, None)
    u = src.vector()
    steer = lambda v: trajectory_steering_matrix(TrajectoryParams.from_vector(src.model, v), array, L, lam)
    a = steer(u)
    cols = []
    for c in range(len(u)):
        e = np.zeros(len(u))
        e[c] = h
        d = (steer(u + e) - steer(u - e)) / (2 * h)
        cols.append(d - a * (np.sum(np.conj(a) * d, axis=0) / array.n_sensors))
    J = np.stack([c.ravel() for c in cols], axis=1)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    return 0.5 * sigma2 * np.linalg.inv(np.real(np.conj(J.T) @ J))


class TestCramerRao:
    """Parameter MSE of the gridless estimators against the deterministic
    Cramer-Rao bound (Stoica & Nehorai, IEEE TASSP 1989), an oracle that
    shares no code with the optimizer."""

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    @pytest.mark.parametrize("estimator", [tl_sfw, tl_nomp])
    def test_mse_within_twice_crb(self, array, linear_grid, estimator, snr_db):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        errors = []
        for seed in range(40):
            blocks, _ = synthesize_block([src], array, 30, snr_db, seed=seed, unit_amplitudes=True)
            (est,), _ = estimator(blocks, linear_grid, array, 1)
            errors.append(est.params.vector() - src.vector())
        mse = np.mean(np.square(errors), axis=0)
        crb = np.diag(deterministic_crb(src, array, 30, snr_db))
        assert np.all(mse < 2.0 * crb), mse / crb
