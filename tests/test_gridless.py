import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from trajloc import (
    ArrayConfig,
    Bounds,
    ObservationBlock,
    SourceEstimate,
    TrajectoryModel,
    TrajectoryParams,
    build_grid,
    find_peaks,
    grid_point,
    min_grid_rmse,
    synthesize_block,
    tl_cbf_spectrum,
    tl_nomp,
    tl_omp,
    tl_sfw,
    trajectory_rmse,
)
from trajloc import gridless
from trajloc.grids import grid_index
from trajloc.gridalgos import grid_beam_power
from trajloc.harness import builtin_experiment, materialize, run_scenario
from trajloc.model import block_wavelengths, doas, trajectory_in_bounds, wavelength_for
from trajloc.optim import amplitudes_ls, model_residuals, project_out, steering_stack
from conftest import source_order_pair

LINEAR = TrajectoryModel.polynomial(1)


def reference_coarse_start(residuals, grid, array, wavelengths, flags):
    """The full-grid start search that _coarse_start replaces: the argmax of
    a scan of every grid point."""
    values = grid_beam_power(residuals, grid, array, wavelengths)
    return grid_point(grid, int(np.argmax(values)))


def reference_rescan_start(values, grid):
    """The coarse-to-fine rule written with slices of a full-scan field: the
    local maxima of field[::2, ::2, ...], then the best full-field point over
    the 3^D blocks around them, the lowest index on a tie."""
    field = values.reshape(grid.shape)
    coarse = field[(slice(None, None, 2),) * field.ndim]
    neighborhood_max = ndimage.maximum_filter(coarse, size=3, mode="constant", cval=-np.inf)
    candidates = set()
    for c in np.argwhere((coarse == neighborhood_max) & (coarse > 0)):
        block = tuple(slice(max(2 * i - 1, 0), 2 * i + 2) for i in c)
        block_idx = np.arange(grid.size).reshape(grid.shape)[block]
        candidates.update(int(i) for i in block_idx.reshape(-1))
    return grid_point(grid, min(candidates, key=lambda i: (-values[i], i)))


def matched_rmse(want, got, L):
    """Largest trajectory RMSE between an estimate set and its closest
    counterparts in another set of the same size."""
    assert len(want) == len(got)
    return max(min(trajectory_rmse(w.params, g.params, L) for g in got) for w in want)


class TestTlSfw:
    def test_single_off_grid_source(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=0)
        estimates, trace = tl_sfw(blocks, linear_grid, array, 1)
        assert trajectory_rmse(src, estimates[0].params, 30) < 1e-3
        assert len(estimates[0].amplitudes) == 1
        assert estimates[0].amplitudes[0].shape == (30,)

    def test_residual_norm_matches_returned_estimates(self, array, linear_grid, four_sources):
        # the carried residual is the plain fit residual of the estimates
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=1)
        estimates, trace = tl_sfw(blocks, linear_grid, array, 4)
        W = [e.params for e in estimates]
        X = np.stack([e.amplitudes[0] for e in estimates])
        A = steering_stack(W, array, 30, (wavelength_for(array, None),))
        R = model_residuals(A, X[None], blocks[0].data[None])
        assert np.linalg.norm(R) == pytest.approx(trace.residual_norms[-1], rel=1e-12)

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
        estimates, _ = tl_sfw(blocks, linear_grid, array, 1)
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
        # the carried residual is the data projected away from the estimates
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=8)
        estimates, trace = tl_nomp(blocks, linear_grid, array, 4)
        (A,) = steering_stack([e.params for e in estimates], array, 30, (wavelength_for(array, None),))
        _, (R,), _ = project_out(A[None], blocks[0].data[None])
        assert np.linalg.norm(R) == pytest.approx(trace.residual_norms[-1], rel=1e-12)
        ip = np.abs(np.einsum("inl,nl->il", np.conj(A), R))
        norms = np.linalg.norm(R, axis=0)
        assert np.all(ip <= 1e-9 * np.maximum(norms, 1e-30)[None, :] * np.sqrt(10))

    def test_estimates_within_bounds(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=9)
        bounds = Bounds.from_grid(linear_grid)
        estimates, _ = tl_nomp(blocks, linear_grid, array, 4)
        for e in estimates:
            assert bounds.contains(e.params.vector())

    def test_trace_counts_gradient_fallbacks(self, monkeypatch):
        # seed 600 at 5 dB has one Newton step that falls back to the gradient
        cell = materialize(builtin_experiment("snr"), "snr_db", 5.0)
        blocks, truth = synthesize_block(
            cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, 600
        )
        used = []
        step = gridless.newton_step

        def recorded(*args):
            omega, newton = step(*args)
            used.append(newton)
            return omega, newton

        monkeypatch.setattr(gridless, "newton_step", recorded)
        _, trace = tl_nomp(blocks, cell.grid, cell.array, len(truth.sources))
        assert len(used) == trace.refinements
        assert trace.gradient_fallbacks == used.count(False) > 0

    def test_wideband_estimate_on_alpha_face_stops_before_cyclic_cap(self):
        # trial 0 places an estimate on the alpha1 face -5.5 of
        # Bounds.from_grid, where the plain Newton point lies beyond the face
        # and its clipped point lowers the objective: a step that does not
        # hold alpha1 there leaves gradient steps creeping to MAX_CYCLES
        cfg = replace(
            builtin_experiment("wideband"),
            sweep=("freq_count", (7.0,)),
            trials=1,
            base_seed=500,
            algorithms=("tl-nomp",),
        )
        report = run_scenario(cfg, fake_clock=True)
        assert report.rows and not any("cyclic-cap" in r.flags for r in report.rows)


@pytest.mark.parametrize("frequencies", [None, (1400.0, 1600.0, 1800.0)])
@pytest.mark.parametrize("estimator", [tl_omp, tl_sfw, tl_nomp])
def test_amplitudes_are_least_squares_fit_of_returned_trajectories(
    four_sources, linear_grid, estimator, frequencies
):
    array = ArrayConfig(10) if frequencies is None else ArrayConfig.for_frequencies(10, frequencies)
    blocks, _ = synthesize_block(four_sources, array, 30, 5.0, frequencies, seed=10)
    estimates, _ = estimator(blocks, linear_grid, array, 4)
    fit = amplitudes_ls([e.params for e in estimates], blocks, array)
    for i, e in enumerate(estimates):
        assert len(e.amplitudes) == len(blocks)
        assert all(np.array_equal(x, X_f[i]) for x, X_f in zip(e.amplitudes, fit))


class TestCoarseStarts:
    """The coarse-to-fine starts follow the rule as written with slices of a
    full scan, and they enter the same basins as the full-grid search they
    replace, so the refined estimates agree."""

    @pytest.mark.parametrize("case", ["snr", "wideband", "off-lattice"])
    def test_matches_slice_reference(self, case):
        if case == "wideband":
            cell, seed = materialize(builtin_experiment("wideband"), "freq_count", 7.0), 500
        else:
            cell, seed = materialize(builtin_experiment("snr"), "snr_db", 5.0), 600
        if case == "off-lattice":
            # noiseless, at odd indices on both axes: no lattice point holds it
            src = grid_point(cell.grid, grid_index(cell.grid, (41, 13)))
            blocks, _ = synthesize_block([src], cell.array, 30, None, seed=0, unit_amplitudes=True)
        else:
            blocks, _ = synthesize_block(
                cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, seed
            )
        args = ([b.data for b in blocks], cell.grid, cell.array, block_wavelengths(cell.array, blocks))
        start = gridless._coarse_start(*args, [])
        assert start == reference_rescan_start(grid_beam_power(*args), cell.grid)

    @pytest.mark.parametrize("estimator", [tl_sfw, tl_nomp])
    def test_zero_data_flags_coarse_peak_shortfall(self, array, linear_grid, estimator):
        # a zero residual has a zero beam-power field, which holds no peaks;
        # the start falls back to the first physical grid point
        block = ObservationBlock(np.zeros((10, 30), complex), None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimates, trace = estimator([block], linear_grid, array, 2)
        assert len(estimates) == 2
        assert "coarse-peak-shortfall" in trace.flags

    @pytest.mark.parametrize(
        "experiment, sweep, value, seeds",
        [("wideband", "freq_count", 7.0, (500, 501, 502)), ("snr", "snr_db", 5.0, (600, 601, 602, 603))],
    )
    @pytest.mark.parametrize("estimator", [tl_sfw, tl_nomp])
    def test_matches_full_scan_starts(self, monkeypatch, experiment, sweep, value, seeds, estimator):
        cell = materialize(builtin_experiment(experiment), sweep, value)
        assert cell.snr_db == 5.0
        for seed in seeds:
            blocks, truth = synthesize_block(
                cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, seed
            )
            args = (blocks, cell.grid, cell.array, len(truth.sources))
            got, _ = estimator(*args)
            with monkeypatch.context() as m:
                m.setattr(gridless, "_coarse_start", reference_coarse_start)
                want, _ = estimator(*args)
            assert matched_rmse(want, got, cell.snapshots) < 1e-4, seed


# the `linear_grid` fixture's grid; hypothesis tests take no function-scoped fixtures
SYMMETRIC_GRID = build_grid([("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)], LINEAR)


def _gridless_pairs(seed, transform):
    """(tl-sfw, tl-nomp) estimates of two separated off-grid linear sources at
    20 dB, from the data Y and from transform(Y)."""
    rng = np.random.default_rng(seed)
    sources = [
        TrajectoryParams(LINEAR, rng.uniform(*phis), (rng.uniform(-4, 4),))
        for phis in ((-70, -10), (10, 70))
    ]
    array = ArrayConfig(10)
    blocks, _ = synthesize_block(sources, array, 30, 20.0, seed=seed)
    Y = blocks[0].data
    return [
        [estimator([ObservationBlock(data, None)], SYMMETRIC_GRID, array, 2)[0]
         for data in (Y, transform(Y))]
        for estimator in (tl_sfw, tl_nomp)
    ]


def _assert_conjugate_mirrors(seed):
    # conj(a(theta)) = a(-theta): (phi, alpha) -> (-phi, -alpha). The coarse
    # lattice of the 86-point phi axis is not mirror-symmetric, so the
    # rescans and the continuous refine must absorb the asymmetry.
    for plain, conjugated in _gridless_pairs(seed, np.conj):
        mirrored = [
            SourceEstimate(TrajectoryParams.from_vector(LINEAR, -e.params.vector()), e.amplitudes)
            for e in plain
        ]
        assert matched_rmse(mirrored, conjugated, 30) < 1e-4


class TestGridlessProperties:
    # derandomized: a random draw that meets the end-fire case below would
    # make the suite fail at random; that case is pinned as its own test
    @given(seed=st.integers(0, 2**16), psi=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_global_phase_leaves_estimates_unchanged(self, seed, psi):
        for plain, rotated in _gridless_pairs(seed, lambda Y: Y * np.exp(1j * psi)):
            assert matched_rmse(plain, rotated, 30) < 1e-6

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_conjugate_data_mirrors_estimates(self, seed):
        _assert_conjugate_mirrors(seed)

    @given(seed=st.integers(0, 2**16), scale=st.sampled_from([1e-4, 1e4]))
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_scaled_data_leaves_estimates_unchanged(self, seed, scale):
        for plain, scaled in _gridless_pairs(seed, lambda Y: Y * scale):
            assert matched_rmse(plain, scaled, 30) < 1e-6

    @given(seed=st.integers(0, 2**16), order=st.permutations(range(3)))
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_permuted_sources_leave_estimates_unchanged(self, seed, order):
        _, datas = source_order_pair(seed, order)
        for estimator in (tl_sfw, tl_nomp):
            plain, permuted = [
                estimator([ObservationBlock(data, None)], SYMMETRIC_GRID, ArrayConfig(10), 3)[0]
                for data in datas
            ]
            assert matched_rmse(plain, permuted, 30) < 1e-6

    def test_conjugate_data_mirrors_estimates_near_end_fire(self):
        # both estimators press one trajectory against the 90-degree limit
        # here (see the next test); the estimates from Y and conj(Y), whose
        # coarse starts differ, still settle as mirror images
        _assert_conjugate_mirrors(62919)

    @pytest.mark.xfail(
        strict=True,
        reason="both estimators place one trajectory at (84.5, 5.5), against the 90-degree "
        "limit where the fit is flat, instead of at the source (-69.3, -1)",
    )
    def test_source_beside_end_fire_estimate_is_found(self):
        rng = np.random.default_rng(62919)
        missed = TrajectoryParams(LINEAR, rng.uniform(-70, -10), (rng.uniform(-4, 4),))
        for estimates, _ in _gridless_pairs(62919, np.conj):
            assert min(trajectory_rmse(missed, e.params, 30) for e in estimates) < 1.0


class TestPhysicalEstimates:
    @pytest.mark.parametrize("snr_db", [0.0, 5.0])
    @pytest.mark.parametrize("estimator", [tl_sfw, tl_nomp])
    def test_source_near_end_fire_gives_physical_estimates(self, array, linear_grid, estimator, snr_db):
        # (84, 5) reaches 89 degrees; noise pulls an unconstrained refine
        # past 90 degrees for several of these seeds
        src = TrajectoryParams(LINEAR, 84.0, (5.0,))
        for seed in range(20):
            blocks, _ = synthesize_block([src], array, 30, snr_db, seed=seed)
            (est,), _ = estimator(blocks, linear_grid, array, 1)
            assert trajectory_in_bounds(est.params, 30), seed


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

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=2, deadline=None, derandomize=True)
    def test_reversed_blocks_leave_estimates_unchanged(self, seed):
        # every frequency enters the estimators through a sum over blocks,
        # which reversing only reorders
        cell = materialize(builtin_experiment("wideband"), "freq_count", 3.0)
        blocks, _ = synthesize_block(
            cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, seed
        )
        K = len(cell.sources)
        runs = (blocks, blocks[::-1])
        peaks = [find_peaks(tl_cbf_spectrum(b, cell.grid, cell.array), K).params for b in runs]
        assert peaks[0] == peaks[1]
        plain, reversed_ = (tl_omp(b, cell.grid, cell.array, K)[0] for b in runs)
        for a, b in zip(plain, reversed_):
            assert a.params == b.params
            assert all(np.array_equal(x, y) for x, y in zip(a.amplitudes, b.amplitudes[::-1]))
        for estimator in (tl_sfw, tl_nomp):
            plain, reversed_ = (estimator(b, cell.grid, cell.array, K)[0] for b in runs)
            for a, b in zip(plain, reversed_):
                assert np.abs(doas(a.params, 30) - doas(b.params, 30)).max() <= 1e-6


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
