import numpy as np
import pytest

from trajloc import (
    ArrayConfig,
    NumericsWarning,
    ObservationBlock,
    Spectrum,
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
    tl_sbl,
    tl_sfw,
    trajectory_rmse,
)
from trajloc.gridalgos import _scan_rows, grid_beam_power
from trajloc.grids import phase_table
from trajloc.model import trajectory_steering_matrix, wavelength_for
from trajloc.optim import _phase_scale

LINEAR = TrajectoryModel.polynomial(1)


def grid_index_of(grid, phi, alpha):
    for idx in range(grid.size):
        p = grid_point(grid, idx)
        if p.phi == phi and p.coeffs == (alpha,):
            return idx
    raise AssertionError("not a grid point")


def reference_beam_power(residuals, grid, array, wavelengths):
    """The whole-table Horner scan that grid_beam_power runs by row blocks."""
    L = residuals[0].shape[1]
    M = grid.size
    values = np.zeros(M)
    for R, lam in zip(residuals, wavelengths):
        E = np.conj(phase_table(grid, L, _phase_scale(array, lam)))
        N = R.shape[0]
        acc = np.broadcast_to(R[N - 1], (M, L)).copy()
        for n in range(N - 2, -1, -1):
            np.multiply(acc, E, out=acc)
            acc += R[n]
        values += (acc.real**2 + acc.imag**2).sum(axis=1)
    return values / L


def grid_of_size(M):
    """Grid of exactly M linear trajectories: M phi values, one slope."""
    grid = build_grid([("phi", -80.0, 160.0 / (M - 1), 80.0), ("alpha1", 2.0, 1.0, 2.0)], LINEAR)
    assert grid.size == M
    return grid


ROWS = _scan_rows(30)
WIDEBAND = (1400.0, 1600.0, 1800.0)


class TestGridBeamPower:
    @pytest.mark.parametrize(
        "M, N, freqs",
        [
            (ROWS // 3, 10, None),  # less than one block
            (2 * ROWS, 10, None),  # exact multiple of the block
            (2 * ROWS + 1, 10, None),  # one row into a partial block
            (1806, 10, WIDEBAND),  # distinct wavelengths
            (2 * ROWS + 1, 2, None),  # a single Horner step
        ],
    )
    def test_matches_whole_table_scan(self, M, N, freqs):
        grid = grid_of_size(M)
        array = ArrayConfig(N) if freqs is None else ArrayConfig.for_frequencies(N, freqs)
        wavelengths = tuple(wavelength_for(array, f) for f in freqs or (None,))
        rng = np.random.default_rng(M + N)
        residuals = [
            rng.standard_normal((N, 30)) + 1j * rng.standard_normal((N, 30))
            for _ in wavelengths
        ]
        before = [R.copy() for R in residuals]
        tables = [phase_table(grid, 30, _phase_scale(array, lam)) for lam in wavelengths]
        table_copies = [t.copy() for t in tables]

        values = grid_beam_power(residuals, grid, array, wavelengths)

        for R, R0 in zip(residuals, before):
            assert np.array_equal(R, R0)
        for lam, t, t0 in zip(wavelengths, tables, table_copies):
            assert phase_table(grid, 30, _phase_scale(array, lam)) is t
            assert np.array_equal(t, t0)
            assert not t.flags.writeable
        assert np.array_equal(values, reference_beam_power(residuals, grid, array, wavelengths))


class TestCbfSpectrum:
    def test_zero_data_gives_zero_spectrum(self, array, linear_grid):
        block = ObservationBlock(np.zeros((10, 30), complex), None, 30)
        spec = tl_cbf_spectrum([block], linear_grid, array)
        assert np.all(spec.values == 0.0)

    def test_on_grid_source_peak_value(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, -11.0, (3.5,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=0, unit_amplitudes=True)
        spec = tl_cbf_spectrum(blocks, linear_grid, array)
        idx = grid_index_of(linear_grid, -11.0, 3.5)
        # a^H a = N at the true point, so the power is N^2
        assert spec.values[idx] == pytest.approx(100.0, rel=1e-9)
        assert int(np.argmax(spec.values)) == idx

    def test_values_non_negative(self, array, linear_grid):
        rng = np.random.default_rng(2)
        block = ObservationBlock(
            rng.standard_normal((10, 30)) + 1j * rng.standard_normal((10, 30)), None, 30
        )
        spec = tl_cbf_spectrum([block], linear_grid, array)
        assert np.all(spec.values >= 0.0)

    def test_wideband_sums_per_frequency_spectra(self, linear_grid):
        src = TrajectoryParams(LINEAR, 10.0, (0.5,))
        freqs = [1400.0, 1600.0]
        arr = ArrayConfig.for_frequencies(10, freqs)
        blocks, _ = synthesize_block([src], arr, 30, 5.0, freqs, seed=3)
        both = tl_cbf_spectrum(blocks, linear_grid, arr)
        single = [tl_cbf_spectrum([b], linear_grid, arr) for b in blocks]
        np.testing.assert_allclose(
            both.values, single[0].values + single[1].values, rtol=1e-12
        )

    def test_rejects_mismatched_blocks(self, array, linear_grid):
        b1 = ObservationBlock(np.zeros((10, 30), complex), None, 30)
        b2 = ObservationBlock(np.zeros((10, 20), complex), None, 20)
        with pytest.raises(ValueError):
            tl_cbf_spectrum([b1, b2], linear_grid, array)


class TestFindPeaks:
    def synthetic_spectrum(self, grid, bumps):
        shape = grid.shape
        ii, jj = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
        field = np.zeros(shape)
        for (ci, cj, amp, width) in bumps:
            field += amp * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / width**2)
        return Spectrum(grid, field.reshape(-1))

    def test_single_interior_maximum(self, linear_grid):
        spec = self.synthetic_spectrum(linear_grid, [(40, 10, 1.0, 3.0)])
        peaks = find_peaks(spec, 5)
        assert len(peaks.entries) == 1
        assert peaks.shortfall
        assert peaks.entries[0][0].vector().tolist() == [-85.0 + 2 * 40, -5.0 + 0.5 * 10]

    def test_two_separated_bumps(self, linear_grid):
        spec = self.synthetic_spectrum(linear_grid, [(20, 5, 1.0, 2.0), (60, 15, 0.7, 2.0)])
        peaks = find_peaks(spec, 2)
        got = sorted(p.phi for p, _ in peaks.entries)
        assert got == [-85.0 + 2 * 20, -85.0 + 2 * 60]
        # strongest first
        assert peaks.entries[0][1] >= peaks.entries[1][1]

    def test_monotone_spectrum_single_corner(self, linear_grid):
        vals = np.arange(linear_grid.size, dtype=float)
        peaks = find_peaks(Spectrum(linear_grid, vals), 3)
        assert len(peaks.entries) == 1
        assert peaks.shortfall
        assert peaks.entries[0][0].vector().tolist() == [85.0, 5.0]

    def test_count_validation(self, linear_grid):
        with pytest.raises(ValueError):
            find_peaks(Spectrum(linear_grid, np.zeros(linear_grid.size)), 0)


class TestTlOmp:
    def test_single_source_exact_in_one_iteration(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, -11.0, (3.5,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=1)
        estimates, norms = tl_omp(blocks, linear_grid, array, 1)
        assert estimates[0].params.vector().tolist() == [-11.0, 3.5]
        assert norms[0] < 1e-9

    def test_two_sources_recovered(self, array, linear_grid):
        truth = [TrajectoryParams(LINEAR, -11.0, (3.5,)), TrajectoryParams(LINEAR, 61.0, (-2.25,))]
        blocks, _ = synthesize_block(truth, array, 30, None, seed=2)
        estimates, norms = tl_omp(blocks, linear_grid, array, 2)
        got = sorted(e.params.phi for e in estimates)
        assert got == [-11.0, 61.0]

    def test_residual_norms_non_increasing(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=3)
        _, norms = tl_omp(blocks, linear_grid, array, 4)
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_orthogonality_after_each_iteration(self, array, linear_grid):
        rng = np.random.default_rng(4)
        lam = wavelength_for(array, None)
        for trial in range(3):
            sources = [
                TrajectoryParams(LINEAR, p, (a,))
                for p, a in zip(rng.uniform(-70, 70, 3), rng.uniform(-4, 4, 3))
            ]
            blocks, _ = synthesize_block(sources, array, 30, 5.0, seed=100 + trial)
            for K in (1, 2, 3):
                estimates, _ = tl_omp(blocks, linear_grid, array, K)
                sel = [e.params for e in estimates]
                A = np.stack([trajectory_steering_matrix(t, array, 30, lam) for t in sel])
                from trajloc.optim import batched_snapshot_ls

                coeffs, _ = batched_snapshot_ls(A, blocks[0].data)
                R = blocks[0].data - np.einsum("inl,li->nl", A, coeffs)
                ip = np.abs(np.einsum("inl,nl->il", np.conj(A), R))
                norms = np.linalg.norm(R, axis=0)
                assert np.all(ip <= 1e-9 * np.maximum(norms, 1e-30)[None, :] * np.sqrt(10))

    def test_estimates_on_grid_never_beat_floor(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 10.0, seed=5)
        estimates, _ = tl_omp(blocks, linear_grid, array, 4)
        for true in four_sources:
            floor, _ = min_grid_rmse(true, linear_grid, 30)
            best = min(trajectory_rmse(true, e.params, 30) for e in estimates)
            assert best >= floor - 1e-12


class TestTlSbl:
    def test_first_iteration_positive(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=6)
        with pytest.warns(NumericsWarning):
            spec, _ = tl_sbl(blocks, linear_grid, array, 4, 10 ** (-0.5), max_iters=1)
        assert np.all(spec.values > 0.0)

    def test_strong_single_source_argmax(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, -11.0, (3.5,))
        idx = grid_index_of(linear_grid, -11.0, 3.5)
        for seed in range(10):
            blocks, truth = synthesize_block([src], array, 30, 30.0, seed=seed)
            spec, peaks = tl_sbl(blocks, linear_grid, array, 1, truth.noise_variance)
            assert int(np.argmax(spec.values)) == idx
            assert peaks.entries[0][0].vector().tolist() == [-11.0, 3.5]

    def test_gamma_non_negative(self, array, linear_grid, four_sources):
        import warnings

        blocks, truth = synthesize_block(four_sources, array, 30, 0.0, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            spec, _ = tl_sbl(blocks, linear_grid, array, 4, truth.noise_variance, max_iters=60)
        assert np.all(spec.values >= 0.0)

    def test_narrowband_only(self, linear_grid):
        freqs = [1400.0, 1600.0]
        arr = ArrayConfig.for_frequencies(10, freqs)
        src = TrajectoryParams(LINEAR, 10.0, (0.5,))
        blocks, _ = synthesize_block([src], arr, 30, 5.0, freqs, seed=8)
        with pytest.raises(ValueError):
            tl_sbl(blocks, linear_grid, arr, 1, 0.3)

    def test_noise_variance_validated(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=9)
        with pytest.raises(ValueError):
            tl_sbl(blocks, linear_grid, array, 4, 0.0)


ESTIMATORS = {
    "tl-cbf": lambda blocks, grid, array: tl_cbf_spectrum(blocks, grid, array),
    "tl-sbl": lambda blocks, grid, array: tl_sbl(blocks, grid, array, 1, 1.0),
    "tl-omp": lambda blocks, grid, array: tl_omp(blocks, grid, array, 1),
    "tl-sfw": lambda blocks, grid, array: tl_sfw(blocks, grid, array, 1),
    "tl-nomp": lambda blocks, grid, array: tl_nomp(blocks, grid, array, 1),
}


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_rejects_sensor_count_mismatch(name, linear_grid):
    blocks, _ = synthesize_block([], ArrayConfig(8), 30, 0.0, seed=0)
    with pytest.raises(ValueError, match="8 sensor rows but the array has 10 sensors"):
        ESTIMATORS[name](blocks, linear_grid, ArrayConfig(10))
