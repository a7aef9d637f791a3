import os
import re
import threading
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

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
from trajloc import gridalgos
from trajloc.gridalgos import (
    _BeamTable,
    _beam_argmax,
    _block_bounds,
    _coarse_start,
    _interpolated_power,
    _interval_maxima,
    _pruned_rows,
    _scan_rows,
    _tabulate,
    grid_beam_power,
    local_maxima,
)
from trajloc.harness import WIDEBAND_SETS, builtin_experiment, materialize, sweep_points
from trajloc.grids import coarse_lattice, coarse_shape, nonphysical_mask, phase_rows, phase_table
from trajloc.model import (
    block_wavelengths,
    trajectory_in_bounds,
    trajectory_steering_matrix,
    wavelength_for,
)
from trajloc.optim import _phase_scale
from conftest import source_order_pair

LINEAR = TrajectoryModel.polynomial(1)


def grid_index_of(grid, phi, alpha):
    for idx in range(grid.size):
        p = grid_point(grid, idx)
        if p.phi == phi and p.coeffs == (alpha,):
            return idx
    raise AssertionError("not a grid point")


def reference_beam_power(residuals, grid, array, wavelengths):
    """The whole-table Horner scan that grid_beam_power runs by row blocks,
    on the complex128 phasors of the whole grid."""
    L = residuals[0].shape[1]
    M = grid.size
    values = np.zeros(M)
    for R, lam in zip(residuals, wavelengths):
        E = np.conj(phase_rows(grid, L, _phase_scale(array, lam), slice(None)))
        N = R.shape[0]
        acc = np.broadcast_to(R[N - 1], (M, L)).copy()
        for n in range(N - 2, -1, -1):
            np.multiply(acc, E, out=acc)
            acc += R[n]
        values += (acc.real**2 + acc.imag**2).sum(axis=1)
    return values / L


def reference_sbl(blocks, grid, array, noise_variance, tol=1e-3, max_iters=500):
    """The dense TL-SBL iteration that tl_sbl runs on the lag structure and a
    shrinking set of grid points: forms S_l = sigma^2 I + A_l diag(gamma)
    A_l^H and S_l^{-1} A_l in full over every grid point. gamma starts at 0
    on the non-physical points and 1 elsewhere; after each update, a gamma
    below `SBL_PRUNE` times the largest is set to 0.
    Returns (gamma, iterations run, converged)."""
    N, L = blocks[0].data.shape
    lam = block_wavelengths(array, blocks)[0]
    M = grid.size
    E = phase_rows(grid, L, _phase_scale(array, lam), slice(None))
    A = np.empty((L, N, M), dtype=complex)
    A[:, 0, :] = 1.0
    for n in range(1, N):
        A[:, n, :] = A[:, n - 1, :] * E.T
    Ac = np.conj(A)
    Yl = blocks[0].data.T
    gamma = np.where(nonphysical_mask(grid, L), 0.0, 1.0)
    eye = np.eye(N)[None]
    for it in range(1, max_iters + 1):
        Sigma = noise_variance * eye + np.einsum("lnm,lkm->lnk", A * gamma[None, None, :], Ac)
        Cinv = np.linalg.inv(Sigma)
        Cy = np.einsum("lnk,lk->ln", Cinv, Yl)
        b = np.einsum("lnm,ln->lm", Ac, Cy)
        CA = np.einsum("lnk,lkm->lnm", Cinv, A)
        q = np.einsum("lnm,lnm->lm", Ac, CA).real
        num = (b.real**2 + b.imag**2).sum(axis=0)
        den = q.sum(axis=0)
        gamma_new = gamma * num / den
        rel = float(np.max(np.abs(gamma_new - gamma)) / max(np.max(gamma), 1e-300))
        gamma = np.where(gamma_new < gridalgos.SBL_PRUNE * np.max(gamma_new), 0.0, gamma_new)
        if rel < tol:
            return gamma, it, True
    return gamma, max_iters, False


def quiet_sbl(*args, max_iters=gridalgos.SBL_MAX_ITERS):
    """tl_sbl with `SBL_MAX_ITERS` patched to ``max_iters`` and its
    non-convergence warning recorded: (spectrum, peaks, warned). It patches
    with `mock.patch.object`, as hypothesis tests cannot take the
    function-scoped ``monkeypatch`` fixture."""
    with mock.patch.object(gridalgos, "SBL_MAX_ITERS", max_iters):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NumericsWarning)
            spec, peaks = tl_sbl(*args)
    return spec, peaks, any(issubclass(w.category, NumericsWarning) for w in caught)


def assert_settled(values, exact, shape):
    """`tl_cbf_spectrum`'s contract against the float64 scan's ``exact``
    values: the same local maxima, holding the exact values, and every value
    within 1e-5 of the largest."""
    maxima = local_maxima(exact, shape)
    assert np.array_equal(local_maxima(values, shape), maxima)
    assert np.array_equal(values[maxima], exact[maxima])
    assert np.max(np.abs(values - exact)) <= 1e-5 * np.max(exact)


def grid_of_size(M):
    """Grid of exactly M linear trajectories: M phi values, one slope."""
    grid = build_grid([("phi", -80.0, 160.0 / (M - 1), 80.0), ("alpha1", 2.0, 1.0, 2.0)], LINEAR)
    assert grid.size == M
    return grid


ROWS = _scan_rows(30)
TILE = 137  # a row count that does not divide ROWS
WIDEBAND = (1400.0, 1600.0, 1800.0)


def scan_inputs(M, N, freqs):
    """(grid, array, wavelengths, residuals) of a scan of M grid rows by N
    sensors, narrowband when ``freqs`` is None."""
    grid = grid_of_size(M)
    array = ArrayConfig(N) if freqs is None else ArrayConfig.for_frequencies(N, freqs)
    wavelengths = tuple(wavelength_for(array, f) for f in freqs or (None,))
    rng = np.random.default_rng(M + N)
    residuals = [rng.standard_normal((N, 30)) + 1j * rng.standard_normal((N, 30)) for _ in wavelengths]
    return grid, array, wavelengths, residuals


class TestGridBeamPower:
    @pytest.mark.parametrize(
        "M, N, freqs",
        [
            (ROWS // 3, 10, None),  # less than one block
            (2 * ROWS, 10, None),  # exact multiple of the block
            (2 * ROWS + 1, 10, None),  # one row into a partial block
            (1806, 10, WIDEBAND),  # distinct wavelengths
            (2 * ROWS + 1, 2, None),  # a single Horner step
            (2 * ROWS + TILE + 1, 3, WIDEBAND),  # two Horner steps
            (TILE - 1, 10, None),  # a short single block
            (3 * TILE + 5, 10, WIDEBAND),
            (ROWS + TILE + 1, 10, None),  # a short second block
            (2 * ROWS + TILE // 2, 10, WIDEBAND),  # a last block of 68 rows
        ],
    )
    def test_matches_whole_table_scan(self, M, N, freqs):
        grid, array, wavelengths, residuals = scan_inputs(M, N, freqs)
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

    @pytest.mark.parametrize(
        "N, pick",
        [
            (10, lambda M: 2 * np.arange(ROWS + TILE // 2)),  # a last block of 68 rows
            (2, lambda M: np.arange(0, M, 3)),
            (3, lambda M: np.arange(0, M, 3)),
        ],
    )
    def test_sub_scan_matches_whole_table_scan(self, N, pick):
        grid, array, wavelengths, residuals = scan_inputs(3 * ROWS, N, WIDEBAND)
        rows = pick(3 * ROWS)
        values = grid_beam_power(residuals, grid, array, wavelengths, rows=rows)
        assert np.array_equal(values, reference_beam_power(residuals, grid, array, wavelengths)[rows])

    def test_full_scan_copies_no_table(self):
        """The interpolated full scan of a wideband F = 7 block, positions
        cached: its table holds T L 32 bytes of coefficients (0.5 MB) and a
        scratch of at most (2 F + 1) (T + 3) L 8 bytes (1.9 MB), where its
        blocks run, and its results are the values and bounds of M rows.
        Gathering every row's coefficients at once would take M L 32 bytes,
        16.8 MB here."""
        M = 16 * ROWS
        grid = grid_of_size(M)
        freqs = WIDEBAND_SETS[7]
        array = ArrayConfig.for_frequencies(10, freqs)
        lams = tuple(wavelength_for(array, f) for f in freqs)
        residuals = random_residuals(M, 7)
        _interpolated_power(_tabulate(residuals, grid, array, lams))  # positions and mask are cached
        tracemalloc.start()
        try:
            _interpolated_power(_tabulate(residuals, grid, array, lams))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        T = gridalgos._INTERVALS
        table = T * 30 * 32 + 15 * (T + 3) * 30 * 8
        assert peak < table + 2 * M * 8 + (1 << 18)
        assert peak < M * 30 * 32 / 6

    def test_float64_scan_holds_a_few_blocks(self):
        """A full float64 scan of a wideband F = 7 block, its DOA table and
        mask cached: each block builds its own phasor rows, so the scan
        holds a few blocks besides its M values. Phasor tables of the whole
        grid would take M L 16 bytes per frequency, 58.7 MB for all seven."""
        M = 16 * ROWS
        grid = grid_of_size(M)
        freqs = WIDEBAND_SETS[7]
        array = ArrayConfig.for_frequencies(10, freqs)
        lams = tuple(wavelength_for(array, f) for f in freqs)
        residuals = random_residuals(M, 7)
        grid_beam_power(residuals, grid, array, lams)  # the DOA table and mask are cached
        tracemalloc.start()
        try:
            grid_beam_power(residuals, grid, array, lams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * gridalgos._SCAN_BLOCK_BYTES + 16 * M

    @pytest.mark.parametrize(
        "M, pick",
        [
            (3 * ROWS, lambda M: np.arange(0, M, 2)),  # longer than a block, crosses it
            (3 * ROWS, lambda M: np.array([M - 2])),  # a single row
            (1806, lambda M: np.arange(M)),  # every row
        ],
    )
    def test_sub_scan_matches_full_scan(self, M, pick):
        grid = grid_of_size(M)
        array = ArrayConfig.for_frequencies(10, WIDEBAND)
        wavelengths = tuple(wavelength_for(array, f) for f in WIDEBAND)
        rng = np.random.default_rng(M)
        residuals = [rng.standard_normal((10, 30)) + 1j * rng.standard_normal((10, 30)) for _ in WIDEBAND]
        idx = pick(M)
        full = grid_beam_power(residuals, grid, array, wavelengths)
        assert np.array_equal(grid_beam_power(residuals, grid, array, wavelengths, rows=idx), full[idx])

    def test_sub_scan_of_masked_rows(self, array, linear_grid):
        # the coarse lattice holds the masked (-85, -5) corner, index 0
        rng = np.random.default_rng(5)
        residuals = [rng.standard_normal((10, 30)) + 1j * rng.standard_normal((10, 30))]
        lams = (wavelength_for(array, None),)
        idx = coarse_lattice(linear_grid)
        full = grid_beam_power(residuals, linear_grid, array, lams)
        sub = grid_beam_power(residuals, linear_grid, array, lams, rows=idx)
        assert idx[0] == 0 and sub[0] == 0.0
        assert np.array_equal(sub, full[idx])

    @pytest.mark.parametrize(
        "rows", [[3, 1], [2, 2], [-1, 4], [0, 1806], [[0, 1]], [0.0, 1.0]]
    )
    def test_rejects_bad_rows(self, array, linear_grid, rows):
        residuals = [np.ones((10, 30), complex)]
        with pytest.raises(ValueError, match="rows must be"):
            grid_beam_power(residuals, linear_grid, array, (wavelength_for(array, None),), rows=np.array(rows))

    def test_nonphysical_corner_is_never_a_peak(self, array, linear_grid):
        # noiseless data from the (85, 5) corner, whose DOA reaches 90 degrees
        corner = linear_grid.size - 1
        lam = wavelength_for(array, None)
        Y = trajectory_steering_matrix(grid_point(linear_grid, corner), array, 30, lam)
        blocks = [ObservationBlock(Y, None)]
        unmasked = reference_beam_power([Y], linear_grid, array, (lam,))
        assert int(np.argmax(unmasked)) == corner
        mask = nonphysical_mask(linear_grid, 30)
        spec = tl_cbf_spectrum(blocks, linear_grid, array)
        assert_settled(spec.values, np.where(mask, 0.0, unmasked), linear_grid.shape)
        assert np.all(spec.values[mask] == 0.0)
        physical = lambda p: trajectory_in_bounds(p, 30)
        peaks = find_peaks(spec, 3)
        assert peaks.entries and all(physical(p) for p in peaks.params)
        (omp,), _ = tl_omp(blocks, linear_grid, array, 1)
        assert physical(omp.params)
        assert peaks.params[0] == omp.params == grid_point(linear_grid, corner - 1)


def random_residuals(seed, count):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((10, 30)) + 1j * rng.standard_normal((10, 30)) for _ in range(count)]


class TestParallelScan:
    """grid_beam_power with the process's CPU set patched to 1, 2 and 3 CPUs:
    the scan runs in the calling thread, with the same values."""

    @pytest.fixture(params=[1, 2, 3])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    @pytest.mark.parametrize(
        "M, pick",
        [
            (2 * ROWS + 1, None),  # full scans
            (3 * ROWS + 2, None),
            (4 * ROWS + 1, None),
            (5 * ROWS + 3, lambda M: np.arange(1, M, 2)),  # 2.5 blocks of rows
            (4 * ROWS, lambda M: np.flatnonzero(np.arange(M) % 7)),  # 3.4 blocks
        ],
    )
    def test_matches_whole_table_scan(self, cpus, monkeypatch, M, pick):
        grid = grid_of_size(M)
        array = ArrayConfig.for_frequencies(10, WIDEBAND)
        wavelengths = tuple(wavelength_for(array, f) for f in WIDEBAND)
        residuals = random_residuals(M, len(WIDEBAND))
        rows = None if pick is None else pick(M)
        idx = np.arange(M) if rows is None else rows

        def no_thread(self):
            raise AssertionError("a scan started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        values = grid_beam_power(residuals, grid, array, wavelengths, rows=rows)
        assert np.array_equal(values, reference_beam_power(residuals, grid, array, wavelengths)[idx])

    def test_no_thread_outlives_a_scan(self, cpus):
        grid = grid_of_size(3 * ROWS)
        array = ArrayConfig(10)
        lams = (wavelength_for(array, None),)
        before = threading.active_count()
        grid_beam_power(random_residuals(0, 1), grid, array, lams)
        grid_beam_power(random_residuals(1, 1), grid, array, lams, rows=np.arange(0, 3 * ROWS, 3))
        assert threading.active_count() == before


# the `linear_grid` fixture's grid, masked corners included; hypothesis tests
# take no function-scoped fixtures
SYMMETRIC_GRID = build_grid([("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)], LINEAR)


def scan_kind(grid, rows):
    """Which certified scan an `_interpolated_power` call serves: the full
    grid, the coarse lattice or a set of rows."""
    if rows is None:
        return "full"
    return "lattice" if np.array_equal(rows, coarse_lattice(grid)) else "rows"


ALL_SCAN_KINDS = {"full", "lattice", "rows"}


def exact_scans(monkeypatch):
    """Make every interpolated scan return the float64 values with a zero
    bound, so the estimators decide as from float64 scans alone. Returns
    the set of `scan_kind`s served, filled as the scans run."""
    served = set()

    def exact(table, rows=None):
        served.add(scan_kind(table.grid, rows))
        values = grid_beam_power(table.residuals, table.grid, table.array, table.wavelengths, rows=rows)
        return values, np.zeros_like(values)

    monkeypatch.setattr(gridalgos, "_interpolated_power", exact)
    return served


def ends_or_inside(rng, n):
    """n factors in [-1, 1]: half of them -1 or 1, the rest uniform."""
    return np.where(rng.random(n) < 0.5, rng.choice([-1.0, 1.0], n), rng.uniform(-1.0, 1.0, n))


def adversarial_scans(monkeypatch):
    """Move every interpolated value to the end of its bound that hurts:
    the float64 winners (the local maxima, or the argmax of a set of rows
    that is no lattice) down, every other row up. Returns the set of
    `scan_kind`s served, filled as the scans run."""
    real = gridalgos._interpolated_power
    served = set()

    def adversarial(table, rows=None):
        grid = table.grid
        kind = scan_kind(grid, rows)
        served.add(kind)
        _, bound = real(table, rows=rows)
        exact = table.rescan(np.arange(grid.size) if rows is None else rows)
        if kind == "full":
            down = local_maxima(exact, grid.shape)
        elif kind == "lattice":
            down = local_maxima(exact, coarse_shape(grid))
        else:
            down = [np.argmax(exact)]
        pushed = exact + bound
        pushed[down] = exact[down] - bound[down]
        return np.maximum(pushed, 0.0), bound

    monkeypatch.setattr(gridalgos, "_interpolated_power", adversarial)
    return served


def decisions(blocks, grid, array, K):
    """What the interpolated scans decide: tl-omp's estimates, tl-cbf's
    K + 2 peaks with their values, and the first coarse start."""
    lams = block_wavelengths(array, blocks)
    omp = [e.params for e in tl_omp(blocks, grid, array, K)[0]]
    peaks = find_peaks(tl_cbf_spectrum(blocks, grid, array), K + 2).entries
    start = _coarse_start([b.data for b in blocks], grid, array, lams, [])
    return omp, peaks, start


def cert_inputs(N, F, seed, noise, power, phis=(-80, 80), alphas=(-4, 4)):
    """(array, wavelengths, residuals) of a scan on `SYMMETRIC_GRID`: a random
    source, phi and alpha uniform in ``phis`` and ``alphas``, plus complex
    Gaussian noise of std ``noise`` per sensor row and frequency, scaled by
    2^power."""
    freqs = None if F == 1 else WIDEBAND_SETS[F]
    array = ArrayConfig(N) if freqs is None else ArrayConfig.for_frequencies(N, freqs)
    lams = tuple(wavelength_for(array, f) for f in freqs or (None,))
    rng = np.random.default_rng(seed)
    src = TrajectoryParams(LINEAR, rng.uniform(*phis), (rng.uniform(*alphas),))
    residuals = []
    for lam in lams:
        R = trajectory_steering_matrix(src, array, 30, lam) * np.exp(2j * np.pi * rng.random(30))
        R = R + noise * (rng.standard_normal((N, 30)) + 1j * rng.standard_normal((N, 30)))
        residuals.append(np.ldexp(R.real, power) + 1j * np.ldexp(R.imag, power))
    return array, lams, residuals


def interpolated(residuals, grid, array, wavelengths, rows=None):
    """`_interpolated_power` of one tabulation of the residuals."""
    return _interpolated_power(_tabulate(residuals, grid, array, wavelengths), rows=rows)


class TestCertifiedScan:
    """The interpolated scan's bound (`_tabulate`, `_interpolated_power`),
    and the decisions made from it."""

    @given(
        N=st.sampled_from([2, 3, 10]),
        F=st.sampled_from([1, 7]),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.01, 1.0, 100.0]),
        power=st.integers(-130, 130),
        span=st.one_of(st.none(), st.tuples(st.integers(0, SYMMETRIC_GRID.size - 1), st.integers(1, SYMMETRIC_GRID.size))),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_bound_holds_on_every_row(self, N, F, seed, noise, power, span):
        # span: a sub-scan from one row to another
        array, lams, residuals = cert_inputs(N, F, seed, noise, power)
        rows = None if span is None else np.arange(min(span), max(max(span), min(span) + 1))
        values, bound = interpolated(residuals, SYMMETRIC_GRID, array, lams, rows=rows)
        field = grid_beam_power(residuals, SYMMETRIC_GRID, array, lams)
        exact = field if rows is None else field[rows]
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(bound))
        assert np.all(np.abs(values - exact) <= bound)
        # not vacuous: far below the field's peak, which the decisions turn on
        assert np.max(bound) <= 5e-6 * np.max(field)
        mask = nonphysical_mask(SYMMETRIC_GRID, 30)
        masked = mask if rows is None else mask[rows]
        assert np.all(values[masked] == 0.0) and np.all(bound[masked] == 0.0)

    def test_zero_residual_is_exact(self, array):
        values, bound = interpolated([np.zeros((10, 30), complex)], SYMMETRIC_GRID, array, (wavelength_for(array, None),))
        assert np.all(values == 0.0) and np.all(bound == 0.0)

    @pytest.mark.parametrize("F", [1, 7])
    def test_zero_snapshot_is_exact(self, F):
        """A snapshot that is zero at every frequency adds exactly 0 to
        every row, with bound 0: its cubics are 0, and the rows equal those
        of the other snapshots alone."""
        array, lams, residuals = cert_inputs(10, F, 3, 1.0, 0)
        for R in residuals:
            R[:, 4] = 0.0
        table = _tabulate(residuals, SYMMETRIC_GRID, array, lams)
        assert table.snapshot_bounds[4] == 0.0 and np.all(table.snapshot_bounds[np.arange(30) != 4] > 0)
        assert np.all(table.coeffs[4::30] == 0.0)
        assert table.bound == pytest.approx(table.snapshot_bounds.sum() / 30, rel=1e-12)
        values, bound = _interpolated_power(table)
        exact = grid_beam_power(residuals, SYMMETRIC_GRID, array, lams)
        assert np.all(np.abs(values - exact) <= bound)

    def test_one_tabulation_per_residual_set(self, monkeypatch, four_sources):
        """tl-cbf and each coarse start tabulate their residual once, tl-omp
        once per source; the lattice scan, the neighborhood argmax, tl-omp's
        probe of its blocks of largest bound and its scan of the blocks kept,
        and every rescan reuse that table."""
        freqs = WIDEBAND
        array = ArrayConfig.for_frequencies(10, freqs)
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, freqs, seed=603)
        lams = block_wavelengths(array, blocks)
        made = []
        real = gridalgos._tabulate

        def counting(residuals, *args):
            table = real(residuals, *args)
            made.append(table)
            return table

        scans = []
        real_scan = gridalgos._interpolated_power

        def recording(table, rows=None):
            scans.append(table)
            return real_scan(table, rows=rows)

        monkeypatch.setattr(gridalgos, "_tabulate", counting)
        monkeypatch.setattr(gridalgos, "_interpolated_power", recording)
        _coarse_start([b.data for b in blocks], SYMMETRIC_GRID, array, lams, [])
        assert len(made) == 1 and scans == [made[0]] * 2
        made.clear(), scans.clear()
        tl_omp(blocks, SYMMETRIC_GRID, array, 3)
        assert len(made) == 3 and scans == [t for t in made for _ in range(2)]
        made.clear(), scans.clear()
        tl_cbf_spectrum(blocks, SYMMETRIC_GRID, array)
        assert len(made) == 1 and scans == made
        made.clear()
        tl_sfw(blocks, SYMMETRIC_GRID, array, 2)
        assert len(made) == 2  # one coarse start per source

    @pytest.mark.parametrize("freqs", [None, WIDEBAND])
    def test_adversarial_values_keep_decisions(self, monkeypatch, four_sources, freqs):
        array = ArrayConfig(10) if freqs is None else ArrayConfig.for_frequencies(10, freqs)
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, freqs, seed=601)
        pushed = adversarial_scans(monkeypatch)
        got = decisions(blocks, SYMMETRIC_GRID, array, 4)
        exact = exact_scans(monkeypatch)
        assert got == decisions(blocks, SYMMETRIC_GRID, array, 4)
        assert pushed == exact == ALL_SCAN_KINDS

    @pytest.mark.parametrize("excess", [0.0, 2e-7, -2e-7])
    def test_near_tie_of_equal_power_sources(self, monkeypatch, array, excess):
        """Two sources at mirror points, the second of amplitude 1 + excess.
        At excess 0 the data are real, so the beam powers of mirror points
        tie exactly; otherwise they differ by less than the interpolated
        scan can resolve. The rescore keeps the float64 choice and order."""
        pair = [TrajectoryParams(LINEAR, -41.0, (1.5,)), TrajectoryParams(LINEAR, 41.0, (-1.5,))]
        lam = wavelength_for(array, None)
        a, b = (trajectory_steering_matrix(p, array, 30, lam) for p in pair)
        Y = a + (1.0 + excess) * b
        exact = grid_beam_power([Y], SYMMETRIC_GRID, array, (lam,))
        i = int(np.argmax(exact))
        j = SYMMETRIC_GRID.size - 1 - i  # the mirror point (-phi, -alpha)
        assert (exact[i] == exact[j]) == (excess == 0.0)
        assert exact[j] == pytest.approx(exact[i], rel=1e-6)
        table = _tabulate([Y], SYMMETRIC_GRID, array, (lam,))
        values, bound = _interpolated_power(table)
        assert abs(values[i] - values[j]) <= bound[i] + bound[j]
        assert _beam_argmax(table) == i
        blocks = [ObservationBlock(Y, None)]
        got = decisions(blocks, SYMMETRIC_GRID, array, 2)
        assert [p for p, _ in got[1][:2]] == [grid_point(SYMMETRIC_GRID, i), grid_point(SYMMETRIC_GRID, j)]
        assert [v for _, v in got[1][:2]] == [exact[i], exact[j]]
        pushed = adversarial_scans(monkeypatch)
        assert decisions(blocks, SYMMETRIC_GRID, array, 2) == got
        exact = exact_scans(monkeypatch)
        assert decisions(blocks, SYMMETRIC_GRID, array, 2) == got
        assert pushed == exact == ALL_SCAN_KINDS

    @given(
        seed=st.integers(0, 2**16),
        shape=st.sampled_from([(9, 7), (5, 4, 3), (12,)]),
        ranked=st.booleans(),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_settled_maxima_are_the_exact_fields(self, seed, shape, ranked):
        """A small-integer field full of ties and zero plateaus, seen within
        bounds of 0, 1/2, 1 or 2, at the ends of the bounds or inside."""
        rng = np.random.default_rng(seed)
        exact = rng.integers(0, 4, shape).astype(float).reshape(-1)
        bound = rng.choice([0.0, 0.5, 1.0, 2.0], exact.size)
        values = exact + bound * ends_or_inside(rng, exact.size)
        rescanned = []

        def rescan(idx):
            rescanned.append(idx)
            return exact[idx]

        table = mock.Mock(spec=_BeamTable, rescan=rescan)
        maxima = gridalgos._settle_local_maxima(values, bound, shape, table, None, ranked)
        assert np.array_equal(maxima, local_maxima(exact, shape))
        assert np.array_equal(local_maxima(values, shape), maxima)
        if ranked:
            assert np.array_equal(values[maxima], exact[maxima])
        assert all(np.all(bound[idx] > 0) for idx in rescanned)
        assert np.all(np.abs(values - exact) <= bound)

    @given(seed=st.integers(0, 2**16), sub=st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_argmax_is_the_exact_fields(self, seed, sub):
        """The same kind of field on `SYMMETRIC_GRID`, many of its points in
        contention: the choice, lowest index on a tie, is the exact field's.
        The table holds no coefficients, so over the full grid every block
        bound is +inf and no block is pruned."""
        rng = np.random.default_rng(seed)
        exact = rng.integers(0, 4, SYMMETRIC_GRID.size).astype(float)
        bound = rng.choice([0.0, 0.5, 1.0, 2.0], exact.size)
        values = exact + bound * ends_or_inside(rng, exact.size)
        rows = np.flatnonzero(rng.random(exact.size) < 0.1) if sub else None
        table = _BeamTable(None, SYMMETRIC_GRID, None, None, None, None, 1.0, None)

        def interpolated(table, rows=None):
            picked = slice(None) if rows is None else rows
            return values[picked].copy(), bound[picked]

        unbounded = np.full(SYMMETRIC_GRID.size // SYMMETRIC_GRID.shape[-1], np.inf)
        with mock.patch.object(gridalgos, "_interpolated_power", interpolated):
            with mock.patch.object(gridalgos, "grid_beam_power", lambda *a, rows: exact[rows]):
                with mock.patch.object(gridalgos, "_block_bounds", lambda table: unbounded):
                    got = _beam_argmax(table, rows)
        assert got == (int(np.argmax(exact)) if rows is None else int(rows[np.argmax(exact[rows])]))

    @pytest.mark.parametrize("power", [120, -120])
    def test_extreme_scales_decide_as_float64(self, monkeypatch, four_sources, power):
        """Data scaled by 2^+-120, whose squares leave the range of float32:
        the decisions are those of the float64 scans, and of the unscaled
        data."""
        freqs = WIDEBAND
        array = ArrayConfig.for_frequencies(10, freqs)
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, freqs, seed=602)
        scaled = [ObservationBlock(np.ldexp(b.data.real, power) + 1j * np.ldexp(b.data.imag, power), b.frequency) for b in blocks]
        lams = block_wavelengths(array, scaled)
        values, bound = interpolated([b.data for b in scaled], SYMMETRIC_GRID, array, lams)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(bound)) and np.max(values) > 0
        omp, peaks, start = decisions(scaled, SYMMETRIC_GRID, array, 4)
        plain = decisions(blocks, SYMMETRIC_GRID, array, 4)
        assert (omp, [p for p, _ in peaks], start) == (plain[0], [p for p, _ in plain[1]], plain[2])
        exact = exact_scans(monkeypatch)
        assert (omp, peaks, start) == decisions(scaled, SYMMETRIC_GRID, array, 4)
        assert exact == ALL_SCAN_KINDS


# a grid of one axis, so of one block
ONE_AXIS_GRID = build_grid([("phi", -89.5, 0.25, 89.5)], TrajectoryModel.polynomial(0))
# its blocks at phi = 90 and 95 hold masked rows only
PART_MASKED_GRID = build_grid([("phi", 80, 5, 95), ("alpha1", -1, 0.5, 1)], LINEAR)


def pruning_inputs(N, F, seed, noise, power, field):
    """`cert_inputs` for the block bound, by ``field``: a source anywhere
    ("source"); a source near end-fire, where block ranges are widest
    ("end-fire"); a source and noise on the first sensor row alone, a field
    flat in x, on which the block bound is tight ("flat"); or all zero
    ("zero")."""
    phis = (84, 89) if seed % 2 else (-89, -84)
    where = dict(phis=phis, alphas=(-1, 1)) if field == "end-fire" else {}
    array, lams, residuals = cert_inputs(N, F, seed, noise, power, **where)
    for R in residuals:
        if field == "flat":
            R[1:] = 0.0
        if field == "zero":
            R[:] = 0.0
    return array, lams, residuals


def block_max(values, grid):
    """The largest of ``values`` over each grid block (`grids.block_ranges`)."""
    return values.reshape(-1, grid.shape[-1]).max(axis=1)


def horner(coeffs, t):
    """The interval cubics at t, evaluated as `_interpolated_power` does."""
    a = coeffs[:, 3] * t
    a += coeffs[:, 2]
    a *= t
    a += coeffs[:, 1]
    a *= t
    a += coeffs[:, 0]
    return a


class TestBlockPruning:
    """The block bound of the full-grid argmax (`_block_bounds`,
    `_interval_maxima`) and the pruning it decides (`_pruned_rows`)."""

    @given(
        N=st.sampled_from([2, 3, 10]),
        F=st.sampled_from([1, 7]),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.01, 1.0, 100.0]),
        power=st.integers(-130, 130),
        field=st.sampled_from(["source", "end-fire", "flat", "zero"]),
        grid=st.sampled_from([SYMMETRIC_GRID, ONE_AXIS_GRID, PART_MASKED_GRID]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bound_holds_on_every_block(self, N, F, seed, noise, power, field, grid):
        """Each block's bound is at least the float64 value and the
        interpolated value plus its bound of each of its rows, 0 on a block
        of masked rows; the pruned argmax is that of every row."""
        array, lams, residuals = pruning_inputs(N, F, seed, noise, power, field)
        table = _tabulate(residuals, grid, array, lams)
        bounds = _block_bounds(table)
        exact = grid_beam_power(residuals, grid, array, lams)
        values, bound = _interpolated_power(table)
        assert np.all(np.isfinite(bounds))
        assert np.all(bounds >= block_max(exact, grid))
        assert np.all(bounds >= block_max(values + bound, grid))
        dead = nonphysical_mask(grid, 30).reshape(bounds.size, -1).all(axis=1)
        assert np.all(bounds[dead] == 0.0)
        assert _beam_argmax(table) == _beam_argmax(table, np.arange(grid.size))

    @given(
        N=st.sampled_from([2, 3, 10]),
        F=st.sampled_from([1, 7]),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.01, 1.0, 100.0]),
        power=st.integers(-130, 130),
        field=st.sampled_from(["source", "end-fire", "flat"]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_interval_maxima_bound_the_cubics(self, N, F, seed, noise, power, field):
        """Each interval maximum is at least its cubic as the interpolated
        scan evaluates it, at both ends of the interval and between."""
        array, lams, residuals = pruning_inputs(N, F, seed, noise, power, field)
        coeffs = _tabulate(residuals, SYMMETRIC_GRID, array, lams).coeffs
        maxima = np.empty(coeffs.shape[0])
        _interval_maxima(coeffs, 30, maxima, np.empty(2 * coeffs.shape[0]))
        between = np.random.default_rng(seed).random(6).astype(np.float32)
        for t in [0.0, 1.0, *between.astype(float)]:
            assert np.all(maxima >= horner(coeffs, t))

    def test_zero_residual_keeps_every_block(self, array):
        """A zero field has bounds 0 and lower bound 0, so every block is
        kept, and the argmax is the lowest physical row."""
        table = _tabulate([np.zeros((10, 30), complex)], SYMMETRIC_GRID, array, (wavelength_for(array, None),))
        assert np.all(_block_bounds(table) == 0.0)
        assert np.array_equal(_pruned_rows(table), np.arange(SYMMETRIC_GRID.size))
        mask = nonphysical_mask(SYMMETRIC_GRID, 30)
        assert mask[0] and _beam_argmax(table) == int(np.argmin(mask))

    def test_full_grid_argmax_interpolates_few_rows(self, monkeypatch):
        """On the `wideband` F = 7 grid (M = 37926), each of tl-omp's
        full-grid argmaxes interpolates fewer than a tenth of the grid's
        rows, its probe included: a fallback to full scans fails here."""
        config = builtin_experiment("wideband")
        cell = materialize(config, sweep_points(config)[0], 7.0)
        blocks, _ = synthesize_block(list(cell.sources), cell.array, cell.snapshots, cell.snr_db, cell.frequencies, seed=501)
        scanned = Counter()
        real = gridalgos._interpolated_power

        def counting(table, rows=None):
            scanned[table] += table.grid.size if rows is None else len(rows)
            return real(table, rows=rows)

        monkeypatch.setattr(gridalgos, "_interpolated_power", counting)
        tl_omp(blocks, cell.grid, cell.array, len(cell.sources))
        assert len(scanned) == len(cell.sources) == 4
        assert all(n < 0.1 * cell.grid.size for n in scanned.values()), sorted(scanned.values())


class TestCbfSpectrum:
    def test_zero_data_gives_zero_spectrum(self, array, linear_grid):
        block = ObservationBlock(np.zeros((10, 30), complex), None)
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
            rng.standard_normal((10, 30)) + 1j * rng.standard_normal((10, 30)), None
        )
        spec = tl_cbf_spectrum([block], linear_grid, array)
        assert np.all(spec.values >= 0.0)

    def test_wideband_sums_per_frequency_spectra(self, linear_grid):
        src = TrajectoryParams(LINEAR, 10.0, (0.5,))
        freqs = [1400.0, 1600.0]
        arr = ArrayConfig.for_frequencies(10, freqs)
        blocks, _ = synthesize_block([src], arr, 30, 5.0, freqs, seed=3)
        lams = block_wavelengths(arr, blocks)
        both = grid_beam_power([b.data for b in blocks], linear_grid, arr, lams)
        single = [grid_beam_power([b.data], linear_grid, arr, (lam,)) for b, lam in zip(blocks, lams)]
        np.testing.assert_allclose(both, single[0] + single[1], rtol=1e-12)
        # the interpolated spectra hold these float64 values as their contract says
        assert_settled(tl_cbf_spectrum(blocks, linear_grid, arr).values, both, linear_grid.shape)
        for b, values in zip(blocks, single):
            assert_settled(tl_cbf_spectrum([b], linear_grid, arr).values, values, linear_grid.shape)

    def test_rejects_mismatched_blocks(self, array, linear_grid):
        b1 = ObservationBlock(np.zeros((10, 30), complex), None)
        b2 = ObservationBlock(np.zeros((10, 20), complex), None)
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

    @pytest.mark.parametrize("shape", [(1,), (2,), (12,), (1, 5), (9, 7), (86, 21), (5, 4, 3), (1, 3, 1), (43, 11, 11)])
    def test_window_max_matches_maximum_filter(self, shape):
        rng = np.random.default_rng(len(shape))
        field = rng.integers(0, 4, shape).astype(float)  # ties throughout
        expected = ndimage.maximum_filter(field, size=3, mode="constant", cval=-np.inf)
        assert np.array_equal(gridalgos._window_max(field), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrum_refuses_non_finite_values(self, linear_grid, bad):
        values = np.ones(linear_grid.size)
        values[[3, 7]] = bad
        with pytest.raises(ValueError, match="index 3 "):
            Spectrum(linear_grid, values)

    def test_count_validation(self, linear_grid):
        with pytest.raises(ValueError):
            find_peaks(Spectrum(linear_grid, np.zeros(linear_grid.size)), 0)

    def test_zero_plateau_is_not_a_peak(self, linear_grid):
        values = np.zeros(linear_grid.size)
        idx = grid_index_of(linear_grid, -39.0, 3.5)
        values[idx] = 1.0
        peaks = find_peaks(Spectrum(linear_grid, values), 4)
        assert peaks.shortfall
        assert [(p.vector().tolist(), v) for p, v in peaks.entries] == [([-39.0, 3.5], 1.0)]
        empty = find_peaks(Spectrum(linear_grid, np.zeros(linear_grid.size)), 2)
        assert empty.entries == () and empty.shortfall


class TestTlOmp:
    def test_zero_field_estimates_stay_physical(self, array, linear_grid):
        """On an all-zero block every grid point has power 0: each argmax
        takes the lowest physical point, never the masked corner (-85, -5)
        at index 0, whose last snapshot is at -90 degrees."""
        block = ObservationBlock(np.zeros((10, 30), complex), None)
        with pytest.warns(NumericsWarning):  # the same point twice: coincident steering vectors
            estimates, _ = tl_omp([block], linear_grid, array, 2)
        assert len(estimates) == 2
        assert all(trajectory_in_bounds(e.params, 30) for e in estimates)

    def test_grid_without_physical_points_is_refused(self, array):
        """phi >= 91: no grid point is physical, so there is none to choose."""
        grid = build_grid([("phi", 91.0, 1.0, 95.0), ("alpha1", -1.0, 0.5, 1.0)], LINEAR)
        blocks, _ = synthesize_block([TrajectoryParams(LINEAR, 10.0, (0.5,))], array, 30, 10.0, seed=0)
        with pytest.raises(ValueError, match=r"inside \(-90, 90\) degrees"):
            tl_omp(blocks, grid, array, 1)

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

                (coeffs,), _ = batched_snapshot_ls(A[None], blocks[0].data[None])
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
    def test_first_iteration_positive(self, array, linear_grid, four_sources, monkeypatch):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=6)
        monkeypatch.setattr(gridalgos, "SBL_MAX_ITERS", 1)
        with pytest.warns(NumericsWarning):
            spec, _ = tl_sbl(blocks, linear_grid, array, 4, 10 ** (-0.5))
        mask = nonphysical_mask(linear_grid, 30)
        assert mask.any() and np.all(spec.values[mask] == 0.0)
        assert np.all(spec.values[~mask] > 0.0)

    def test_strong_single_source_argmax(self, array, linear_grid):
        src = TrajectoryParams(LINEAR, -11.0, (3.5,))
        idx = grid_index_of(linear_grid, -11.0, 3.5)
        for seed in range(10):
            blocks, truth = synthesize_block([src], array, 30, 30.0, seed=seed)
            spec, peaks = tl_sbl(blocks, linear_grid, array, 1, truth.noise_variance)
            assert int(np.argmax(spec.values)) == idx
            assert peaks.entries[0][0].vector().tolist() == [-11.0, 3.5]

    def test_gamma_non_negative(self, array, linear_grid, four_sources):
        blocks, truth = synthesize_block(four_sources, array, 30, 0.0, seed=7)
        spec, _, _ = quiet_sbl(blocks, linear_grid, array, 4, truth.noise_variance, max_iters=60)
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

    @pytest.mark.parametrize("noise_variance", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_variance_refused(self, array, linear_grid, four_sources, noise_variance):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=9)
        with pytest.raises(ValueError, match="noise variance must be positive and finite"):
            tl_sbl(blocks, linear_grid, array, 4, noise_variance)

    def test_nonconvergence_warning_reports_progress(self, array, linear_grid, four_sources, monkeypatch):
        blocks, truth = synthesize_block(four_sources, array, 30, 5.0, seed=6)
        monkeypatch.setattr(gridalgos, "SBL_MAX_ITERS", 12)
        with pytest.warns(NumericsWarning) as caught:
            spec, _ = tl_sbl(blocks, linear_grid, array, 4, truth.noise_variance)
        (message,) = [str(w.message) for w in caught]
        active = np.count_nonzero(spec.values)
        assert active < linear_grid.size - np.count_nonzero(nonphysical_mask(linear_grid, 30))
        assert re.fullmatch(
            rf"TL-SBL did not converge within 12 iterations \(last relative change "
            rf"\d\.\de[+-]\d\d; {active} of 1806 grid points active\)",
            message,
        ), message

    @pytest.mark.parametrize("snr_db, seed", [(30.0, 0), (30.0, 1), (30.0, 2), (5.0, 0), (5.0, 1)])
    def test_peaks_match_unpruned_run(self, array, linear_grid, four_sources, monkeypatch, snr_db, seed):
        blocks, truth = synthesize_block(four_sources, array, 30, snr_db, seed=seed)
        args = (blocks, linear_grid, array, 4, truth.noise_variance)
        _, peaks = tl_sbl(*args)
        monkeypatch.setattr(gridalgos, "SBL_PRUNE", 0.0)
        _, unpruned = tl_sbl(*args)
        assert (peaks.params, peaks.shortfall) == (unpruned.params, unpruned.shortfall)

    def test_gamma_is_zero_at_masked_and_pruned_points(self, array, linear_grid, four_sources):
        blocks, truth = synthesize_block(four_sources, array, 30, 30.0, seed=0)
        args = (blocks, linear_grid, array, 4, truth.noise_variance)
        early, _, _ = quiet_sbl(*args, max_iters=8)
        final, _, warned = quiet_sbl(*args)
        assert not warned
        mask = nonphysical_mask(linear_grid, 30)
        for values in (early.values, final.values):
            assert np.all(values[mask] == 0.0)
            # every point left holds at least SBL_PRUNE of the largest gamma
            kept = values[values > 0.0]
            assert np.min(kept) >= gridalgos.SBL_PRUNE * np.max(kept)
        # a pruned point stays 0, and pruning removed physical points too
        assert np.all(final.values[early.values == 0.0] == 0.0)
        assert np.count_nonzero(mask) < np.count_nonzero(early.values == 0.0) < np.count_nonzero(final.values == 0.0)

    def test_grid_without_physical_points_gives_zero_spectrum(self, array):
        # phi >= 91: every trajectory of this grid is non-physical
        grid = build_grid([("phi", 91.0, 1.0, 95.0), ("alpha1", -1.0, 0.5, 1.0)], LINEAR)
        blocks, truth = synthesize_block([TrajectoryParams(LINEAR, 10.0, (0.5,))], array, 30, 10.0, seed=0)
        spec, peaks = tl_sbl(blocks, grid, array, 1, truth.noise_variance)
        assert np.all(spec.values == 0.0)
        assert peaks.entries == () and peaks.shortfall

    @pytest.mark.parametrize("max_iters", [1, 5, 40])
    def test_gamma_matches_dense_reference(self, array, linear_grid, four_sources, max_iters):
        blocks, truth = synthesize_block(four_sources, array, 30, 5.0, seed=6)
        want, _, _ = reference_sbl(blocks, linear_grid, array, truth.noise_variance, max_iters=max_iters)
        spec, _, _ = quiet_sbl(blocks, linear_grid, array, 4, truth.noise_variance, max_iters=max_iters)
        assert np.max(np.abs(spec.values - want)) <= 1e-9 * np.max(want)

    @pytest.mark.parametrize("snr_db, seed", [(30.0, 0), (30.0, 1), (30.0, 2), (5.0, 0), (5.0, 1)])
    def test_iterations_and_peaks_match_dense_reference(self, array, linear_grid, four_sources, snr_db, seed):
        blocks, truth = synthesize_block(four_sources, array, 30, snr_db, seed=seed)
        gamma, iters, converged = reference_sbl(blocks, linear_grid, array, truth.noise_variance)
        assert converged
        args = (blocks, linear_grid, array, 4, truth.noise_variance)
        # converged at exactly `iters`: not one iteration earlier
        spec, peaks, warned = quiet_sbl(*args, max_iters=iters)
        assert not warned
        assert quiet_sbl(*args, max_iters=iters - 1)[2]
        want = find_peaks(Spectrum(linear_grid, gamma), 4 + 2)
        assert (peaks.params, peaks.shortfall) == (want.params, want.shortfall)
        assert len(peaks.params) == 4 + 2
        assert np.max(np.abs(spec.values - gamma)) <= 1e-9 * np.max(gamma)

    def test_memory_stays_near_one_powers_tensor(self, array, linear_grid, four_sources):
        blocks, truth = synthesize_block(four_sources, array, 30, 5.0, seed=10)
        args = (blocks, linear_grid, array, 4, truth.noise_variance)
        quiet_sbl(*args, max_iters=1)  # the DOA table and mask are cached, not counted
        tracemalloc.start()
        try:
            quiet_sbl(*args, max_iters=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        powers_bytes = 30 * 10 * linear_grid.size * 16  # the (L, N, M) complex tensor
        assert peak < 2 * powers_bytes

    def test_memory_stays_near_one_powers_tensor_through_compaction(self, array, linear_grid, four_sources):
        blocks, truth = synthesize_block(four_sources, array, 30, 30.0, seed=10)
        args = (blocks, linear_grid, array, 4, truth.noise_variance)
        quiet_sbl(*args, max_iters=1)  # the DOA table and mask are cached, not counted
        built = []
        real = gridalgos._powers_tensor

        def recording(E, N, buf):
            built.append(E.shape[0])
            return real(E, N, buf)

        tracemalloc.start()
        try:
            with mock.patch.object(gridalgos, "_powers_tensor", recording):
                _, _, warned = quiet_sbl(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not warned
        # the physical points first, then a rebuild each time the set halves
        assert built[0] == linear_grid.size - np.count_nonzero(nonphysical_mask(linear_grid, 30))
        assert len(built) >= 2
        assert all(2 * b <= a for a, b in zip(built, built[1:]))
        powers_bytes = 30 * 10 * linear_grid.size * 16  # the (L, N, M) complex tensor
        assert peak < 2 * powers_bytes


def _sbl_gammas(seed, transform):
    """Four-iteration TL-SBL gamma for two off-grid linear sources at 10 dB,
    from the data Y and from transform(Y)."""
    rng = np.random.default_rng(seed)
    sources = [
        TrajectoryParams(LINEAR, p, (a,))
        for p, a in zip(rng.uniform(-70, 70, 2), rng.uniform(-4, 4, 2))
    ]
    array = ArrayConfig(10)
    blocks, truth = synthesize_block(sources, array, 30, 10.0, seed=seed)
    Y = blocks[0].data
    return [
        quiet_sbl([ObservationBlock(data, None)], SYMMETRIC_GRID, array, 2,
                  truth.noise_variance, max_iters=4)[0].values
        for data in (Y, transform(Y))
    ]


class TestTlSblProperties:
    @given(seed=st.integers(0, 2**16), psi=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=4, deadline=None)
    def test_global_phase_leaves_gamma_unchanged(self, seed, psi):
        g0, g1 = _sbl_gammas(seed, lambda Y: Y * np.exp(1j * psi))
        assert np.max(np.abs(g1 - g0)) <= 1e-9 * np.max(g0)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_conjugate_data_mirrors_gamma(self, seed):
        g0, g1 = _sbl_gammas(seed, np.conj)
        # (phi, alpha) -> (-phi, -alpha) reverses both axes of the symmetric grid
        mirrored = g0.reshape(SYMMETRIC_GRID.shape)[::-1, ::-1].reshape(-1)
        assert np.max(np.abs(g1 - mirrored)) <= 1e-9 * np.max(g0)

    @given(seed=st.integers(0, 2**16), order=st.permutations(range(3)))
    @settings(max_examples=4, deadline=None, derandomize=True)
    def test_permuted_sources_leave_gamma_unchanged(self, seed, order):
        noise_variance, datas = source_order_pair(seed, order, snr_db=10.0)
        g0, g1 = [
            quiet_sbl([ObservationBlock(data, None)], SYMMETRIC_GRID, ArrayConfig(10), 3,
                      noise_variance, max_iters=4)[0].values
            for data in datas
        ]
        assert np.max(np.abs(g1 - g0)) <= 1e-9 * np.max(g0)


def _grid_sets(seed, transform):
    """(tl-cbf peaks, tl-omp estimates) of two separated off-grid linear
    sources at 20 dB, each as a (from Y, from transform(Y)) pair of sets of
    parameter vectors."""
    rng = np.random.default_rng(seed)
    sources = [
        TrajectoryParams(LINEAR, rng.uniform(*phis), (rng.uniform(-4, 4),))
        for phis in ((-70, -10), (10, 70))
    ]
    blocks, _ = synthesize_block(sources, ArrayConfig(10), 30, 20.0, seed=seed)
    Y = blocks[0].data
    return _grid_sets_of((Y, transform(Y)), 2)


def _grid_sets_of(datas, K):
    """(tl-cbf's K + 2 peaks, tl-omp's K estimates) from each data matrix of
    a 10-sensor array, as sets of parameter vectors."""
    array = ArrayConfig(10)
    peaks, estimates = [], []
    for data in datas:
        b = [ObservationBlock(data, None)]
        peaks.append({tuple(p.vector()) for p in find_peaks(tl_cbf_spectrum(b, SYMMETRIC_GRID, array), K + 2).params})
        estimates.append({tuple(e.params.vector()) for e in tl_omp(b, SYMMETRIC_GRID, array, K)[0]})
    return peaks, estimates


class TestGridEstimatorProperties:
    # the grid points returned are exact, so both properties hold exactly
    @given(seed=st.integers(0, 2**16), psi=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_global_phase_leaves_peaks_and_estimates_unchanged(self, seed, psi):
        for plain, rotated in _grid_sets(seed, lambda Y: Y * np.exp(1j * psi)):
            assert plain == rotated

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_conjugate_data_mirrors_peaks_and_estimates(self, seed):
        # conj(a(theta)) = a(-theta): (phi, alpha) -> (-phi, -alpha) maps the
        # symmetric grid onto itself
        for plain, conjugated in _grid_sets(seed, np.conj):
            assert {tuple(-v for v in p) for p in plain} == conjugated

    @given(seed=st.integers(0, 2**16), order=st.permutations(range(3)))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_permuted_sources_leave_peaks_and_estimates_unchanged(self, seed, order):
        _, datas = source_order_pair(seed, order)
        for plain, permuted in _grid_sets_of(datas, 3):
            assert plain == permuted


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


def test_source_count_below_one_refused_alike(array, linear_grid):
    # every estimator that takes K refuses K < 1 with the same message
    blocks, _ = synthesize_block([TrajectoryParams(LINEAR, 20.0, (1.5,))], array, 30, 5.0, seed=1)
    for K in (0, -1):
        for estimate in (tl_omp, tl_sfw, tl_nomp, lambda *args: tl_sbl(*args, 1.0)):
            with pytest.raises(ValueError, match=rf"^K must be >= 1, got {K}$"):
                estimate(blocks, linear_grid, array, K)
