import pickle

import numpy as np
import pytest

from trajloc import ArrayConfig, TrajectoryModel, build_grid, grid_point
from trajloc.grids import (
    block_ranges,
    coarse_lattice,
    coarse_shape,
    doa_table,
    nonphysical_mask,
    param_matrix,
    phase_rows,
    phase_table,
    sine_positions,
)
from trajloc.harness import WIDEBAND_SETS
from trajloc.model import DEG, _phase_scale, wavelength_for

QUADRATIC_GRID = build_grid(
    [("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5), ("alpha2", -5, 0.5, 5)],
    TrajectoryModel.polynomial(2),
)


def test_linear_grid_size(linear_grid):
    assert linear_grid.shape == (86, 21)
    assert linear_grid.size == 1806


def test_quadratic_grid_size():
    grid = QUADRATIC_GRID
    assert grid.size == 86 * 21 * 21 == 37926


def test_cached_shape_keeps_hash_equality_and_pickling():
    # shape and size are cached on the frozen grid; the cache must not change
    # which grids are equal, nor what a --jobs worker unpickles
    axes = [("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)]
    a, b = build_grid(axes, TrajectoryModel.polynomial(1)), build_grid(axes, TrajectoryModel.polynomial(1))
    assert (a.shape, a.size) == ((86, 21), 1806)
    assert a == b and hash(a) == hash(b)
    assert param_matrix(a) is param_matrix(b)
    c = pickle.loads(pickle.dumps(a))
    assert (c.shape, c.size) == (a.shape, a.size) and c == b and hash(c) == hash(b)
    assert param_matrix(c) is param_matrix(b)


def test_degenerate_single_point_axis():
    grid = build_grid([("phi", 0, 1, 0)], TrajectoryModel.polynomial(0))
    assert grid.size == 1
    assert grid_point(grid, 0).phi == 0.0


def test_endpoints(linear_grid):
    assert grid_point(linear_grid, 0).vector().tolist() == [-85.0, -5.0]
    assert grid_point(linear_grid, linear_grid.size - 1).vector().tolist() == [85.0, 5.0]


def test_index_roundtrip_exhaustive(linear_grid):
    # reconstruct the index from the parameter values axis by axis; the
    # composition must be the identity for every linear index
    starts = np.array([ax.start for ax in linear_grid.axes])
    steps = np.array([ax.step for ax in linear_grid.axes])
    for idx in range(linear_grid.size):
        vec = grid_point(linear_grid, idx).vector()
        multi = np.rint((vec - starts) / steps).astype(int)
        assert int(np.ravel_multi_index(multi, linear_grid.shape)) == idx


def test_phi_is_slowest_axis(linear_grid):
    # row-major: consecutive indices step the last (coefficient) axis first
    assert grid_point(linear_grid, 0).phi == grid_point(linear_grid, 1).phi
    assert grid_point(linear_grid, 0).coeffs != grid_point(linear_grid, 1).coeffs
    assert grid_point(linear_grid, 21).phi == -83.0


def test_out_of_range_index(linear_grid):
    with pytest.raises(IndexError):
        grid_point(linear_grid, linear_grid.size)
    with pytest.raises(IndexError):
        grid_point(linear_grid, -1)


def test_invalid_axes():
    with pytest.raises(ValueError):
        build_grid([("phi", 0, 0, 10)], TrajectoryModel.polynomial(0))
    with pytest.raises(ValueError):
        build_grid([("phi", 10, 1, 0)], TrajectoryModel.polynomial(0))
    with pytest.raises(ValueError):
        build_grid([("phi", -85, 2, 85)], TrajectoryModel.polynomial(1))


@pytest.mark.parametrize("axis", [(np.nan, 2, 85), (-85, np.nan, 85), (-85, 2, np.inf), (-np.inf, 2, 85)])
def test_non_finite_axis_refused(axis):
    with pytest.raises(ValueError, match="axis phi: start, step and stop must be finite"):
        build_grid([("phi", *axis)], TrajectoryModel.polynomial(0))


def test_doa_table_matches_pointwise(linear_grid):
    from trajloc.model import doas

    table = doa_table(linear_grid, 30)
    assert table.shape == (1806, 30)
    for idx in (0, 777, 1805):
        np.testing.assert_allclose(table[idx], doas(grid_point(linear_grid, idx), 30), atol=1e-12)


def test_tables_are_read_only(linear_grid):
    table = doa_table(linear_grid, 30)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    pm = param_matrix(linear_grid)
    with pytest.raises(ValueError):
        pm[0, 0] = 1.0


def test_nonphysical_mask(linear_grid):
    mask = nonphysical_mask(linear_grid, 30)
    assert mask.shape == (1806,) and not mask.flags.writeable
    reach = np.max(np.abs(doa_table(linear_grid, 30)), axis=1)
    assert np.array_equal(mask, reach >= 90.0)
    # the two corners whose slope carries the DOA past +-90 degrees
    assert [grid_point(linear_grid, int(i)).vector().tolist() for i in np.flatnonzero(mask)] == [
        [-85.0, -5.0],
        [85.0, 5.0],
    ]
    assert int(nonphysical_mask(QUADRATIC_GRID, 30).sum()) == 200


@pytest.mark.parametrize("grid", ["linear", "quadratic"])
def test_coarse_lattice_covers_grid(grid, linear_grid):
    grid = linear_grid if grid == "linear" else QUADRATIC_GRID
    lattice = coarse_lattice(grid)
    assert not lattice.flags.writeable
    assert lattice.size == int(np.prod(coarse_shape(grid))) == {1806: 473, 37926: 5203}[grid.size]
    assert np.all(np.diff(lattice) > 0)
    multi = np.stack(np.unravel_index(lattice, grid.shape), axis=1)
    assert np.all(multi % 2 == 0)
    # row-major in the coarse shape: halving the multi-index gives its position
    assert np.array_equal(np.ravel_multi_index(tuple((multi // 2).T), coarse_shape(grid)), np.arange(lattice.size))
    if grid.size == 1806:
        # every grid point is within Chebyshev distance 1 of a lattice point
        every = np.stack(np.unravel_index(np.arange(grid.size), grid.shape), axis=1)
        dist = np.max(np.abs(every[:, None, :] - multi[None, :, :]), axis=2).min(axis=1)
        assert dist.max() == 1


def whole_table(grid, L, scale):
    """The complex128 phasors of every grid point, built in one pass."""
    return np.exp(1j * scale * np.sin(doa_table(grid, L) * DEG))


WIDEBAND_ARRAY = ArrayConfig.for_frequencies(10, WIDEBAND_SETS[7])
SCALES = tuple(_phase_scale(WIDEBAND_ARRAY, wavelength_for(WIDEBAND_ARRAY, f)) for f in WIDEBAND_SETS[7])


class TestPhaseRows:
    """Rows built on demand are the same to the bit as the rows of a whole
    table, whichever rows are built together; the scans' float64 rescans
    rest on this."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_subsets_match_whole_table(self, linear_grid, scale):
        M = linear_grid.size
        whole = whole_table(linear_grid, 30, scale)
        assert np.array_equal(phase_rows(linear_grid, 30, scale, slice(None)), whole)
        rng = np.random.default_rng(int(scale))
        for size in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100, 1000, M - 1, M):
            rows = np.sort(rng.choice(M, size, replace=False))
            assert np.array_equal(phase_rows(linear_grid, 30, scale, rows), whole[rows])
            assert np.array_equal(phase_rows(linear_grid, 30, scale, rows[::-1]), whole[rows[::-1]])

    @pytest.mark.parametrize(
        "rows", [slice(1, None, 3), slice(5, -7), slice(None, None, -1), slice(900, 901), slice(17, 1000, 7)]
    )
    def test_odd_slices_match_whole_table(self, linear_grid, rows):
        for scale in SCALES:
            assert np.array_equal(phase_rows(linear_grid, 30, scale, rows), whole_table(linear_grid, 30, scale)[rows])

    def test_quadratic_grid_rows_match_whole_table(self):
        scale = SCALES[-1]
        whole = whole_table(QUADRATIC_GRID, 30, scale)
        rng = np.random.default_rng(7)
        for size in (1, 5, 27, 270, 5203):
            rows = np.sort(rng.choice(QUADRATIC_GRID.size, size, replace=False))
            assert np.array_equal(phase_rows(QUADRATIC_GRID, 30, scale, rows), whole[rows])
        lattice = coarse_lattice(QUADRATIC_GRID)
        assert np.array_equal(phase_rows(QUADRATIC_GRID, 30, scale, lattice), whole[lattice])

    def test_cached_table_is_the_rounded_whole_table(self, linear_grid):
        for scale in SCALES:
            table = phase_table(linear_grid, 30, scale)
            assert table.dtype == np.complex64 and not table.flags.writeable
            assert np.array_equal(table, whole_table(linear_grid, 30, scale).astype(np.complex64))
            assert phase_table(linear_grid, 30, scale) is table


class TestSinePositions:
    @pytest.mark.parametrize("grid", ["linear", "quadratic", "end-fire"])
    def test_positions_place_each_sine(self, linear_grid, grid):
        """x = -1 + (i + t) h lies within h 2^-25 + 2^-51 of the sine the
        float64 scans see, with i the interval and l the snapshot folded
        into i * L + l; x = +-1 falls at the ends of the end intervals."""
        grid = {
            "linear": linear_grid,
            "quadratic": QUADRATIC_GRID,
            "end-fire": build_grid([("phi", -90, 180, 90), ("alpha1", 0, 1, 0)], TrajectoryModel.polynomial(1)),
        }[grid]
        L, T = 30, 512
        cell, t = sine_positions(grid, L, T)
        assert sine_positions(grid, L, T)[0] is cell
        assert (cell.dtype, t.dtype) == (np.int32, np.float32)  # 8 bytes per entry
        assert cell.shape == t.shape == (grid.size, L)
        assert not cell.flags.writeable and not t.flags.writeable
        i, l = np.divmod(cell.astype(int), L)
        assert np.array_equal(l, np.broadcast_to(np.arange(L), cell.shape))
        assert 0 <= i.min() and i.max() < T and 0 <= t.min() and t.max() <= 1
        h = 2.0 / T
        x = np.sin(doa_table(grid, L) * DEG)
        assert np.all(np.abs(-1.0 + (i + t.astype(float)) * h - x) <= h * 2.0**-25 + 2.0**-51)
        if grid.size == 2:
            assert np.all(i[0] == 0) and np.all(t[0] == 0) and np.all(i[1] == T - 1) and np.all(t[1] == 1)


class TestBlockRanges:
    @pytest.mark.parametrize("name", ["linear", "quadratic", "one-axis", "part-masked"])
    def test_queries_cover_each_blocks_intervals(self, linear_grid, name):
        """The two runs of 2^k intervals that each block's queries name
        cover exactly the intervals its physical rows fall in, at every
        snapshot; a block of masked rows only is not live."""
        grid = {
            "linear": linear_grid,
            "quadratic": QUADRATIC_GRID,
            "one-axis": build_grid([("phi", -89.5, 0.25, 89.5)], TrajectoryModel.polynomial(0)),
            # the blocks at phi = 90 and 95 hold masked rows only
            "part-masked": build_grid([("phi", 80, 5, 95), ("alpha1", -1, 0.5, 1)], TrajectoryModel.polynomial(1)),
        }[name]
        L, T = 30, 512
        first, second, live, levels = block_ranges(grid, L, T)
        B = grid.shape[-1]
        assert block_ranges(grid, L, T)[0] is first
        assert first.dtype == second.dtype == np.int32 and first.shape == second.shape == (grid.size // B, L)
        assert not first.flags.writeable and not second.flags.writeable and not live.flags.writeable
        physical = ~nonphysical_mask(grid, L).reshape(-1, B)
        assert np.array_equal(live, physical.any(axis=1))
        interval = sine_positions(grid, L, T)[0].reshape(-1, B, L) // L
        (k, a, l), (k2, b, l2) = (np.unravel_index(q, (levels, T, L)) for q in (first, second))
        assert np.array_equal(k, k2) and np.array_equal(l, l2)
        assert np.array_equal(l, np.broadcast_to(np.arange(L), l.shape))
        for blk in np.flatnonzero(live):
            rows = interval[blk][physical[blk]]
            lo, hi = rows.min(axis=0), rows.max(axis=0)
            n = 1 << k[blk]
            assert np.array_equal(a[blk], lo) and np.array_equal(b[blk] + n - 1, hi)
            assert np.all(n <= hi - lo + 1) and np.all(hi - lo + 1 < 2 * n)
        assert levels == int(k.max()) + 1
        assert np.count_nonzero(~live) == (2 if name == "part-masked" else 0)
