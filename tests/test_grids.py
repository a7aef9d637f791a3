import numpy as np
import pytest

from trajloc import TrajectoryModel, build_grid, grid_point
from trajloc.grids import coarse_lattice, coarse_shape, doa_table, nonphysical_mask, param_matrix

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
