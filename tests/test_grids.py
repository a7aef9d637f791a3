import numpy as np
import pytest

from trajloc import TrajectoryModel, build_grid, grid_point
from trajloc.grids import doa_table, param_matrix


def test_linear_grid_size(linear_grid):
    assert linear_grid.shape == (86, 21)
    assert linear_grid.size == 1806


def test_quadratic_grid_size():
    grid = build_grid(
        [("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5), ("alpha2", -5, 0.5, 5)],
        TrajectoryModel.polynomial(2),
    )
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
