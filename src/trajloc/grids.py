"""Discrete trajectory-parameter grids and their cached DOA and phasor tables.

A grid is the Cartesian product of per-parameter axes (phi first, then the
model coefficients), linearized row-major with phi as the slowest axis. Grids
and the tables derived from them are immutable; derived tables are memoized
in small bounded caches so repeated scans do not recompute trigonometry. The
phasor table is cached in complex64, half the size of complex128; the
complex128 phasors of a few rows are rebuilt on demand (`phase_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import DEG, TrajectoryModel, TrajectoryParams, doa_map


@dataclass(frozen=True)
class GridAxis:
    name: str
    start: float
    step: float
    stop: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.start, self.step, self.stop))):
            raise ValueError(
                f"axis {self.name}: start, step and stop must be finite, "
                f"got [{self.start}, {self.step}, {self.stop}]"
            )
        if self.step <= 0:
            raise ValueError(f"axis {self.name}: step must be positive")
        if self.stop < self.start:
            raise ValueError(f"axis {self.name}: stop < start")

    @property
    def size(self) -> int:
        # floor((stop-start)/step) + 1, guarded against fp round-down
        return int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.size)


@dataclass(frozen=True)
class ParamGrid:
    """Discrete trajectory-parameter space: one axis per parameter."""

    axes: tuple[GridAxis, ...]
    model: TrajectoryModel

    def __post_init__(self):
        if len(self.axes) != self.model.n_params:
            raise ValueError(
                f"grid needs {self.model.n_params} axes for this model, got {len(self.axes)}"
            )

    # cached in the instance dict, which hashing and equality ignore, so
    # equal grids still share every lru_cache entry
    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))


def build_grid(axes, model: TrajectoryModel) -> ParamGrid:
    """Build a grid from (name, start, step, stop) axis descriptors.

    Axis order is (phi, coefficients...) and matches the parameter vector;
    linear indices run row-major over that order.
    """
    built = tuple(GridAxis(str(n), float(a), float(s), float(b)) for n, a, s, b in axes)
    return ParamGrid(built, model)


def grid_point(grid: ParamGrid, index: int) -> TrajectoryParams:
    """Parameters at a linear index; inverse of `grid_index`."""
    if not 0 <= index < grid.size:
        raise IndexError(f"grid index {index} out of range [0, {grid.size})")
    multi = np.unravel_index(index, grid.shape)
    vals = [ax.values()[i] for ax, i in zip(grid.axes, multi)]
    return TrajectoryParams(grid.model, vals[0], tuple(vals[1:]))


def grid_index(grid: ParamGrid, multi) -> int:
    """Linear index of a multi-index (row-major, phi slowest)."""
    return int(np.ravel_multi_index(tuple(multi), grid.shape))


@lru_cache(maxsize=8)
def param_matrix(grid: ParamGrid) -> np.ndarray:
    """All grid points as an (M, n_params) matrix in linear-index order."""
    cols = np.meshgrid(*(ax.values() for ax in grid.axes), indexing="ij")
    mat = np.stack([c.reshape(-1) for c in cols], axis=1)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=8)
def doa_table(grid: ParamGrid, L: int) -> np.ndarray:
    """DOA in degrees of every grid trajectory at every snapshot, shape (M, L)."""
    pm = param_matrix(grid)
    theta = pm[:, :1] + pm[:, 1:] @ doa_map(grid.model, L)[1:]
    theta.setflags(write=False)
    return theta


@lru_cache(maxsize=8)
def nonphysical_mask(grid: ParamGrid, L: int) -> np.ndarray:
    """True at every grid trajectory whose DOA reaches |theta| >= 90 degrees
    at some snapshot, shape (M,). Such a point is no physical source, so the
    grid scans zero it."""
    mask = np.any(np.abs(doa_table(grid, L)) >= 90.0, axis=1)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=8)
def coarse_lattice(grid: ParamGrid) -> np.ndarray:
    """Linear indices of the coarse lattice, every second index on each axis
    (0, 2, 4, ...), in increasing order. It is the row-major flattening of a
    grid of shape ``coarse_shape(grid)``; every grid point lies within
    Chebyshev distance 1 of a lattice point."""
    axes = np.meshgrid(*(np.arange(0, n, 2) for n in grid.shape), indexing="ij")
    idx = np.ravel_multi_index(tuple(a.reshape(-1) for a in axes), grid.shape)
    idx.setflags(write=False)
    return idx


def coarse_shape(grid: ParamGrid) -> tuple[int, ...]:
    """Shape of the coarse lattice of `coarse_lattice`."""
    return tuple((n + 1) // 2 for n in grid.shape)


def phase_rows(grid: ParamGrid, L: int, phase_scale: float, rows) -> np.ndarray:
    """Per-snapshot sensor-1 phasors ``exp(j*phase_scale*sin(theta))`` in
    complex128 at the grid points ``rows`` (any index or slice of the grid),
    shape (len(rows), L), built on demand. Each element depends on its own
    theta only, so a row is the same to the bit whichever rows are built
    with it. Sensor n uses the n-th power of these entries."""
    theta = doa_table(grid, L)[rows]
    return np.exp(1j * phase_scale * np.sin(theta * DEG))


@lru_cache(maxsize=8)
def phase_table(grid: ParamGrid, L: int, phase_scale: float) -> np.ndarray:
    """`phase_rows` of the whole grid rounded to complex64, shape (M, L):
    the table the grid scans run on. Rescans that need complex128 phasors
    build their rows with `phase_rows`; no complex128 table is cached."""
    table = phase_rows(grid, L, phase_scale, slice(None)).astype(np.complex64)
    table.setflags(write=False)
    return table
