"""Grid-based trajectory localization: TL-CBF spectra, peak extraction,
TL-OMP greedy pursuit, the TL-SBL hyperparameter iteration, and the
coarse-to-fine grid start of the gridless estimators (`_coarse_start`).

The beam power of a grid trajectory against residual matrices R_f is
(1/L) sum_l Q_l(x_l), where x_l is the sine of its DOA at snapshot l and

    Q_l(x) = sum_f |sum_n R_f[n, l] exp(-j n s_f x)|^2,

s_f being frequency f's phase scale. Wideband inputs are handled
non-coherently by that sum over frequencies, so a single narrowband block is
the F = 1 case of the same code.

Every scan whose caller uses only a decision runs in two stages. Once per
residual set, `_tabulate` evaluates each Q_l at `_INTERVALS` + 3 equispaced
nodes of x and turns each node interval into the cubic through its four
surrounding nodes. Then `_interpolated_power` evaluates, at every scanned
grid point, those cubics at the point's cached positions
(`grids.sine_positions`) and sums them over the snapshots. So a scan costs
O(M L) whatever F and N are, plus an O(T L F N) tabulation, and it returns a
certified bound on each row's distance from the float64 scan. The decisions
are TL-OMP's argmax, TL-CBF's local maxima and their ranking, and the coarse
start's lattice maxima and best neighbor. All of them are made here, by
`_beam_argmax` and `_scan_maxima`: the rows whose decision the bound leaves
open are rescanned in float64 (`grid_beam_power`, from phasor rows built on
demand), so every decision is exactly the float64 scan's.

The float64 scan walks its rows in blocks of 512 KB of accumulator. What its
sensor recursion touches stays in a core's L2 cache: the block's accumulator,
the block's phasor rows and a tile of the conjugated residual rows, where a
whole-table pass would stream the (M, L) rows from memory once per sensor.
The recursion runs on conj(R) against the phasor rows as they are: that gives
the conjugate of each beam sum, whose squared modulus is the same to the
bit, so no row is conjugated or copied. The blocking changes no element's
arithmetic: values are bit-identical to a whole-table pass, at each row
whichever other rows are scanned. Every scan zeroes the grid points whose
trajectory leaves (-90, 90) degrees. Scans run serially, in the calling
thread.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (
    ParamGrid,
    coarse_lattice,
    coarse_shape,
    grid_point,
    nonphysical_mask,
    phase_rows,
    sine_positions,
)
from .model import (
    ArrayConfig,
    TrajectoryParams,
    _phase_scale,
    _phase_scales,
    block_wavelengths,
    trajectory_steering_matrix,  # noqa: F401 -- module attribute that perfbench's tracer rebinds
)
from .optim import (
    NumericsWarning,
    amplitudes_ls,
    project_all,
    residual_energy,
    source_estimates,
)


@dataclass(frozen=True)
class Spectrum:
    """Real, finite, non-negative power (or variance) value at every grid
    point. A TL-CBF spectrum holds the float64 scan's value at every local
    maximum, and at every point whose local-maximum test the interpolated
    scan's bound left open together with its neighbors; elsewhere its values
    are within that bound, about 1e-6 of the largest on the built-in
    scenarios."""

    grid: ParamGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} values, got {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"spectrum value at index {bad[0]} is {values[bad[0]]}, not finite")
        if np.any(values < 0):
            raise ValueError("spectrum values must be non-negative")


@dataclass(frozen=True)
class PeakSet:
    """Local spectrum maxima sorted by value, best first.

    ``shortfall`` is set when fewer local maxima exist than were requested.
    """

    entries: tuple[tuple[TrajectoryParams, float], ...]
    shortfall: bool = False

    @property
    def params(self) -> list[TrajectoryParams]:
        return [p for p, _ in self.entries]


def _check_blocks(blocks, array: ArrayConfig, K: int | None = None):
    """Refuse malformed blocks, and a source count K below 1 where one is
    sought; return the blocks' data as one complex (F, N, L) array, which
    every estimator carries as its residual, and their processing
    wavelengths."""
    if K is not None and K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not blocks:
        raise ValueError("need at least one observation block")
    N, L = blocks[0].data.shape
    for b in blocks:
        if b.data.shape != (N, L):
            raise ValueError("all blocks must share sensor count and snapshot count")
    if N != array.n_sensors:
        raise ValueError(
            f"blocks have {N} sensor rows but the array has {array.n_sensors} sensors"
        )
    return np.stack([b.data for b in blocks]), block_wavelengths(array, blocks)


SBL_TOL = 1e-3  # TL-SBL's stop: largest gamma change / largest gamma
SBL_PRUNE = 1e-6  # TL-SBL drops a gamma below this share of the largest
SBL_MAX_ITERS = 500
PEAK_EXCESS = 2  # spectrum methods report K + PEAK_EXCESS peaks for K sources


# Bytes of one (rows, L) complex128 block of the float64 scan. A 2 MB
# per-core L2 cache holds the block's accumulator, its phasor rows and its
# tile of conj(R): N rows of `_tile_rows` * L elements each, 640 KB at
# N = 10.
_SCAN_BLOCK_BYTES = 1 << 19

# T, the number of equal intervals of x = sin(theta) over [-1, 1] on which a
# scan interpolates (`_tabulate`). A power of two, so the nodes and their
# spacing h = 2/T are exact. The bound falls as T^-4 and the tabulation
# costs O(T). Measured over 8 `wideband` F = 7 trials: T = 256 leaves 386
# rows per trial to the float64 rescans, against 32, which costs more than
# the halved tabulations save; T = 1024 doubles them to save 7 rows.
_INTERVALS = 512

# The cubic through the values p(-1), p(0), p(1), p(2) of four equispaced
# nodes, as its monomial coefficients in t on [0, 1]: coefficient k is
# _CUBIC[k] @ p.
_CUBIC = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1 / 3, -1 / 2, 1.0, -1 / 6],
        [1 / 2, -1.0, 1 / 2, 0.0],
        [-1 / 6, 1 / 2, -1 / 2, 1 / 6],
    ]
)

_U = float(np.finfo(float).eps) / 2  # float64 unit roundoff
_TINY = 2.0**-1074  # the smallest positive float64


def _scan_rows(L: int) -> int:
    """Grid rows per float64 scan block at block length L: 1092 at L = 30."""
    return max(1, _SCAN_BLOCK_BYTES // (16 * L))


def _eval_rows(L: int) -> int:
    """Grid rows per block of an interpolated scan at block length L, half
    `_scan_rows`: 546 at L = 30, whose gathered coefficients take 512 KB."""
    return max(1, _SCAN_BLOCK_BYTES // (32 * L))


def _tile_rows(L: int) -> int:
    """Rows of the float64 scan's tile of conj(R) at block length L (137 at
    L = 30): the fewest whose tile row numpy adds unbuffered. Its ufunc loop
    stages a broadcast row of up to half its buffer (`np.getbufsize`, 8192
    elements by default) through that buffer; on numpy 2.4 such an add ran
    at about half the speed of one with a longer row."""
    return np.getbufsize() // (2 * L) + 1


def _scan(residuals, tables) -> np.ndarray:
    """Beam power row sums of the complex128 phasor rows ``tables`` (one
    (M, L) array per frequency), frequency f's in row f of the (F, M)
    result: the sensor recursion block by block, every frequency in order,
    with each row's sum over the snapshots taken in float64.

    The recursion runs on conj(R) against the phasor rows as they are, which
    yields the conjugate of each element's sum, so |.|^2 is the same to the
    bit and no row is conjugated. conj(R) is repeated `_tile_rows` times per
    row, so each Horner add is one long tile row broadcast over a block's
    whole tiles, plus a prefix of it over the rows left over."""
    N, L = residuals[0].shape
    M = tables[0].shape[0]
    step = max(1, min(M, _scan_rows(L)))
    values = np.empty((len(tables), M))
    width = min(step, _tile_rows(L)) * L
    tiles = np.empty((N, width), dtype=complex)
    acc_block = np.empty(step * L, dtype=complex)
    for R, table, out in zip(residuals, tables, values):
        np.conjugate(R[:, None, :], out=tiles.reshape(N, -1, L))
        for s in range(0, M, step):
            e = min(s + step, M)
            E = table[s:e].reshape(-1)
            acc = acc_block[: E.size]
            whole = E.size - E.size % width
            parts = [
                (acc[:whole].reshape(-1, width), E[:whole].reshape(-1, width), tiles),
                (acc[whole:], E[whole:], tiles[:, : E.size - whole]),
            ]
            parts = [p for p in parts if p[0].size]
            # the first step multiplies conj(R[N-1]) without copying it into
            # acc; the accumulator operand goes first, as in every later step,
            # since numpy's complex multiply rounds differently when swapped
            for a, Ea, t in parts:
                np.multiply(t[N - 1], Ea, out=a)
                a += t[N - 2]
            for n in range(N - 3, -1, -1):
                np.multiply(acc, E, out=acc)
                for a, _, t in parts:
                    a += t[n]
            # |acc|^2 in place: fresh temporaries per block made the allocator
            # hand pages back and fault them in again on every scan
            f = acc.view(float)
            np.square(f, out=f)
            re = f[0::2]
            re += f[1::2]
            out[s:e] = re.reshape(e - s, L).sum(axis=1, dtype=float)
    return values


def grid_beam_power(
    residuals, grid: ParamGrid, array: ArrayConfig, wavelengths, rows=None
) -> np.ndarray:
    """Beam power (1/L) sum_f sum_l |a_lf^H r_lf|^2 at every grid point, or
    at the grid points ``rows`` (strictly increasing linear indices) only,
    in complex128: the reference scan, and the rescan that settles what an
    interpolated scan (`_interpolated_power`) leaves open.

    Horner recursion over the sensor index against the complex128 phasor
    rows of the scanned points (`phase_rows`, built for the call), so a scan
    costs N - 1 complex multiply-adds of an (M, L) array per frequency
    (`_scan`). Every element sees the same arithmetic in the same order as
    in a whole-table pass, and each phasor row is the same to the bit
    whichever rows are built with it, so the values depend neither on the
    block size nor on which other rows are scanned. The residuals have at
    least two sensor rows, as every `ArrayConfig` has at least two sensors.

    Grid trajectories that leave (-90, 90) degrees (`nonphysical_mask`) get
    power 0, so no peak search or argmax can return them.
    """
    L = residuals[0].shape[1]
    mask = nonphysical_mask(grid, L)
    picked = slice(None)
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError("rows must be a 1-D array of grid indices")
        if rows.size and (rows[0] < 0 or rows[-1] >= grid.size or (rows[1:] <= rows[:-1]).any()):
            raise ValueError(f"rows must be strictly increasing indices in [0, {grid.size})")
        mask, picked = mask[rows], rows
    tables = [phase_rows(grid, L, _phase_scale(array, lam), picked) for lam in wavelengths]
    values = np.zeros(mask.size)
    for v in _scan(residuals, tables):  # frequencies in order
        values += v
    values[mask] = 0.0
    return values / L


@lru_cache(maxsize=8)
def _node_matrix(phase_scales: tuple, N: int) -> np.ndarray:
    """The phasor powers of `_tabulate`'s nodes as real matrices, shape
    (F, 2 (T + 3), 2 N): with V[k, n] = exp(-j n s_f x_k) at the nodes
    x_k = -1 + (k - 1) h, h = 2 / `_INTERVALS`, frequency f's matrix is
    [[Re V, -Im V], [Im V, Re V]], so that it maps [Re R; Im R] to
    [Re VR; Im VR]."""
    x = (2.0 / _INTERVALS) * np.arange(-1, _INTERVALS + 2) - 1.0  # exact
    nx = np.multiply.outer(x, np.arange(N))  # exact: small integers times dyadic nodes
    out = np.empty((len(phase_scales), 2 * x.size, 2 * N))
    for s, m in zip(phase_scales, out):
        V = np.exp(-1j * s * nx)
        m[: x.size, :N], m[: x.size, N:] = V.real, -V.imag
        m[x.size :, :N], m[x.size :, N:] = V.imag, V.real
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class _BeamTable:
    """One residual set's beam power, tabulated for interpolation
    (`_tabulate`), with what its float64 rescans need (`rescan`).

    ``coeffs[i * L + l]`` holds the monomial coefficients (in t) of the
    cubic that stands for snapshot l's power Q_l on interval i.
    ``snapshot_bounds[l]`` bounds how far that cubic, at any grid point's
    position, lies from the float64 scan's terms of snapshot l, summed over
    the frequencies; it is 0 for an all-zero snapshot, whose cubics are 0.
    ``bound`` is their mean over the snapshots plus the underflow slack: the
    bound of every unmasked row, 0 for an all-zero residual. ``scratch``
    holds the block buffers of its scans, made in one allocation with the
    coefficients: made afresh per scan, they had the allocator hand their
    pages back and fault them in again, some 200 page faults per `tl_omp`
    call at F = 1. So a table serves one thread."""

    residuals: np.ndarray
    grid: ParamGrid
    array: ArrayConfig
    wavelengths: tuple
    coeffs: np.ndarray
    snapshot_bounds: np.ndarray
    bound: float
    scratch: np.ndarray

    def rescan(self, rows) -> np.ndarray:
        """The float64 scan (`grid_beam_power`) of the grid points ``rows``."""
        return grid_beam_power(self.residuals, self.grid, self.array, self.wavelengths, rows=rows)


def _tabulate(residuals, grid: ParamGrid, array: ArrayConfig, wavelengths) -> _BeamTable:
    """Stage 1 of a scan: each snapshot's beam power Q_l at the T + 3 nodes
    x_k = -1 + (k - 1) h, h = 2/T and T = `_INTERVALS`, one node past each
    end of [-1, 1], as real matrix products of the nodes' phasor powers
    (`_node_matrix`) with the residuals; then each interval
    [x_{i+1}, x_{i+2}] as the monomial coefficients, in t = (x - x_{i+1}) / h,
    of the cubic through its four surrounding nodes (`_CUBIC`). Costs
    O(T L F N) and holds T L 32 bytes of coefficients (492 KB at L = 30),
    besides the scratch that its nodes and then its scans use.

    The bound, per snapshot l and frequency f, with s = s_f, A_n =
    |R_f[n, l]|, a = sum_n A_n and the lag moments
    m_k = sum_{n,m} |n - m|^k A_n A_m:
    - Interpolation. Q_lf(x) = sum_{n,m} R_f[n, l] conj(R_f[m, l])
      exp(-j (n - m) s x), so its fourth derivative is at most s^4 m_4 in
      modulus on the whole real line. The cubic Lagrange remainder is
      Q^(4)(xi) h^4 (t+1) t (t-1) (t-2) / 24, and |(t+1) t (t-1) (t-2)| <=
      9/16 on [0, 1]: at most (3/128) (h s)^4 m_4. Bernstein's inequality
      would give ((N - 1) s)^4 a^2 in place of s^4 m_4, which weighs every
      sensor pair by the largest lag: ten times as much for N = 10 equal
      moduli.
    - Position. `sine_positions` places x within h 2^-25 + 2^-51 of the sine
      the float64 scan sees, which moves Q_lf by at most s m_1 times that.
    - Rounding, in units u a^2, to first order. The float64 scan's phasor
      powers are within (n s + 4) u of exp(j n s x) and its Horner rounds
      term n by (4 n + 1) u; the nodes' phasor powers are within
      (2 n s + 4) u and their real products round by at most 4 N u. So
      either beam sum is within (2 (N - 1) s + 8 N + 4) u a, and its |.|^2
      within twice that plus 2 u. The cubic passes the nodes' errors on
      times its Lebesgue constant, 1.25. Add the sums over L F terms (the
      float64 scan) and 2 F terms (the nodes), the coefficients (32 u), the
      evaluation's Horner at t in [0, 1] (38 u) and its sum over the
      snapshots (1.25 L + 1) u. All of it is covered by
      10 N (s + 8) + 2 (L + 2) (F + 1) + 128 units, with room for the
      second-order terms.
    - Underflow adds at most (4 F + 16) 2^-1074 to a row, where the residual
      is not all zero.
    """
    N, L = residuals[0].shape
    F = len(residuals)
    h = 2.0 / _INTERVALS
    K = _INTERVALS + 3
    size = _INTERVALS * L * 4
    store = np.empty(size + max((2 * F + 1) * K * L, 6 * _eval_rows(L) * L))
    coeffs, scratch = store[:size], store[size:]
    scales = _phase_scales(array, tuple(wavelengths))
    R = np.asarray(residuals)  # (F, N, L)
    parts = scratch[: 2 * F * K * L].reshape(F, 2 * K, L)
    power = scratch[2 * F * K * L : (2 * F + 1) * K * L].reshape(K, L)
    np.matmul(_node_matrix(tuple(scales), N), np.concatenate([R.real, R.imag], axis=1), out=parts)
    np.square(parts, out=parts)
    parts.reshape(2 * F, K, L).sum(axis=0, out=power)
    A = np.abs(R)
    lags = np.abs(np.subtract.outer(np.arange(N), np.arange(N))).astype(float)
    moments = A[:, None] * np.matmul(np.stack([lags**4, lags]), A[:, None])  # (F, 2, N, L)
    m4, m1 = moments.sum(axis=2).transpose(1, 0, 2)  # each (F, L)
    a = A.sum(axis=1)
    snapshot_bounds = (
        ((3 / 128) * (h * scales) ** 4) @ m4
        + (scales * (h * 2.0**-25 + 2.0**-51)) @ m1
        + ((10 * N * (scales + 8) + 2 * (L + 2) * (F + 1) + 128) * _U) @ (a * a)
    )
    # windows[i, l] = power[i : i + 4, l], the nodes around interval i
    np.matmul(sliding_window_view(power, 4, axis=0), _CUBIC.T, out=coeffs.reshape(_INTERVALS, L, 4))
    bound = float(snapshot_bounds.sum()) / L + ((4 * F + 16) * _TINY if a.any() else 0.0)
    return _BeamTable(
        R, grid, array, tuple(wavelengths),
        coeffs.reshape(-1, 4), snapshot_bounds, bound, scratch,
    )


def _interpolated_power(table: _BeamTable, rows=None):
    """Stage 2 of a scan: the interpolated beam power at every grid point,
    or at the grid points ``rows`` (valid for `grid_beam_power`), with its
    certificate: (values, bound), where |values - grid_beam_power(...)| <=
    bound at every scanned row.

    Each row sums, over the snapshots, its cubic (`_tabulate`) at its cached
    position (`sine_positions`), by Horner in t. Rows run in blocks of
    `_eval_rows`, in the table's scratch. Values are clamped at 0, as the
    float64 values are non-negative. Masked rows are 0 with bound 0, and so
    is every row of an all-zero residual; every other row has the table's
    bound."""
    L = table.snapshot_bounds.size
    cell, t = sine_positions(table.grid, L, _INTERVALS)
    mask = nonphysical_mask(table.grid, L)
    if rows is not None:
        mask = mask[rows]
    M = mask.size
    step = max(1, min(M, _eval_rows(L)))
    gathered = table.scratch[: 4 * step * L].reshape(-1, 4)
    at = table.scratch[4 * step * L : 5 * step * L]
    acc = table.scratch[5 * step * L : 6 * step * L]
    values = np.empty(M)
    for s in range(0, M, step):
        e = min(s + step, M)
        n = (e - s) * L
        picked = slice(s, e) if rows is None else rows[s:e]
        c, tt, a = gathered[:n], at[:n], acc[:n]
        np.take(table.coeffs, cell[picked].reshape(-1), axis=0, out=c, mode="clip")
        np.copyto(tt, t[picked].reshape(-1))
        np.multiply(c[:, 3], tt, out=a)
        a += c[:, 2]
        a *= tt
        a += c[:, 1]
        a *= tt
        a += c[:, 0]
        np.einsum("ij->i", a.reshape(e - s, L), out=values[s:e])
    values /= L
    np.maximum(values, 0.0, out=values)
    values[mask] = 0.0
    return values, np.where(mask, 0.0, table.bound)


def _rescore(values, bound, picked, rescan) -> None:
    """Overwrite ``values`` at the indices ``picked`` with their float64
    values ``rescan(indices)``, skipping the indices whose bound is 0, which
    hold theirs already."""
    picked = picked[bound[picked] > 0]
    if picked.size:
        values[picked] = rescan(picked)


def _neighborhoods(centers, shape) -> np.ndarray:
    """(centers, 3^D) linear indices of the Chebyshev-1 neighborhood of each
    linear index in ``centers`` on a lattice of ``shape``. Clipping moves an
    out-of-range coordinate back to the center's, inside the truncated
    neighborhood."""
    D = len(shape)
    offsets = np.indices((3,) * D).reshape(D, -1) - 1  # (D, 3^D)
    multi = tuple(c[:, None] + o[None, :] for c, o in zip(np.unravel_index(centers, shape), offsets))
    return np.ravel_multi_index(multi, shape, mode="clip")


def _settle_local_maxima(values, bound, shape, rescan, ranked: bool) -> np.ndarray:
    """The local maxima of the float64 field that ``values`` approximates
    within ``bound`` on a lattice of ``shape``, as `local_maxima` gives them,
    settled in place: afterwards `local_maxima` of ``values`` gives them too,
    and with ``ranked`` their values are the float64 field's, so they rank
    as there.

    A point surely is no float64 local maximum when some neighbor is surely
    larger (its values - bound exceeds the point's values + bound), or when
    its bound leaves it at 0; it surely is one when it is positive and
    surely no smaller than each neighbor, whatever their values within their
    bounds. Every point left open is rescored (`_rescore`) with its
    neighborhood and then tested on float64 values; with ``ranked`` every
    sure maximum is rescored too. A value kept is within its bound, so it
    turns no sure answer of the test."""
    lo = values - bound
    hi = values + bound
    maybe = np.flatnonzero((hi > 0) & (_window_max(lo.reshape(shape)).reshape(-1) <= hi))
    near = _neighborhoods(maybe, shape)
    others = np.where(near == maybe[:, None], -np.inf, hi[near]).max(axis=1, initial=-np.inf)
    sure = (lo[maybe] > 0) & (lo[maybe] >= others)
    picked = [near[~sure].reshape(-1)] + ([maybe[sure]] if ranked else [])
    _rescore(values, bound, np.unique(np.concatenate(picked)), rescan)
    # an open point and its neighbors now hold their float64 values
    center, around = values[maybe[~sure]], values[near[~sure]]
    sure[~sure] = (center > 0) & (center >= around.max(axis=1, initial=-np.inf))
    return maybe[sure]


def _scan_maxima(table: _BeamTable, rows, shape, ranked: bool):
    """An interpolated scan (`_interpolated_power`) of the grid points
    ``rows`` (all when None), laid out on a lattice of ``shape``, with its
    local maxima settled as the float64 scan's (`_settle_local_maxima`):
    (values, the maxima's positions in the scan)."""
    values, bound = _interpolated_power(table, rows=rows)
    rescan = table.rescan if rows is None else lambda idx: table.rescan(rows[idx])
    return values, _settle_local_maxima(values, bound, shape, rescan, ranked)


def tl_cbf_spectrum(blocks, grid: ParamGrid, array: ArrayConfig) -> Spectrum:
    """Conventional-beamforming power spectrum over the trajectory grid.

    Single-frequency input gives the narrowband spectrum; wideband block sets
    sum the spectrum across frequencies. The scan interpolates one
    tabulation of the blocks (`_tabulate`, `_interpolated_power`). The values
    are those of the float64 scan (`grid_beam_power`) at every local
    maximum, and at every point whose local-maximum test the scan's bound
    leaves open together with its neighbors; elsewhere they are within that
    bound. So `find_peaks` returns the float64 scan's peaks, values and
    order.
    """
    Y, wavelengths = _check_blocks(blocks, array)
    table = _tabulate(Y, grid, array, wavelengths)
    values, _ = _scan_maxima(table, None, grid.shape, ranked=True)
    return Spectrum(grid, values)


def _window_max(field: np.ndarray) -> np.ndarray:
    """The largest value within Chebyshev distance 1 of each point of
    ``field``, neighborhoods truncated at the boundary: one pass per axis,
    each taking the larger of every point and its two neighbors on that
    axis."""
    out = field
    for axis in range(field.ndim):
        src, out = out, out.copy()
        head = tuple(slice(None, -1) if a == axis else slice(None) for a in range(field.ndim))
        tail = tuple(slice(1, None) if a == axis else slice(None) for a in range(field.ndim))
        np.maximum(out[tail], src[head], out=out[tail])
        np.maximum(out[head], src[tail], out=out[head])
    return out


def local_maxima(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Linear indices, increasing, of the local maxima of ``values`` laid out
    row-major on a lattice of ``shape``: positive points >= every neighbor
    within Chebyshev distance 1 (neighborhoods truncated at the boundary)."""
    field = values.reshape(shape)
    return np.flatnonzero(((field == _window_max(field)) & (field > 0)).reshape(-1))


def find_peaks(spectrum: Spectrum, count: int) -> PeakSet:
    """Up to ``count`` local spectrum maxima, strongest first.

    A grid point is a local maximum when its value is positive and >= every
    neighbor within Chebyshev distance 1 in the multi-index lattice
    (neighborhoods are truncated at the grid boundary); a zero plateau holds
    no maxima. Ties are broken by lowest linear index; a shortfall of local
    maxima is flagged, not fatal.
    """
    if count < 1:
        raise ValueError("peak count must be >= 1")
    idx = local_maxima(spectrum.values, spectrum.grid.shape)
    order = np.lexsort((idx, -spectrum.values[idx]))
    chosen = idx[order][:count]
    entries = tuple(
        (grid_point(spectrum.grid, int(i)), float(spectrum.values[i])) for i in chosen
    )
    return PeakSet(entries, shortfall=len(idx) < count)


def _beam_argmax(table: _BeamTable, rows=None) -> int:
    """The grid index of the largest float64 beam power (`grid_beam_power`)
    over the grid, or over its points ``rows`` (valid for `grid_beam_power`),
    lowest on a tie: an interpolated scan (`_interpolated_power`), then a
    float64 rescore of every point whose bound reaches the largest lower
    bound."""
    values, bound = _interpolated_power(table, rows=rows)
    contenders = np.flatnonzero(values + bound >= np.max(values - bound))
    rescan = table.rescan if rows is None else lambda idx: table.rescan(rows[idx])
    _rescore(values, bound, contenders, rescan)
    best = int(contenders[np.argmax(values[contenders])])
    return best if rows is None else int(rows[best])


def _coarse_start(residuals, grid: ParamGrid, array: ArrayConfig, wavelengths, flags: list) -> TrajectoryParams:
    """The grid start of the next gridless source, without a full scan: the
    local maxima of the coarse lattice's field (`coarse_lattice`), then the
    best point of their full-resolution Chebyshev-1 neighborhoods, lowest
    index on a tie, each decided as by a float64 scan from one tabulation of
    the residual (`_tabulate`). Every grid point lies within distance 1 of
    the lattice, so each basin of the coarse field is entered at full
    resolution, and the ascent that follows needs no more. A field without
    maxima appends "coarse-peak-shortfall" to ``flags``."""
    L = residuals[0].shape[1]
    lattice = coarse_lattice(grid)
    table = _tabulate(residuals, grid, array, wavelengths)
    _, maxima = _scan_maxima(table, lattice, coarse_shape(grid), ranked=False)
    if maxima.size == 0:
        # a zero residual has a zero field, which holds no peaks
        flags.append("coarse-peak-shortfall")
        return grid_point(grid, int(np.argmin(nonphysical_mask(grid, L))))
    rows = np.unique(_neighborhoods(lattice[maxima], grid.shape))
    return grid_point(grid, _beam_argmax(table, rows))


def tl_omp(blocks, grid: ParamGrid, array: ArrayConfig, K: int):
    """Greedy on-grid pursuit of K trajectories.

    Each iteration tabulates the current residual (`_tabulate`) and selects
    the grid point with maximum beam power against it (`_beam_argmax`, the
    float64 scan's choice), then re-projects every snapshot of the residual
    onto the orthogonal complement of all selected steering vectors at that
    snapshot. Reported amplitudes are the final least-squares fit of the
    selected trajectories to the raw blocks.

    Returns (list of SourceEstimate, residual Frobenius norm after each
    iteration).
    """
    residuals, wavelengths = _check_blocks(blocks, array, K)
    selected: list[TrajectoryParams] = []
    norms: list[float] = []
    for _ in range(K):
        best = _beam_argmax(_tabulate(residuals, grid, array, wavelengths))
        selected.append(grid_point(grid, best))
        _, _, residuals = project_all(selected, residuals, array, wavelengths)
        norms.append(float(np.sqrt(residual_energy(residuals))))
    return source_estimates(selected, amplitudes_ls(selected, blocks, array)), norms


def _powers_tensor(E: np.ndarray, N: int, buf: np.ndarray) -> np.ndarray:
    """A[l, n, m] = E[m, l]**n for the phasor rows E (m, L), shape (L, N, m),
    each power one multiply by E from the power below it. A is a view of the
    front of the flat complex buffer ``buf``, which it overwrites."""
    m, L = E.shape
    A = buf[: L * N * m].reshape(L, N, m)
    A[:, 0, :] = 1.0
    for n in range(1, N):
        np.multiply(A[:, n - 1, :], E.T, out=A[:, n, :])
    return A


def tl_sbl(
    blocks,
    grid: ParamGrid,
    array: ArrayConfig,
    K: int,
    noise_variance: float,
):
    """Sparse-Bayesian-learning spectrum over the trajectory grid (narrowband).

    Iterates the multiplicative variance update (M-SBL, Wipf & Rao 2007)

        gamma_m <- gamma_m * sum_l |a_lm^H S_l^{-1} y_l|^2
                             / sum_l a_lm^H S_l^{-1} a_lm

    with per-snapshot covariances S_l = sigma_n^2 I + sum_m gamma_m a_lm
    a_lm^H, starting from gamma = 1 at every physical grid point and 0 at the
    points of `nonphysical_mask`, until the largest gamma change relative to
    the largest gamma drops below `SBL_TOL` or `SBL_MAX_ITERS` is reached
    (non-convergence warns, never raises). After each update, a gamma below
    `SBL_PRUNE` times the largest is set to 0 for good: the multiplicative
    update keeps it there. Returns the final gamma vector, exactly 0 at
    masked and pruned points, as a Spectrum together with its
    K + `PEAK_EXCESS` strongest peaks.

    The array is a uniform line, so a_lm[n] = E_ml**n with |E_ml| = 1, and
    every quantity of the update depends on a sensor pair (n, k) only through
    the lag n - k. With the powers tensor A[l, d, m] = E_ml**d:

        r[l, d]    = sum_m gamma_m E_ml**d                  (r = A @ gamma)
        S_l[n, k]  = sigma_n^2 delta_nk + r[l, n - k]        for n >= k,
                     conj(r[l, k - n])                       for n < k;
        c[l, d]    = sum_n S_l^{-1}[n, n + d]                (d-th diagonal sum)
        a_lm^H S_l^{-1} a_lm = Re c[l, 0] + 2 Re sum_{d>=1} c[l, d] E_ml**d;
        |a_lm^H S_l^{-1} y_l| = |sum_d conj(S_l^{-1} y_l)[d] E_ml**d|.

    So one iteration is three matrix-vector products against A, O(L N M_A)
    for the M_A grid points A holds, instead of forming S_l and S_l^{-1} A_l
    in O(L N^2 M). A holds the physical points at first; whenever the points
    still active have halved since A was built, A is rebuilt over them alone,
    from their rows of the complex128 phasors the call builds once for the
    physical points (`phase_rows`), into the front of its own buffer. So a
    call allocates one tensor, whose size the first build sets, and no
    tensor per compaction. Pruned points A still holds carry gamma = 0 until
    then.
    """
    if not 0 < noise_variance < np.inf:
        raise ValueError(
            f"noise variance must be positive and finite (assumed known), got {noise_variance}"
        )
    if len(blocks) != 1:
        raise ValueError("TL-SBL is narrowband: pass exactly one block")
    _, (lam,) = _check_blocks(blocks, array, K)
    N, L = blocks[0].data.shape
    M = grid.size

    cols = np.flatnonzero(~nonphysical_mask(grid, L))  # grid points A holds
    E = phase_rows(grid, L, _phase_scale(array, lam), cols)  # the rows A holds
    buf = np.empty(L * N * cols.size, dtype=complex)
    A = _powers_tensor(E, N, buf)
    A_flat = A.reshape(L * N, cols.size)
    lag = (N - 1) + np.subtract.outer(np.arange(N), np.arange(N))  # (N-1) + n - k
    Yl = blocks[0].data.T  # (L, N)

    gamma = np.ones(cols.size)
    active = np.ones(cols.size, dtype=bool)
    converged = False
    for _ in range(SBL_MAX_ITERS):
        if 2 * np.count_nonzero(active) <= active.size:
            cols, E, gamma = cols[active], E[active], gamma[active]
            A = _powers_tensor(E, N, buf)
            A_flat = A.reshape(L * N, cols.size)
            active = np.ones(cols.size, dtype=bool)
        r = (A_flat @ gamma).reshape(L, N)
        # lags -(N-1) .. N-1 of each snapshot's Hermitian Toeplitz covariance
        t = np.concatenate([np.conj(r[:, :0:-1]), r], axis=1)
        t[:, N - 1] += noise_variance
        Cinv = np.linalg.inv(t[:, lag])
        Cy = np.einsum("lnk,lk->ln", Cinv, Yl)
        b = np.matmul(np.conj(Cy)[:, None, :], A)[:, 0, :]
        num = (b.real**2 + b.imag**2).sum(axis=0)
        c = np.stack([np.trace(Cinv, d, axis1=1, axis2=2) for d in range(N)], axis=1)
        c[:, 1:] *= 2.0
        den = (c.reshape(L * N) @ A_flat).real  # sum_l of a_lm^H S_l^{-1} a_lm
        gamma_new = gamma * num / den
        rel = float(
            np.max(np.abs(gamma_new - gamma), initial=0.0)
            / max(np.max(gamma, initial=0.0), 1e-300)
        )
        active[gamma_new < SBL_PRUNE * np.max(gamma_new, initial=0.0)] = False
        gamma = np.where(active, gamma_new, 0.0)
        if rel < SBL_TOL:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"TL-SBL did not converge within {SBL_MAX_ITERS} iterations "
            f"(last relative change {rel:.1e}; "
            f"{np.count_nonzero(active)} of {M} grid points active)",
            NumericsWarning,
            stacklevel=2,
        )
    values = np.zeros(M)
    values[cols] = gamma
    spectrum = Spectrum(grid, values)
    return spectrum, find_peaks(spectrum, K + PEAK_EXCESS)
