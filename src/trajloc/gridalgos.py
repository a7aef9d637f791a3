"""Grid-based trajectory localization: TL-CBF spectra, peak extraction,
TL-OMP greedy pursuit, the TL-SBL hyperparameter iteration, and the
coarse-to-fine grid start of the gridless estimators (`_coarse_start`).

All scans share one vectorized kernel that evaluates the beam power of every
grid trajectory against a set of residual matrices; wideband inputs are
handled non-coherently by summing that power over frequencies, so a single
narrowband block is just the F=1 special case of the same code path.

The kernel is generic in the phasors' dtype. Every scan whose caller uses
only a decision runs it in complex64 on the cached complex64 phasor table
(`_beam_power32`), which also returns a certified bound on each row's
distance from the float64 scan: TL-OMP's argmax, TL-CBF's local maxima and
their ranking, and the coarse start's lattice maxima and best neighbor. All
of them are made here, by `_beam_argmax` and `_scan_maxima`: the rows whose
decision the bound leaves open are rescanned in float64 (`grid_beam_power`,
from phasor rows built on demand), so every decision is exactly the float64
scan's.

The kernel walks the grid in blocks of 512 KB of accumulator. What its
sensor recursion touches stays in a core's L2 cache: the block's accumulator,
the block's rows of the (M, L) phasor table and a tile of the conjugated
residual rows, where a whole-table pass would stream the table from memory
once per sensor. The recursion runs on conj(R) against the table rows as
they are: that gives the conjugate of each beam sum, whose squared modulus
is the same to the bit, so no table row is conjugated and a full scan copies
none. The blocking changes no element's arithmetic: spectra are
bit-identical to a whole-table pass. The same kernel scans a subset of rows,
bit-identical at each row to the full scan, and the scans zero the grid
points whose trajectory leaves (-90, 90) degrees.

A scan of at least two blocks splits its rows into one contiguous share per
CPU the process may run on (`os.sched_getaffinity`), each scanned by its own
thread; numpy releases the interpreter lock inside the block operations. No
row's arithmetic depends on the split, so results are the same whatever the
number of CPUs. These threads are not BLAS threads: pinning BLAS to one
thread does not govern them. They start and finish within one scan, so no
thread is alive when the harness forks its worker processes.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import (
    ParamGrid,
    coarse_lattice,
    coarse_shape,
    grid_point,
    nonphysical_mask,
    phase_rows,
    phase_table,
)
from .model import (
    ArrayConfig,
    TrajectoryParams,
    _phase_scale,
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
    maximum, and at every point whose local-maximum test the complex64
    scan's bound left open together with its neighbors; elsewhere its values
    are within that bound, at most about 1e-5 of the largest."""

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


def _check_blocks(blocks, array: ArrayConfig, K: int | None = None) -> tuple[float, ...]:
    """Refuse malformed blocks, and a source count K below 1 where one is
    sought; return the blocks' processing wavelengths."""
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
    return block_wavelengths(array, blocks)


SBL_TOL = 1e-3  # TL-SBL's stop: largest gamma change / largest gamma
SBL_PRUNE = 1e-6  # TL-SBL drops a gamma below this share of the largest
SBL_MAX_ITERS = 500
PEAK_EXCESS = 2  # spectrum methods report K + PEAK_EXCESS peaks for K sources

# Bytes of one (rows, L) block of the scan, in the tables' dtype. A 2 MB
# per-core L2 cache holds a share's accumulator block, the block's phasor rows
# and its tile of conj(R): N rows of `_tile_rows` * L elements each, 320 KB at
# N = 10 in complex64.
_SCAN_BLOCK_BYTES = 1 << 19

# The certificate of a complex64 scan (`_beam_power32`). Per snapshot, a
# complex64 Horner sum of N terms is within u32 * sum_n w_n |R[n, l]| of the
# complex128 scan's, with w_n = _HORNER_SLOPE * n + _HORNER_BASE. Term n meets
# n complex multiplies (sqrt(2)*gamma_2 each, Higham 2002, lemma 3.5) and at
# most n + 1 complex adds (u each), the rounding of its table entry raised to
# the n-th power (n u) and the rounding of conj(R) (u): (4.83 n + 2) u to
# first order. The slack up to 5 n + 3 covers the second-order terms and the
# complex128 scan's own rounding, 2^-29 times smaller. _TINY32 per term and
# per square bounds what float32 underflow adds.
_HORNER_SLOPE = 5
_HORNER_BASE = 3
_U32 = float(np.finfo(np.float32).eps) / 2
_TINY32 = float(np.finfo(np.float32).tiny)


def _scan_rows(L: int, dtype=complex) -> int:
    """Grid rows per scan block at block length L: 1092 at L = 30 in
    complex128, 2184 in complex64."""
    return max(1, _SCAN_BLOCK_BYTES // (np.dtype(dtype).itemsize * L))


def _tile_rows(L: int) -> int:
    """Rows of a scan share's tile of conj(R) at block length L (137 at
    L = 30): the fewest whose tile row numpy adds unbuffered. Its ufunc loop
    stages a broadcast row of up to half its buffer (`np.getbufsize`, 8192
    elements by default) through that buffer; on numpy 2.4 such an add ran
    at about half the speed of one with a longer row."""
    return np.getbufsize() // (2 * L) + 1


def _scan_workers(M: int, step: int) -> int:
    """Threads for a scan of M rows in blocks of ``step``: one per CPU this
    process may run on, but never so many that a share is under one full
    block (a scan of fewer than two blocks stays serial, where starting a
    thread costs more than it saves)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, M // step))


def _scan_share(residuals, tables, rows, lo, hi, step, values):
    """Beam power of rows lo:hi of the scan, frequency f's into
    ``values[f, lo:hi]``: the sensor recursion block by block, every
    frequency in order, in this share's own scratch and in the tables'
    dtype, with each row's sum over the snapshots taken in float64.

    The recursion runs on conj(R) against the table rows as they are, which
    yields the conjugate of each element's sum, so |.|^2 is the same to the
    bit and no table row is conjugated. conj(R) is rounded to the tables'
    dtype and repeated `_tile_rows` times per row, so each Horner add is one
    long tile row broadcast over a block's whole tiles, plus a prefix of it
    over the rows left over."""
    N, L = residuals[0].shape
    dtype = tables[0].dtype
    size = min(step, hi - lo)
    width = min(size, _tile_rows(L)) * L
    tiles = np.empty((N, width), dtype=dtype)
    acc_block = np.empty(size * L, dtype=dtype)
    gathered = None if rows is None else np.empty((size, L), dtype=dtype)
    for R, table, out in zip(residuals, tables, values):
        np.conjugate(R[:, None, :], out=tiles.reshape(N, -1, L))
        for s in range(lo, hi, step):
            e = min(s + step, hi)
            E = table[s:e] if rows is None else np.take(table, rows[s:e], axis=0, out=gathered[: e - s])
            E = E.reshape(-1)
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
            f = acc.view(acc.real.dtype)
            np.square(f, out=f)
            re = f[0::2]
            re += f[1::2]
            out[s:e] = re.reshape(e - s, L).sum(axis=1, dtype=float)


def _scan(residuals, tables, rows, M):
    """Per-frequency row sums of `_scan_share` over the M table rows ``rows``
    (every row when None), shape (F, M). The rows are split into contiguous
    equal shares, one per thread (`_scan_workers`), and every thread is
    joined before the call returns."""
    L = tables[0].shape[1]
    step = max(1, min(M, _scan_rows(L, tables[0].dtype)))
    values = np.empty((len(tables), M))
    workers = _scan_workers(M, step)
    edges = [M * i // workers for i in range(workers + 1)]
    shares = list(zip(edges[:-1], edges[1:]))
    if workers == 1:  # a serial scan starts no thread
        _scan_share(residuals, tables, rows, 0, M, step, values)
        return values
    # the calling thread scans the first share
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [
            pool.submit(_scan_share, residuals, tables, rows, lo, hi, step, values)
            for lo, hi in shares[1:]
        ]
        _scan_share(residuals, tables, rows, *shares[0], step, values)
        for f in futures:
            f.result()
    return values


def grid_beam_power(
    residuals, grid: ParamGrid, array: ArrayConfig, wavelengths, rows=None
) -> np.ndarray:
    """Beam power (1/L) sum_f sum_l |a_lf^H r_lf|^2 at every grid point, or
    at the grid points ``rows`` (strictly increasing linear indices) only,
    in complex128: the reference scan, and the rescan that settles what a
    complex64 scan (`_beam_power32`) leaves open.

    Horner recursion over the sensor index against the complex128 phasor
    rows of the scanned points (`phase_rows`, built for the call), so a scan
    costs N - 1 complex multiply-adds of an (M, L) array per frequency. The
    recursion runs on conj(R), whose sum is the conjugate of a^H r with the
    same squared modulus, so the rows need no conjugate. It runs over blocks
    of `_scan_rows` grid rows: the accumulator, the block's phasor rows and
    the tiled conj(R) stay in cache through the whole recursion, where a
    whole-table pass would stream the (M, L) rows from memory once per
    sensor. Every element sees the same arithmetic in the same order as in
    a whole-table pass, and each phasor row is the same to the bit whichever
    rows are built with it, so the values depend neither on the block size
    nor on which other rows are scanned. The residuals have at least two
    sensor rows, as every `ArrayConfig` has at least two sensors.

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
    for v in _scan(residuals, tables, None, mask.size):  # frequencies in order
        values += v
    values[mask] = 0.0
    return values / L


def _beam_power32(residuals, grid: ParamGrid, array: ArrayConfig, wavelengths, rows=None):
    """`grid_beam_power` run in complex64 on the cached tables (`phase_table`),
    with a certificate: (values, bound), where |values - grid_beam_power(...)|
    <= bound at every scanned row. ``rows`` must be valid for
    `grid_beam_power`.

    Each frequency's residual is first scaled by the power of two 2^-e that
    brings its largest modulus into [0.5, 1), so float32 neither overflows
    nor underflows where float64 does not, and its powers are scaled back by
    4^e, exactly. With delta_lf the bound on snapshot l's beam sum at
    frequency f (see `_HORNER_SLOPE`; it is the same at every grid point,
    since every phasor has modulus 1) and Delta^2 = sum_f sum_l delta_lf^2,
    Cauchy-Schwarz over the L F sums of a row gives

        bound = (2 sqrt(L v) Delta + Delta^2) / L + 4 u32 v + underflow,

    where 4 u32 v covers the rounding of the float32 squares and the sums.
    A row whose bound is 0 (a masked row, or an all-zero residual) holds
    its exact value.
    """
    N, L = residuals[0].shape
    mask = nonphysical_mask(grid, L)
    if rows is not None:
        mask = mask[rows]
    tables = [phase_table(grid, L, _phase_scale(array, lam)) for lam in wavelengths]
    weights = _HORNER_SLOPE * np.arange(N) + _HORNER_BASE
    scaled, exps = [], []
    delta2 = floor = 0.0
    for R in residuals:
        mag = np.abs(R)
        peak = float(mag.max())
        e = math.frexp(peak)[1]  # 0 for an all-zero residual
        Rs = np.ldexp(np.ascontiguousarray(R).view(float), -e).view(complex)
        scaled.append(Rs.astype(np.complex64))  # the tiles' dtype: conj(R) fills them uncast
        exps.append(2 * e)
        delta = weights @ (_U32 * mag + math.ldexp(_TINY32, e))  # (L,), unscaled
        delta[~mag.any(axis=0)] = 0.0  # an all-zero snapshot sums to 0 exactly
        delta2 += float(delta @ delta)
        floor += float(np.ldexp(_TINY32, 2 * e)) if peak > 0 else 0.0
    per = _scan(scaled, tables, rows, mask.size)
    values = np.ldexp(per[0], exps[0], out=per[0])
    for v, e in zip(per[1:], exps[1:]):
        values += np.ldexp(v, e, out=v)
    values[mask] = 0.0
    values /= L
    bound = np.sqrt(values)
    np.multiply(bound, 4 * _U32 * bound + 2 * np.sqrt(delta2 / L), out=bound)
    bound += delta2 / L + floor
    bound[mask] = 0.0
    return values, bound


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


def _scan_maxima(residuals, grid, array, wavelengths, rows, shape, ranked: bool):
    """A complex64 scan (`_beam_power32`) of the grid points ``rows`` (all
    when None), laid out on a lattice of ``shape``, with its local maxima
    settled as the float64 scan's (`_settle_local_maxima`): (values, the
    maxima's positions in the scan)."""
    values, bound = _beam_power32(residuals, grid, array, wavelengths, rows=rows)
    rescan = lambda idx: grid_beam_power(
        residuals, grid, array, wavelengths, rows=idx if rows is None else rows[idx]
    )
    return values, _settle_local_maxima(values, bound, shape, rescan, ranked)


def tl_cbf_spectrum(blocks, grid: ParamGrid, array: ArrayConfig) -> Spectrum:
    """Conventional-beamforming power spectrum over the trajectory grid.

    Single-frequency input gives the narrowband spectrum; wideband block sets
    sum the spectrum across frequencies. The scan runs in complex64
    (`_beam_power32`). The values are those of the float64 scan
    (`grid_beam_power`) at every local maximum, and at every point whose
    local-maximum test the scan's bound leaves open together with its
    neighbors; elsewhere they are within that bound. So `find_peaks`
    returns the float64 scan's peaks, values and order.
    """
    wavelengths = _check_blocks(blocks, array)
    residuals = [b.data for b in blocks]
    values, _ = _scan_maxima(residuals, grid, array, wavelengths, None, grid.shape, ranked=True)
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


def _beam_argmax(residuals, grid: ParamGrid, array: ArrayConfig, wavelengths, rows=None) -> int:
    """The grid index of the largest float64 beam power (`grid_beam_power`)
    over the grid, or over its points ``rows`` (valid for `grid_beam_power`),
    lowest on a tie: a complex64 scan (`_beam_power32`), then a float64
    rescore of every point whose bound reaches the largest lower bound."""
    values, bound = _beam_power32(residuals, grid, array, wavelengths, rows=rows)
    contenders = np.flatnonzero(values + bound >= np.max(values - bound))
    rescan = lambda idx: grid_beam_power(
        residuals, grid, array, wavelengths, rows=idx if rows is None else rows[idx]
    )
    _rescore(values, bound, contenders, rescan)
    best = int(contenders[np.argmax(values[contenders])])
    return best if rows is None else int(rows[best])


def _coarse_start(residuals, grid: ParamGrid, array: ArrayConfig, wavelengths, flags: list) -> TrajectoryParams:
    """The grid start of the next gridless source, without a full scan: the
    local maxima of the coarse lattice's field (`coarse_lattice`), then the
    best point of their full-resolution Chebyshev-1 neighborhoods, lowest
    index on a tie, each decided as by a float64 scan. Every grid point lies
    within distance 1 of the lattice, so each basin of the coarse field is
    entered at full resolution, and the ascent that follows needs no more.
    A field without maxima appends "coarse-peak-shortfall" to ``flags``."""
    L = residuals[0].shape[1]
    lattice = coarse_lattice(grid)
    _, maxima = _scan_maxima(residuals, grid, array, wavelengths, lattice, coarse_shape(grid), ranked=False)
    if maxima.size == 0:
        # a zero residual has a zero field, which holds no peaks
        flags.append("coarse-peak-shortfall")
        return grid_point(grid, int(np.argmin(nonphysical_mask(grid, L))))
    rows = np.unique(_neighborhoods(lattice[maxima], grid.shape))
    return grid_point(grid, _beam_argmax(residuals, grid, array, wavelengths, rows))


def tl_omp(blocks, grid: ParamGrid, array: ArrayConfig, K: int):
    """Greedy on-grid pursuit of K trajectories.

    Each iteration selects the grid point with maximum beam power against the
    current residual (`_beam_argmax`, the float64 scan's choice), then
    re-projects every snapshot of the residual onto the orthogonal complement
    of all selected steering vectors at that snapshot. Reported amplitudes
    are the final least-squares fit of the selected trajectories to the raw
    blocks.

    Returns (list of SourceEstimate, residual Frobenius norm after each
    iteration).
    """
    wavelengths = _check_blocks(blocks, array, K)
    residuals = [b.data for b in blocks]
    selected: list[TrajectoryParams] = []
    norms: list[float] = []
    for _ in range(K):
        selected.append(grid_point(grid, _beam_argmax(residuals, grid, array, wavelengths)))
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
    (lam,) = _check_blocks(blocks, array, K)
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
