"""Gridless trajectory estimators.

TL-SFW is the greedy (lambda = 0) sliding Frank-Wolfe solver for the
Beurling-LASSO form of the observation model: per outer iteration it adds the
best new trajectory (coarse-to-fine grid start + continuous local ascent),
then jointly refines all trajectories found so far with their amplitudes
eliminated by variable projection.

TL-NOMP adds one source per iteration with a single safeguarded projected
Newton refinement (`optim.newton_step`), then cyclically re-refines every source found so far until the
residual energy stops changing.

Both carry the same residual to the next source as TL-OMP does: the data
projected, at each snapshot, away from the span of the selected
trajectories' steering vectors (`optim.project_all`). TL-SFW takes it from
`joint_refine`; TL-NOMP re-projects the data after its cyclic sweeps.

Both estimators only need a grid start in the right basin, since continuous
ascent, Newton steps and the joint refine finish the job. So neither scans
the whole grid: `_coarse_start` scans the coarse lattice of every second
index per axis (about 1/2^D of the points), finds that field's local
maxima, and rescans the full-resolution neighborhood of each one. The
grid-based estimators keep the full scan, because the scan is their result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gridalgos import (
    _beam_argmax,
    _beam_power32,
    _check_blocks,
    _neighborhoods,
    _rescan,
    _settle_local_maxima,
)
from .grids import ParamGrid, coarse_lattice, coarse_shape, grid_point, nonphysical_mask
from .model import (
    ArrayConfig,
    SourceEstimate,
    TrajectoryParams,
    trajectory_steering_matrix,  # noqa: F401 -- module attribute that perfbench's tracer rebinds
)
from .optim import (
    Bounds,
    joint_refine,
    maximize_local,
    newton_step,
    project_all,
    residual_energy,
)


# TL-NOMP's cyclic sweeps stop once one changes the residual energy by at most
# CYCLIC_RTOL times the data energy (free of the data's scale), or MAX_CYCLES.
CYCLIC_RTOL = 1e-9
MAX_CYCLES = 50


@dataclass
class RunTrace:
    """Diagnostics accumulated by one estimator invocation. TL-NOMP counts
    in ``gradient_fallbacks`` its `newton_step` calls that took no step along
    the Newton direction."""

    residual_norms: list[float] = field(default_factory=list)
    fit_history: list[tuple[str, float]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    refinements: int = 0
    gradient_fallbacks: int = 0
    flags: list[str] = field(default_factory=list)

    def add_time(self, phase: str, seconds: float):
        self.timings[phase] = self.timings.get(phase, 0.0) + seconds


def _coarse_start(residuals, grid, array, wavelengths, trace):
    """The grid start of the next source, without a full grid scan.

    Scans the coarse lattice (every second index per axis), takes the local
    maxima of that coarse field, rescans the full-resolution Chebyshev-1
    neighborhood of each, and returns the best rescanned point (lowest index
    on a tie). Every grid point lies within distance 1 of the lattice, so
    each basin of the coarse field is entered at full resolution; the ascent
    that follows needs a start in the right basin, not the exact argmax.
    Both scans run in complex64 (`_beam_power32`); a float64 rescore of
    what their bounds leave open makes the maxima and the best point those
    of float64 scans (`_settle_local_maxima`, `_beam_argmax`).
    """
    L = residuals[0].shape[1]
    lattice = coarse_lattice(grid)
    coarse, bound = _beam_power32(residuals, grid, array, wavelengths, rows=lattice)
    rescan = _rescan(residuals, grid, array, wavelengths, lattice)
    maxima = lattice[_settle_local_maxima(coarse, bound, coarse_shape(grid), rescan, ranked=False)]
    if maxima.size == 0:
        # a zero residual has a zero field, which holds no peaks
        trace.flags.append("coarse-peak-shortfall")
        return grid_point(grid, int(np.argmin(nonphysical_mask(grid, L))))
    rows = np.unique(_neighborhoods(maxima, grid.shape))
    return grid_point(grid, _beam_argmax(residuals, grid, array, wavelengths, rows))


def tl_sfw(
    blocks,
    grid: ParamGrid,
    array: ArrayConfig,
    K: int,
):
    """Sliding Frank-Wolfe trajectory localization.

    Per source: (i) coarse-to-fine grid start (`_coarse_start`: the beam
    power against the current residual on every second grid index per axis,
    then at full resolution around each coarse local maximum; the best
    rescanned point) followed by local ascent over the continuum inside
    `Bounds.from_grid`;
    (ii) joint variable-projection refinement of every trajectory found so
    far, which eliminates the amplitudes at their exact least-squares
    optimum at every point it evaluates, so there is no separate amplitude
    step. The residual carried to the next source is the data projected
    away from the refined trajectories, as the refine returns it.

    Returns (list of K SourceEstimate, RunTrace).
    """
    wavelengths = _check_blocks(blocks, array, K)
    bounds = Bounds.from_grid(grid)
    trace = RunTrace()
    residuals = [b.data for b in blocks]
    W: list[TrajectoryParams] = []
    for k in range(1, K + 1):
        t0 = time.perf_counter()
        start = _coarse_start(residuals, grid, array, wavelengths, trace)
        t1 = time.perf_counter()
        trace.add_time("coarse", t1 - t0)

        omega, report = maximize_local(start, residuals, array, wavelengths, bounds)
        trace.refinements += report.iterations
        W.append(omega)
        t2 = time.perf_counter()
        trace.add_time("local", t2 - t1)

        # X: per-frequency (k, L); residuals: the data projected away from W
        W, X, report, residuals = joint_refine(W, blocks, array, bounds)
        trace.refinements += report.iterations
        trace.fit_history.append((f"joint[{k}]", report.final_objective))
        trace.add_time("joint", time.perf_counter() - t2)
        trace.residual_norms.append(float(np.sqrt(residual_energy(residuals))))

    estimates = [
        SourceEstimate(w, tuple(Xf[i] for Xf in X)) for i, w in enumerate(W)
    ]
    return estimates, trace


def tl_nomp(
    blocks,
    grid: ParamGrid,
    array: ArrayConfig,
    K: int,
):
    """Newtonized OMP trajectory localization.

    Carries one residual R, the data minus the fit of the sources found so
    far. Per source: (i) coarse-to-fine grid start against R (`_coarse_start`,
    as in `tl_sfw`); (ii) one safeguarded projected Newton step, then the new source's
    matched-filter amplitudes against R, subtracted from R; (iii) global
    cyclic refinement sweeping all sources found so far (add a source back
    into R, Newton-refine, re-estimate, subtract) until the residual energy
    changes by at most `CYCLIC_RTOL` times the data energy over a sweep,
    capped at `MAX_CYCLES`; (iv) the least-squares update of every amplitude.
    Those amplitudes are the ones reported, and the residual of that fit, the
    data projected away from all selected steering vectors, is where the
    next source starts.

    Returns (list of K SourceEstimate, RunTrace).
    """
    wavelengths = _check_blocks(blocks, array, K)
    bounds = Bounds.from_grid(grid)
    Y = [b.data for b in blocks]
    trace = RunTrace()
    R = Y  # Y minus the fit of W
    W: list[TrajectoryParams] = []
    A, X = [], []  # per frequency, W's (k, N, L) steering stack and (k, L) amplitudes
    tol = CYCLIC_RTOL * residual_energy(Y)
    for k in range(1, K + 1):
        t0 = time.perf_counter()
        omega = _coarse_start(R, grid, array, wavelengths, trace)
        t1 = time.perf_counter()
        trace.add_time("coarse", t1 - t0)

        omega, used = newton_step(omega, R, array, wavelengths, bounds)
        trace.refinements += 1
        trace.gradient_fallbacks += not used
        A_new, x_new, R = project_all([omega], R, array, wavelengths)
        W.append(omega)
        A = [np.concatenate(p) for p in zip(A, A_new)] if A else A_new
        X = [np.concatenate(p) for p in zip(X, x_new)] if X else x_new
        t2 = time.perf_counter()
        trace.add_time("newton", t2 - t1)

        before = residual_energy(R)
        for cycle in range(1, MAX_CYCLES + 1):
            for i in range(len(W)):
                R_hat = [Rf + Af[i] * Xf[i] for Rf, Af, Xf in zip(R, A, X)]
                W[i], used = newton_step(W[i], R_hat, array, wavelengths, bounds)
                A_i, x_i, R = project_all([W[i]], R_hat, array, wavelengths)
                for Af, Xf, a, x in zip(A, X, A_i, x_i):
                    Af[i], Xf[i] = a[0], x[0]
                trace.refinements += 1
                trace.gradient_fallbacks += not used
            after = residual_energy(R)
            trace.fit_history.append((f"cycle[{k}.{cycle}]", after))
            if abs(before - after) <= tol:
                break
            before = after
        else:
            trace.flags.append(f"cyclic-cap[{k}]")
        t3 = time.perf_counter()
        trace.add_time("cyclic", t3 - t2)

        A, X, R = project_all(W, Y, array, wavelengths)
        trace.residual_norms.append(float(np.sqrt(residual_energy(R))))
        trace.add_time("project", time.perf_counter() - t3)

    estimates = [SourceEstimate(w, tuple(Xf[i] for Xf in X)) for i, w in enumerate(W)]
    return estimates, trace
