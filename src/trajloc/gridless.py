"""Gridless trajectory estimators: TL-SFW and TL-NOMP.

TL-SFW is the greedy (lambda = 0) sliding Frank-Wolfe solver for the
Beurling-LASSO form of the observation model: per outer iteration it adds the
best new trajectory (coarse-to-fine grid start + continuous local ascent),
then jointly refines all trajectories found so far with their amplitudes
eliminated by variable projection.

TL-NOMP adds one source per iteration with a single safeguarded projected
Newton refinement (`optim.newton_step`), then cyclically re-refines every
source found so far until the residual energy stops changing.

Both carry the same residual to the next source as TL-OMP does: the data
projected, at each snapshot, away from the span of the selected
trajectories' steering vectors (`optim.project_all`). TL-SFW takes it from
`joint_refine`; TL-NOMP re-projects the data after its cyclic sweeps.

Both only need a grid start in the right basin, since continuous ascent,
Newton steps and the joint refine finish the job, so each source starts from
`gridalgos._coarse_start`, which scans a coarse lattice and the neighborhoods
of its local maxima instead of the whole grid.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .gridalgos import _check_blocks, _coarse_start
from .grids import ParamGrid
from .model import (
    ArrayConfig,
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
    source_estimates,
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

    @contextmanager
    def timed(self, phase: str):
        """Add the wall time of the ``with`` body to ``timings[phase]``."""
        t0 = time.perf_counter()
        yield
        self.timings[phase] = self.timings.get(phase, 0.0) + time.perf_counter() - t0


def tl_sfw(
    blocks,
    grid: ParamGrid,
    array: ArrayConfig,
    K: int,
):
    """Sliding Frank-Wolfe trajectory localization.

    Per source: (i) coarse-to-fine grid start against the current residual
    (`_coarse_start`) followed by local ascent over the continuum inside
    `Bounds.from_grid`;
    (ii) joint variable-projection refinement of every trajectory found so
    far, which eliminates the amplitudes at their exact least-squares
    optimum at every point it evaluates, so there is no separate amplitude
    step. The residual carried to the next source is the data projected
    away from the refined trajectories, as the refine returns it.

    Returns (list of K SourceEstimate, RunTrace).
    """
    residuals, wavelengths = _check_blocks(blocks, array, K)
    bounds = Bounds.from_grid(grid)
    trace = RunTrace()
    W: list[TrajectoryParams] = []
    for k in range(1, K + 1):
        with trace.timed("coarse"):
            start = _coarse_start(residuals, grid, array, wavelengths, trace.flags)
        with trace.timed("local"):
            omega, report = maximize_local(start, residuals, array, wavelengths, bounds)
            trace.refinements += report.iterations
            W.append(omega)
        with trace.timed("joint"):
            # X: (F, k, L); residuals: the data projected away from W
            W, X, report, residuals = joint_refine(W, blocks, array, bounds)
            trace.refinements += report.iterations
            trace.fit_history.append((f"joint[{k}]", report.final_objective))
        trace.residual_norms.append(float(np.sqrt(residual_energy(residuals))))
    return source_estimates(W, X), trace


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
    Y, wavelengths = _check_blocks(blocks, array, K)
    bounds = Bounds.from_grid(grid)
    trace = RunTrace()

    def refit(omega, R):
        """Steps (ii) and (iii) for one source: one Newton step of ``omega``
        against the residual R it is held out of, then its matched-filter
        fit to R. Returns (omega, its (F, 1, N, L) steering stack and
        (F, 1, L) amplitudes, R minus the fit)."""
        omega, used = newton_step(omega, R, array, wavelengths, bounds)
        trace.refinements += 1
        trace.gradient_fallbacks += not used
        return (omega, *project_all([omega], R, array, wavelengths))

    R = Y  # Y minus the fit of W
    W: list[TrajectoryParams] = []
    A = X = None  # W's (F, k, N, L) steering stack and (F, k, L) amplitudes
    tol = CYCLIC_RTOL * residual_energy(Y)
    for k in range(1, K + 1):
        with trace.timed("coarse"):
            omega = _coarse_start(R, grid, array, wavelengths, trace.flags)
        with trace.timed("newton"):
            omega, A_new, x_new, R = refit(omega, R)
            W.append(omega)
            A = A_new if k == 1 else np.concatenate([A, A_new], axis=1)
            X = x_new if k == 1 else np.concatenate([X, x_new], axis=1)
        with trace.timed("cyclic"):
            before = residual_energy(R)
            for cycle in range(1, MAX_CYCLES + 1):
                for i in range(len(W)):
                    R_hat = R + A[:, i] * X[:, i, None, :]
                    W[i], A[:, i : i + 1], X[:, i : i + 1], R = refit(W[i], R_hat)
                after = residual_energy(R)
                trace.fit_history.append((f"cycle[{k}.{cycle}]", after))
                if abs(before - after) <= tol:
                    break
                before = after
            else:
                trace.flags.append(f"cyclic-cap[{k}]")
        with trace.timed("project"):
            A, X, R = project_all(W, Y, array, wavelengths)
            trace.residual_norms.append(float(np.sqrt(residual_energy(R))))
    return source_estimates(W, X), trace
