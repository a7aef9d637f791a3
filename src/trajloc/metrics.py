"""Trajectory error metrics: snapshot-wise RMSE, OSPA set assignment,
detection statistics, and the exhaustive on-grid error floor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .grids import ParamGrid, doa_table, grid_point, nonphysical_mask
from .model import TrajectoryParams, doas

# The scoring rule every estimator is judged by: OSPA of order p = 2 with
# cutoff c = 100 degrees (Schuhmacher, Vo & Vo, IEEE TSP 2008), and a true
# source counts as detected when its assigned distance is below 5 degrees.
OSPA_P = 2
OSPA_C = 100.0
DETECTION_THRESHOLD = 5.0


def trajectory_rmse(true: TrajectoryParams, est: TrajectoryParams, L: int) -> float:
    """Root-mean-square DOA error over the block, in degrees.

    The two trajectories are compared snapshot by snapshot, so they may come
    from different model families.
    """
    diff = doas(true, L) - doas(est, L)
    return float(np.sqrt(np.mean(diff**2)))


@dataclass(frozen=True)
class Assignment:
    """Optimal pairing of true sources with estimates under the OSPA cost.

    ``pairs`` holds (true_index, estimate_index, cutoff_distance) in
    increasing true index, each true index at most once (min(K, K_hat)
    pairs); distances are already clipped at the cutoff `OSPA_C`. The indices
    left out of ``pairs`` are listed as unassigned.
    """

    pairs: tuple[tuple[int, int, float], ...]
    ospa: float
    unassigned_estimates: tuple[int, ...]
    unassigned_truths: tuple[int, ...]


def ospa_assign(true_set, est_set, L: int) -> Assignment:
    """Optimal subpattern assignment between K true and K_hat estimated
    trajectories over a block of L snapshots.

    The K x K_hat cost matrix holds ``min(c, rmse)**p`` (c = `OSPA_C`, p =
    `OSPA_P`); the smaller set is injected into the larger one by exact
    rectangular assignment (OSPA is symmetric, so K > K_hat transposes the
    problem); the cardinality penalty ``|K_hat - K| * c**p`` precedes the 1/p root.
    """
    true_set = list(true_set)
    est_set = list(est_set)
    K, Khat = len(true_set), len(est_set)
    if max(K, Khat) == 0:
        return Assignment((), 0.0, (), ())

    cost = np.empty((K, Khat))
    for i, t in enumerate(true_set):
        for j, e in enumerate(est_set):
            cost[i, j] = min(OSPA_C, trajectory_rmse(t, e, L)) ** OSPA_P
    if K <= Khat:
        rows, cols = linear_sum_assignment(cost)
    else:
        cols, rows = linear_sum_assignment(cost.T)
    pairs = tuple(
        sorted((int(i), int(j), float(cost[i, j] ** (1.0 / OSPA_P))) for i, j in zip(rows, cols))
    )
    total = float(cost[rows, cols].sum()) + abs(Khat - K) * OSPA_C**OSPA_P
    ospa = (total / max(K, Khat)) ** (1.0 / OSPA_P)
    unassigned = tuple(sorted(set(range(Khat)) - set(cols.tolist())))
    missed = tuple(sorted(set(range(K)) - set(rows.tolist())))
    return Assignment(pairs, float(ospa), unassigned, missed)


def detection_stats(assignment: Assignment):
    """Probability of detection and mean RMSE of the detected sources.

    A true source counts as detected when its assigned distance is strictly
    below `DETECTION_THRESHOLD`; an unassigned one (K > K_hat) is missed.
    With no detections the RMSE is ``None`` (absent, not zero).
    """
    if not assignment.pairs:
        return 0.0, None
    missed = [np.inf] * len(assignment.unassigned_truths)
    dists = np.array([d for _, _, d in assignment.pairs] + missed)
    detected = dists < DETECTION_THRESHOLD
    pd = float(np.mean(detected))
    if not detected.any():
        return pd, None
    return pd, float(np.mean(dists[detected]))


def min_grid_rmse(true: TrajectoryParams, grid: ParamGrid, L: int):
    """Brute-force minimum trajectory RMSE achievable on a grid.

    Evaluates every one of the M grid points; this is the oracle for the
    error floor of on-grid methods, so no shortcut is taken. Points whose
    trajectory leaves (-90, 90) degrees (`nonphysical_mask`) are excluded,
    as the grid scans never return them.
    """
    theta_true = doas(true, L)
    table = doa_table(grid, L)
    rmse = np.sqrt(np.mean((table - theta_true[None, :]) ** 2, axis=1))
    rmse[nonphysical_mask(grid, L)] = np.inf
    best = int(np.argmin(rmse))
    return float(rmse[best]), grid_point(grid, best)
