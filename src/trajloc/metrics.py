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

    ``pairs`` holds (true_index, estimate_index, cutoff_distance) with each
    true index appearing exactly once; distances are already clipped at the
    cutoff ``c``.
    """

    pairs: tuple[tuple[int, int, float], ...]
    ospa: float
    unassigned_estimates: tuple[int, ...]


def ospa_assign(true_set, est_set, p: int = OSPA_P, c: float = OSPA_C, L: int = 30) -> Assignment:
    """Optimal subpattern assignment between K true and K_hat >= K estimated
    trajectories.

    The K x K_hat cost matrix holds ``min(c, rmse)**p``; the minimizing
    injection is found by exact rectangular assignment, and the metric adds
    the cardinality penalty ``(K_hat - K) * c**p`` before the 1/p root.
    """
    true_set = list(true_set)
    est_set = list(est_set)
    K, Khat = len(true_set), len(est_set)
    if K > Khat:
        raise ValueError(f"need K <= K_hat, got K={K}, K_hat={Khat} (swap the roles)")
    if Khat == 0:
        return Assignment((), 0.0, ())

    cost = np.empty((K, Khat))
    for i, t in enumerate(true_set):
        for j, e in enumerate(est_set):
            cost[i, j] = min(c, trajectory_rmse(t, e, L)) ** p
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(
        (int(i), int(j), float(cost[i, j] ** (1.0 / p))) for i, j in zip(rows, cols)
    )
    total = float(cost[rows, cols].sum()) + (Khat - K) * c**p
    ospa = (total / Khat) ** (1.0 / p)
    assigned = set(int(j) for j in cols)
    unassigned = tuple(j for j in range(Khat) if j not in assigned)
    return Assignment(pairs, float(ospa), unassigned)


def detection_stats(assignment: Assignment, threshold: float = DETECTION_THRESHOLD):
    """Probability of detection and mean RMSE of the detected sources.

    A true source counts as detected when its assigned distance is strictly
    below the threshold. With no detections the RMSE is ``None`` (absent, not
    zero).
    """
    if not assignment.pairs:
        return 0.0, None
    dists = np.array([d for _, _, d in assignment.pairs])
    detected = dists < threshold
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
