"""The benchmark's fixed workloads and their set-up.

Each workload is one sweep point of a built-in experiment, run through the
public ``harness.run_scenario`` one trial at a time. Nothing here imports
trajloc at module level, so a set-up probe can start its clock before the
package is first imported.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

# Trial seeds of different runs never overlap: run ``--seed n`` uses the
# harness base seed ``n * SEED_STRIDE`` and trial t adds t to it.
SEED_STRIDE = 100_000

GRIDLESS_AND_GREEDY = ("tl-cbf", "tl-omp", "tl-sfw", "tl-nomp")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # built-in experiment of trajloc.harness
    sweep_value: float  # the one sweep point that is run
    algorithms: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "narrowband-linear",
            "snr",
            5.0,
            GRIDLESS_AND_GREEDY,
            "snr @ 5 dB, K=4 linear, M=1806: optim/model refinement is most of a "
            "trial and grid scans are small, so scan changes should not move it",
        ),
        Workload(
            "sbl-linear",
            "snr",
            30.0,
            ("tl-sbl",),
            "snr @ 30 dB, tl-sbl alone: the full L=30, N=10, M=1806 SBL kernel "
            "where nothing else runs; at 5 dB its 190-400 iterations fit 2-3 trials "
            "in a run, too few to be steady",
        ),
        Workload(
            "wideband-quadratic",
            "wideband",
            7.0,
            GRIDLESS_AND_GREEDY,
            "F=7 quadratic, M=37926: seven 18 MB phase tables exceed L3 and "
            "grid_beam_power dominates; D=3 and per-frequency loops",
        ),
    )
}


def trajloc_src(root: str) -> str:
    """The checkout's ``src`` directory; raises if it holds no trajloc."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trajloc", "__init__.py")):
        raise FileNotFoundError(f"no trajloc sources under {src!r}")
    return src


def import_trajloc(root: str):
    """Import trajloc from ``root/src`` and nowhere else."""
    src = trajloc_src(root)
    if src not in sys.path:
        sys.path.insert(0, src)
    import trajloc

    where = os.path.realpath(trajloc.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"trajloc imported from {where!r}, not from {src!r}")
    return trajloc


def scenario(workload: Workload):
    """The workload's harness config, pinned to its single sweep point and to
    one trial per ``run_scenario`` call."""
    from dataclasses import replace

    from trajloc import harness

    base = harness.builtin_experiment(workload.experiment)
    kind, _ = harness.sweep_points(base)
    if kind == "snr_db":
        point = dict(snr_db=workload.sweep_value)
    else:
        point = dict(sweep=(kind, (workload.sweep_value,)))
    return replace(base, algorithms=workload.algorithms, trials=1, **point)


def setup(workload: Workload, root: str):
    """Import trajloc, materialize the config and cell, and fill the
    ``grids.doa_table``/``phase_table`` caches the cell's scans use.

    Returns (config, cell).
    """
    import_trajloc(root)
    from trajloc import grids, harness, model, optim

    config = scenario(workload)
    kind, values = harness.sweep_points(config)
    cell = harness.materialize(config, kind, values[0])
    freqs = cell.frequencies if cell.frequencies is not None else (None,)
    for f in freqs:
        lam = model.wavelength_for(cell.array, f)
        grids.phase_table(cell.grid, cell.snapshots, optim._phase_scale(cell.array, lam))
    return config, cell
