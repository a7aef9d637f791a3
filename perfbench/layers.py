"""Which trajloc functions are traced, and the per-layer metrics computed
from their spans.

Layers are the ``src/trajloc`` modules. Per-layer times and counts are
reported per traced trial, so runs that fit different numbers of trials in
their time budget stay comparable; ratios are taken over all traced trials.
"""

from __future__ import annotations

import inspect
import warnings

import numpy as np

from tracer import Tracer, bound_everywhere, inside, self_times

# module -> public functions wrapped as spans. ``harness.run_scenario`` is the
# root span of every trial.
WRAPPED = {
    "harness": ("run_scenario",),
    "model": ("trajectory_steering_matrix", "synthesize_block"),
    "metrics": ("ospa_assign",),
    "gridalgos": ("grid_beam_power", "tl_cbf_spectrum", "find_peaks", "tl_omp", "tl_sbl"),
    "optim": (
        "objective",
        "objective_grad_hess",
        "amplitudes_ls",
        "batched_snapshot_ls",
        "maximize_local",
        "newton_step",
        "model_residuals",
        "joint_refine",
    ),
    "gridless": ("tl_sfw", "tl_nomp"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
assert SPAN_NAMES[0] == "harness.run_scenario"  # reported as harness.self_ms only

COMPLEX = 16  # bytes per complex128 element


def _bytes_per_element(n_sensors: int) -> int:
    """Bytes one grid_beam_power scan streams per (M, L) element and
    frequency, computed from array sizes, not measured: 5 per Horner step
    (the multiply reads acc and E and writes acc, the add reads and writes
    acc) plus 4 (conj copy of E read and written, broadcast copy written,
    power read)."""
    return COMPLEX * (5 * (n_sensors - 1) + 4)


def _bind(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _observers(trajloc):
    g = trajloc.gridalgos
    beam_args = _bind(g.grid_beam_power)
    sbl_args = _bind(g.tl_sbl)

    def beam(tr: Tracer, args, kwargs, _):
        a = beam_args(args, kwargs)
        R = a["residuals"]
        F, M = len(R), a["grid"].size
        N, L = R[0].shape
        tr.count("beam.points", M * F)
        tr.count("beam.cmul", (N - 1) * M * L * F)
        tr.count("beam.bytes", _bytes_per_element(N) * M * L * F)

    def sbl(tr: Tracer, args, kwargs, _):
        a = sbl_args(args, kwargs)
        N, L = a["blocks"][0].data.shape
        tr.count("sbl.tensor_bytes", 3 * L * N * a["grid"].size * COMPLEX)

    def local(tr: Tracer, args, kwargs, result):
        tr.count("local.iterations", result[1].iterations)

    def joint(tr: Tracer, args, kwargs, result):
        tr.count("joint.iterations", result[2].iterations)
        tr.count("joint.converged", result[2].converged)

    def newton(tr: Tracer, args, kwargs, result):
        tr.count("newton.accepted", bool(result[1]))

    def snapshot_ls(tr: Tracer, args, kwargs, result):
        tr.count("snapshot_ls.deficient", bool(result[1]))

    return {
        "gridalgos.grid_beam_power": beam,
        "gridalgos.tl_sbl": sbl,
        "optim.maximize_local": local,
        "optim.joint_refine": joint,
        "optim.newton_step": newton,
        "optim.batched_snapshot_ls": snapshot_ls,
    }


def _counting_nonconvergence(fn, tracer: Tracer, category):
    """``fn`` with the non-convergence warnings of ``category`` it raises
    counted; every warning is raised again unchanged so the harness still flags
    it."""

    def call(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, category) and "did not converge" in str(w.message):
                tracer.count("sbl.nonconverged")
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        return result

    return call


def install(trajloc, tracer: Tracer):
    """Context manager that wraps every name in WRAPPED wherever trajloc
    bound it."""
    observers = _observers(trajloc)
    targets = {}
    for name in SPAN_NAMES:
        mod, fn_name = name.split(".")
        orig = getattr(getattr(trajloc, mod), fn_name)
        inner = _counting_nonconvergence(orig, tracer, trajloc.optim.NumericsWarning) if name == "gridalgos.tl_sbl" else orig
        targets[orig] = tracer.wrap(name, inner, observers.get(name))
    return bound_everywhere("trajloc", targets)


# (name, unit) of every per-layer metric, in report order. BENCHMARK.json
# lists the same names; perfbench/test_perfbench.py checks that.
PER_TRIAL = "/trial"
LAYER_METRICS = (
    [(f"{s}.calls", "count" + PER_TRIAL) for s in SPAN_NAMES[1:]]
    + [(f"{s}.self_ms", "ms" + PER_TRIAL) for s in SPAN_NAMES[1:]]
    + [
        ("harness.self_ms", "ms" + PER_TRIAL),
        ("gridalgos.grid_beam_power.points", "count" + PER_TRIAL),
        ("gridalgos.grid_beam_power.cmul_computed", "count" + PER_TRIAL),
        ("gridalgos.grid_beam_power.mb_computed", "MB" + PER_TRIAL),
        ("gridalgos.grid_beam_power.cmul_per_byte", "1/B"),
        ("gridalgos.tl_sbl.nonconverged", "count" + PER_TRIAL),
        ("gridalgos.tl_sbl.tensor_mb_computed", "MB" + PER_TRIAL),
        ("grids.phase_table.hits", "count"),
        ("grids.phase_table.misses", "count"),
        ("grids.table_mb_computed", "MB"),
        ("optim.joint_refine.iterations", "count" + PER_TRIAL),
        ("optim.joint_refine.converged", "ratio"),
        ("optim.joint_refine.evals_per_iter", "ratio"),
        ("optim.maximize_local.iterations", "count" + PER_TRIAL),
        ("optim.maximize_local.accept_ratio", "ratio"),
        ("optim.newton_step.accepted", "ratio"),
        ("optim.batched_snapshot_ls.deficient", "count" + PER_TRIAL),
        ("trace_overhead", "ratio"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def span_metrics(tracer: Tracer, n_trials: int) -> dict[str, float]:
    """Per-span calls and self time, and the counters gathered while
    tracing, per traced trial."""
    start, end, parent, name = tracer.arrays()
    own = self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(tracer.names)}
    calls = np.bincount(name, minlength=len(ids))
    self_ns = np.bincount(name, weights=own, minlength=len(ids))
    out: dict[str, float] = {}
    for s, i in ids.items():
        if s == "harness.run_scenario":
            out["harness.self_ms"] = self_ns[i] / 1e6 / n_trials
            continue
        out[f"{s}.calls"] = calls[i] / n_trials
        out[f"{s}.self_ms"] = self_ns[i] / 1e6 / n_trials

    c = tracer.counters.get
    out["gridalgos.grid_beam_power.points"] = c("beam.points", 0) / n_trials
    out["gridalgos.grid_beam_power.cmul_computed"] = c("beam.cmul", 0) / n_trials
    out["gridalgos.grid_beam_power.mb_computed"] = c("beam.bytes", 0) / 1e6 / n_trials
    out["gridalgos.grid_beam_power.cmul_per_byte"] = _ratio(c("beam.cmul", 0), c("beam.bytes", 0))
    out["gridalgos.tl_sbl.nonconverged"] = c("sbl.nonconverged", 0) / n_trials
    out["gridalgos.tl_sbl.tensor_mb_computed"] = c("sbl.tensor_bytes", 0) / 1e6 / n_trials

    joint_calls = calls[ids["optim.joint_refine"]]
    joint_iters = c("joint.iterations", 0)
    ls_in_joint = inside(parent, name, ids["optim.joint_refine"]) & (name == ids["optim.amplitudes_ls"])
    out["optim.joint_refine.iterations"] = joint_iters / n_trials
    out["optim.joint_refine.converged"] = _ratio(c("joint.converged", 0), joint_calls)
    out["optim.joint_refine.evals_per_iter"] = _ratio(ls_in_joint.sum(), joint_iters)

    local_iters = c("local.iterations", 0)
    obj_in_local = inside(parent, name, ids["optim.maximize_local"]) & (name == ids["optim.objective"])
    out["optim.maximize_local.iterations"] = local_iters / n_trials
    out["optim.maximize_local.accept_ratio"] = _ratio(local_iters, obj_in_local.sum())

    out["optim.newton_step.accepted"] = _ratio(c("newton.accepted", 0), calls[ids["optim.newton_step"]])
    out["optim.batched_snapshot_ls.deficient"] = c("snapshot_ls.deficient", 0) / n_trials
    return out


def cache_metrics(trajloc, cell) -> dict[str, float]:
    """Phase-table cache counters since process start, and the size of the
    tables the cell's scans use (computed from array sizes)."""
    info = trajloc.grids.phase_table.cache_info()
    M, L = cell.grid.size, cell.snapshots
    F = len(cell.frequencies) if cell.frequencies is not None else 1
    n_params = len(cell.grid.axes)
    table_bytes = M * L * COMPLEX * F + M * L * 8 + M * n_params * 8
    return {
        "grids.phase_table.hits": float(info.hits),
        "grids.phase_table.misses": float(info.misses),
        "grids.table_mb_computed": table_bytes / 1e6,
    }
