"""Declarative scenarios, seeded Monte Carlo execution, and CSV emission.

A scenario describes one experiment: array, trajectory model, grid, sources,
noise level, algorithms, and exactly one sweep axis (SNR list, snapshot list,
or a named special sweep such as the phi grid step). Every trial synthesizes
one block set from ``base_seed + trial`` and feeds the identical data to all
requested algorithms, so comparisons are paired; trials are independent work
units and may run in parallel with bit-identical results.
"""

from __future__ import annotations

import csv
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import yaml

import numpy as np

from .gridalgos import PEAK_EXCESS, find_peaks, tl_cbf_spectrum, tl_omp, tl_sbl
from .gridless import tl_nomp, tl_sfw
from .grids import GridAxis, ParamGrid, build_grid
from .metrics import DETECTION_THRESHOLD, ospa_assign
from .model import (
    BANDLIMITED,
    POLYNOMIAL,
    ArrayConfig,
    TrajectoryModel,
    TrajectoryParams,
    synthesize_block,
)
from .optim import NumericsWarning


def _peak_estimates(peaks):
    return peaks.params, ["peak-shortfall"] if peaks.shortfall else []


def _run_cbf(blocks, cell):
    spectrum = tl_cbf_spectrum(blocks, cell.grid, cell.array)
    return _peak_estimates(find_peaks(spectrum, len(cell.sources) + PEAK_EXCESS))


def _run_sbl(blocks, cell):
    noise_variance = 10.0 ** (-cell.snr_db / 10.0)
    _, peaks = tl_sbl(blocks, cell.grid, cell.array, len(cell.sources), noise_variance)
    return _peak_estimates(peaks)


def _run_omp(blocks, cell):
    estimates, _ = tl_omp(blocks, cell.grid, cell.array, len(cell.sources))
    return [e.params for e in estimates], []


def _run_sfw(blocks, cell):
    estimates, trace = tl_sfw(blocks, cell.grid, cell.array, len(cell.sources))
    return [e.params for e in estimates], list(trace.flags)


def _run_nomp(blocks, cell):
    estimates, trace = tl_nomp(blocks, cell.grid, cell.array, len(cell.sources))
    return [e.params for e in estimates], list(trace.flags)


# The one registry of estimators: name -> callable(blocks, cell)
# returning (estimated trajectory parameters, flags). Scenario validation,
# the CLI and the demo script all read it; a new estimator is added here.
ESTIMATORS = {
    "tl-cbf": _run_cbf,
    "tl-sbl": _run_sbl,
    "tl-omp": _run_omp,
    "tl-sfw": _run_sfw,
    "tl-nomp": _run_nomp,
}
ALGORITHMS = tuple(ESTIMATORS)
SWEEP_KINDS = ("phi_step", "zeta", "freq_count")

# Frequency sets processed together in the wideband experiment, keyed by F.
WIDEBAND_SETS = {
    1: (1600.0,),
    3: (1400.0, 1600.0, 1800.0),
    5: (1000.0, 1200.0, 1400.0, 1600.0, 1800.0),
    7: (1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0),
}

# Per-source slopes used by the phi grid-step experiment; phi placements are
# derived from the grid (two sources on-grid, two offset by half a step).
GRID_STEP_ALPHAS = (3.5, 1.5, -2.5, -4.75)
GRID_STEP_FRACTIONS = (0.2, 0.45, 0.65, 0.9)
GRID_STEP_OFFGRID = (False, True, False, True)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one benchmark scenario.

    Exactly one sweep axis is allowed: an ``snr_db`` list, a ``snapshots``
    list, or a special ``sweep``. The ``phi_step`` and ``zeta`` sweeps derive
    their own grid/source placements at materialization time, so ``sources``
    is ignored for those.
    """

    name: str
    model: TrajectoryModel
    grid_phi: tuple[float, float, float]  # (start, step, stop)
    grid_coeffs: tuple[tuple[float, float, float], ...]
    sources: tuple[tuple[float, ...], ...]
    snr_db: float | tuple[float, ...] = 5.0
    snapshots: int | tuple[int, ...] = 30
    frequencies: tuple[float, ...] | None = None
    algorithms: tuple[str, ...] = ALGORITHMS
    sensors: int = 10
    trials: int = 100
    base_seed: int = 0
    sweep: tuple[str, tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sensors < 2:
            raise ValueError(f"sensors: a uniform linear array needs at least 2, got {self.sensors}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed: must be a non-negative integer, got {self.base_seed}")
        bad = [a for a in self.algorithms if a not in ESTIMATORS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        n_sweeps = sum(
            [isinstance(self.snr_db, tuple), isinstance(self.snapshots, tuple), self.sweep is not None]
        )
        if n_sweeps > 1:
            raise ValueError("a scenario may sweep at most one axis")
        if self.sweep is not None:
            kind, values = self.sweep
            if kind in ("snr_db", "snapshots"):
                raise ValueError(f"sweep {kind} as a list under {kind!r}, not as a sweep kind")
            if kind not in SWEEP_KINDS:
                raise ValueError(f"unknown sweep kind {kind!r}")
            if not values:
                raise ValueError("sweep values must be non-empty")
            if kind == "freq_count" and not set(values) <= set(WIDEBAND_SETS):
                raise ValueError(
                    f"sweep_values: a freq_count sweep takes only "
                    f"{', '.join(map(str, WIDEBAND_SETS))}, got {list(values)}"
                )
            if kind == "phi_step" and not all(0 < v < np.inf for v in values):
                raise ValueError(
                    f"sweep_values: a phi_step sweep takes positive finite steps, got {list(values)}"
                )
        for name in ("snr_db", "snapshots", "frequencies"):
            values = getattr(self, name)
            if isinstance(values, tuple) and not values:
                raise ValueError(f"{name}: must not be empty")
        if not np.all(np.isfinite(self.snr_db)):
            raise ValueError(f"snr_db: must be finite dB, got {self.snr_db}")
        if self.frequencies and not all(0 < f < np.inf for f in self.frequencies):
            raise ValueError(f"frequencies: must be positive finite Hz, got {list(self.frequencies)}")
        names = ["phi", *coeff_axis_names(self.model)]
        if len(self.grid_coeffs) != len(names) - 1:
            raise ValueError(
                f"grid_coeffs: the model needs {len(names) - 1} coefficient axes, got {len(self.grid_coeffs)}"
            )
        axes = zip(names, (self.grid_phi, *self.grid_coeffs))
        for i, (name, spec) in enumerate(axes):
            try:
                GridAxis(name, *spec)
            except ValueError as exc:
                raise ValueError(f"{'grid_coeffs' if i else 'grid_phi'}: {exc}") from exc
        if "tl-sbl" in self.algorithms and self._may_be_wideband():
            raise ValueError("tl-sbl supports narrowband (or single-frequency) data only")

    def _may_be_wideband(self) -> bool:
        if self.sweep is not None and self.sweep[0] == "freq_count":
            return any(int(v) > 1 for v in self.sweep[1])
        return self.frequencies is not None and len(self.frequencies) > 1


@dataclass(frozen=True)
class ScenarioCell:
    """One fully concrete sweep point of a scenario."""

    grid: ParamGrid
    array: ArrayConfig
    sources: tuple[TrajectoryParams, ...]
    snr_db: float
    snapshots: int
    frequencies: tuple[float, ...] | None


@dataclass(frozen=True)
class TrialRow:
    experiment: str
    algorithm: str
    sweep_name: str
    sweep_value: float
    trial: int
    source_id: int
    rmse_deg: float | None
    detected: bool
    ospa: float
    runtime_ms: float
    flags: str


@dataclass(frozen=True)
class TrialReport:
    rows: tuple[TrialRow, ...]


def coeff_axis_names(model: TrajectoryModel) -> list[str]:
    if model.kind == POLYNOMIAL:
        return [f"alpha{p}" for p in range(1, model.order + 1)]
    return [f"alpha{q}" for q in range(1, model.order + 1)] + [
        f"beta{q}" for q in range(1, model.order + 1)
    ]


def scenario_grid(model: TrajectoryModel, grid_phi, grid_coeffs) -> ParamGrid:
    names = ["phi"] + coeff_axis_names(model)
    specs = [grid_phi] + list(grid_coeffs)
    return build_grid([(n, a, s, b) for n, (a, s, b) in zip(names, specs)], model)


def sweep_points(config: ScenarioConfig) -> tuple[str, tuple[float, ...]]:
    """The scenario's single sweep axis as (name, values)."""
    if isinstance(config.snr_db, tuple):
        return "snr_db", tuple(float(v) for v in config.snr_db)
    if isinstance(config.snapshots, tuple):
        return "snapshots", tuple(float(v) for v in config.snapshots)
    if config.sweep is not None:
        return config.sweep[0], tuple(float(v) for v in config.sweep[1])
    return "snr_db", (float(config.snr_db),)


def _grid_step_sources(phi_step: float) -> tuple[tuple[float, float], ...]:
    start, stop = -85.0, 85.0
    n_phi = int(np.floor((stop - start) / phi_step + 1e-9)) + 1
    sources = []
    for frac, alpha, off in zip(GRID_STEP_FRACTIONS, GRID_STEP_ALPHAS, GRID_STEP_OFFGRID):
        phi = start + phi_step * int(np.floor(n_phi * frac))
        if off:
            phi += phi_step / 2.0
        sources.append((phi, alpha))
    return tuple(sources)


def materialize(config: ScenarioConfig, sweep_name: str, value: float) -> ScenarioCell:
    """Resolve one sweep point into a concrete grid/array/source bundle."""
    grid_phi = config.grid_phi
    sources = config.sources
    snr = config.snr_db if not isinstance(config.snr_db, tuple) else None
    L = config.snapshots if not isinstance(config.snapshots, tuple) else None
    freqs = config.frequencies

    if sweep_name == "snr_db":
        snr = float(value)
    elif sweep_name == "snapshots":
        L = int(value)
    elif sweep_name == "phi_step":
        grid_phi = (grid_phi[0], float(value), grid_phi[2])
        sources = _grid_step_sources(float(value))
    elif sweep_name == "zeta":
        sources = ((0.0, 3.5), (60.0, -4.5), (float(value), 2.5))
    elif sweep_name == "freq_count":
        freqs = WIDEBAND_SETS[int(value)]
    else:
        raise ValueError(f"unknown sweep kind {sweep_name!r}")

    if snr is None or L is None:
        raise ValueError("sweep point does not pin snr_db and snapshots")
    grid = scenario_grid(config.model, grid_phi, config.grid_coeffs)
    if freqs is None:
        array = ArrayConfig(config.sensors)
    else:
        array = ArrayConfig.for_frequencies(config.sensors, freqs)
    params = tuple(TrajectoryParams(config.model, s[0], tuple(s[1:])) for s in sources)
    return ScenarioCell(grid, array, params, float(snr), int(L), freqs)


class _TickClock:
    """Deterministic stand-in for perf_counter (1 ms per call), used by the
    reproducibility audits where wall-clock noise would break bit-identity."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1e-3
        return self.t


def _trial_rows(task) -> list[TrialRow]:
    config, cell, sweep_name, value, trial, fake_clock = task
    seed = config.base_seed + trial
    blocks, truth = synthesize_block(
        cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, seed
    )
    clock = _TickClock() if fake_clock else time.perf_counter
    K = len(truth.sources)
    rows: list[TrialRow] = []
    for algorithm in config.algorithms:
        t0 = clock()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NumericsWarning)
            try:
                est, flags = ESTIMATORS[algorithm](blocks, cell)
            except Exception as exc:  # failures become flagged rows
                est, flags = [], [f"error:{type(exc).__name__}"]
        runtime_ms = (clock() - t0) * 1e3
        if any(issubclass(w.category, NumericsWarning) for w in caught):
            flags.append("numerics")
        asn = ospa_assign(truth.sources, est, L=cell.snapshots)
        pair_for_true = {t: d for t, _, d in asn.pairs}
        if not est:
            flags.append("no-estimates")
        elif len(est) < K:
            flags.append("estimate-shortfall")
        flags = sorted(set(flags))
        flag_str = ";".join(flags)
        for s in range(K):
            dist = pair_for_true.get(s)
            rows.append(
                TrialRow(
                    experiment=config.name,
                    algorithm=algorithm,
                    sweep_name=sweep_name,
                    sweep_value=float(value),
                    trial=trial,
                    source_id=s,
                    rmse_deg=dist,
                    detected=dist is not None and dist < DETECTION_THRESHOLD,
                    ospa=asn.ospa,
                    runtime_ms=runtime_ms,
                    flags=flag_str,
                )
            )
    return rows


def run_scenario(config: ScenarioConfig, n_jobs: int = 1, fake_clock: bool = False) -> TrialReport:
    """Run every (sweep value, trial) cell of a scenario.

    Within a trial, every algorithm sees the identical synthesized blocks
    (seed = base_seed + trial). ``n_jobs > 1`` distributes trials over
    processes; rows are sorted deterministically before being returned, so
    parallel runs match serial ones. ``fake_clock`` replaces wall-clock
    timing with a deterministic tick for reproducibility audits. A sweep
    point without sources is refused before any trial runs.
    """
    sweep_name, values = sweep_points(config)
    cells = [materialize(config, sweep_name, v) for v in values]
    if not all(cell.sources for cell in cells):
        raise ValueError(f"scenario {config.name!r} has no sources; list them under 'sources'")
    tasks = [
        (config, cell, sweep_name, value, trial, fake_clock)
        for value, cell in zip(values, cells)
        for trial in range(config.trials)
    ]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            chunks = list(pool.map(_trial_rows, tasks))
    else:
        chunks = [_trial_rows(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(
        key=lambda r: (r.experiment, r.algorithm, r.sweep_value, r.trial, r.source_id)
    )
    return TrialReport(tuple(rows))


ROW_HEADER = [
    "algorithm",
    "experiment",
    "sweep_name",
    "sweep_value",
    "trial",
    "source_id",
    "rmse_deg",
    "detected",
    "ospa",
    "runtime_ms",
    "flags",
]

# The first four aggregate columns are the row columns a group shares.
AGG_HEADER = [
    "algorithm",
    "experiment",
    "sweep_name",
    "sweep_value",
    "mean_rmse_deg",
    "pd",
    "mean_runtime_ms",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def aggregate_csv_rows(dict_rows) -> list[dict]:
    """Aggregate formatted row dictionaries (row-CSV column -> cell text) per
    (algorithm, experiment, sweep value): mean RMSE over detected sources,
    detection probability, and mean per-invocation runtime."""
    groups: dict[tuple, list[dict]] = {}
    for r in dict_rows:
        groups.setdefault(tuple(r[c] for c in AGG_HEADER[:4]), []).append(r)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], float(k[3]))):
        rows = groups[key]
        detected = [r for r in rows if r["detected"] == "1"]
        rmses = [float(r["rmse_deg"]) for r in detected if r["rmse_deg"] != ""]
        runtimes = {}
        for r in rows:
            runtimes[r["trial"]] = float(r["runtime_ms"])
        stats = (
            _fmt(float(np.mean(rmses))) if rmses else "",
            _fmt(len(detected) / len(rows)),
            _fmt(float(np.mean(sorted(runtimes.values())))),
        )
        out.append(dict(zip(AGG_HEADER, key + stats)))
    return out


def emit_results(report: TrialReport, out_dir: str):
    """Write rows.csv and aggregate.csv (UTF-8, LF, 6 significant digits).

    The aggregate is computed from the formatted row cells, so re-aggregating
    the row CSV reproduces it exactly.
    """
    cells = [[_fmt(getattr(r, c)) for c in ROW_HEADER] for r in report.rows]
    agg = aggregate_csv_rows(dict(zip(ROW_HEADER, row)) for row in cells)
    tables = ((ROW_HEADER, cells), (AGG_HEADER, [[a[c] for c in AGG_HEADER] for a in agg]))
    paths = (os.path.join(out_dir, "rows.csv"), os.path.join(out_dir, "aggregate.csv"))
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, (header, table) in zip(paths, tables):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(table)
    except OSError as exc:
        raise OSError(f"cannot write results under {out_dir!r}: {exc}") from exc
    return paths


def builtin_experiments() -> list[ScenarioConfig]:
    """Ready-to-run configurations for the benchmark experiment suite."""
    linear = TrajectoryModel.polynomial(1)
    quadratic = TrajectoryModel.polynomial(2)
    lin_grid = dict(grid_phi=(-85.0, 2.0, 85.0), grid_coeffs=((-5.0, 0.5, 5.0),))
    quad_grid = dict(
        grid_phi=(-85.0, 2.0, 85.0),
        grid_coeffs=((-5.0, 0.5, 5.0), (-5.0, 0.5, 5.0)),
    )
    four_linear = ((-11.0, 3.5), (20.0, 1.5), (61.0, -2.25), (-52.0, -4.75))
    four_quadratic = ((-60.0, 1.0, -3.0), (-31.0, 0.4, 3.6), (20.0, -3.0, 2.0), (51.0, 4.0, -0.2))
    no_sbl = tuple(a for a in ALGORITHMS if a != "tl-sbl")
    return [
        ScenarioConfig(
            name="snr",
            model=linear,
            sources=four_linear,
            snr_db=tuple(range(-10, 31, 5)),
            **lin_grid,
        ),
        ScenarioConfig(
            name="snapshots",
            model=linear,
            sources=four_linear,
            snapshots=tuple(range(5, 51, 5)),
            **lin_grid,
        ),
        ScenarioConfig(
            name="grid-step",
            model=linear,
            sources=(),
            sweep=("phi_step", tuple(float(s) for s in range(1, 11))),
            **lin_grid,
        ),
        ScenarioConfig(
            name="resolution",
            model=linear,
            sources=(),
            sweep=("zeta", tuple(float(z) for z in range(-15, 16))),
            **lin_grid,
        ),
        ScenarioConfig(
            name="nonlinear",
            model=quadratic,
            sources=four_quadratic,
            snr_db=tuple(range(-10, 31, 5)),
            algorithms=no_sbl,
            **quad_grid,
        ),
        ScenarioConfig(
            name="wideband",
            model=quadratic,
            sources=four_quadratic,
            sweep=("freq_count", (1.0, 3.0, 5.0, 7.0)),
            algorithms=no_sbl,
            **quad_grid,
        ),
    ]


def builtin_experiment(name: str) -> ScenarioConfig:
    for cfg in builtin_experiments():
        if cfg.name == name:
            return cfg
    names = ", ".join(c.name for c in builtin_experiments())
    raise KeyError(f"unknown experiment {name!r}; available: {names}")


def _scalar_or_list(cast):
    return lambda v: tuple(cast(x) for x in v) if isinstance(v, (list, tuple)) else cast(v)


def _list_of(cast):
    def read(v):
        if not isinstance(v, list):
            raise TypeError(f"expected a list, got {v!r}")
        return tuple(cast(x) for x in v)

    return read


def _triple(v):
    v = _list_of(float)(v)
    if len(v) != 3:
        raise ValueError(f"expected [start, step, stop], got {list(v)}")
    return v


def _source(v):
    v = _list_of(float)(v)
    if not v:
        raise ValueError("expected [phi, coeff1, ...], got []")
    return v


# YAML keys that set the ScenarioConfig field of the same name, with their
# casts. A key the file leaves out, or leaves empty, takes the field's default.
FIELD_KEYS = {
    "sensors": int,
    "snr_db": _scalar_or_list(float),
    "snapshots": _scalar_or_list(int),
    "frequencies": lambda v: None if v == "narrowband" else _list_of(float)(v),
    "algorithms": lambda v: _list_of(str)([v] if isinstance(v, str) else v),
    "trials": int,
    "base_seed": int,
}
CONFIG_KEYS = set(FIELD_KEYS) | {
    "name",
    "model",
    "order",
    "nu",
    "grid_phi",
    "grid_coeffs",
    "sources",
    "sweep_kind",
    "sweep_values",
}


def load_config(path: str) -> ScenarioConfig:
    """Parse a YAML scenario file; unknown keys are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a mapping of keys to values")
    unknown = sorted(set(data) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")

    def read(key, cast, default=None):
        # an absent or empty key takes the default; a value of the wrong
        # shape is refused by name, not left to a bare TypeError
        if data.get(key) is None:
            return default
        try:
            return cast(data[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc

    kind, nu, order = read("model", str, POLYNOMIAL), read("nu", float), read("order", int, 1)
    if kind == BANDLIMITED and nu is None:
        raise ValueError(f"{path}: bandlimited model requires an explicit nu")
    grid_phi = read("grid_phi", _triple, (-85.0, 2.0, 85.0))
    grid_coeffs = read("grid_coeffs", _list_of(_triple), ((-5.0, 0.5, 5.0),))
    sources = read("sources", _list_of(_source), ())
    sweep = (read("sweep_kind", str), read("sweep_values", _list_of(float)))
    if None in sweep:
        if sweep != (None, None):
            raise ValueError(f"{path}: sweep_kind and sweep_values go together")
        sweep = None
    fields = {k: read(k, cast) for k, cast in FIELD_KEYS.items() if data.get(k) is not None}
    name = read("name", str, os.path.splitext(os.path.basename(path))[0])
    try:
        return ScenarioConfig(
            name=name,
            model=TrajectoryModel(kind, order, nu),
            grid_phi=grid_phi,
            grid_coeffs=grid_coeffs,
            sources=sources,
            sweep=sweep,
            **fields,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def apply_overrides(config: ScenarioConfig, trials=None, seed=None, algorithms=None):
    """CLI-style overrides on top of a loaded or builtin config."""
    changes = {}
    if trials is not None:
        changes["trials"] = trials
    if seed is not None:
        changes["base_seed"] = seed
    if algorithms is not None:
        changes["algorithms"] = tuple(algorithms)
    return replace(config, **changes) if changes else config
