import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from trajloc import ScenarioConfig, TrajectoryModel, emit_results, gridalgos, harness, run_scenario
from trajloc.harness import (
    ALGORITHMS,
    CONFIG_KEYS,
    ESTIMATORS,
    TrialReport,
    TrialRow,
    aggregate_csv_rows,
    apply_overrides,
    builtin_experiment,
    builtin_experiments,
    load_config,
    materialize,
    sweep_points,
)

LINEAR = TrajectoryModel.polynomial(1)
ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
LIN_GRID = dict(grid_phi=(-85.0, 2.0, 85.0), grid_coeffs=((-5.0, 0.5, 5.0),))


def small_config(**overrides):
    base = dict(
        name="small",
        model=LINEAR,
        sources=((-11.0, 3.5), (20.0, 1.5)),
        snr_db=10.0,
        snapshots=12,
        algorithms=("tl-cbf", "tl-omp"),
        trials=2,
        base_seed=7,
        **LIN_GRID,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_valid_roundtrip(self):
        cfg = small_config()
        assert sweep_points(cfg) == ("snr_db", (10.0,))

    def test_single_sweep_axis_enforced(self):
        with pytest.raises(ValueError):
            small_config(snr_db=(0.0, 5.0), snapshots=(10, 20))
        with pytest.raises(ValueError):
            small_config(snr_db=(0.0, 5.0), sweep=("zeta", (1.0,)))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_config(algorithms=("tl-magic",))

    def test_sbl_rejected_for_wideband(self):
        with pytest.raises(ValueError):
            small_config(algorithms=("tl-sbl",), frequencies=(1400.0, 1600.0))
        # single-frequency data is fine
        small_config(algorithms=("tl-sbl",), frequencies=(1600.0,))
        with pytest.raises(ValueError):
            small_config(algorithms=("tl-sbl",), sweep=("freq_count", (1.0, 3.0)), sources=())

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    @pytest.mark.parametrize("kind", ["snr_db", "snapshots"])
    def test_list_axis_refused_as_sweep_kind(self, kind):
        with pytest.raises(ValueError, match=f"list under '{kind}'"):
            small_config(sweep=(kind, (5.0,)))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (dict(sweep=("phi_step", (0.0,))), "sweep_values"),
            (dict(sweep=("phi_step", (2.0, -2.0))), "sweep_values"),
            (dict(sweep=("phi_step", (np.nan,))), "sweep_values"),
            (dict(sweep=("phi_step", (np.inf,))), "sweep_values"),
            (dict(frequencies=(np.nan,)), "frequencies"),
            (dict(frequencies=(1000.0, np.inf)), "frequencies"),
            (dict(snr_db=np.nan), "snr_db"),
            (dict(snr_db=-np.inf), "snr_db"),
            (dict(snr_db=(0.0, np.inf)), "snr_db"),
        ],
        ids=[
            "phi-step-zero", "phi-step-negative", "phi-step-nan", "phi-step-inf",
            "frequency-nan", "frequency-inf", "snr-nan", "snr-minus-inf", "snr-sweep-inf",
        ],
    )
    def test_out_of_range_value_names_its_key(self, overrides, key):
        with pytest.raises(ValueError, match=f"^{key}: "):
            small_config(**overrides)


class TestMaterialize:
    def test_grid_step_sources_half_step_offsets(self):
        cfg = builtin_experiment("grid-step")
        cell = materialize(cfg, "phi_step", 2.0)
        phis = [s.phi for s in cell.sources]
        alphas = [s.coeffs[0] for s in cell.sources]
        assert alphas == [3.5, 1.5, -2.5, -4.75]
        # sources 0 and 2 on-grid, 1 and 3 offset by exactly half a step
        grid_phis = -85.0 + 2.0 * np.arange(86)
        assert phis[0] in grid_phis and phis[2] in grid_phis
        assert (phis[1] - 1.0) in grid_phis and (phis[3] - 1.0) in grid_phis

    def test_zeta_sweep_sources(self):
        cfg = builtin_experiment("resolution")
        cell = materialize(cfg, "zeta", -7.0)
        assert [tuple(s.vector()) for s in cell.sources] == [
            (0.0, 3.5),
            (60.0, -4.5),
            (-7.0, 2.5),
        ]

    def test_freq_count_sets_array_spacing(self):
        cfg = builtin_experiment("wideband")
        cell = materialize(cfg, "freq_count", 7.0)
        assert cell.frequencies == (1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0, 2200.0)
        assert cell.array.spacing == pytest.approx(343.0 / 2200.0 / 2.0)
        cell1 = materialize(cfg, "freq_count", 1.0)
        assert cell1.frequencies == (1600.0,)


class TestBuiltins:
    def test_expected_names(self):
        names = [c.name for c in builtin_experiments()]
        assert names == [
            "snr",
            "snapshots",
            "grid-step",
            "resolution",
            "nonlinear",
            "wideband",
        ]

    def test_estimator_table_is_the_algorithm_list(self):
        assert tuple(ESTIMATORS) == ALGORITHMS

    def test_snr_experiment_shape(self):
        cfg = builtin_experiment("snr")
        name, values = sweep_points(cfg)
        assert name == "snr_db"
        assert values == tuple(float(v) for v in range(-10, 31, 5))
        assert len(values) == 9
        assert cfg.trials == 100
        assert cfg.algorithms == ALGORITHMS

    def test_wideband_sets(self):
        cfg = builtin_experiment("wideband")
        assert cfg.sweep == ("freq_count", (1.0, 3.0, 5.0, 7.0))
        assert "tl-sbl" not in cfg.algorithms

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_experiment("does-not-exist")


class TestRunScenario:
    def test_row_structure(self):
        cfg = small_config()
        report = run_scenario(cfg)
        # 1 sweep value x 2 trials x 2 algorithms x 2 sources
        assert len(report.rows) == 8
        for row in report.rows:
            assert row.experiment == "small"
            assert row.runtime_ms > 0
            assert 0 <= row.source_id < 2
        keys = [(r.algorithm, r.sweep_value, r.trial, r.source_id) for r in report.rows]
        assert keys == sorted(keys)

    def test_deterministic_with_fake_clock(self):
        cfg = small_config()
        a = run_scenario(cfg, fake_clock=True)
        b = run_scenario(cfg, fake_clock=True)
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = small_config(trials=3)
        serial = run_scenario(cfg, n_jobs=1, fake_clock=True)
        parallel = run_scenario(cfg, n_jobs=2, fake_clock=True)
        assert serial == parallel

    def test_real_clock_differs_only_in_runtime(self):
        cfg = small_config()
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        strip = lambda rows: [
            (r.algorithm, r.sweep_value, r.trial, r.source_id, r.rmse_deg, r.detected, r.ospa, r.flags)
            for r in rows
        ]
        assert strip(a.rows) == strip(b.rows)

    def test_algorithms_do_not_mutate_shared_blocks(self, array, linear_grid, four_sources, monkeypatch):
        # the paired-trial contract relies on every algorithm reading the
        # same block object without touching it
        import warnings

        from trajloc import NumericsWarning, synthesize_block, tl_cbf_spectrum, tl_nomp, tl_omp, tl_sbl, tl_sfw

        blocks, _ = synthesize_block(four_sources, array, 30, 10.0, seed=3)
        before = blocks[0].data.tobytes()
        tl_cbf_spectrum(blocks, linear_grid, array)
        tl_omp(blocks, linear_grid, array, 2)
        tl_sfw(blocks, linear_grid, array, 2)
        tl_nomp(blocks, linear_grid, array, 2)
        monkeypatch.setattr(gridalgos, "SBL_MAX_ITERS", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            tl_sbl(blocks, linear_grid, array, 2, 0.1)
        assert blocks[0].data.tobytes() == before

    @pytest.mark.parametrize(
        "algorithms", [("tl-cbf", "tl-omp"), ("tl-sfw", "tl-nomp")], ids="+".join
    )
    def test_no_sources_refused_before_any_trial(self, algorithms, monkeypatch):
        def trial_rows(task):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_trial_rows", trial_rows)
        with pytest.raises(ValueError, match="sources"):
            run_scenario(small_config(sources=(), algorithms=algorithms))

    def test_each_sweep_point_materialized_once(self, monkeypatch):
        calls = []

        def counting(config, sweep_name, value):
            calls.append(value)
            return materialize(config, sweep_name, value)

        monkeypatch.setattr(harness, "materialize", counting)
        run_scenario(small_config(snr_db=(0.0, 20.0), trials=3, algorithms=("tl-cbf",)), n_jobs=1)
        assert calls == [0.0, 20.0]

    def test_snapshot_sweep(self):
        cfg = small_config(snapshots=(8, 16), snr_db=10.0, trials=1)
        report = run_scenario(cfg)
        values = sorted(set(r.sweep_value for r in report.rows))
        assert values == [8.0, 16.0]


class TestEmitResults:
    def test_empty_report_header_only(self, tmp_path):
        rows_path, agg_path = emit_results(TrialReport(()), str(tmp_path))
        assert open(rows_path).read() == (
            "algorithm,experiment,sweep_name,sweep_value,trial,source_id,"
            "rmse_deg,detected,ospa,runtime_ms,flags\n"
        )
        assert open(agg_path).read().count("\n") == 1

    def test_hand_built_report_pinned_text(self, tmp_path):
        # a quoted experiment name, an empty rmse, both detected values, a
        # float cut to 6 digits, flags, and sweep values that sort as numbers
        name = 'snr, "quoted"'
        rows = (
            TrialRow(name, "tl-cbf", "snr_db", 5.0, 0, 0, 0.1234567, True, 1.5, 2.0, ""),
            TrialRow(name, "tl-cbf", "snr_db", 5.0, 0, 1, None, False, 1.5, 2.0, "estimate-shortfall;numerics"),
            TrialRow(name, "tl-cbf", "snr_db", 5.0, 1, 0, 12.5, False, 100.0, 4.25, ""),
            TrialRow(name, "tl-cbf", "snr_db", 10.0, 0, 0, 0.5, True, 0.25, 1234567.0, "error:ValueError"),
        )
        rows_path, agg_path = emit_results(TrialReport(rows), str(tmp_path))
        assert open(rows_path, newline="").read() == (
            "algorithm,experiment,sweep_name,sweep_value,trial,source_id,rmse_deg,detected,ospa,runtime_ms,flags\n"
            'tl-cbf,"snr, ""quoted""",snr_db,5,0,0,0.123457,1,1.5,2,\n'
            'tl-cbf,"snr, ""quoted""",snr_db,5,0,1,,0,1.5,2,estimate-shortfall;numerics\n'
            'tl-cbf,"snr, ""quoted""",snr_db,5,1,0,12.5,0,100,4.25,\n'
            'tl-cbf,"snr, ""quoted""",snr_db,10,0,0,0.5,1,0.25,1.23457e+06,error:ValueError\n'
        )
        assert open(agg_path, newline="").read() == (
            "algorithm,experiment,sweep_name,sweep_value,mean_rmse_deg,pd,mean_runtime_ms\n"
            'tl-cbf,"snr, ""quoted""",snr_db,5,0.123457,0.333333,3.125\n'
            'tl-cbf,"snr, ""quoted""",snr_db,10,0.5,1,1.23457e+06\n'
        )

    def test_aggregate_recomputable_from_rows(self, tmp_path):
        cfg = small_config(trials=3, snr_db=(0.0, 20.0))
        report = run_scenario(cfg, fake_clock=True)
        rows_path, agg_path = emit_results(report, str(tmp_path))
        with open(rows_path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        recomputed = aggregate_csv_rows(parsed)
        with open(agg_path, newline="") as fh:
            stored = list(csv.DictReader(fh))
        assert [dict(r) for r in stored] == recomputed

    def test_pd_in_unit_interval_and_lf_endings(self, tmp_path):
        cfg = small_config(trials=2)
        report = run_scenario(cfg, fake_clock=True)
        rows_path, agg_path = emit_results(report, str(tmp_path))
        raw = open(agg_path, "rb").read()
        assert b"\r" not in raw
        with open(agg_path, newline="") as fh:
            for row in csv.DictReader(fh):
                assert 0.0 <= float(row["pd"]) <= 1.0


class TestConfigFile:
    def test_yaml_round_trip(self, tmp_path):
        text = """
name: demo
model: polynomial
order: 1
grid_phi: [-85, 2, 85]
grid_coeffs: [[-5, 0.5, 5]]
sources:
  - [-11, 3.5]
  - [20, 1.5]
snr_db: [0, 10]
snapshots: 30
frequencies: narrowband
algorithms: [tl-cbf, tl-omp]
trials: 4
base_seed: 3
"""
        path = tmp_path / "demo.yaml"
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg.name == "demo"
        assert cfg.snr_db == (0.0, 10.0)
        assert cfg.trials == 4
        assert cfg.sources == ((-11.0, 3.5), (20.0, 1.5))

    def test_scalar_algorithms_is_one_name(self, tmp_path):
        path = tmp_path / "one.yaml"
        path.write_text("sources:\n  - [-11, 3.5]\nalgorithms: tl-cbf\n")
        assert load_config(str(path)).algorithms == ("tl-cbf",)

    def test_unknown_keys_refused(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nsnrdb: 5\n")
        with pytest.raises(ValueError, match="snrdb"):
            load_config(str(path))

    def test_list_axis_refused_as_sweep_kind(self, tmp_path):
        path = tmp_path / "kind.yaml"
        path.write_text("sources:\n  - [-11, 3.5]\nsweep_kind: snapshots\nsweep_values: [10, 20]\n")
        with pytest.raises(ValueError, match="list under 'snapshots'"):
            load_config(str(path))

    def test_empty_keys_take_defaults(self, tmp_path):
        path = tmp_path / "blank.yaml"
        path.write_text("name:\nmodel:\nsweep_kind:\nsweep_values:\nsources:\n  - [-11, 3.5]\n")
        cfg = load_config(str(path))
        assert (cfg.name, cfg.model, cfg.sweep) == ("blank", LINEAR, None)

    def test_bandlimited_requires_nu(self, tmp_path):
        path = tmp_path / "bl.yaml"
        path.write_text("name: x\nmodel: bandlimited\norder: 1\n")
        with pytest.raises(ValueError, match="nu"):
            load_config(str(path))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        cfg = load_config(str(path))
        sweep_name, values = sweep_points(cfg)
        for value in values:
            cell = materialize(cfg, sweep_name, value)
            assert len(cell.sources) == len(cfg.sources) > 0
            for src in cell.sources:
                assert src.model == cfg.model

    def test_readme_table_lists_every_config_key(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
        table = [line for line in section.splitlines() if line.startswith("| `")]
        keys = {k for line in table for k in re.findall(r"`(\w+)`", line.split("|")[1])}
        assert keys == CONFIG_KEYS

    def test_absent_keys_take_scenario_defaults(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text("sources:\n  - [-11, 3.5]\n")
        cfg = load_config(str(path))
        defaults = [f for f in dataclasses.fields(ScenarioConfig) if f.default is not dataclasses.MISSING]
        assert {f.name for f in defaults} >= set(harness.FIELD_KEYS)
        for f in defaults:
            assert getattr(cfg, f.name) == f.default, f.name

    @pytest.mark.parametrize("key", ["peak_excess", "ospa_p", "ospa_c", "detection_threshold"])
    def test_scoring_settings_are_not_config_keys(self, tmp_path, key):
        path = tmp_path / "scoring.yaml"
        path.write_text(f"sources:\n  - [-11, 3.5]\n{key}: 2\n")
        with pytest.raises(ValueError, match=key):
            load_config(str(path))

    def test_overrides(self):
        cfg = small_config()
        out = apply_overrides(cfg, trials=9, seed=1, algorithms=["tl-cbf"])
        assert out.trials == 9
        assert out.base_seed == 1
        assert out.algorithms == ("tl-cbf",)


class TestTimingOrdering:
    def test_cbf_runtime_grows_with_block_length(self):
        cfg = small_config(
            algorithms=("tl-cbf",), snapshots=(5, 120), snr_db=5.0, trials=4
        )
        report = run_scenario(cfg)
        by_L = {}
        for r in report.rows:
            by_L.setdefault(r.sweep_value, {})[r.trial] = r.runtime_ms
        small = np.mean(list(by_L[5.0].values()))
        large = np.mean(list(by_L[120.0].values()))
        assert large > small

    def test_scan_methods_faster_than_iterative(self):
        cfg = small_config(
            algorithms=("tl-cbf", "tl-omp", "tl-sbl", "tl-sfw"), snr_db=5.0, trials=2
        )
        report = run_scenario(cfg)
        mean_rt = {}
        for alg in cfg.algorithms:
            times = {r.trial: r.runtime_ms for r in report.rows if r.algorithm == alg}
            mean_rt[alg] = np.mean(list(times.values()))
        for fast in ("tl-cbf", "tl-omp"):
            assert mean_rt[fast] < mean_rt["tl-sbl"]
            assert mean_rt[fast] < mean_rt["tl-sfw"]
