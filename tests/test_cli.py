import os
import subprocess
import sys

import pytest

from trajloc import harness
from trajloc.blockio import load_block_set
from trajloc.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMO_CONFIG = """
name: cli-demo
model: polynomial
order: 1
grid_phi: [-85, 2, 85]
grid_coeffs: [[-5, 0.5, 5]]
sources:
  - [-11, 3.5]
  - [20, 1.5]
snr_db: 10
snapshots: 12
algorithms: [tl-cbf, tl-omp]
trials: 2
base_seed: 5
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "demo.yaml"
    p.write_text(DEMO_CONFIG)
    return str(p)


def test_list_command(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(maxsplit=1) for line in lines]
    assert [r[0] for r in rows] == [c.name for c in harness.builtin_experiments()]
    assert all(len(r) == 2 for r in rows), lines  # every name has a description


def test_oracle_matches_published_floors(capsys):
    import re

    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    floors = []
    mean = None
    for line in out.splitlines()[1:]:
        parts = line.split()
        numbers = [float(x) for x in re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?", line)]
        if parts and parts[0].isdigit():
            # line holds: index, params, floor, best point; floor is mid-way
            floors.append(numbers[len(numbers) // 2])
        if parts and parts[0] == "mean":
            mean = numbers[-1]
    assert floors == pytest.approx([0.0, 0.51, 0.15, 0.53], abs=5e-3)
    assert mean == pytest.approx(0.30, abs=5e-3)


def test_synth_writes_loadable_set(config_path, tmp_path, capsys):
    out_dir = tmp_path / "synth"
    assert main(["synth", "--config", config_path, "--out", str(out_dir), "--seed", "9"]) == 0
    blocks, truth = load_block_set(str(out_dir))
    assert blocks[0].data.shape == (10, 12)
    assert len(truth.sources) == 2
    # deterministic: re-synthesizing gives the identical file content
    out2 = tmp_path / "synth2"
    main(["synth", "--config", config_path, "--out", str(out2), "--seed", "9"])
    a = (out_dir / "block_000.csv").read_bytes()
    b = (out2 / "block_000.csv").read_bytes()
    assert a == b


def test_synth_without_sources_writes_noise_blocks(tmp_path):
    p = tmp_path / "noise.yaml"
    p.write_text("snr_db: 10\nsnapshots: 12\n")
    out_dir = tmp_path / "noise"
    assert main(["synth", "--config", str(p), "--out", str(out_dir), "--seed", "9"]) == 0
    blocks, truth = load_block_set(str(out_dir))
    assert blocks[0].data.shape == (10, 12)
    assert truth.sources == ()


def test_run_without_sources_names_the_key(tmp_path):
    p = tmp_path / "noise.yaml"
    p.write_text("snr_db: 10\nsnapshots: 12\nalgorithms: [tl-sfw, tl-nomp]\n")
    with pytest.raises(SystemExit, match="sources"):
        main(["run", "--config", str(p), "--out", str(tmp_path / "x"), "--trials", "1"])
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("sources: 5", "sources"),
        ("sources: [5]", "sources"),
        ("sources: [[]]", "sources"),
        ("grid_phi: 5", "grid_phi"),
        ("grid_phi: [1, 2]", "grid_phi"),
        ("grid_coeffs: 5", "grid_coeffs"),
        ("sweep_kind: zeta\nsweep_values: 5", "sweep_values"),
        ("snapshots: [a]", "snapshots"),
        ("model: bandlimited\nnu: [1]", "nu"),
        ("frequencies: []", "frequencies"),
        ("frequencies: [0, 1000]", "frequencies"),
        ("sweep_kind: freq_count\nsweep_values: [2]", "sweep_values"),
        ("sweep_kind: freq_count\nsweep_values: [1.5]", "sweep_values"),
        ("sources: [[0, 1]]\nsweep_kind: phi_step\nsweep_values: [0]", "sweep_values"),
        ("sources: [[0, 1]]\nfrequencies: [.nan]", "frequencies"),
        ("sources: [[0, 1]]\nsnr_db: .nan", "snr_db"),
        ("sources: [[0, 1]]\nsensors: 1", "sensors"),
        ("sources: [[0, 1]]\nbase_seed: -5", "base_seed"),
        ("sources: [[0, 1]]\ngrid_phi: [-85, .nan, 85]", "grid_phi"),
        ("sources: [[0, 1]]\ngrid_phi: [-85, 2, .inf]", "grid_phi"),
        ("sources: [[0, 1]]\ngrid_coeffs: [[-5, .nan, 5]]", "grid_coeffs"),
        ("model: bandlimited\nnu: .nan", "nu"),
        ("model: bandlimited\nnu: .inf", "nu"),
        ("sources: [[0, 1, 1]]\norder: 2", "grid_coeffs"),
    ],
)
def test_run_names_a_wrong_shaped_key(tmp_path, text, key):
    p = tmp_path / "bad.yaml"
    p.write_text(text + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(p), "--out", str(tmp_path / "x"), "--trials", "1"])
    message = str(exc.value.code)
    assert message.startswith("error: ") and f" {key}: " in message


@pytest.mark.parametrize("command", ["run", "synth"])
def test_negative_seed_override_names_base_seed(config_path, tmp_path, command):
    with pytest.raises(SystemExit, match="^error: base_seed: "):
        main([command, "--config", config_path, "--out", str(tmp_path / "x"), "--seed", "-5"])
    assert not (tmp_path / "x").exists()


def test_run_writes_csvs(config_path, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", "--config", config_path, "--out", str(out_dir), "--trials", "1"]) == 0
    rows = (out_dir / "rows.csv").read_text()
    assert rows.startswith("algorithm,experiment,sweep_name,sweep_value,trial")
    assert "tl-cbf" in rows and "tl-omp" in rows
    assert (out_dir / "aggregate.csv").exists()


def test_sweep_builtin_downscaled(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "snapshots",
            "--out",
            str(out_dir),
            "--trials",
            "1",
            "--algorithms",
            "tl-cbf",
            "--fake-clock",
        ]
    )
    assert rc == 0
    rows = (out_dir / "rows.csv").read_text().splitlines()
    # header + 10 sweep values x 1 trial x 1 algorithm x 4 sources
    assert len(rows) == 1 + 10 * 4


def test_synth_rejects_sweep_config(tmp_path):
    p = tmp_path / "sweepy.yaml"
    p.write_text(DEMO_CONFIG.replace("snr_db: 10", "snr_db: [0, 10]"))
    with pytest.raises(SystemExit):
        main(["synth", "--config", str(p), "--out", str(tmp_path / "x")])


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_algorithms_help_names_every_estimator(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # argparse wraps at hyphens otherwise
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    for name in harness.ESTIMATORS:
        assert name in out


def test_demo_script_runs_every_estimator():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "demo_single_block.py"), "--snr", "30"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name in harness.ESTIMATORS:
        assert any(line.split()[:1] == [name] for line in lines), name
