import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajloc import ArrayConfig, ObservationBlock, TrajectoryModel, TrajectoryParams, synthesize_block
from trajloc.blockio import load_block, load_block_set, save_block, save_block_set


def test_round_trip_bit_exact(tmp_path, array, four_sources):
    blocks, truth = synthesize_block(four_sources, array, 30, 5.0, seed=42)
    path = tmp_path / "block.csv"
    save_block(blocks[0], str(path), seed=42)
    loaded, seed = load_block(str(path))
    assert seed == 42
    assert loaded.frequency is None
    assert loaded.snapshots == 30
    assert np.array_equal(loaded.data, blocks[0].data)


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=8,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_round_trip_exotic_floats(tmp_path_factory, values):
    real = np.array(values[:4], dtype=float).reshape(2, 2)
    imag = np.array(values[4:], dtype=float).reshape(2, 2)
    data = real + 1j * imag
    block = ObservationBlock(data, 1600.0)
    path = tmp_path_factory.mktemp("b") / "x.csv"
    save_block(block, str(path), seed=0)
    loaded, _ = load_block(str(path))
    assert np.array_equal(loaded.data, block.data)


def test_block_set_round_trip(tmp_path, four_sources):
    freqs = [1400.0, 1600.0, 1800.0]
    arr = ArrayConfig.for_frequencies(10, freqs)
    blocks, truth = synthesize_block(four_sources, arr, 20, 5.0, freqs, seed=3)
    save_block_set(blocks, truth, str(tmp_path / "set"), seed=3)
    loaded_blocks, loaded_truth = load_block_set(str(tmp_path / "set"))
    assert len(loaded_blocks) == 3
    for a, b in zip(blocks, loaded_blocks):
        assert a.frequency == b.frequency
        assert np.array_equal(a.data, b.data)
    assert loaded_truth.sources == truth.sources
    assert np.array_equal(loaded_truth.amplitudes, truth.amplitudes)
    assert loaded_truth.noise_variance == truth.noise_variance


def test_bandlimited_truth_round_trip(tmp_path):
    model = TrajectoryModel.bandlimited(2, 0.15)
    src = TrajectoryParams(model, -12.5, (1.0, -2.0, 0.3, 0.4))
    arr = ArrayConfig(6)
    blocks, truth = synthesize_block([src], arr, 16, None, seed=1)
    save_block_set(blocks, truth, str(tmp_path / "bl"), seed=1)
    _, loaded = load_block_set(str(tmp_path / "bl"))
    assert loaded.sources[0].model == model
    assert loaded.sources[0] == src


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_block_set(str(tmp_path))


def test_load_block_rejects_nan(tmp_path):
    blocks, _ = synthesize_block([], ArrayConfig(3), 4, 0.0, seed=5)
    path = tmp_path / "block.csv"
    save_block(blocks[0], str(path), seed=5)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")  # sensor 1
    cells[5] = "nan"  # imaginary part of snapshot 2
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="sensor 1, snapshot 2"):
        load_block(str(path))
