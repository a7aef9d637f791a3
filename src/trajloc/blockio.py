"""Bit-exact file round-trip for observation blocks and ground truth.

A block file is one JSON header line (N, L, frequency, seed) followed by N
CSV rows; each complex entry occupies an adjacent (re, im) column pair.
Floats are written with `repr`, which round-trips every finite double
exactly. Ground truth goes to a JSON sidecar.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .model import (
    BANDLIMITED,
    GroundTruth,
    ObservationBlock,
    TrajectoryModel,
    TrajectoryParams,
)


def save_block(block: ObservationBlock, path: str, seed: int | None = None) -> None:
    header = {
        "n_sensors": block.n_sensors,
        "snapshots": block.snapshots,
        "frequency": block.frequency,
        "seed": seed,
    }
    lines = [json.dumps(header)]
    for row in block.data:
        cells = []
        for z in row:
            cells.append(repr(float(z.real)))
            cells.append(repr(float(z.imag)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_block(path: str) -> tuple[ObservationBlock, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        data = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(c) for c in line.split(",")]
            data.append([complex(r, i) for r, i in zip(vals[::2], vals[1::2])])
    arr = np.array(data, dtype=complex)
    if arr.shape != (header["n_sensors"], header["snapshots"]):
        raise ValueError(f"{path}: data shape {arr.shape} does not match header")
    return ObservationBlock(arr, header["frequency"]), header["seed"]


def _model_dict(model: TrajectoryModel) -> dict:
    d = {"kind": model.kind, "order": model.order}
    if model.kind == BANDLIMITED:
        d["nu"] = model.nu
    return d


def _model_from_dict(d: dict) -> TrajectoryModel:
    return TrajectoryModel(d["kind"], d["order"], d.get("nu"))


def save_truth(truth: GroundTruth, path: str) -> None:
    doc = {
        "sources": [
            {"model": _model_dict(s.model), "phi": s.phi, "coeffs": list(s.coeffs)}
            for s in truth.sources
        ],
        "amplitudes_re": truth.amplitudes.real.tolist(),
        "amplitudes_im": truth.amplitudes.imag.tolist(),
        "noise_variance": truth.noise_variance,
        "signal_variance": truth.signal_variance,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_truth(path: str) -> GroundTruth:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    sources = tuple(
        TrajectoryParams(_model_from_dict(s["model"]), s["phi"], tuple(s["coeffs"]))
        for s in doc["sources"]
    )
    amps = np.array(doc["amplitudes_re"]) + 1j * np.array(doc["amplitudes_im"])
    if amps.size == 0:
        amps = amps.reshape((0, 0, 0))
    return GroundTruth(sources, amps, doc["noise_variance"], doc["signal_variance"])


def save_block_set(blocks, truth: GroundTruth, directory: str, seed: int | None = None):
    """Write blocks as block_000.csv.. plus ground_truth.json; returns paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, block in enumerate(blocks):
        p = os.path.join(directory, f"block_{i:03d}.csv")
        save_block(block, p, seed)
        paths.append(p)
    tp = os.path.join(directory, "ground_truth.json")
    save_truth(truth, tp)
    return paths + [tp]


def load_block_set(directory: str):
    names = sorted(n for n in os.listdir(directory) if n.startswith("block_") and n.endswith(".csv"))
    if not names:
        raise FileNotFoundError(f"no block_*.csv files in {directory}")
    blocks = [load_block(os.path.join(directory, n))[0] for n in names]
    truth = load_truth(os.path.join(directory, "ground_truth.json"))
    return blocks, truth
