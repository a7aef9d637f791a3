#!/usr/bin/env python3
"""Run all five estimators on one synthesized block and print a comparison.

Four linear trajectories (two on-grid, two off-grid), 10-sensor ULA, 30
snapshots at 5 dB: the setup behind the spectrum illustrations. Useful as a
quick eyeball check that gridless refinement beats the on-grid quantization.
"""

import argparse
import time

import trajloc as tl
from trajloc import harness

SOURCES = ((-11.0, 3.5), (20.0, 1.5), (61.0, -2.25), (-52.0, -4.75))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snr", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = tl.ScenarioConfig(
        name="demo",
        model=tl.TrajectoryModel.polynomial(1),
        grid_phi=(-85.0, 2.0, 85.0),
        grid_coeffs=((-5.0, 0.5, 5.0),),
        sources=SOURCES,
        snr_db=args.snr,
    )
    cell = harness.materialize(config, "snr_db", args.snr)
    truth = list(cell.sources)
    blocks, _ = tl.synthesize_block(
        truth, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, args.seed
    )

    print(f"SNR {args.snr} dB, seed {args.seed}, grid floor per source:")
    for src in truth:
        floor, _ = tl.min_grid_rmse(src, cell.grid, cell.snapshots)
        print(f"  ({src.phi:g}, {src.coeffs[0]:g}) -> {floor:.4f} deg")

    print("\nestimates:")
    for name, estimate in harness.ESTIMATORS.items():
        t0 = time.perf_counter()
        params, _ = estimate(blocks, cell)
        elapsed = time.perf_counter() - t0
        asn = tl.ospa_assign(truth, params, L=cell.snapshots)
        pd, rmse = tl.detection_stats(asn)
        rmse_txt = f"{rmse:.4f}" if rmse is not None else "n/a"
        print(
            f"  {name:<8} mean rmse {rmse_txt:>8} deg   Pd {pd:.2f}   "
            f"ospa {asn.ospa:8.3f}   {elapsed * 1e3:7.1f} ms"
        )

    print(f"\n{name} parameter estimates (phi, alpha):")
    for p in sorted(params, key=lambda p: p.phi):
        print(f"  ({p.phi:+8.4f}, {p.coeffs[0]:+7.4f})")


if __name__ == "__main__":
    main()
