"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The Monte Carlo criteria use the prescribed trial counts, so this module
takes a few minutes; everything is seeded and deterministic.
"""

import dataclasses
import itertools
import time

import numpy as np

import trajloc as tl
from trajloc import (
    ArrayConfig,
    TrajectoryModel,
    TrajectoryParams,
    build_grid,
    doas,
    min_grid_rmse,
    ospa_assign,
    run_scenario,
    synthesize_block,
    tl_nomp,
    tl_omp,
    tl_sbl,
    tl_sfw,
    trajectory_rmse,
)
from trajloc.harness import builtin_experiment
from trajloc.metrics import OSPA_C, OSPA_P
from trajloc.model import trajectory_steering_matrix, wavelength_for
from trajloc.optim import batched_snapshot_ls, objective, objective_grad_hess

LINEAR = TrajectoryModel.polynomial(1)
QUADRATIC = TrajectoryModel.polynomial(2)
BANDLIMITED = TrajectoryModel.bandlimited(1, 0.1)

FOUR_SOURCES = [(-11.0, 3.5), (20.0, 1.5), (61.0, -2.25), (-52.0, -4.75)]


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} {status}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def linear_grid():
    return build_grid([("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)], LINEAR)


def grid_for(model):
    axes = [("phi", -85, 2, 85)]
    if model.kind == "polynomial":
        names = [f"alpha{p}" for p in range(1, model.order + 1)]
    else:
        names = [f"alpha{q}" for q in range(1, model.order + 1)] + [
            f"beta{q}" for q in range(1, model.order + 1)
        ]
    axes += [(n, -5, 0.5, 5) for n in names]
    return build_grid(axes, model)


def detected_means(rows, algorithm):
    by_value = {}
    for r in rows:
        if r.algorithm == algorithm and r.detected:
            by_value.setdefault(r.sweep_value, []).append(r.rmse_deg)
    return {v: float(np.mean(x)) for v, x in sorted(by_value.items())}


def test_criterion_1_grid_floor_oracle():
    grid = linear_grid()
    expected = [0.0, 0.51, 0.15, 0.53]
    t0 = time.perf_counter()
    floors = [
        min_grid_rmse(TrajectoryParams(LINEAR, p, (a,)), grid, 30)[0]
        for p, a in FOUR_SOURCES
    ]
    elapsed = time.perf_counter() - t0
    ok = all(abs(f - e) <= 0.005 for f, e in zip(floors, expected))
    ok &= abs(float(np.mean(floors)) - 0.30) <= 0.005
    ok &= elapsed < 1.0
    check(
        1,
        "on-grid error floors are (0, 0.51, 0.15, 0.53), mean 0.30 (+/-0.005)",
        ok,
        f"[floors={np.round(floors, 4).tolist()}, mean={np.mean(floors):.4f}, {elapsed * 1e3:.0f} ms]",
    )


def test_criterion_2_gradient_and_hessian():
    array = ArrayConfig(10)
    lams = [wavelength_for(array, None)]
    rng = np.random.default_rng(2024)
    h = 1e-4
    worst_g, worst_h = 0.0, 0.0
    models = [LINEAR, QUADRATIC, BANDLIMITED]
    for draw in range(20):
        model = models[draw % 3]
        params = TrajectoryParams(
            model,
            rng.uniform(-70, 70),
            tuple(rng.uniform(-4, 4, model.n_params - 1)),
        )
        R = rng.standard_normal((10, 30)) + 1j * rng.standard_normal((10, 30))
        g, H = objective_grad_hess(params, [R], array, lams)
        d = model.n_params
        fd_g = np.zeros(d)
        fd_H = np.zeros((d, d))
        for i in range(d):
            up, dn = params.vector(), params.vector()
            up[i] += h
            dn[i] -= h
            pu = TrajectoryParams.from_vector(model, up)
            pd_ = TrajectoryParams.from_vector(model, dn)
            fd_g[i] = (
                objective(pu, [R], array, lams) - objective(pd_, [R], array, lams)
            ) / (2 * h)
            fd_H[i] = (
                objective_grad_hess(pu, [R], array, lams)[0]
                - objective_grad_hess(pd_, [R], array, lams)[0]
            ) / (2 * h)
        worst_g = max(worst_g, np.max(np.abs(g - fd_g)) / np.max(np.abs(fd_g)))
        worst_h = max(worst_h, np.max(np.abs(H - fd_H)) / np.max(np.abs(fd_H)))
    ok = worst_g < 1e-5 and worst_h < 1e-3
    check(
        2,
        "analytic gradient/Hessian match central differences (20 draws, all models)",
        ok,
        f"[max rel err: grad {worst_g:.2e}, hess {worst_h:.2e}]",
    )


def test_criterion_3_noiseless_exactness():
    rng = np.random.default_rng(33)
    draws = (
        [(LINEAR, 30)] * 4 + [(QUADRATIC, 30)] * 3 + [(BANDLIMITED, 40)] * 3
    )
    worst = 0.0
    for model, L in draws:
        grid = grid_for(model)
        array = ArrayConfig(10)
        while True:
            src = TrajectoryParams(
                model, rng.uniform(-70, 70), tuple(rng.uniform(-3.5, 3.5, model.n_params - 1))
            )
            if np.all(np.abs(doas(src, L)) < 88.0):
                break
        blocks, _ = synthesize_block([src], array, L, None, seed=int(rng.integers(1 << 31)))
        for fn in (tl_sfw, tl_nomp):
            ests, _ = fn(blocks, grid, array, 1)
            worst = max(worst, trajectory_rmse(src, ests[0].params, L))
    ok = worst < 1e-3
    check(
        3,
        "noiseless single off-grid source: TL-SFW and TL-NOMP RMSE < 1e-3 deg (10 draws)",
        ok,
        f"[worst {worst:.2e}]",
    )


def test_criterion_4_floor_dominance_at_30db():
    cfg = tl.ScenarioConfig(
        name="floor-dominance",
        model=LINEAR,
        grid_phi=(-85.0, 2.0, 85.0),
        grid_coeffs=((-5.0, 0.5, 5.0),),
        sources=tuple(FOUR_SOURCES),
        snr_db=30.0,
        snapshots=30,
        algorithms=("tl-sbl", "tl-sfw", "tl-nomp"),
        trials=50,
        base_seed=400,
    )
    report = run_scenario(cfg, n_jobs=2)
    means = {a: detected_means(report.rows, a)[30.0] for a in cfg.algorithms}
    grid = linear_grid()
    floor_mean = float(
        np.mean([min_grid_rmse(TrajectoryParams(LINEAR, p, (a,)), grid, 30)[0] for p, a in FOUR_SOURCES])
    )
    # 0.30 is the two-digit rounding of the exact floor mean (0.2968, pinned
    # at +/-0.005 by criterion 1); on-grid estimates can never beat the exact
    # floor, so that is the hard lower bound
    sbl_ok = floor_mean - 1e-9 <= means["tl-sbl"] <= 0.40 and means["tl-sbl"] >= 0.30 - 0.005
    gridless_ok = means["tl-nomp"] < 0.30 and means["tl-sfw"] < 0.30
    check(
        4,
        "at 30 dB TL-SBL saturates at the on-grid floor (~0.30) while TL-SFW/TL-NOMP beat it",
        sbl_ok and gridless_ok,
        f"[sbl {means['tl-sbl']:.4f} (floor {floor_mean:.4f}), sfw {means['tl-sfw']:.4f}, nomp {means['tl-nomp']:.4f}]",
    )


def test_criterion_5_omp_orthogonality():
    rng = np.random.default_rng(55)
    grid = linear_grid()
    array = ArrayConfig(10)
    lam = wavelength_for(array, None)
    worst = 0.0
    for trial in range(20):
        K = int(rng.integers(1, 5))
        sources = []
        while len(sources) < K:
            cand = TrajectoryParams(LINEAR, rng.uniform(-75, 75), (rng.uniform(-4.5, 4.5),))
            if all(abs(cand.phi - s.phi) > 6 for s in sources):
                sources.append(cand)
        blocks, _ = synthesize_block(sources, array, 30, 5.0, seed=5000 + trial)
        estimates, _ = tl_omp(blocks, grid, array, K)
        sel = [e.params for e in estimates]
        A = np.stack([trajectory_steering_matrix(t, array, 30, lam) for t in sel])
        (coeffs,), _ = batched_snapshot_ls(A[None], blocks[0].data[None])
        R = blocks[0].data - np.einsum("inl,li->nl", A, coeffs)
        norms = np.linalg.norm(R, axis=0)
        rel = np.abs(np.einsum("inl,nl->il", np.conj(A), R)) / (
            np.maximum(norms, 1e-30)[None, :] * np.sqrt(10)
        )
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-9
    check(
        5,
        "TL-OMP residuals orthogonal to all selected steering vectors (20 scenarios)",
        ok,
        f"[worst rel inner product {worst:.2e}]",
    )


def test_criterion_6_ospa_matches_enumeration():
    rng = np.random.default_rng(66)

    def brute(true_set, est_set, p, c, L):
        best = min(
            sum(
                min(c, trajectory_rmse(true_set[k], est_set[perm[k]], L)) ** p
                for k in range(len(true_set))
            )
            for perm in itertools.permutations(range(len(est_set)), len(true_set))
        )
        return ((best + (len(est_set) - len(true_set)) * c**p) / len(est_set)) ** (1.0 / p)

    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 6))
        Khat = int(rng.integers(K, 6))
        T = [TrajectoryParams(LINEAR, rng.uniform(-80, 80), (rng.uniform(-5, 5),)) for _ in range(K)]
        E = [TrajectoryParams(LINEAR, rng.uniform(-80, 80), (rng.uniform(-5, 5),)) for _ in range(Khat)]
        got = ospa_assign(T, E, L=30).ospa
        want = brute(T, E, 2, 100.0, 30)
        worst = max(worst, abs(got - want))
    same = TrajectoryParams(LINEAR, 4.0, (1.0,))
    identical = ospa_assign([same], [same], L=30).ospa
    half_penalty = ospa_assign([same], [same, TrajectoryParams(LINEAR, -70.0, (0.0,))], L=30).ospa
    ok = (OSPA_P, OSPA_C) == (2, 100.0) and worst < 1e-9 and identical == 0.0
    ok = ok and abs(half_penalty - 70.711) < 1e-3
    check(
        6,
        "OSPA equals brute-force enumeration (100 random sets, K,Khat <= 5); anchors 0 and 70.711",
        ok,
        f"[max dev {worst:.2e}, K=1/Khat=2 case {half_penalty:.3f}]",
    )


def test_criterion_7_grid_step_robustness():
    cfg = dataclasses.replace(
        builtin_experiment("grid-step"),
        trials=50,
        algorithms=("tl-cbf", "tl-omp", "tl-nomp"),
        base_seed=700,
    )
    report = run_scenario(cfg, n_jobs=2)
    means = {a: detected_means(report.rows, a) for a in cfg.algorithms}
    steps = sorted(means["tl-cbf"])
    ok = True
    detail = []
    for alg in ("tl-cbf", "tl-omp"):
        series = [means[alg][s] for s in steps]
        slope = np.polyfit(steps, series, 1)[0]
        ok &= slope > 0 and series[-1] > series[0]
        detail.append(f"{alg} {series[0]:.2f}->{series[-1]:.2f}")
    nomp_series = [means["tl-nomp"][s] for s in steps]
    nomp_range = max(nomp_series) - min(nomp_series)
    ok &= nomp_range < 0.5
    detail.append(f"tl-nomp range {nomp_range:.3f}")
    check(
        7,
        "grid-based RMSE grows with phi step while TL-NOMP moves < 0.5 deg (50 trials)",
        ok,
        "[" + ", ".join(detail) + "]",
    )


def test_criterion_8_wideband_improvement():
    cfg = dataclasses.replace(
        builtin_experiment("wideband"),
        trials=50,
        algorithms=("tl-nomp",),
        sweep=("freq_count", (1.0, 7.0)),
        base_seed=800,
    )
    report = run_scenario(cfg, n_jobs=2)
    means = detected_means(report.rows, "tl-nomp")
    ok = means[7.0] < means[1.0]
    check(
        8,
        "TL-NOMP wideband F=7 strictly beats F=1 on quadratic trajectories (5 dB, 50 trials)",
        ok,
        f"[F=1 {means[1.0]:.4f}, F=7 {means[7.0]:.4f}]",
    )


def test_criterion_9_f1_wideband_degeneracy():
    grid = linear_grid()
    sources = [TrajectoryParams(LINEAR, p, (a,)) for p, a in FOUR_SOURCES[:2]]
    narrow = ArrayConfig(10)
    wide = ArrayConfig.for_frequencies(10, [1600.0])
    nb, _ = synthesize_block(sources, narrow, 30, 5.0, None, seed=900)
    wb, _ = synthesize_block(sources, wide, 30, 5.0, [1600.0], seed=900)
    ok = np.array_equal(nb[0].data, wb[0].data)

    s_nb = tl.tl_cbf_spectrum(nb, grid, narrow)
    s_wb = tl.tl_cbf_spectrum(wb, grid, wide)
    ok &= np.array_equal(s_nb.values, s_wb.values)
    g_nb, _ = tl_sbl(nb, grid, narrow, 2, 10 ** (-0.5))
    g_wb, _ = tl_sbl(wb, grid, wide, 2, 10 ** (-0.5))
    ok &= np.array_equal(g_nb.values, g_wb.values)
    for fn in (tl_omp, tl_sfw, tl_nomp):
        e_nb = fn(nb, grid, narrow, 2)[0]
        e_wb = fn(wb, grid, wide, 2)[0]
        for a, b in zip(e_nb, e_wb):
            ok &= bool(np.array_equal(a.params.vector(), b.params.vector()))
            ok &= all(np.array_equal(x, y) for x, y in zip(a.amplitudes, b.amplitudes))
    check(9, "F=1 wideband path is bit-identical to narrowband for every algorithm", ok)


def test_criterion_10_determinism(tmp_path):
    cfg = tl.ScenarioConfig(
        name="determinism",
        model=LINEAR,
        grid_phi=(-85.0, 2.0, 85.0),
        grid_coeffs=((-5.0, 0.5, 5.0),),
        sources=tuple(FOUR_SOURCES[:2]),
        snr_db=(5.0, 20.0),
        snapshots=12,
        algorithms=("tl-cbf", "tl-sbl", "tl-omp", "tl-sfw", "tl-nomp"),
        trials=2,
        base_seed=1000,
    )
    outputs = []
    for run, jobs in (("a", 1), ("b", 1), ("parallel", 2)):
        report = run_scenario(cfg, n_jobs=jobs, fake_clock=True)
        rows_path, agg_path = tl.emit_results(report, str(tmp_path / run))
        outputs.append((open(rows_path, "rb").read(), open(agg_path, "rb").read()))
    ok = outputs[0] == outputs[1] == outputs[2]
    # with the real clock only the runtime column may differ
    r1 = run_scenario(cfg, n_jobs=1)
    r2 = run_scenario(cfg, n_jobs=2)
    strip = lambda rows: [
        (r.algorithm, r.sweep_value, r.trial, r.source_id, r.rmse_deg, r.detected, r.ospa, r.flags)
        for r in rows
    ]
    ok &= strip(r1.rows) == strip(r2.rows)
    check(10, "same base_seed reproduces bit-identical row CSVs, serial and parallel", ok)
