import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajloc import metrics
from trajloc import (
    TrajectoryModel,
    TrajectoryParams,
    detection_stats,
    min_grid_rmse,
    ospa_assign,
    trajectory_rmse,
)
from conftest import random_params

LINEAR = TrajectoryModel.polynomial(1)


def lin(phi, alpha):
    return TrajectoryParams(LINEAR, phi, (alpha,))


class TestTrajectoryRmse:
    def test_identical_is_zero(self):
        p = lin(12.0, -3.0)
        assert trajectory_rmse(p, p, 30) == 0.0

    def test_linear_closed_form(self):
        # independent closed form: sqrt(mean_l (-1 + 1.5 l / 29)^2)
        l = np.arange(30)
        expected = np.sqrt(np.mean((-1 + 1.5 * l / 29) ** 2))
        got = trajectory_rmse(lin(20, 1.5), lin(21, 0.0), 30)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.513, abs=5e-4)

    def test_constant_offset(self):
        assert trajectory_rmse(lin(10, 2.0), lin(13.5, 2.0), 17) == pytest.approx(3.5, abs=1e-12)

    def test_cross_model_comparison(self):
        band = TrajectoryParams(TrajectoryModel.bandlimited(1, 0.2), 10.0, (0.0, 0.0))
        static = TrajectoryParams(TrajectoryModel.polynomial(0), 10.0)
        assert trajectory_rmse(band, static, 20) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_params(LINEAR, rng), random_params(LINEAR, rng)
        d = trajectory_rmse(a, b, 25)
        assert d >= 0
        assert d == pytest.approx(trajectory_rmse(b, a, 25), abs=1e-12)
        assert (d == 0) == np.allclose(a.vector(), b.vector())


def brute_force_ospa(true_set, est_set, p, c, L):
    """Direct enumeration of Eq-style assignment over all injections."""
    K, Khat = len(true_set), len(est_set)
    best = np.inf
    for perm in itertools.permutations(range(Khat), K):
        tot = sum(
            min(c, trajectory_rmse(true_set[k], est_set[perm[k]], L)) ** p
            for k in range(K)
        )
        best = min(best, tot)
    return ((best + (Khat - K) * c**p) / Khat) ** (1.0 / p)


class TestOspa:
    def test_identical_singletons(self):
        p = lin(5.0, 1.0)
        asn = ospa_assign([p], [p], L=30)
        assert asn.ospa == 0.0
        assert asn.pairs == ((0, 0, 0.0),)
        assert asn.unassigned_estimates == ()

    def test_cardinality_penalty(self):
        p = lin(5.0, 1.0)
        stray = lin(-60.0, 0.0)
        asn = ospa_assign([p], [p, stray], L=30)
        assert asn.ospa == pytest.approx(np.sqrt(0.5) * 100.0, abs=1e-9)
        assert asn.ospa == pytest.approx(70.711, abs=1e-3)
        assert asn.unassigned_estimates == (1,)

    def test_fewer_estimates_than_truth_mirror_the_swapped_roles(self):
        rng = np.random.default_rng(21)
        for Khat in range(3):
            T = [random_params(LINEAR, rng) for _ in range(Khat + 2)]
            E = [random_params(LINEAR, rng) for _ in range(Khat)]
            asn, swapped = ospa_assign(T, E, L=30), ospa_assign(E, T, L=30)
            assert asn.ospa == swapped.ospa
            assert asn.pairs == tuple(sorted((t, e, d) for e, t, d in swapped.pairs))
            assert asn.unassigned_estimates == swapped.unassigned_truths == ()
            assert asn.unassigned_truths == swapped.unassigned_estimates
        assert ospa_assign([lin(0, 0)], [], L=30).ospa == 100.0

    def test_bounded_by_cutoff(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = [random_params(LINEAR, rng) for _ in range(rng.integers(1, 4))]
            E = [random_params(LINEAR, rng) for _ in range(len(T) + rng.integers(0, 3))]
            assert ospa_assign(T, E, L=30).ospa <= 100.0 + 1e-12

    def test_symmetric_for_equal_cardinality(self):
        rng = np.random.default_rng(8)
        T = [random_params(LINEAR, rng) for _ in range(3)]
        E = [random_params(LINEAR, rng) for _ in range(3)]
        assert ospa_assign(T, E, L=30).ospa == pytest.approx(
            ospa_assign(E, T, L=30).ospa, rel=1e-12
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            K = int(rng.integers(1, 5))
            Khat = int(rng.integers(K, 6))
            T = [random_params(LINEAR, rng) for _ in range(K)]
            E = [random_params(LINEAR, rng) for _ in range(Khat)]
            asn = ospa_assign(T, E, L=30)
            assert asn.ospa == pytest.approx(brute_force_ospa(T, E, 2, 100.0, 30), rel=1e-10)


class TestDetectionStats:
    def test_all_detected(self):
        p = lin(5.0, 1.0)
        asn = ospa_assign([p, lin(40, 0)], [p, lin(40, 0)], L=30)
        pd, rmse = detection_stats(asn)
        assert pd == 1.0 and rmse == 0.0

    def test_threshold_split(self):
        truth = [lin(0, 0), lin(50, 0)]
        est = [lin(1, 0), lin(60, 0)]  # distances 1 and 10
        pd, rmse = detection_stats(ospa_assign(truth, est, L=30))
        assert pd == 0.5
        assert rmse == pytest.approx(1.0, abs=1e-12)

    def test_no_detections_reports_absent_rmse(self):
        pd, rmse = detection_stats(ospa_assign([lin(0, 0)], [lin(80, 0)], L=30))
        assert pd == 0.0
        assert rmse is None

    def test_unassigned_true_source_is_missed(self):
        truth = [lin(0, 0), lin(40, 0)]
        asn = ospa_assign(truth, [lin(0, 0)], L=30)
        assert asn.unassigned_truths == (1,)
        assert detection_stats(asn) == (0.5, 0.0)

    def test_pd_monotone_in_threshold(self, monkeypatch):
        rng = np.random.default_rng(5)
        truth = [random_params(LINEAR, rng) for _ in range(4)]
        est = [random_params(LINEAR, rng) for _ in range(6)]
        asn = ospa_assign(truth, est, L=30)
        pds = []
        for t in (1, 2, 5, 10, 20, 90):
            monkeypatch.setattr(metrics, "DETECTION_THRESHOLD", t)
            pds.append(detection_stats(asn)[0])
        assert pds == sorted(pds)


class TestGridFloor:
    def test_on_grid_source_floor_zero(self, linear_grid):
        floor, best = min_grid_rmse(lin(-11, 3.5), linear_grid, 30)
        assert floor == 0.0
        assert best.vector().tolist() == [-11.0, 3.5]

    def test_floor_lower_bounds_all_grid_points(self, linear_grid):
        from trajloc import grid_point

        rng = np.random.default_rng(12)
        true = lin(20.0, 1.5)
        floor, _ = min_grid_rmse(true, linear_grid, 30)
        for idx in rng.integers(0, linear_grid.size, size=1000):
            assert floor <= trajectory_rmse(true, grid_point(linear_grid, int(idx)), 30) + 1e-15

    def test_floor_skips_nonphysical_points(self, linear_grid):
        # (85, 4.9) ends at 89.9 degrees; its nearest grid point (85, 5)
        # ends at 90 and is masked, so the floor comes from (85, 4.5)
        true = lin(85.0, 4.9)
        floor, best = min_grid_rmse(true, linear_grid, 30)
        assert best.vector().tolist() == [85.0, 4.5]
        assert floor == pytest.approx(trajectory_rmse(true, best, 30), abs=1e-15)
        assert trajectory_rmse(true, lin(85.0, 5.0), 30) < floor

    def test_finer_grid_never_worse(self, linear_model):
        from trajloc import build_grid

        coarse = build_grid([("phi", -85, 2, 85), ("alpha1", -5, 0.5, 5)], linear_model)
        fine = build_grid([("phi", -85, 2, 85), ("alpha1", -5, 0.25, 5)], linear_model)
        for src in (lin(20, 1.5), lin(-52, -4.75), lin(61, -2.25)):
            assert min_grid_rmse(src, fine, 30)[0] <= min_grid_rmse(src, coarse, 30)[0] + 1e-15
