import warnings

import numpy as np
import pytest

from trajloc import (
    ArrayConfig,
    Bounds,
    NumericsWarning,
    TrajectoryModel,
    TrajectoryParams,
    amplitudes_ls,
    joint_refine,
    maximize_local,
    newton_step,
    objective,
    objective_grad_hess,
    synthesize_block,
    tl_cbf_spectrum,
    tl_sfw,
)
from trajloc.gridalgos import _tabulate, grid_beam_power
from trajloc.harness import builtin_experiment, materialize
from trajloc.model import block_wavelengths, trajectory_steering_matrix, wavelength_for
from trajloc.optim import (
    BACKTRACK,
    STEP_TOL,
    _backtrack,
    model_residuals,
    project_all,
    project_out,
    steering_stack,
)
from trajloc import grid_point, optim
from conftest import random_params

LINEAR = TrajectoryModel.polynomial(1)


def random_residual(rng, n=10, L=30):
    return rng.standard_normal((n, L)) + 1j * rng.standard_normal((n, L))


def fd_gradient(params, residuals, array, wavelengths, h=1e-4):
    base = params.vector()
    g = np.zeros(base.size)
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (
            objective(TrajectoryParams.from_vector(params.model, up), residuals, array, wavelengths)
            - objective(TrajectoryParams.from_vector(params.model, dn), residuals, array, wavelengths)
        ) / (2 * h)
    return g


def fd_hessian(params, residuals, array, wavelengths, h=1e-4):
    base = params.vector()
    H = np.zeros((base.size, base.size))
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += h
        dn[i] -= h
        gp, _ = objective_grad_hess(
            TrajectoryParams.from_vector(params.model, up), residuals, array, wavelengths
        )
        gm, _ = objective_grad_hess(
            TrajectoryParams.from_vector(params.model, dn), residuals, array, wavelengths
        )
        H[i] = (gp - gm) / (2 * h)
    return H


class TestObjective:
    def test_zero_residual(self, array):
        params = TrajectoryParams(LINEAR, 10.0, (1.0,))
        assert objective(params, [np.zeros((10, 30), complex)], array, [1.0]) == 0.0

    def test_matched_residual_peak_value(self, array):
        # residual equal to the trajectory's own steering matrix with unit
        # amplitudes: (1/L) sum_l |a^H a|^2 = N^2
        params = TrajectoryParams(LINEAR, 20.0, (1.5,))
        lam = wavelength_for(array, None)
        A = trajectory_steering_matrix(params, array, 30, lam)
        assert objective(params, [A], array, [lam]) == pytest.approx(100.0, rel=1e-12)

    def test_agrees_with_cbf_spectrum(self, array, linear_grid, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=21)
        spec = tl_cbf_spectrum(blocks, linear_grid, array)
        lams = block_wavelengths(array, blocks)
        # the float64 scan agrees to rounding; the interpolated spectrum is
        # within 1e-5 of its largest value (`Spectrum`)
        scan = grid_beam_power([blocks[0].data], linear_grid, array, lams)
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, linear_grid.size, size=5):
            val = objective(grid_point(linear_grid, int(idx)), [blocks[0].data], array, lams)
            assert val == pytest.approx(scan[idx], rel=1e-9)
            assert abs(val - spec.values[idx]) <= 1e-5 * np.max(scan)

    def test_degrees_at_interface(self, array):
        lam = wavelength_for(array, None)
        rng = np.random.default_rng(1)
        R = random_residual(rng)
        a = objective(TrajectoryParams(LINEAR, 10, (1,)), [R], array, [lam])
        b = objective(TrajectoryParams(LINEAR, 10.0, (1.0,)), [R], array, [lam])
        assert a == b


@pytest.mark.parametrize("freqs", [None, (1400.0, 1600.0, 1800.0)])
def test_value_from_gradient_moments_equals_objective(freqs):
    rng = np.random.default_rng(21)
    array = ArrayConfig.for_frequencies(10, freqs) if freqs else ArrayConfig(10)
    lams = [wavelength_for(array, f) for f in (freqs or (None,))]
    residuals = [random_residual(rng) for _ in lams]
    model = TrajectoryModel.polynomial(2)
    for _ in range(5):
        params = random_params(model, rng, phi_range=(-70, 70), coeff_range=(-3, 3))
        value, _, _ = optim._value_grad_hess(params, residuals, array, lams)
        assert value == objective(params, residuals, array, lams)


class TestDerivatives:
    @pytest.mark.parametrize(
        "model",
        [TrajectoryModel.polynomial(1), TrajectoryModel.polynomial(2), TrajectoryModel.bandlimited(1, 0.25)],
    )
    def test_gradient_matches_finite_differences(self, array, model):
        rng = np.random.default_rng(42)
        lams = [wavelength_for(array, None)]
        for _ in range(8):
            params = random_params(model, rng)
            R = random_residual(rng)
            g, _ = objective_grad_hess(params, [R], array, lams)
            fd = fd_gradient(params, [R], array, lams)
            assert np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5

    @pytest.mark.parametrize(
        "model", [TrajectoryModel.polynomial(2), TrajectoryModel.bandlimited(1, 0.25)]
    )
    def test_hessian_matches_finite_differences(self, array, model):
        rng = np.random.default_rng(43)
        lams = [wavelength_for(array, None)]
        for _ in range(5):
            params = random_params(model, rng)
            R = random_residual(rng)
            _, H = objective_grad_hess(params, [R], array, lams)
            fd = fd_hessian(params, [R], array, lams)
            assert np.max(np.abs(H - fd)) / np.max(np.abs(fd)) < 1e-3

    def test_stationary_at_noiseless_optimum(self, array):
        src = TrajectoryParams(LINEAR, 17.3, (2.2,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        lams = block_wavelengths(array, blocks)
        g, _ = objective_grad_hess(src, [blocks[0].data], array, lams)
        J = objective(src, [blocks[0].data], array, lams)
        assert np.linalg.norm(g) < 1e-6 * abs(J)


class TestAmplitudes:
    def test_single_source_matched_filter(self, array):
        src = TrajectoryParams(LINEAR, -30.0, (2.0,))
        blocks, _ = synthesize_block([src], array, 30, 10.0, seed=2)
        lam = wavelength_for(array, None)
        X = amplitudes_ls([src], blocks, array)[0]
        A = trajectory_steering_matrix(src, array, 30, lam)
        expected = (np.conj(A) * blocks[0].data).sum(axis=0) / 10
        np.testing.assert_allclose(X[0], expected, atol=1e-12)

    def test_noiseless_recovery(self, array, four_sources):
        blocks, truth = synthesize_block(four_sources, array, 30, None, seed=3)
        X = amplitudes_ls(list(truth.sources), blocks, array)[0]
        np.testing.assert_allclose(X, truth.amplitudes[:, 0, :], atol=1e-8)

    def test_residual_orthogonal_to_steering(self, array, four_sources):
        blocks, _ = synthesize_block(four_sources, array, 30, 5.0, seed=4)
        lams = block_wavelengths(array, blocks)
        X = amplitudes_ls(four_sources, blocks, array)
        (A,) = steering_stack(four_sources, array, 30, lams)
        (R,) = model_residuals(A[None], X, blocks[0].data[None])
        ip = np.einsum("inl,nl->il", np.conj(A), R)
        scale = np.linalg.norm(blocks[0].data) * np.sqrt(10)
        assert np.abs(ip).max() / scale < 1e-9

    def test_coincident_trajectories_flagged(self, array):
        src = TrajectoryParams(LINEAR, 10.0, (1.0,))
        blocks, _ = synthesize_block([src], array, 30, 5.0, seed=5)
        with pytest.warns(NumericsWarning):
            amplitudes_ls([src, src], blocks, array)

    @pytest.mark.parametrize("phis", [(20.0,), (20.0, -40.0), (20.0, 20.0)])
    def test_stacked_right_hand_sides_match_one_at_a_time(self, array, phis):
        # (N, L, m) right-hand sides, as joint_refine projects its Jacobian,
        # on the matched-filter, normal-equation and pseudo-inverse paths
        rng = np.random.default_rng(15)
        trajs = [TrajectoryParams(LINEAR, phi, (1.0,)) for phi in phis]
        A = steering_stack(trajs, array, 30, (wavelength_for(array, None),))
        Y = np.stack([random_residual(rng) for _ in range(3)], axis=-1)[None]
        X, R, bad = project_out(A, Y)
        assert bad == (phis == (20.0, 20.0))
        for j in range(3):
            X_j, R_j, _ = project_out(A, Y[..., j])
            np.testing.assert_allclose(X[..., j], X_j, rtol=0, atol=1e-12)
            np.testing.assert_allclose(R[..., j], R_j, rtol=0, atol=1e-12)


class TestProjectAll:
    FREQS = (1400.0, 1600.0, 1800.0)

    def wideband(self, sources, seed):
        array = ArrayConfig.for_frequencies(10, self.FREQS)
        blocks, _ = synthesize_block(sources, array, 30, 5.0, self.FREQS, seed=seed)
        return array, [b.data for b in blocks], block_wavelengths(array, blocks)

    def test_equals_per_frequency_projection_bit_for_bit(self, four_sources):
        array, data, lams = self.wideband(four_sources, seed=8)
        stacks, X, R = project_all(four_sources, data, array, lams)
        assert len(stacks) == len(X) == len(R) == len(self.FREQS)
        for f, (Y, lam) in enumerate(zip(data, lams)):
            A = steering_stack(four_sources, array, 30, (lam,))
            (X_f,), (R_f,), bad = project_out(A, Y[None])
            assert not bad
            assert np.array_equal(stacks[f], A[0])
            assert np.array_equal(X[f], X_f)
            assert np.array_equal(R[f], R_f)

    def test_coincident_pair_warns_once_per_call(self):
        src = TrajectoryParams(LINEAR, 10.0, (1.0,))
        array, data, lams = self.wideband([src], seed=9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project_all([src, src], data, array, lams)
        assert [w.category for w in caught] == [NumericsWarning]


STACK_FREQS = (1100.0, 1250.0, 1400.0, 1550.0, 1700.0, 1850.0, 2000.0)
STACK_SOURCES = ((20.7, 1.73), (-40.4, -2.6), (55.0, 0.8))


class TestFrequencyStack:
    """The kernels on F stacked frequencies against F one-frequency calls,
    bit for bit. L = 32 makes the 1/L scaling of the beam objective exact,
    so per-frequency values can be scaled back and summed."""

    L = 32

    def case(self, F, k, seed=3):
        freqs = STACK_FREQS[:F]
        array = ArrayConfig.for_frequencies(10, freqs)
        sources = [TrajectoryParams(LINEAR, phi, (a,)) for phi, a in STACK_SOURCES[:k]]
        blocks, _ = synthesize_block(sources, array, self.L, 5.0, freqs, seed=seed)
        return array, sources, np.stack([b.data for b in blocks]), block_wavelengths(array, blocks)

    @pytest.mark.parametrize("F", [1, 3, 7])
    @pytest.mark.parametrize("k", [1, 3])
    def test_steering_stack_slices_are_steering_matrices(self, F, k):
        array, sources, _, lams = self.case(F, k)
        A = steering_stack(sources, array, self.L, lams)
        assert A.shape == (F, k, 10, self.L)
        for f, lam in enumerate(lams):
            for i, t in enumerate(sources):
                assert np.array_equal(A[f, i], trajectory_steering_matrix(t, array, self.L, lam))

    @pytest.mark.parametrize("F", [1, 3, 7])
    @pytest.mark.parametrize("k", [1, 3])
    def test_project_all_equals_per_frequency_fits(self, F, k):
        array, sources, Y, lams = self.case(F, k)
        A, X, R = project_all(sources, Y, array, lams)
        assert A.shape == (F, k, 10, self.L) and X.shape == (F, k, self.L) and R.shape == Y.shape
        for f in range(F):
            (A_f,), (X_f,), (R_f,) = project_all(sources, Y[f : f + 1], array, lams[f : f + 1])
            assert np.array_equal(A[f], A_f)
            assert np.array_equal(X[f], X_f)
            assert np.array_equal(R[f], R_f)

    @pytest.mark.parametrize("F", [1, 3, 7])
    @pytest.mark.parametrize("k", [1, 3])
    def test_objective_and_derivatives_sum_frequencies_in_order(self, F, k):
        array, sources, Y, lams = self.case(F, k)
        # the residual of all but the last source, evaluated near that source
        R = project_all(sources[:-1], Y, array, lams)[2] if k > 1 else Y
        phi, a = STACK_SOURCES[k - 1]
        params = TrajectoryParams(LINEAR, phi + 0.3, (a - 0.2,))
        value, g, H = optim._value_grad_hess(params, R, array, lams)
        total, g_sum, H_sum = 0.0, np.zeros(2), np.zeros((2, 2))
        for f in range(F):
            v_f, g_f, H_f = optim._value_grad_hess(params, R[f : f + 1], array, lams[f : f + 1])
            assert v_f == objective(params, R[f : f + 1], array, lams[f : f + 1])
            total += v_f * self.L
            g_sum += g_f * self.L
            H_sum += H_f * self.L
        assert value == objective(params, R, array, lams) == total / self.L
        assert np.array_equal(g, g_sum / self.L)
        assert np.array_equal(H, H_sum / self.L)

    @pytest.mark.parametrize("F", [1, 3, 7])
    def test_coincident_pair_takes_pinv_at_that_snapshot_only(self, F, monkeypatch):
        # the pair's steering vectors coincide at one (frequency, snapshot)
        # only: the pseudo-inverse runs there and nowhere else, every other
        # fit is the normal-equation solve of its frequency alone, and the
        # fit warns once
        array, sources, Y, lams = self.case(F, 2)
        f0, l0 = F - 1, 17
        A = steering_stack(sources, array, self.L, lams)
        A[f0, 1, :, l0] = A[f0, 0, :, l0]
        pinv = np.linalg.pinv
        taken = []

        def counted(M, **kwargs):
            taken.append(M)
            return pinv(M, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted)
        X, bad = optim.batched_snapshot_ls(A, Y)
        assert bad and len(taken) == 1 and np.array_equal(taken[0], A[f0, :, :, l0].T)
        for f in range(F):
            (X_f,), bad_f = optim.batched_snapshot_ls(A[f : f + 1], Y[f : f + 1])
            assert bad_f == (f == f0)
            assert np.array_equal(X[f], X_f)
        monkeypatch.setattr(optim, "steering_stack", lambda *args: A)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            project_all(sources, Y, array, lams)
        assert [w.category for w in caught] == [NumericsWarning]

    @pytest.mark.parametrize(
        "entry",
        [
            "objective",
            "objective_grad_hess",
            "newton_step",
            "maximize_local",
            "project_all",
            "grid_beam_power",
            "_tabulate",
        ],
    )
    @pytest.mark.parametrize("counts", [(3, 1), (3, 2), (1, 2)])
    def test_mismatched_frequency_counts_refused(self, entry, counts, linear_grid):
        # zip would truncate lists of different lengths, and a stacked array
        # would broadcast a single phase scale over every frequency
        array, sources, Y, lams = self.case(3, 1)
        n_res, n_lam = counts
        R, wavelengths = Y[:n_res], lams[:n_lam]
        params = sources[0]
        box = Bounds((-89.0, -6.0), (89.0, 6.0))
        call = {
            "objective": lambda: objective(params, list(R), array, wavelengths),
            "objective_grad_hess": lambda: objective_grad_hess(params, R, array, wavelengths),
            "newton_step": lambda: newton_step(params, R, array, wavelengths, box),
            "maximize_local": lambda: maximize_local(params, list(R), array, wavelengths, box),
            "project_all": lambda: project_all([params], R, array, wavelengths),
            "grid_beam_power": lambda: grid_beam_power(list(R), linear_grid, array, wavelengths),
            "_tabulate": lambda: _tabulate(R, linear_grid, array, wavelengths),
        }[entry]
        with pytest.raises(ValueError, match=f"{n_res} frequencies of residuals but {n_lam} wavelengths"):
            call()


class TestLocalAscent:
    def bounds(self):
        return Bounds((-89.0, -6.0), (89.0, 6.0))

    def test_stationary_start_returns_immediately(self, array):
        src = TrajectoryParams(LINEAR, 17.3, (2.2,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        lams = block_wavelengths(array, blocks)
        out, report = maximize_local(src, [blocks[0].data], array, lams, self.bounds())
        assert report.converged
        np.testing.assert_allclose(out.vector(), src.vector(), atol=1e-8)

    def test_off_grid_recovery_from_grid_start(self, array):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=6)
        lams = block_wavelengths(array, blocks)
        start = TrajectoryParams(LINEAR, 21.0, (1.5,))
        out, report = maximize_local(start, [blocks[0].data], array, lams, self.bounds())
        np.testing.assert_allclose(out.vector(), src.vector(), atol=1e-3)
        assert report.final_objective >= objective(start, [blocks[0].data], array, lams)

    def test_objective_sequence_non_decreasing(self, array):
        rng = np.random.default_rng(7)
        lams = [wavelength_for(array, None)]
        for _ in range(5):
            R = random_residual(rng)
            start = random_params(LINEAR, rng)
            _, report = maximize_local(start, [R], array, lams, self.bounds())
            seq = report.objectives
            assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

    @pytest.mark.parametrize("max_iters", [None, 2])
    def test_report_in_beam_power(self, array, monkeypatch, max_iters):
        # the descent runs on the negated objective; the report flips it
        # back, bit for bit, whether the ascent converged or was cut short
        from trajloc import optim

        if max_iters is not None:
            monkeypatch.setattr(optim, "LOCAL_MAX_ITERS", max_iters)
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, 0.0, seed=6)
        lams = block_wavelengths(array, blocks)
        start = TrajectoryParams(LINEAR, 23.0, (1.0,))
        out, report = maximize_local(start, [blocks[0].data], array, lams, self.bounds())
        assert report.converged == (max_iters is None)
        assert report.final_objective == objective(out, [blocks[0].data], array, lams)
        assert report.objectives[-1] == report.final_objective

    def test_result_respects_bounds(self, array):
        rng = np.random.default_rng(8)
        lams = [wavelength_for(array, None)]
        tight = Bounds((-10.0, -1.0), (10.0, 1.0))
        for _ in range(5):
            R = random_residual(rng)
            start = TrajectoryParams(LINEAR, rng.uniform(-10, 10), (rng.uniform(-1, 1),))
            out, _ = maximize_local(start, [R], array, lams, tight)
            assert tight.contains(out.vector())


class TestNewtonStep:
    def test_zero_gradient_leaves_parameters(self, array):
        src = TrajectoryParams(LINEAR, 17.3, (2.2,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        lams = block_wavelengths(array, blocks)
        bounds = Bounds((-89.0, -6.0), (89.0, 6.0))
        out, _ = newton_step(src, [blocks[0].data], array, lams, bounds)
        np.testing.assert_allclose(out.vector(), src.vector(), atol=1e-9)

    def test_near_optimum_single_step_quadratic(self, array):
        # Newton contracts quadratically near the peak of the beam objective
        src = TrajectoryParams(LINEAR, 17.3, (2.2,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        lams = block_wavelengths(array, blocks)
        bounds = Bounds((-89.0, -6.0), (89.0, 6.0))
        start = TrajectoryParams(LINEAR, 17.33, (2.21,))
        out, used = newton_step(start, [blocks[0].data], array, lams, bounds)
        assert used
        err0 = np.linalg.norm(start.vector() - src.vector())
        err1 = np.linalg.norm(out.vector() - src.vector())
        assert err1 < 0.05 * err0

    def test_accepted_step_evaluates_objective_once(self, array, monkeypatch):
        # the starting value comes from the gradient's moments, so only the
        # Newton candidate costs an `objective` call
        src = TrajectoryParams(LINEAR, 17.3, (2.2,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        lams = block_wavelengths(array, blocks)
        bounds = Bounds((-89.0, -6.0), (89.0, 6.0))
        calls = []
        plain = optim.objective
        monkeypatch.setattr(optim, "objective", lambda *a: calls.append(a) or plain(*a))
        _, used = newton_step(TrajectoryParams(LINEAR, 17.33, (2.21,)), [blocks[0].data], array, lams, bounds)
        assert used and len(calls) == 1

    def test_never_decreases_objective(self, array):
        rng = np.random.default_rng(9)
        lams = [wavelength_for(array, None)]
        bounds = Bounds((-89.0, -6.0), (89.0, 6.0))
        for _ in range(20):
            R = random_residual(rng)
            start = random_params(LINEAR, rng, phi_range=(-80, 80), coeff_range=(-4, 4))
            out, _ = newton_step(start, [R], array, lams, bounds)
            j0 = objective(start, [R], array, lams)
            j1 = objective(out, [R], array, lams)
            assert j1 >= j0 - 1e-12 * abs(j0)


class TestProjectedNewton:
    """A noiseless source at (17.3, 2.2) in a box whose alpha1 face 2.0 cuts
    it off: the constrained maximum sits on that face, where phi and alpha1
    are coupled (the basis l/(L-1) is not centred), so the Newton point from
    near it lies beyond the face and clipping it lowers the objective."""

    BOX = Bounds((-89.0, -6.0), (89.0, 2.0))

    def case(self, array):
        src = TrajectoryParams(LINEAR, 17.3, (2.2,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=5)
        return [blocks[0].data], block_wavelengths(array, blocks)

    def assert_face_maximum(self, out, R, array, lams):
        # KKT on the face: alpha1 on the bound with an outward gradient, and
        # phi stationary
        g, _ = objective_grad_hess(out, R, array, lams)
        assert out.coeffs == (2.0,) and g[1] > 0
        assert abs(g[0]) < 1e-6

    def test_newton_step_reaches_face_maximum(self, array):
        R, lams = self.case(array)
        omega = TrajectoryParams(LINEAR, 17.0, (1.7,))
        for _ in range(3):
            omega, used = newton_step(omega, R, array, lams, self.BOX)
            assert used
        self.assert_face_maximum(omega, R, array, lams)

    def test_step_from_face_holds_the_bound_and_moves_phi(self, array):
        # the face maximum is at phi = 17.4064; the plain Newton point
        # (17.3, 2.2) clips to (17.3, 2.0), below the start
        R, lams = self.case(array)
        start = TrajectoryParams(LINEAR, 17.43, (2.0,))
        out, used = newton_step(start, R, array, lams, self.BOX)
        assert used and out.coeffs == (2.0,)
        assert abs(out.phi - 17.4064) < 1e-4

    def test_maximize_local_converges_on_face(self, array):
        R, lams = self.case(array)
        start = TrajectoryParams(LINEAR, 17.0, (1.7,))
        out, report = maximize_local(start, R, array, lams, self.BOX)
        assert report.converged and report.iterations <= 5
        self.assert_face_maximum(out, R, array, lams)

    def test_every_coordinate_held_returns_start(self, array):
        # at the corner (17, 2) the gradient points out of both faces
        R, lams = self.case(array)
        corner = Bounds((-89.0, -6.0), (17.0, 2.0))
        start = TrajectoryParams(LINEAR, 17.0, (2.0,))
        g, _ = objective_grad_hess(start, R, array, lams)
        assert np.all(g > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = newton_step(start, R, array, lams, corner)
        assert np.array_equal(out.vector(), start.vector())


class TestBacktrack:
    @pytest.mark.parametrize("ascent", [False, True])
    def test_failing_search_stops_at_step_tol(self, ascent):
        # An ascent passes its negated objective and gradient, so d points
        # downhill and every candidate is worse than the start's 0: the search
        # halves down to STEP_TOL, never evaluates a shorter step, and returns
        # the start. A descent along d = g predicts a rise at every step
        # length, so it evaluates nothing and returns the start.
        u = np.array([10.0, 1.0])
        d = np.array([3.0, -0.5])
        sign = -1.0 if ascent else 1.0
        evaluated = []

        def f(v):
            evaluated.append(v.copy())
            return sign  # below the start for an ascent, above it for a descent

        bounds = Bounds((-89.0, -6.0), (89.0, 6.0))
        point, val = _backtrack(lambda v: sign * f(v), u, d, sign * d, 0.0, bounds, lambda v: True)
        assert np.array_equal(point, u) and val == 0.0
        if not ascent:
            assert evaluated == []
            return
        lengths = [np.linalg.norm(v - u) for v in evaluated]
        assert min(lengths) >= STEP_TOL > min(lengths) * BACKTRACK

    def test_step_below_rounding_floor_is_not_evaluated(self):
        # g . d = -1e-13 predicts less than ROUNDOFF * 30 = 3e-13: the value
        # cannot tell that step from rounding, and no shorter step either
        u = np.array([10.0, 1.0])
        d = np.array([1e-3, 0.0])
        g = np.array([-1e-10, 0.0])
        evaluated = []

        def value(v):
            evaluated.append(v.copy())
            return 29.0

        bounds = Bounds((-89.0, -6.0), (89.0, 6.0))
        point, val = _backtrack(value, u, d, g, 30.0, bounds, lambda v: True)
        assert np.array_equal(point, u) and val == 30.0 and evaluated == []
        # a hundredfold gradient predicts -1e-11, above the floor: evaluated
        point, val = _backtrack(value, u, d, 100 * g, 30.0, bounds, lambda v: True)
        assert np.array_equal(point, u + d) and val == 29.0 and len(evaluated) == 1
        assert optim.ROUNDOFF * 30.0 == pytest.approx(3e-13)

    def test_clipped_uphill_step_halves_to_a_descent(self):
        # d descends (g . d = -2), but the box clips its first two steps to
        # (1, -1) and (1, -0.5), which predict +1 and 0; halving goes on past
        # them, unevaluated, to the unclipped (1, -0.25), which predicts -0.5
        u = np.zeros(2)
        d = np.array([4.0, -1.0])
        g = np.array([-1.0, -2.0])
        evaluated = []

        def value(v):
            evaluated.append(v.copy())
            return -1.0

        bounds = Bounds((-1.0, -1.0), (1.0, 1.0))
        point, val = _backtrack(value, u, d, g, 0.0, bounds, lambda v: True)
        assert np.array_equal(point, [1.0, -0.25]) and val == -1.0
        assert len(evaluated) == 1 and np.array_equal(evaluated[0], point)

    def test_tl_sfw_failed_searches_evaluate_nothing(self, monkeypatch):
        # before the rounding floor, about half of a 5 dB trial's fit
        # evaluations went to searches that ended back at their start
        cell = materialize(builtin_experiment("snr"), "snr_db", 5.0)
        blocks, truth = synthesize_block(
            cell.sources, cell.array, cell.snapshots, cell.snr_db, cell.frequencies, 600
        )
        searches = []
        backtrack = optim._backtrack

        def counted(value, u, *args):
            evaluated = []

            def wrapped(v):
                evaluated.append(v)
                return value(v)

            point, val = backtrack(wrapped, u, *args)
            searches.append((np.array_equal(point, u), len(evaluated)))
            return point, val

        monkeypatch.setattr(optim, "_backtrack", counted)
        tl_sfw(blocks, cell.grid, cell.array, len(truth.sources))
        failed = [n for at_start, n in searches if at_start]
        assert failed and any(n for at_start, n in searches if not at_start)
        assert failed == [0] * len(failed)


class TestJointRefine:
    def bounds(self):
        return Bounds((-89.0, -6.0), (89.0, 6.0))

    def test_already_optimal_unchanged(self, array):
        src = TrajectoryParams(LINEAR, 20.7, (1.73,))
        blocks, _ = synthesize_block([src], array, 30, None, seed=10)
        W, X, report, _ = joint_refine([src], blocks, array, self.bounds())
        np.testing.assert_allclose(W[0].vector(), src.vector(), atol=1e-8)
        assert report.final_objective < 1e-16

    def test_two_source_noiseless_recovery(self, array):
        s1 = TrajectoryParams(LINEAR, 20.7, (1.73,))
        s2 = TrajectoryParams(LINEAR, -40.4, (-2.6,))
        blocks, _ = synthesize_block([s1, s2], array, 30, None, seed=11)
        start = [TrajectoryParams(LINEAR, 21.0, (1.5,)), TrajectoryParams(LINEAR, -41.0, (-2.5,))]
        W, X, report, _ = joint_refine(start, blocks, array, self.bounds())
        np.testing.assert_allclose(W[0].vector(), s1.vector(), atol=1e-3)
        np.testing.assert_allclose(W[1].vector(), s2.vector(), atol=1e-3)
        assert report.final_objective < 1e-10

    def test_converges_quadratically(self, array):
        # Gauss-Newton on the projected (Kaufman) Jacobian: with noiseless
        # data the residual vanishes at the optimum, so each step is of the
        # order of the square of the one before
        s1 = TrajectoryParams(LINEAR, 20.7, (1.73,))
        s2 = TrajectoryParams(LINEAR, -40.4, (-2.6,))
        blocks, _ = synthesize_block([s1, s2], array, 30, None, seed=11)
        start = [TrajectoryParams(LINEAR, 21.0, (1.5,)), TrajectoryParams(LINEAR, -41.0, (-2.5,))]
        _, _, report, _ = joint_refine(start, blocks, array, self.bounds())
        assert report.converged and report.iterations <= 6
        steps = [s for s in report.step_norms if s > 1e-12]
        assert all(b <= 10 * a**2 for a, b in zip(steps, steps[1:]))

    def test_fit_error_never_increases(self, array):
        rng = np.random.default_rng(13)
        s1 = TrajectoryParams(LINEAR, 20.7, (1.73,))
        s2 = TrajectoryParams(LINEAR, -40.4, (-2.6,))
        blocks, _ = synthesize_block([s1, s2], array, 30, 5.0, seed=12)

        def fit_at(W):
            X = amplitudes_ls(W, blocks, array)
            lams = block_wavelengths(array, blocks)
            A = steering_stack(W, array, 30, lams)
            R = model_residuals(A, X, np.stack([b.data for b in blocks]))
            return 0.5 * sum(np.sum(np.abs(r) ** 2) for r in R)

        for _ in range(20):
            start = [
                TrajectoryParams(LINEAR, s.phi + rng.uniform(-1, 1), (s.coeffs[0] + rng.uniform(-0.4, 0.4),))
                for s in (s1, s2)
            ]
            W, X, report, _ = joint_refine(start, blocks, array, self.bounds())
            assert report.final_objective <= fit_at(start) + 1e-9

    def test_coincident_start_warns(self, array, monkeypatch):
        src = TrajectoryParams(LINEAR, 10.0, (1.0,))
        blocks, _ = synthesize_block([src], array, 30, 5.0, seed=5)
        monkeypatch.setattr(optim, "JOINT_MAX_ITERS", 1)
        with pytest.warns(NumericsWarning):
            joint_refine([src, src], blocks, array, self.bounds())

    def test_one_stack_per_point_and_no_reevaluation(self, monkeypatch):
        # one accepted Gauss-Newton step evaluates two points, the start and
        # the candidate, each with one (F, k, N, L) steering stack for all
        # frequencies and no per-trajectory steering matrix, and projects the
        # derivative columns of all frequencies once
        from trajloc import ArrayConfig, optim

        freqs = (1400.0, 1600.0, 1800.0)
        array = ArrayConfig.for_frequencies(10, freqs)
        s1 = TrajectoryParams(LINEAR, 20.7, (1.73,))
        s2 = TrajectoryParams(LINEAR, -40.4, (-2.6,))
        blocks, _ = synthesize_block([s1, s2], array, 30, 20.0, freqs, seed=11)
        start = [TrajectoryParams(LINEAR, 21.0, (1.5,)), TrajectoryParams(LINEAR, -41.0, (-2.5,))]
        calls = {}

        def counted(name):
            fn = getattr(optim, name)

            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(optim, name, call)

        counted("batched_snapshot_ls")
        counted("steering_stack")
        counted("trajectory_steering_matrix")
        monkeypatch.setattr(optim, "JOINT_MAX_ITERS", 1)
        _, _, report, _ = joint_refine(start, blocks, array, self.bounds())
        assert report.iterations == 1 and report.step_norms[0] > 0
        assert report.objectives[-1] == report.final_objective
        assert calls == {"batched_snapshot_ls": 3, "steering_stack": 2}

    @pytest.mark.parametrize("max_iters", [0, 100])
    def test_returned_residuals_match_rebuilt_residuals(self, max_iters, monkeypatch):
        from trajloc import ArrayConfig

        freqs = (1400.0, 1600.0, 1800.0)
        array = ArrayConfig.for_frequencies(10, freqs)
        s1 = TrajectoryParams(LINEAR, 20.7, (1.73,))
        s2 = TrajectoryParams(LINEAR, -40.4, (-2.6,))
        blocks, _ = synthesize_block([s1, s2], array, 30, 5.0, freqs, seed=15)
        start = [TrajectoryParams(LINEAR, 21.0, (1.5,)), TrajectoryParams(LINEAR, -41.0, (-2.5,))]
        monkeypatch.setattr(optim, "JOINT_MAX_ITERS", max_iters)
        W, X, report, R = joint_refine(start, blocks, array, self.bounds())
        Y = np.stack([b.data for b in blocks])
        rebuilt = model_residuals(steering_stack(W, array, 30, block_wavelengths(array, blocks)), X, Y)
        assert len(R) == len(freqs)
        for R_f, rebuilt_f in zip(R, rebuilt):
            assert np.array_equal(R_f, rebuilt_f)
        assert report.final_objective == 0.5 * sum(np.sum(r.real**2 + r.imag**2) for r in R)

    def test_zero_iterations_amplitudes_match_direct_solve(self, array, monkeypatch):
        s1 = TrajectoryParams(LINEAR, 20.0, (1.5,))
        s2 = TrajectoryParams(LINEAR, -40.0, (-2.5,))
        blocks, _ = synthesize_block([s1, s2], array, 30, 5.0, seed=14)
        monkeypatch.setattr(optim, "JOINT_MAX_ITERS", 0)
        W, X, _, _ = joint_refine([s1, s2], blocks, array, self.bounds())
        direct = amplitudes_ls([s1, s2], blocks, array)
        np.testing.assert_array_equal(X[0], direct[0])
