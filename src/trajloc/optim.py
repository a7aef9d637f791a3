"""Continuous-parameter kernels shared by the gridless estimators.

The central quantity is the beamforming objective

    J(omega) = (1/L) * sum_f sum_l |a_lf(omega)^H r_lf|^2

evaluated against residual matrices ``r``. Trajectory DOAs are linear in the
parameters (phi plus coefficients times fixed basis functions of the snapshot
index), which keeps the chain rule short: all derivatives reduce to weighted
sensor-index moments of ``conj(a) * r``.

Everything here works in degrees at the interface and is purely functional;
callers pass one complex (F, N, L) residual array and the F wavelengths, and
each kernel runs over all frequencies at once (`_frequency_sum`).

`project_all` is the one least-squares fit: the (F, k, N, L) steering stack
of the selected trajectories, every snapshot fitted in their span, and the
amplitudes and residuals. TL-OMP, TL-NOMP, `amplitudes_ls` and the
variable-projection `joint_refine` all call it. Its residual comes from
`model_residuals`, the one subtraction of a fit from the data.

`_descend` is the one descent loop of every local search and `_backtrack`
its one Armijo rule, to which an ascent passes the negated beam objective.
A line search evaluates only candidates whose first-order change lowers
the value by more than `ROUNDOFF` of it: below that floor an accepted step
would be rounding luck (More & Thuente, ACM TOMS 1994), so a search whose
steps all predict less ends without evaluating them.

Both beam-objective searches, `maximize_local` and `newton_step`, take
projected Newton steps (Bertsekas, SIAM J. Control Optim. 1982) through
`_projected_newton`: a coordinate that sits on a face of the `Bounds` box
while its gradient points out of the box is held there, and the Newton
system is solved on the free coordinates with the reduced Hessian. Without
the hold, a Newton point beyond a face is clipped back onto it, usually
lowers the objective, and leaves only gradient steps creeping along the face.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grids import ParamGrid
from .model import (
    DEG,
    ArrayConfig,
    SourceEstimate,
    TrajectoryParams,
    _phase_scale,  # noqa: F401 -- module attribute that perfbench's workload setup reads
    _phase_scales,
    block_wavelengths,
    doa_map,
    doas,
    trajectory_steering_matrix,  # noqa: F401 -- module attribute that perfbench's tracer rebinds
)

ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 60
STEP_TOL = 1e-10  # an ascent or refine stops at a shorter parameter step
ROUNDOFF = 1e-14  # a line search skips a step predicting a smaller relative change
LOCAL_MAX_ITERS = 100
JOINT_MAX_ITERS = 100
PHI_LIMIT = 89.0  # |phi| bound of `Bounds.from_grid`, inside the model's range


class NumericsWarning(RuntimeWarning):
    """Non-fatal numerical condition (rank deficiency, non-convergence)."""


@dataclass(frozen=True)
class Bounds:
    """Per-parameter box for the continuous trajectory space, degrees."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("lows/highs length mismatch")
        for lo, hi in zip(self.lows, self.highs):
            if not lo < hi:
                raise ValueError(f"empty bound interval [{lo}, {hi}]")

    @classmethod
    def from_grid(cls, grid: ParamGrid) -> "Bounds":
        """Each grid axis extended by one step; phi clamped to
        [-PHI_LIMIT, PHI_LIMIT]."""
        lows, highs = [], []
        for i, ax in enumerate(grid.axes):
            lo = ax.start - ax.step
            hi = ax.stop + ax.step
            if i == 0:
                lo, hi = max(lo, -PHI_LIMIT), min(hi, PHI_LIMIT)
            lows.append(lo)
            highs.append(hi)
        return cls(tuple(lows), tuple(highs))

    def clip(self, vec: np.ndarray) -> np.ndarray:
        return np.clip(vec, self.lows, self.highs)

    def contains(self, vec) -> bool:
        vec = np.asarray(vec, dtype=float)
        return bool(np.all(vec >= self.lows) and np.all(vec <= self.highs))


@dataclass(frozen=True)
class OptimReport:
    """What one local search did: ``iterations`` counts its backtracking
    searches, ``converged`` means the last step was shorter than `STEP_TOL`,
    which includes a search that stopped at the rounding floor without a step.
    ``final_objective`` and ``objectives`` are in the caller's sense: beam
    power for `maximize_local`, half the squared residual for `joint_refine`."""

    iterations: int
    converged: bool
    final_objective: float
    step_norms: tuple[float, ...]
    objectives: tuple[float, ...] = ()  # value after each iteration


def _physical(T: np.ndarray):
    """Test that k concatenated parameter vectors stay inside (-90, 90)."""
    return lambda u: np.abs(u.reshape(-1, len(T)) @ T).max() < 90.0


def _frequency_stack(residuals, array: ArrayConfig, wavelengths):
    """The (F, N, L) residual array and its (F,) phase scales, refusing a
    residual count that differs from the wavelength count."""
    R = np.asarray(residuals)
    scales = _phase_scales(array, tuple(wavelengths))
    if R.ndim != 3 or len(R) != len(scales):
        raise ValueError(
            f"{len(R)} frequencies of residuals but {len(scales)} wavelengths (shape {R.shape})"
        )
    return R, scales


def _frequency_sum(terms):
    """Sum over the leading axis in frequency order, as a loop would add."""
    return np.add.accumulate(terms)[-1]


def _moments(sin_theta: np.ndarray, residuals: np.ndarray, scales: np.ndarray, orders: int):
    """Sensor-index moments m_k[f, l] = sum_n n^k conj(a_fn(theta_l)) r_fnl
    of an (F, N, L) residual for k = 0..orders, given sin(theta_l). Returns
    a list of (F, L) complex arrays."""
    n = np.arange(residuals.shape[1], dtype=float)
    phase = scales[:, None] * sin_theta  # (F, L)
    # conj(a) entries without forming a separately
    B = np.exp(-1j * (n[:, None] * phase[:, None, :])) * residuals
    out = [B.sum(axis=1)]
    for k in range(1, orders + 1):
        out.append((n[:, None] ** k * B).sum(axis=1))
    return out


def objective(params: TrajectoryParams, residuals, array: ArrayConfig, wavelengths) -> float:
    """Beam power of one trajectory against the (F, N, L) residuals."""
    R, scales = _frequency_stack(residuals, array, wavelengths)
    L = R.shape[2]
    (z0,) = _moments(np.sin(doas(params, L) * DEG), R, scales, 0)
    return float(_frequency_sum(np.sum(np.abs(z0) ** 2, axis=1))) / L


def _value_grad_hess(params: TrajectoryParams, residuals, array: ArrayConfig, wavelengths):
    """(`objective`, gradient, Hessian) from one pass of moments; the value
    is summed exactly as `objective` sums it, so the two are bit-identical."""
    R, scales = _frequency_stack(residuals, array, wavelengths)
    L = R.shape[2]
    theta = doas(params, L)
    T = doa_map(params.model, L)  # rows: d theta_l / d parameter
    rad = theta * DEG
    sin_t = np.sin(rad)
    cf = scales[:, None]
    z0, z1, z2 = _moments(sin_t, R, scales, 2)
    w = cf * DEG * np.cos(rad)  # d phase / d theta (degrees), per sensor index
    dz = -1j * w * z1
    d2z = 1j * (cf * DEG**2 * sin_t) * z1 - w**2 * z2
    dF = 2.0 * np.real(np.conj(z0) * dz)
    d2F = 2.0 * (np.abs(dz) ** 2 + np.real(np.conj(z0) * d2z))
    total = _frequency_sum(np.sum(np.abs(z0) ** 2, axis=1))
    g = _frequency_sum((T @ dF[:, :, None])[:, :, 0])
    H = _frequency_sum((T * d2F[:, None, :]) @ T.T)
    return float(total) / L, g / L, H / L


def objective_grad_hess(params: TrajectoryParams, residuals, array: ArrayConfig, wavelengths):
    """Analytic gradient and Hessian of `objective` in the trajectory
    parameters (degrees).

    Uses d a_n / d theta = j*cf*n*cos(theta)*a_n (theta in radians) composed
    with the linear snapshot basis; the Hessian keeps both the |dz|^2 and the
    Re(conj(z) * d2z) terms.
    """
    return _value_grad_hess(params, residuals, array, wavelengths)[1:]


def batched_snapshot_ls(A: np.ndarray, Y: np.ndarray):
    """Least-squares coefficients of every snapshot of Y in its steering set.

    ``A`` is an (F, k, N, L) stack of trajectory steering matrices and ``Y``
    is (F, N, L), or (F, N, L, m) for m right-hand sides per snapshot; solves
    the N x k system at each (f, l) via the normal equations, falling back to
    a tolerance-thresholded pseudo-inverse at each (f, l) where the steering
    set is rank deficient. Returns ((F, L, k) coefficients, or (F, L, k, m),
    deficient flag).
    """
    F, k, N, L = A.shape
    if k == 1:
        # a^H a = N for unit-modulus steering entries
        a = np.conj(A[:, 0]).reshape((F, N, L) + (1,) * (Y.ndim - 3))
        x = (a * Y).sum(axis=1) / N
        return x[:, :, None], False
    G = np.einsum("finl,fjnl->flij", np.conj(A), A)  # (F, L, k, k) Gram matrices
    b = np.einsum("finl,fnl...->fli...", np.conj(A), Y)  # (F, L, k) or (F, L, k, m)
    w = np.linalg.eigvalsh(G)
    bad = w[..., 0] < 1e-10 * np.maximum(w[..., -1], 1.0)
    X = np.empty(b.shape, dtype=complex)
    good = ~bad
    if good.any():
        bg = b[good]  # all m right-hand sides share one factorization
        X[good] = np.linalg.solve(G[good], bg.reshape(len(bg), k, -1)).reshape(bg.shape)
    for f, l in zip(*np.nonzero(bad)):
        X[f, l] = np.linalg.pinv(A[f, :, :, l].T, rcond=1e-10) @ Y[f, :, l]
    return X, bool(bad.any())


def steering_stack(trajectories, array: ArrayConfig, L: int, wavelengths) -> np.ndarray:
    """(F, k, N, L) stack of the trajectories' steering matrices at every
    wavelength from one `exp`, the operand of every per-snapshot fit below;
    slice (f, i) is `trajectory_steering_matrix`'s, bit for bit."""
    scales = _phase_scales(array, tuple(wavelengths))
    sines = np.sin(np.stack([doas(t, L) for t in trajectories]) * DEG)  # (k, L)
    phase = scales[:, None, None] * sines  # (F, k, L)
    return np.exp(1j * np.arange(array.n_sensors)[:, None] * phase[:, :, None, :])


def model_residuals(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The one subtraction Y - sum_i A_i diag(x_i) at every frequency: ``A``
    is an (F, k, N, L) steering stack the caller already holds, ``X`` its
    (F, k, L) amplitudes and ``Y`` the (F, N, L) data, or (F, k, L, m) and
    (F, N, L, m) for m right-hand sides per snapshot. Builds no steering
    matrix."""
    return Y - np.einsum("finl,fil...->fnl...", A, X)


def project_out(A: np.ndarray, Y: np.ndarray):
    """Orthogonal-projection residual of Y against the steering stack A.

    Fits every snapshot of Y, (F, N, L) or (F, N, L, m), in the span of its
    k steering vectors (`batched_snapshot_ls`) and subtracts the fit.
    Returns ((F, k, L) or (F, k, L, m) amplitudes, residual shaped like Y,
    deficient flag).
    """
    X, bad = batched_snapshot_ls(A, Y)
    X = X.swapaxes(1, 2).copy()
    return X, model_residuals(A, X, Y), bad


def project_all(trajectories, data, array: ArrayConfig, wavelengths):
    """The one least-squares fit: `project_out` of the (F, N, L) data against
    the trajectories' (F, k, N, L) steering stack. A rank-deficient fit at
    any (f, l) raises one `NumericsWarning` per call. Returns (stack,
    (F, k, L) amplitudes, (F, N, L) residuals)."""
    Y, _ = _frequency_stack(data, array, wavelengths)
    A = steering_stack(trajectories, array, Y.shape[2], wavelengths)
    X, R, bad = project_out(A, Y)
    if bad:
        warnings.warn(
            "steering vectors nearly coincide at some snapshots; "
            "least squares used the minimum-norm solution",
            NumericsWarning,
            stacklevel=2,
        )
    return A, X, R


def source_estimates(trajectories, amplitudes) -> list[SourceEstimate]:
    """One `SourceEstimate` per trajectory, from the (F, k, L) amplitudes of
    a fit such as `project_all`'s."""
    return [SourceEstimate(t, tuple(amplitudes[:, i])) for i, t in enumerate(trajectories)]


def amplitudes_ls(trajectories, blocks, array: ArrayConfig):
    """Exact per-snapshot least-squares amplitudes for k trajectories.

    For every frequency and snapshot l, stacks the k steering vectors into an
    N x k matrix and solves the linear system; this is the closed-form
    minimizer of the fit error over amplitudes. Snapshots where trajectories
    coincide (rank-deficient steering set) fall back to the minimum-norm
    pseudo-inverse solution and raise a `NumericsWarning`.

    Returns the (F, k, L) complex amplitudes.
    """
    trajectories = list(trajectories)
    if len(trajectories) < 1:
        raise ValueError("need at least one trajectory")
    data = [b.data for b in blocks]
    return project_all(trajectories, data, array, block_wavelengths(array, blocks))[1]


def _backtrack(value, u, d, g, base, bounds, physical):
    """The one Armijo rule: projected backtracking down ``value`` (gradient g
    at u) along d. Returns (point, value) with value(point) <= base.

    A candidate is evaluated only if it passes ``physical`` and its clipped
    step predicts a first-order change g . step below -`ROUNDOFF` * |base|,
    the value's rounding floor. An unclipped step that predicts less ends the
    search, as every shorter step predicts less still; a clipped one is
    halved on. The search gives up, returning (u, base), there or once the
    clipped step is shorter than `STEP_TOL`."""
    floor = -ROUNDOFF * abs(base)
    t = 1.0
    for _ in range(MAX_HALVINGS):
        full = u + t * d
        cand = bounds.clip(full)
        step = cand - u
        if np.linalg.norm(step) < STEP_TOL:
            break
        change = float(g @ step)
        if change >= floor:
            if np.array_equal(cand, full):
                break
        elif physical(cand):
            vc = value(cand)
            if vc <= base + ARMIJO * change:
                return cand, vc
        t *= BACKTRACK
    return u, base


def _projected_newton(u, g, H, bounds):
    """The projected Newton direction of an ascent at u (gradient g, Hessian
    H): every coordinate on a face of ``bounds`` whose gradient points out of
    the box is held (its entry of d is 0), and H_F d_F = -g_F is solved on the
    free coordinates F with the reduced Hessian H_F. With no coordinate held
    this is the plain Newton direction -H^{-1} g. Returns (d, H_F); a
    singular H_F raises `np.linalg.LinAlgError`."""
    held = ((u <= bounds.lows) & (g < 0)) | ((u >= bounds.highs) & (g > 0))
    free = ~held
    HF = H[np.ix_(free, free)]
    d = np.zeros_like(u)
    d[free] = -np.linalg.solve(HF, g[free])
    return d, HF


def _descend(value, direction, u, E, bounds, physical, max_iters):
    """The one descent loop of every local search; an ascent passes its
    negated objective. Starting at u, whose value E the caller has, each pass
    backtracks along ``direction(u) -> (gradient, direction)``, so the value
    never rises. Stops once a step is shorter than `STEP_TOL`, which includes
    a search that found no step predicting a change beyond the rounding
    floor, or after ``max_iters`` passes. Returns (point, OptimReport)."""
    step_norms = []
    objectives = []
    for _ in range(max_iters):
        g, d = direction(u)
        u_new, E = _backtrack(value, u, d, g, E, bounds, physical)
        step_norms.append(float(np.linalg.norm(u_new - u)))
        objectives.append(E)
        u = u_new
        if step_norms[-1] < STEP_TOL:
            break
    converged = bool(step_norms) and step_norms[-1] < STEP_TOL
    return u, OptimReport(len(step_norms), converged, E, tuple(step_norms), tuple(objectives))


def maximize_local(
    omega0: TrajectoryParams,
    residuals,
    array: ArrayConfig,
    wavelengths,
    bounds: Bounds,
):
    """Box-constrained local ascent of the beam objective from ``omega0``.

    `_descend` on the negated objective for at most `LOCAL_MAX_ITERS`
    passes. Each pass holds every coordinate on a face of ``bounds`` whose
    gradient points out of the box and backtracks along the projected Newton
    direction (`_projected_newton`) whenever the reduced Hessian of the free
    coordinates is negative definite (so the quadratic model has a maximum),
    and along the gradient otherwise; the box clips every candidate, and the
    returned objective is never below the starting one. The starting
    objective comes with the first pass's gradient and Hessian.
    """
    model = omega0.model
    start = bounds.clip(omega0.vector())
    physical = _physical(doa_map(model, residuals[0].shape[1]))
    loss = lambda v: -objective(TrajectoryParams.from_vector(model, v), residuals, array, wavelengths)
    J0, *first = _value_grad_hess(
        TrajectoryParams.from_vector(model, start), residuals, array, wavelengths
    )

    def newton_or_gradient(u):
        # the first pass is at the start, whose gradient and Hessian came with J0
        g, H = first if u is start else objective_grad_hess(
            TrajectoryParams.from_vector(model, u), residuals, array, wavelengths
        )
        try:
            d, HF = _projected_newton(u, g, H, bounds)
            np.linalg.cholesky(-HF)
            return -g, d
        except np.linalg.LinAlgError:
            return -g, g

    u, report = _descend(loss, newton_or_gradient, start, -J0, bounds, physical, LOCAL_MAX_ITERS)
    objectives = tuple(-o for o in report.objectives)
    report = replace(report, final_objective=-report.final_objective, objectives=objectives)
    return TrajectoryParams.from_vector(model, u), report


def newton_step(
    omega: TrajectoryParams,
    residuals,
    array: ArrayConfig,
    wavelengths,
    bounds: Bounds,
):
    """One safeguarded projected Newton step on the beam objective.

    The direction d is `_projected_newton`'s: every coordinate on a face of
    ``bounds`` whose gradient points out of the box is held, and the Newton
    system is solved on the others with the reduced Hessian. The steps tried,
    in order:

    1. the full step ``omega + d`` clipped to the bounds, kept if it stays
       inside (-90, 90) degrees and the objective does not decrease;
    2. if d ascends (g . d > 0), a backtracking search along d
       (`_backtrack`, with its rounding floor and the same (-90, 90) test);
    3. one backtracking gradient-ascent step, which may return the start.

    A singular reduced Hessian warns and goes straight to 3. With no
    coordinate held, d is the plain Newton direction -H^{-1} g. The starting
    objective comes from the same moments as g and H, not from a separate
    `objective` call. Returns the new parameters and whether a step along
    the Newton direction (1 or 2) was taken.
    """
    model = omega.model
    u = bounds.clip(omega.vector())
    physical = _physical(doa_map(model, residuals[0].shape[1]))
    value = lambda v: objective(TrajectoryParams.from_vector(model, v), residuals, array, wavelengths)
    J0, g, H = _value_grad_hess(
        TrajectoryParams.from_vector(model, u), residuals, array, wavelengths
    )
    loss = lambda v: -value(v)
    try:
        d, _ = _projected_newton(u, g, H, bounds)
    except np.linalg.LinAlgError:
        warnings.warn("singular Hessian; falling back to gradient step",
                      NumericsWarning, stacklevel=2)
    else:
        cand = bounds.clip(u + d)
        if physical(cand) and value(cand) >= J0:
            return TrajectoryParams.from_vector(model, cand), True
        if g @ d > 0:
            u_new, _ = _backtrack(loss, u, d, -g, -J0, bounds, physical)
            if not np.array_equal(u_new, u):  # an accepted step has length >= STEP_TOL
                return TrajectoryParams.from_vector(model, u_new), True
    u_new, _ = _backtrack(loss, u, g, -g, -J0, bounds, physical)
    return TrajectoryParams.from_vector(model, u_new), False


def residual_energy(residuals) -> float:
    """Squared Frobenius norm of (F, N, L) residuals, frequency by frequency."""
    return float(_frequency_sum(np.sum(residuals.real**2 + residuals.imag**2, axis=(1, 2))))


def joint_refine(
    trajectories,
    blocks,
    array: ArrayConfig,
    bounds: Bounds,
):
    """Jointly refine k trajectories against the raw blocks, amplitudes
    eliminated by variable projection.

    At every evaluation the amplitudes are set to their closed-form optimum
    and the residual is the data projected away from the steering stack
    (`project_out`), so the search runs over trajectory parameters only.
    Descent directions come from a damped Gauss-Newton model built on the
    Kaufman variable-projection Jacobian: the amplitude-weighted steering
    derivatives, projected at every snapshot away from the span of that
    snapshot's steering vectors. The amplitudes are held at their optimum,
    which by the envelope theorem also yields the exact reduced gradient.
    The model then differs from the Hessian of the fit error only by terms
    that vanish with the residual, so the iteration converges quadratically
    on noiseless data (`STEP_TOL` in a handful of steps) and fast where
    the residual is small. `_descend` takes the steps (at most
    `JOINT_MAX_ITERS`), so the returned fit error never exceeds the starting one.

    Returns (trajectories, (F, k, L) amplitudes, OptimReport, (F, N, L)
    residuals): the residuals are the data projected away from the returned
    trajectories, as the refine evaluated them there.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    model = trajectories[0].model
    if any(t.model != model for t in trajectories):
        raise ValueError("joint refinement requires a single trajectory model")
    k = len(trajectories)
    D = model.n_params
    L = blocks[0].snapshots
    wavelengths = block_wavelengths(array, blocks)
    data = np.stack([b.data for b in blocks])
    scales = _phase_scales(array, wavelengths)
    T = doa_map(model, L)
    physical = _physical(T)
    lows = np.tile(bounds.lows, k)
    highs = np.tile(bounds.highs, k)
    box = Bounds(tuple(lows), tuple(highs))

    last = None  # (fit error, trajectories, amplitudes, residuals, stack) of the latest point
    taken = None  # `last` at the latest direction's point; a rejected candidate overwrites `last`

    def fit_error(u):
        nonlocal last
        trajs = [TrajectoryParams.from_vector(model, v) for v in u.reshape(k, D)]
        A, X, R = project_all(trajs, data, array, wavelengths)
        last = (0.5 * residual_energy(R), trajs, X, R, A)
        return last[0]

    def gauss_newton(u):
        nonlocal taken
        taken = last  # u, the start or an accepted candidate, was the last point evaluated
        _, trajs, X, R, A = last
        theta = np.stack([doas(t, L) for t in trajs])  # (k, L)
        dcoef = 1j * DEG * np.cos(theta * DEG)  # d a / d theta_deg factor, per (k, L)
        n = np.arange(array.n_sensors, dtype=float)
        # W[f, i, n, l] = x_fil * d a_fn(theta_il) / d theta, so the Jacobian
        # column for parameter (i, c) at frequency f is -W[f, i] * T[c]
        W = (X[:, :, None, :] * (scales[:, None, None] * dcoef)[:, :, None, :]) * (n[:, None] * A)
        p = np.einsum("fnl,finl->fil", np.conj(R), W)
        g = _frequency_sum(-np.real(p @ T.T).reshape(len(p), -1))
        # Kaufman's Jacobian P_perp W: all k columns projected per frequency
        # and snapshot away from the steering span in one solve. p needs no
        # projection, R being orthogonal to that span already.
        _, PW, _ = project_out(A, np.moveaxis(W, 1, -1))  # (F, N, L, k)
        q = np.einsum("fnli,fnlj->fijl", np.conj(PW), PW)
        Hblk = np.real(np.einsum("fijl,cl,dl->ficjd", q, T, T))
        H = _frequency_sum(Hblk.reshape(len(q), k * D, k * D))
        mu = 1e-10 * max(float(np.trace(H)) / (k * D), 1.0)
        try:
            return g, np.linalg.solve(H + mu * np.eye(k * D), -g)
        except np.linalg.LinAlgError:
            return g, -g

    u = box.clip(np.concatenate([t.vector() for t in trajectories]))
    _, report = _descend(fit_error, gauss_newton, u, fit_error(u), box, physical, JOINT_MAX_ITERS)
    _, trajs, X, R, _ = taken if report.converged else last
    return trajs, X, report, R
