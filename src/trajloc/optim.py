"""Continuous-parameter kernels shared by the gridless estimators.

The central quantity is the beamforming objective

    J(omega) = (1/L) * sum_f sum_l |a_lf(omega)^H r_lf|^2

evaluated against residual matrices ``r``. Trajectory DOAs are linear in the
parameters (phi plus coefficients times fixed basis functions of the snapshot
index), which keeps the chain rule short: all derivatives reduce to weighted
sensor-index moments of ``conj(a) * r``.

Everything here works in degrees at the interface and is purely functional;
callers pass one residual matrix and one wavelength per frequency.

`project_all` is the one per-frequency least-squares fit: the steering
stacks of the selected trajectories, every snapshot fitted in their span,
and the amplitudes and residuals. TL-OMP, TL-NOMP, `amplitudes_ls` and the
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
    _phase_scale,
    block_wavelengths,
    doa_map,
    doas,
    trajectory_steering_matrix,
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


def _moments(theta_deg: np.ndarray, residual: np.ndarray, cf: float, orders: int):
    """Sensor-index moments m_k[l] = sum_n n^k conj(a_n(theta_l)) r_nl
    for k = 0..orders. Returns a list of length-L complex vectors."""
    n = np.arange(residual.shape[0], dtype=float)
    phase = cf * np.sin(theta_deg * DEG)
    # conj(a) entries without forming a separately
    B = np.exp(-1j * np.outer(n, phase)) * residual
    out = [B.sum(axis=0)]
    for k in range(1, orders + 1):
        out.append((n[:, None] ** k * B).sum(axis=0))
    return out


def objective(params: TrajectoryParams, residuals, array: ArrayConfig, wavelengths) -> float:
    """Beam power of one trajectory against per-frequency residual matrices."""
    L = residuals[0].shape[1]
    theta = doas(params, L)
    total = 0.0
    for R, lam in zip(residuals, wavelengths):
        (z0,) = _moments(theta, R, _phase_scale(array, lam), 0)
        total += float(np.sum(np.abs(z0) ** 2))
    return total / L


def _value_grad_hess(params: TrajectoryParams, residuals, array: ArrayConfig, wavelengths):
    """(`objective`, gradient, Hessian) from one pass of moments; the value
    is summed exactly as `objective` sums it, so the two are bit-identical."""
    L = residuals[0].shape[1]
    theta = doas(params, L)
    T = doa_map(params.model, L)  # rows: d theta_l / d parameter
    cos_t = np.cos(theta * DEG)
    sin_t = np.sin(theta * DEG)
    D = T.shape[0]
    total = 0.0
    g = np.zeros(D)
    H = np.zeros((D, D))
    for R, lam in zip(residuals, wavelengths):
        cf = _phase_scale(array, lam)
        z0, z1, z2 = _moments(theta, R, cf, 2)
        total += float(np.sum(np.abs(z0) ** 2))
        dz = -1j * cf * DEG * cos_t * z1
        d2z = 1j * cf * DEG**2 * sin_t * z1 - (cf * DEG * cos_t) ** 2 * z2
        dF = 2.0 * np.real(np.conj(z0) * dz)
        d2F = 2.0 * (np.abs(dz) ** 2 + np.real(np.conj(z0) * d2z))
        g += T @ dF
        H += (T * d2F) @ T.T
    return total / L, g / L, H / L


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

    ``A`` is a (k, N, L) stack of trajectory steering matrices and ``Y`` is
    (N, L), or (N, L, m) for m right-hand sides per snapshot; solves the
    N x k system at each snapshot via the normal equations, falling back to
    a tolerance-thresholded pseudo-inverse where the steering set is rank
    deficient. Returns ((L, k) coefficients, or (L, k, m), deficient flag).
    """
    k, N, L = A.shape
    if k == 1:
        # a^H a = N for unit-modulus steering entries
        a = np.conj(A[0]).reshape((N, L) + (1,) * (Y.ndim - 2))
        x = (a * Y).sum(axis=0) / N
        return x[:, None], False
    G = np.einsum("inl,jnl->lij", np.conj(A), A)  # (L, k, k) Gram matrices
    b = np.einsum("inl,nl...->li...", np.conj(A), Y)  # (L, k) or (L, k, m)
    w = np.linalg.eigvalsh(G)
    bad = w[:, 0] < 1e-10 * np.maximum(w[:, -1], 1.0)
    X = np.empty(b.shape, dtype=complex)
    good = ~bad
    if good.any():
        bg = b[good]  # all m right-hand sides share one factorization
        X[good] = np.linalg.solve(G[good], bg.reshape(len(bg), k, -1)).reshape(bg.shape)
    for l in np.nonzero(bad)[0]:
        X[l] = np.linalg.pinv(A[:, :, l].T, rcond=1e-10) @ Y[:, l]
    return X, bool(bad.any())


def steering_stack(trajectories, array: ArrayConfig, L: int, wavelength: float) -> np.ndarray:
    """(k, N, L) stack of the trajectories' steering matrices at one wavelength,
    the operand of every per-snapshot fit below."""
    return np.stack([trajectory_steering_matrix(t, array, L, wavelength) for t in trajectories])


def model_residuals(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The one subtraction Y - sum_i A_i diag(x_i) at one frequency: ``A`` is
    a (k, N, L) steering stack the caller already holds, ``X`` its (k, L)
    amplitudes and ``Y`` the (N, L) data, or (k, L, m) and (N, L, m) for m
    right-hand sides per snapshot. Builds no steering matrix."""
    return Y - np.einsum("inl,il...->nl...", A, X)


def project_out(A: np.ndarray, Y: np.ndarray):
    """Orthogonal-projection residual of Y against the steering stack A.

    Fits every snapshot of Y, (N, L) or (N, L, m), in the span of its k
    steering vectors (`batched_snapshot_ls`) and subtracts the fit. Returns
    ((k, L) or (k, L, m) amplitudes, residual shaped like Y, deficient flag).
    """
    X, bad = batched_snapshot_ls(A, Y)
    X = X.swapaxes(0, 1).copy()
    return X, model_residuals(A, X, Y), bad


def project_all(trajectories, data, array: ArrayConfig, wavelengths):
    """The one per-frequency least-squares fit: `project_out` of each
    frequency's data matrix against the trajectories' (k, N, L) steering
    stack. A rank-deficient fit at any frequency raises one
    `NumericsWarning` per call. Returns per-frequency lists (stacks, (k, L)
    amplitudes, residuals)."""
    L = data[0].shape[1]
    stacks = [steering_stack(trajectories, array, L, lam) for lam in wavelengths]
    X, R, bad = zip(*(project_out(A, Y) for A, Y in zip(stacks, data)))
    if any(bad):
        warnings.warn(
            "steering vectors nearly coincide at some snapshots; "
            "least squares used the minimum-norm solution",
            NumericsWarning,
            stacklevel=2,
        )
    return stacks, list(X), list(R)


def source_estimates(trajectories, amplitudes) -> list[SourceEstimate]:
    """One `SourceEstimate` per trajectory, from the per-frequency (k, L)
    amplitudes of a fit such as `project_all`'s."""
    return [SourceEstimate(t, tuple(X[i] for X in amplitudes)) for i, t in enumerate(trajectories)]


def amplitudes_ls(trajectories, blocks, array: ArrayConfig):
    """Exact per-snapshot least-squares amplitudes for k trajectories.

    For every frequency and snapshot l, stacks the k steering vectors into an
    N x k matrix and solves the linear system; this is the closed-form
    minimizer of the fit error over amplitudes. Snapshots where trajectories
    coincide (rank-deficient steering set) fall back to the minimum-norm
    pseudo-inverse solution and raise a `NumericsWarning`.

    Returns one (k, L) complex array per frequency.
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


def _descend(value, direction, u, bounds, physical, max_iters):
    """The one descent loop of every local search; an ascent passes its
    negated objective. Each pass backtracks along ``direction(u) -> (gradient,
    direction)``, so the value never rises. Stops once a step is shorter than
    `STEP_TOL`, which includes a search that found no step predicting a change
    beyond the rounding floor, or after ``max_iters`` passes. Returns (point,
    OptimReport)."""
    E = value(u)
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
    returned objective is never below the starting one.
    """
    model = omega0.model
    u = bounds.clip(omega0.vector())
    physical = _physical(doa_map(model, residuals[0].shape[1]))
    loss = lambda v: -objective(TrajectoryParams.from_vector(model, v), residuals, array, wavelengths)

    def newton_or_gradient(u):
        g, H = objective_grad_hess(
            TrajectoryParams.from_vector(model, u), residuals, array, wavelengths
        )
        try:
            d, HF = _projected_newton(u, g, H, bounds)
            np.linalg.cholesky(-HF)
            return -g, d
        except np.linalg.LinAlgError:
            return -g, g

    u, report = _descend(loss, newton_or_gradient, u, bounds, physical, LOCAL_MAX_ITERS)
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
    """Squared Frobenius norm of a set of residual matrices, summed."""
    return float(sum(np.sum(R.real**2 + R.imag**2) for R in residuals))


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

    Returns (trajectories, per-frequency amplitude arrays, OptimReport,
    per-frequency residual matrices): the residuals are the data projected
    away from the returned trajectories, as the refine evaluated them there.
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
    data = [b.data for b in blocks]
    T = doa_map(model, L)
    physical = _physical(T)
    lows = np.tile(bounds.lows, k)
    highs = np.tile(bounds.highs, k)
    box = Bounds(tuple(lows), tuple(highs))

    last = None  # (fit error, trajectories, amplitudes, residuals, stacks) of the latest point
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
        g = np.zeros(k * D)
        H = np.zeros((k * D, k * D))
        theta = np.stack([doas(t, L) for t in trajs])  # (k, L)
        dcoef = 1j * DEG * np.cos(theta * DEG)  # d a / d theta_deg factor, per (k, L)
        n = np.arange(array.n_sensors, dtype=float)
        for fi, (R_f, A_f, lam) in enumerate(zip(R, A, wavelengths)):
            cf = _phase_scale(array, lam)
            # W[i, n, l] = x_il * d a_n(theta_il) / d theta, so the Jacobian
            # column for parameter (i, c) is -W[i] * T[c]
            W = (X[fi][:, None, :] * (cf * dcoef)[:, None, :]) * (n[None, :, None] * A_f)
            p = np.einsum("nl,inl->il", np.conj(R_f), W)
            g += -np.real(p @ T.T).reshape(-1)
            # Kaufman's Jacobian P_perp W: all k columns projected per
            # snapshot away from the steering span in one solve. p needs no
            # projection, R_f being orthogonal to that span already.
            _, PW, _ = project_out(A_f, np.moveaxis(W, 0, -1))  # (N, L, k)
            q = np.einsum("nli,nlj->ijl", np.conj(PW), PW)
            Hblk = np.real(np.einsum("ijl,cl,dl->icjd", q, T, T))
            H += Hblk.reshape(k * D, k * D)
        mu = 1e-10 * max(float(np.trace(H)) / (k * D), 1.0)
        try:
            return g, np.linalg.solve(H + mu * np.eye(k * D), -g)
        except np.linalg.LinAlgError:
            return g, -g

    u = box.clip(np.concatenate([t.vector() for t in trajectories]))
    _, report = _descend(fit_error, gauss_newton, u, box, physical, JOINT_MAX_ITERS)
    _, trajs, X, R, _ = taken if report.converged else last
    return trajs, X, report, R
