"""Array geometry, DOA trajectory models, and synthetic observation blocks.

Angles are degrees everywhere at the interface; radians appear only inside
phase computations. A block is a complex N x L matrix of L consecutive
snapshots from an N-sensor uniform linear array, and a source's DOA may move
across the block along a polynomial or bandlimited trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEG = np.pi / 180.0
SOUND_SPEED = 343.0  # m/s; a wideband block's wavelength is SOUND_SPEED / f

POLYNOMIAL = "polynomial"
BANDLIMITED = "bandlimited"


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array.

    ``spacing`` is the inter-sensor distance in meters. Narrowband processing
    never needs an absolute wavelength: the array is taken to operate at
    half-wavelength spacing, i.e. the narrowband wavelength is ``2 * spacing``.
    Wideband runs derive per-frequency wavelengths from `SOUND_SPEED`; every
    phase depends on d/lambda only, and `for_frequencies` spaces the array at
    ``SOUND_SPEED / (2 * max(f))``, so the speed cancels out of it.
    """

    n_sensors: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.n_sensors < 2:
            raise ValueError("ULA needs at least 2 sensors")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"sensor spacing must be positive and finite, got {self.spacing}")

    @classmethod
    def for_frequencies(cls, n_sensors: int, frequencies):
        """Spacing set to half the wavelength of the highest frequency.

        The highest band then sits exactly at the spatial Nyquist limit and
        every lower one is oversampled, so no band aliases.
        """
        if min(frequencies) <= 0:
            raise ValueError("frequencies must be positive")
        return cls(n_sensors, SOUND_SPEED / max(frequencies) / 2.0)


def wavelength_for(array: ArrayConfig, frequency: float | None) -> float:
    """Wavelength used when processing a block: c/f, or 2d for narrowband."""
    if frequency is None:
        return 2.0 * array.spacing
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    return SOUND_SPEED / frequency


def block_wavelengths(array: ArrayConfig, blocks) -> tuple[float, ...]:
    """Processing wavelength of each block in a (possibly wideband) set."""
    return tuple(wavelength_for(array, b.frequency) for b in blocks)


@dataclass(frozen=True)
class TrajectoryModel:
    """Family of DOA-vs-snapshot curves: ``polynomial`` order P or
    ``bandlimited`` order Q with fundamental ``nu`` in rad/snapshot."""

    kind: str
    order: int
    nu: float | None = None

    def __post_init__(self):
        if self.kind == POLYNOMIAL:
            if self.order < 0:
                raise ValueError("polynomial order must be >= 0")
            if self.nu is not None:
                raise ValueError("nu applies to bandlimited models only")
        elif self.kind == BANDLIMITED:
            if self.order < 1:
                raise ValueError("bandlimited order must be >= 1")
            if self.nu is None or not 0 < self.nu < np.inf:
                raise ValueError(f"nu: a bandlimited model needs 0 < nu < inf, got {self.nu}")
        else:
            raise ValueError(f"unknown trajectory model kind: {self.kind!r}")

    @classmethod
    def polynomial(cls, order: int) -> "TrajectoryModel":
        return cls(POLYNOMIAL, order)

    @classmethod
    def bandlimited(cls, order: int, nu: float) -> "TrajectoryModel":
        return cls(BANDLIMITED, order, nu)

    @property
    def n_params(self) -> int:
        """Dimension of the parameter vector (phi, coefficients)."""
        if self.kind == POLYNOMIAL:
            return 1 + self.order
        return 1 + 2 * self.order


def trajectory_basis(model: TrajectoryModel, L: int) -> np.ndarray:
    """Coefficient basis functions over snapshots l = 0..L-1.

    Returns an array of shape ``(model.n_params - 1, L)`` whose rows multiply
    the trajectory coefficients: ``(l/(L-1))**p`` for the polynomial model,
    ``sin(q*nu*l)`` for q = 1..Q followed by ``cos(q*nu*l)`` for the
    bandlimited one. The DOA sequence is ``phi + coeffs @ basis``, which also
    makes the rows the exact parameter derivatives of the DOA.
    """
    if L < 1:
        raise ValueError("block length must be >= 1")
    if model.kind == POLYNOMIAL:
        if model.order == 0:
            return np.zeros((0, L))
        if L < 2:
            raise ValueError("polynomial trajectory of order >= 1 needs L >= 2")
        t = np.arange(L) / (L - 1)
        return np.vstack([t**p for p in range(1, model.order + 1)])
    l = np.arange(L)
    sines = [np.sin(q * model.nu * l) for q in range(1, model.order + 1)]
    cosines = [np.cos(q * model.nu * l) for q in range(1, model.order + 1)]
    return np.vstack(sines + cosines)


@dataclass(frozen=True)
class TrajectoryParams:
    """One source's trajectory: broadside angle ``phi`` plus model coefficients,
    all in degrees."""

    model: TrajectoryModel
    phi: float
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        want = self.model.n_params - 1
        if len(self.coeffs) != want:
            raise ValueError(
                f"{self.model.kind} model of order {self.model.order} takes "
                f"{want} coefficients, got {len(self.coeffs)}"
            )

    def vector(self) -> np.ndarray:
        """Parameters as a flat (phi, *coeffs) float vector."""
        return np.array((self.phi,) + self.coeffs)

    @classmethod
    def from_vector(cls, model: TrajectoryModel, vec) -> "TrajectoryParams":
        vec = np.asarray(vec, dtype=float)
        return cls(model, vec[0], tuple(vec[1:]))


@lru_cache(maxsize=8)
def doa_map(model: TrajectoryModel, L: int) -> np.ndarray:
    """Read-only (n_params, L) matrix T of the snapshot DOAs theta = params @ T."""
    T = np.vstack([np.ones(L), trajectory_basis(model, L)])
    T.setflags(write=False)
    return T


def doas(params: TrajectoryParams, L: int) -> np.ndarray:
    """DOA in degrees at every snapshot of an L-length block."""
    return params.phi + np.asarray(params.coeffs, dtype=float) @ doa_map(params.model, L)[1:]


def doa_at_snapshot(params: TrajectoryParams, l: int, L: int) -> float:
    """DOA in degrees at snapshot ``l`` (0-based) of an L-length block."""
    if not 0 <= l <= L - 1:
        raise ValueError(f"snapshot index {l} outside block of length {L}")
    return float(doas(params, L)[l])


def trajectory_in_bounds(params: TrajectoryParams, L: int) -> bool:
    """True if every snapshot DOA stays strictly inside (-90, 90) degrees."""
    theta = doas(params, L)
    return bool(np.all(np.abs(theta) < 90.0))


def _phase_scale(array: ArrayConfig, wavelength: float) -> float:
    # 2*pi*d/lambda, the per-sensor phase increment at sin(theta) = 1; every
    # steering matrix, phase table and beam objective takes it from here
    return 2.0 * np.pi * array.spacing / wavelength


@lru_cache(maxsize=16)
def _phase_scales(array: ArrayConfig, wavelengths: tuple) -> np.ndarray:
    """Read-only (F,) vector of `_phase_scale` at each wavelength, built once
    per (array, wavelengths) so the frequency-stacked kernels share it."""
    if not all(lam > 0 for lam in wavelengths):
        raise ValueError(f"wavelengths must be positive, got {list(wavelengths)}")
    scales = np.array([_phase_scale(array, lam) for lam in wavelengths], dtype=float)
    scales.setflags(write=False)
    return scales


def steering_vector(theta: float, array: ArrayConfig, wavelength: float) -> np.ndarray:
    """Far-field ULA steering vector at DOA ``theta`` degrees.

    Element n is ``exp(j*2*pi*n*d/lambda*sin(theta))``; element 0 is
    exactly 1.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    phase = _phase_scale(array, wavelength) * np.sin(theta * DEG)
    return np.exp(1j * phase * np.arange(array.n_sensors))


def trajectory_steering_matrix(
    params: TrajectoryParams, array: ArrayConfig, L: int, wavelength: float
) -> np.ndarray:
    """N x L matrix whose column l is the steering vector at the snapshot-l DOA."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    theta = doas(params, L)
    phase = _phase_scale(array, wavelength) * np.sin(theta * DEG)
    return np.exp(1j * np.arange(array.n_sensors)[:, None] * phase[None, :])


@dataclass(frozen=True)
class ObservationBlock:
    """Complex N x L snapshot matrix for one frequency (None = narrowband)."""

    data: np.ndarray
    frequency: float | None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("observation data must be a 2-D matrix")
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            n, l = bad[0]
            raise ValueError(
                f"observation data has non-finite entry {data[n, l]} at "
                f"sensor {n}, snapshot {l}"
            )

    @property
    def n_sensors(self) -> int:
        return self.data.shape[0]

    @property
    def snapshots(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """What the synthesizer actually injected into a block set."""

    sources: tuple[TrajectoryParams, ...]
    amplitudes: np.ndarray  # (n_sources, n_frequencies, L) complex
    noise_variance: float
    signal_variance: float


@dataclass(frozen=True)
class SourceEstimate:
    """A recovered trajectory plus its per-frequency snapshot amplitudes."""

    params: TrajectoryParams
    amplitudes: tuple[np.ndarray, ...]


def synthesize_block(
    sources,
    array: ArrayConfig,
    L: int,
    snr_db: float | None,
    frequencies=None,
    seed: int = 0,
    *,
    unit_amplitudes: bool = False,
) -> tuple[list[ObservationBlock], GroundTruth]:
    """Generate one observation block per frequency for the given sources.

    Source amplitudes are i.i.d. circular complex Gaussian with variance 1,
    drawn independently per snapshot, source, and frequency; noise is i.i.d.
    circular complex Gaussian with variance ``10**(-snr_db/10)`` so that
    ``SNR = 10*log10(signal_variance / noise_variance)``. ``snr_db=None``
    produces noiseless data, and ``unit_amplitudes=True`` replaces the random
    amplitudes by ones (handy for analytic checks). Output is deterministic
    for a given seed.

    Parameters
    ----------
    sources : sequence of TrajectoryParams
        May be empty (pure-noise block).
    frequencies : sequence of float or None
        ``None`` means a single narrowband block (frequency tag None).
    """
    freqs = [None] if frequencies is None else list(frequencies)
    if not freqs:
        raise ValueError("frequencies list must not be empty")
    for f in freqs:
        half_wave = wavelength_for(array, f) / 2.0
        if array.spacing > half_wave * (1.0 + 1e-12):
            raise ValueError(
                f"spacing {array.spacing} m aliases at {f} Hz "
                f"(limit {half_wave:.6g} m)"
            )
    sources = tuple(sources)
    for src in sources:
        if not trajectory_in_bounds(src, L):
            raise ValueError(f"trajectory {src.vector()} leaves (-90, 90) within the block")

    signal_variance = 1.0
    noise_variance = 0.0 if snr_db is None else signal_variance * 10.0 ** (-snr_db / 10.0)

    rng = np.random.default_rng(seed)
    K, F = len(sources), len(freqs)
    if unit_amplitudes:
        amps = np.ones((K, F, L), dtype=complex)
    else:
        scale = np.sqrt(signal_variance / 2.0)
        amps = scale * (
            rng.standard_normal((K, F, L)) + 1j * rng.standard_normal((K, F, L))
        )

    blocks = []
    for fi, f in enumerate(freqs):
        lam = wavelength_for(array, f)
        Y = np.zeros((array.n_sensors, L), dtype=complex)
        for ki, src in enumerate(sources):
            Y += trajectory_steering_matrix(src, array, L, lam) * amps[ki, fi][None, :]
        if noise_variance > 0.0:
            nscale = np.sqrt(noise_variance / 2.0)
            Y += nscale * (
                rng.standard_normal((array.n_sensors, L))
                + 1j * rng.standard_normal((array.n_sensors, L))
            )
        blocks.append(ObservationBlock(Y, f))
    truth = GroundTruth(sources, amps, noise_variance, signal_variance)
    return blocks, truth
