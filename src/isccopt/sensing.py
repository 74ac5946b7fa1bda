"""Synthetic FMCW echo generation and the sensing processing chain:
clutter filter, slow-time aggregation, STFT spectrogram, plus the
sensing cost model.

The clutter filter keeps a band of singular components. At full rank (the
stock `svd_r2 = 0`) it projects out the top r1 - 1 singular subspace,
found by block subspace iteration on the smaller Gram matrix and accepted
only with a Davis-Kahan certificate on its angle; without a certifiable
singular-value gap, or for a band short of full rank, it uses a full SVD.

The chirp waveform is a baseband linear chirp with slope bandwidth/duration;
the target adds a per-chirp Doppler phase rotation, clutter paths are static.
Only the statistical structure matters downstream.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

# Certified top-subspace clutter filter: the subspace-angle bound accepted,
# the iteration cap before the full-SVD fallback, and the extra block
# columns that speed convergence.
SUBSPACE_TOL = 1e-14
SUBSPACE_MAX_ITER = 30
SUBSPACE_OVERSAMPLE = 4


@dataclass(frozen=True)
class TargetPath:
    delay: float
    doppler_hz: float
    gain: complex


@dataclass(frozen=True)
class ClutterPath:
    delay: float
    gain: complex


@dataclass(frozen=True)
class EchoParams:
    """Echo scene: transmit power, chirp timing, one moving target, static
    clutter paths, and the complex noise power spectral density."""

    power: float
    chirp_duration: float
    n_chirps: int
    sample_rate: float
    target: TargetPath
    clutter: tuple[ClutterPath, ...] = ()
    noise_psd: float = 0.0
    chirp_bandwidth: float = 1e6

    def __post_init__(self):
        object.__setattr__(self, "clutter", tuple(self.clutter))
        values = dict(power=self.power, chirp_duration=self.chirp_duration,
                      sample_rate=self.sample_rate, noise_psd=self.noise_psd,
                      chirp_bandwidth=self.chirp_bandwidth,
                      **{"target." + k: v for k, v in vars(self.target).items()})
        for i, path in enumerate(self.clutter):
            values.update({f"clutter[{i}].{k}": v for k, v in vars(path).items()})
        for name, value in values.items():
            if not cmath.isfinite(value):
                raise ValueError(f"echo {name} must be finite, got {value}")
        if self.power < 0:
            raise ValueError("sensing power must be nonnegative")
        if self.sample_rate * self.chirp_duration < 1:
            raise ValueError("need at least one fast-time sample per chirp")
        delays = [self.target.delay] + [c.delay for c in self.clutter]
        if any(not 0 <= d < self.chirp_duration for d in delays):
            raise ValueError("path delays must lie in [0, chirp_duration)")
        if self.noise_psd < 0:
            raise ValueError("noise psd must be nonnegative")

    @property
    def n_fast(self) -> int:
        return int(np.floor(self.sample_rate * self.chirp_duration))


def _chirp(t, duration, bandwidth):
    """Baseband linear chirp, zero outside [0, duration)."""
    inside = (t >= 0) & (t < duration)
    phase = np.pi * (bandwidth / duration) * t**2
    return np.where(inside, np.exp(1j * phase), 0.0)


def generate_echo(params: EchoParams, seed: int) -> np.ndarray:
    """Sampled echo matrix of shape (fast-time, n_chirps).

    Column m holds chirp m: sqrt(P)*h0*chirp(t - tau0) rotated by the
    per-chirp Doppler phase, plus static clutter copies, plus complex
    Gaussian noise with total per-sample variance noise_psd * sample_rate.
    Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(params.n_fast) / params.sample_rate
    amp = np.sqrt(params.power)
    doppler = np.exp(
        2j * np.pi * params.target.doppler_hz * params.chirp_duration
        * np.arange(params.n_chirps))
    target_fast = amp * params.target.gain * _chirp(
        t - params.target.delay, params.chirp_duration, params.chirp_bandwidth)
    data = np.outer(target_fast, doppler)   # complex128, as doppler is
    for path in params.clutter:
        fast = amp * path.gain * _chirp(
            t - path.delay, params.chirp_duration, params.chirp_bandwidth)
        data += fast[:, None]
    if params.noise_psd > 0:
        # one draw of the real then the imaginary parts, the stream that two
        # draws of the echo's shape take; added in place, with no complex
        # temporary
        noise = rng.standard_normal((2, params.n_fast, params.n_chirps))
        noise *= np.sqrt(params.noise_psd * params.sample_rate / 2.0)
        data.real += noise[0]
        data.imag += noise[1]
    return data


def clutter_filter(y: np.ndarray, r1: int, r2: int) -> np.ndarray:
    """Keep singular components r1..r2 (1-indexed, descending order) of y.

    When r2 is the full rank, this removes the top r1 - 1 singular
    subspace: y - U(U^H y), with U from `_dominant_subspace`. Otherwise,
    or when U cannot be certified, it rebuilds the band from a full SVD.
    """
    y = np.asarray(y)
    if y.ndim != 2:
        raise ValueError(f"sensing matrix y must be 2-D, got shape {y.shape}")
    if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
        raise ValueError("non-finite entries in sensing matrix")
    min_dim = min(y.shape)
    if not 1 <= r1 <= r2 <= min_dim:
        raise ValueError(f"need 1 <= r1 <= r2 <= {min_dim}, got ({r1}, {r2})")
    if r2 == min_dim:
        # project on the shorter side, where the Gram matrix is smallest
        wide = y.shape[0] <= y.shape[1]
        a = y if wide else y.conj().T
        u = _dominant_subspace(a, r1 - 1)
        if u is not None:
            out = u @ (u.conj().T @ a)
            np.subtract(a, out, out=out)
            return out if wide else out.conj().T
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    keep = slice(r1 - 1, r2)
    return (u[:, keep] * s[keep]) @ vh[keep, :]


def _dominant_subspace(a: np.ndarray, k: int) -> np.ndarray | None:
    """Orthonormal basis of the top-k left singular subspace of a, or None
    when it cannot be certified within SUBSPACE_MAX_ITER steps.

    Block subspace iteration with Rayleigh-Ritz on G = a a^H, on
    p = k + SUBSPACE_OVERSAMPLE columns started from G's largest-norm
    columns. Ritz values satisfy theta_i <= lambda_i, so
    lambda_{k+1} <= sqrt(||G||_F^2 - sum_{i<=k} theta_i^2); by Davis-Kahan
    the sine of the angle to the true subspace is at most the Ritz residual
    over the gap theta_k - that bound. The basis is returned once that
    ratio is at most SUBSPACE_TOL; without a gap (noise alone, a repeated
    singular value at k) it never is, so a gap bound still <= 0 after the
    second step gives up at once.
    """
    d = a.shape[0]
    if k == 0:
        return np.zeros((d, 0))
    g = a @ a.conj().T
    fro2 = float(np.vdot(g, g).real)
    p = min(k + SUBSPACE_OVERSAMPLE, d)
    start = np.argsort(-np.linalg.norm(g, axis=0), kind="stable")[:p]
    q = np.linalg.qr(g[:, start])[0]
    for step in range(SUBSPACE_MAX_ITER):
        gq = g @ q
        theta, w = np.linalg.eigh(q.conj().T @ gq)
        theta, w = theta[::-1], w[:, ::-1]
        x, gx = q @ w[:, :k], gq @ w
        resid = np.linalg.norm(gx[:, :k] - x * theta[:k])
        gap = theta[k - 1] - np.sqrt(max(fro2 - float(np.sum(theta[:k] ** 2)), 0.0))
        if gap > 0 and resid <= SUBSPACE_TOL * gap:
            return x
        if gap <= 0 and step >= 1:
            return None
        q = np.linalg.qr(gx)[0]
    return None


def spectrogram(ybar: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Unit-norm magnitude spectrogram of the slow-time signal.

    The matrix is summed over the fast-time (row) axis into a slow-time
    vector; a Hann-windowed STFT (frame length window_len, step hop) is
    taken, magnitudes are flattened frame-major and normalized to unit
    Euclidean norm. An all-zero input maps to the zero vector with a
    warning.
    """
    ybar = np.asarray(ybar)
    if ybar.ndim != 2:
        raise ValueError(f"sensing matrix ybar must be 2-D, got shape {ybar.shape}")
    n_slow = ybar.shape[1]
    # the periodic Hann window of length 1 is [0], which zeroes every frame
    if not 2 <= window_len <= n_slow:
        raise ValueError(f"window_len must lie in 2..{n_slow} (slow-time axis), "
                         f"got {window_len}")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    slow = ybar.sum(axis=0)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(window_len) / window_len))
    starts = range(0, n_slow - window_len + 1, hop)
    frames = np.stack([slow[s:s + window_len] * window for s in starts])
    mags = np.abs(np.fft.fft(frames, axis=1)).reshape(-1)
    norm = np.linalg.norm(mags)
    if norm == 0.0:
        warnings.warn("all-zero sensing input: spectrogram left unnormalized",
                      RuntimeWarning, stacklevel=2)
        return mags
    return mags / norm


def sensing_cost(p_s: float, t0: float, m: int) -> tuple[float, float]:
    """(latency, energy) of an M-chirp sensing round: T = t0*m, E = p_s*T."""
    if t0 <= 0 or m <= 0:
        raise ValueError("chirp duration and count must be positive")
    if p_s < 0:
        raise ValueError("sensing power must be nonnegative")
    t_sen = t0 * m
    return t_sen, p_s * t_sen
