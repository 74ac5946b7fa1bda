"""Stochastic feature quantizer and its expected-error bound."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .accuracy import quant_error_factor
from .netmodel import MP, NetworkModel, feature_dim


@dataclass(frozen=True)
class QuantSpec:
    """Uniform knob grid over [f_min, f_max] with 2^(bits-1) knobs
    (2^(bits-1) - 1 intervals); one extra sign bit encodes polarity."""

    bits: int
    f_min: float
    f_max: float

    def __post_init__(self):
        if int(self.bits) != self.bits or self.bits < 2:
            raise ValueError("quantization bits must be an integer >= 2")
        if not self.f_min < self.f_max:
            raise ValueError("need f_min < f_max")

    @property
    def n_knobs(self) -> int:
        return 2 ** (self.bits - 1)

    @property
    def step(self) -> float:
        return (self.f_max - self.f_min) / (self.n_knobs - 1)

    @property
    def knobs(self) -> np.ndarray:
        return self.f_min + self.step * np.arange(self.n_knobs)


def quantize_vector(f, spec: QuantSpec, seed: int) -> np.ndarray:
    """Unbiased stochastic rounding of each |element| to an adjacent knob.

    |x| in [knob_i, knob_{i+1}) maps to sign(x)*knob_i with probability
    (knob_{i+1} - |x|)/step, else sign(x)*knob_{i+1}; values exactly on a
    knob are kept with probability 1. Magnitudes outside [f_min, f_max] are
    clamped (with a warning). sign(0) is treated as +1. Deterministic given
    seed.
    """
    rng = np.random.default_rng(seed)
    f = np.asarray(f, dtype=float)
    sign = np.where(f < 0.0, -1.0, 1.0)
    mag = np.abs(f)
    clipped = np.clip(mag, spec.f_min, spec.f_max)
    n_clamped = int(np.count_nonzero(clipped != mag))
    if n_clamped:
        warnings.warn(
            f"{n_clamped} feature magnitude(s) outside [{spec.f_min}, {spec.f_max}] clamped",
            RuntimeWarning,
            stacklevel=2,
        )
    idx = np.floor((clipped - spec.f_min) / spec.step).astype(int)
    idx = np.minimum(idx, spec.n_knobs - 2)
    lower = spec.f_min + spec.step * idx
    p_up = (clipped - lower) / spec.step
    up = rng.random(size=f.shape) < p_up
    out = np.where(up, lower + spec.step, lower)
    return sign * out


def calibrate_range(samples, headroom: float = 1.0) -> tuple[float, float]:
    """Feature range (0, max|f| * headroom) scanned from sample vectors."""
    peak = max(float(np.max(np.abs(np.asarray(s, dtype=float)))) for s in samples)
    if peak <= 0:
        raise ValueError("all-zero samples: cannot calibrate a range")
    return 0.0, peak * headroom


def delta_coeff(net: NetworkModel, l: int, f_min: float, f_max: float) -> float:
    """Quantization penalty coefficient of a split after layer l:
    N/4 * (f_max - f_min)^2, where N is the feature size of layer l+1 when
    that layer is max-pooling (pooling shrinks the effective dimension),
    else of layer l. l=0 means quantizing the raw input."""
    if l < net.depth and net.layer(l + 1).kind == MP:
        n_eff = feature_dim(net, l + 1)
    else:
        n_eff = feature_dim(net, l)
    return 0.25 * n_eff * (f_max - f_min) ** 2


def quant_error_bound(net: NetworkModel, l: int, spec: QuantSpec) -> float:
    """Upper bound on the expected squared quantization error of the split
    feature vector."""
    return delta_coeff(net, l, spec.f_min, spec.f_max) * quant_error_factor(spec.bits)

