"""Stochastic feature quantizer and its expected-error bound."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .netmodel import MP, NetworkModel, feature_dim, upload_dim


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


def quantize_vector(f, spec: QuantSpec, seed: int | np.random.Generator) -> np.ndarray:
    """Unbiased stochastic rounding of each |element| to an adjacent knob.

    |x| in [knob_i, knob_{i+1}) maps to sign(x)*knob_i with probability
    (knob_{i+1} - |x|)/step, else sign(x)*knob_{i+1}; values exactly on a
    knob are kept with probability 1. Magnitudes outside [f_min, f_max] are
    clamped (with a warning); NaN and +-inf features raise ValueError.
    sign(0) is treated as +1. Deterministic given seed. `seed` is an int or
    a np.random.Generator, which is drawn from in place (one double per
    element), so quantizing the parts of an array in order with one
    Generator equals quantizing the whole array.
    """
    rng = np.random.default_rng(seed)
    f = np.asarray(f, dtype=float)
    sign = 1.0 - 2.0 * (f < 0.0)
    mag = np.abs(f)
    clipped = np.clip(mag, spec.f_min, spec.f_max)
    n_clamped = int(np.count_nonzero(clipped != mag))
    if n_clamped:
        # a non-finite magnitude is either clamped (inf) or unequal to its
        # clip (NaN), so only inputs with a clamp need the finiteness scan
        n_bad = mag.size - int(np.count_nonzero(np.isfinite(mag)))
        if n_bad:
            raise ValueError(f"{n_bad} non-finite feature(s) in the quantizer input")
        warnings.warn(
            f"{n_clamped} feature magnitude(s) outside [{spec.f_min}, {spec.f_max}] clamped",
            RuntimeWarning,
            stacklevel=2,
        )
    idx = np.floor((clipped - spec.f_min) / spec.step)
    np.minimum(idx, spec.n_knobs - 2, out=idx)
    lower = spec.f_min + spec.step * idx
    p_up = (clipped - lower) / spec.step
    up = rng.random(size=f.shape) < p_up
    # arithmetic on the random draw instead of a select: a branch per
    # element on random booleans mispredicts half the time
    return sign * (lower + spec.step * up)


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
    else the upload size of layer l. l=0 means quantizing the raw input; a
    split after the last layer uploads nothing, so its coefficient is 0.
    Where (f_max - f_min)^2 overflows the coefficient saturates to inf, and
    the accuracy bound then rejects every pair that uploads."""
    n_eff = upload_dim(net, l)
    if not n_eff:
        return 0.0
    if net.layer(l + 1).kind == MP:
        n_eff = feature_dim(net, l + 1)
    try:
        return 0.25 * n_eff * (f_max - f_min) ** 2
    except OverflowError:
        return math.inf

