"""Analytical accuracy model: ideal-accuracy curve and its fit, the pruning
and quantization penalty factors, the accuracy lower bound, the inverse
map from a target accuracy to the minimum sensing power, and the least
pruning ratio whose sensing power fits under the cap."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError


@dataclass(frozen=True)
class AccuracyParams:
    """Constants of the accuracy model.

    a, b: arctan fit of ideal accuracy vs sensing power (a*pi/2 <= 1).
    s: lower bound on the minimum classification score.
    c_m: margin compensation constant (calibrated against experiments).
    margin_exponent: exponent on the margin term in the penalty (1 or 2).
    f_min, f_max: feature range seen by the quantizer.
    """

    a: float
    b: float
    s: float
    c_m: float = 1.0
    margin_exponent: int = 2
    f_min: float = 0.0
    f_max: float = 1.0

    def __post_init__(self):
        values = (self.a, self.b, self.s, self.c_m, self.f_min, self.f_max)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("accuracy parameters must be finite")
        if self.a < 0 or self.b <= 0:
            raise ValueError("arctan coefficients need a >= 0, b > 0")
        if self.a * math.pi / 2.0 > 1.0 + 1e-12:
            raise ValueError("a*pi/2 must not exceed 1 (accuracy cap)")
        if self.s <= 0:
            raise ValueError("minimum score s must be positive")
        if self.c_m <= 0:
            raise ValueError("compensation constant must be positive")
        if self.margin_exponent not in (1, 2):
            raise ValueError("margin_exponent must be 1 or 2")
        if not self.f_min < self.f_max:
            raise ValueError("need f_min < f_max")


@dataclass(frozen=True)
class PenaltyTerms:
    """Split-dependent coefficients entering the accuracy penalty:
    prune_coeff scales the pruning factor, quant_coeff the quantization
    factor, tail_norm is the post-split weight-norm product."""

    prune_coeff: float
    quant_coeff: float
    tail_norm: float

    def __post_init__(self):
        if min(self.prune_coeff, self.quant_coeff, self.tail_norm) < 0:
            raise ValueError("penalty terms must be nonnegative")


def pruning_error_factor(rho: float) -> float:
    """Dimensionless pruning error factor 2 - rho - rho*(ln(rho) - 1)^2.

    Equals 0 at rho=1 and decreases monotonically as rho grows;
    derivative is -(ln rho)^2.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if rho > 1.0:
        raise ValueError("rho must not exceed 1")
    return 2.0 - rho - rho * (math.log(rho) - 1.0) ** 2


def quant_error_factor(q: int) -> float:
    """Quantizer variance factor 1 / (2^(q-1) - 1)^2, defined for q >= 2."""
    if int(q) != q or q < 2:
        raise ValueError("quantization bits must be an integer >= 2")
    return 1.0 / (2.0 ** (q - 1) - 1.0) ** 2


def ideal_accuracy(ps: float, params: AccuracyParams) -> float:
    """Noise-limited classification accuracy at sensing power ps."""
    if ps < 0:
        raise ValueError("sensing power must be nonnegative")
    return params.a * math.atan(params.b * ps)


def accuracy_ceiling(params: AccuracyParams) -> float:
    """Supremum of the ideal-accuracy curve."""
    return params.a * math.pi / 2.0


def _invert_ideal_accuracy(target: float, params: AccuracyParams) -> float:
    if target <= 0.0:
        return 0.0
    return math.tan(target / params.a) / params.b


def penalty_factor(rho: float, q: int | None, terms: PenaltyTerms,
                   params: AccuracyParams) -> float:
    """Combined accuracy penalty K in bound R0(ps) * (1 - K):

        K = (w / (c_m s))^e * (C*u(rho) + D*v(q))

    with e the margin exponent, C/D/w the split-dependent terms. q may be
    None when the quantization coefficient is zero (no transmission).
    """
    margin = (terms.tail_norm / (params.c_m * params.s)) ** params.margin_exponent
    quant = terms.quant_coeff * quant_error_factor(q) if terms.quant_coeff else 0.0
    return margin * (terms.prune_coeff * pruning_error_factor(rho) + quant)


def accuracy_lower_bound(alloc, terms: PenaltyTerms, params: AccuracyParams) -> float:
    """Guaranteed classification accuracy of an allocation, clamped at 0.

    `alloc` needs attributes p_s, rho, q (duck-typed to avoid a dependency
    on the cost module).
    """
    k = penalty_factor(alloc.rho, alloc.q, terms, params)
    return max(0.0, ideal_accuracy(alloc.p_s, params) * (1.0 - k))


def min_sensing_power(rho: float, q: int | None, terms: PenaltyTerms,
                      params: AccuracyParams, r_t: float, p_max: float) -> float:
    """Smallest sensing power meeting accuracy target r_t at (rho, q).

    Inverts the lower bound R0(ps)*(1-K) = r_t. Raises InfeasibleError
    tagged with the failing condition: margin_penalty (K >= 1),
    accuracy_ceiling (required ideal accuracy unattainable), or
    sensing_power_cap (result above p_max).
    """
    k = penalty_factor(rho, q, terms, params)
    if k >= 1.0:
        raise InfeasibleError("margin_penalty", f"penalty {k:.6g} >= 1")
    if r_t <= 0.0:
        return 0.0
    target = r_t / (1.0 - k)
    if target >= accuracy_ceiling(params):
        raise InfeasibleError(
            "accuracy_ceiling",
            f"required ideal accuracy {target:.6g} >= ceiling {accuracy_ceiling(params):.6g}",
        )
    ps = _invert_ideal_accuracy(target, params)
    if ps > p_max:
        raise InfeasibleError("sensing_power_cap", f"needs {ps:.6g} W > {p_max:.6g} W")
    return ps


def min_pruning_ratio(q: int | None, terms: PenaltyTerms, params: AccuracyParams,
                      r_t: float, p_max: float, floor: float) -> float:
    """Smallest rho >= floor at which min_sensing_power stays within p_max.

    Within p_max means K <= K* = 1 - r_t/ideal_accuracy(p_max), that is
    pruning_error_factor(rho) <= U*. The factor is convex and decreasing
    with derivative -(ln rho)^2, so Newton steps from `floor` rise
    monotonically to the root; they stop once a step no longer moves rho.
    The last few ulps of rounding are then closed by probing upward.
    Raises InfeasibleError when no rho in [floor, 1] is feasible.
    """
    margin = (terms.tail_norm / (params.c_m * params.s)) ** params.margin_exponent
    scale = margin * terms.prune_coeff
    ideal = ideal_accuracy(p_max, params)
    rho = floor
    if scale > 0.0 and r_t < ideal:
        u_star = (1.0 - r_t / ideal - penalty_factor(1.0, q, terms, params)) / scale
        while rho < 1.0:
            step = (pruning_error_factor(rho) - u_star) / math.log(rho) ** 2
            if not rho + step > rho:
                break
            rho = min(rho + step, 1.0)
    step = math.ulp(rho)
    while True:
        try:
            min_sensing_power(rho, q, terms, params, r_t, p_max)
            return rho
        except InfeasibleError:
            if rho >= 1.0:
                raise
            rho = min(rho + step, 1.0)
            step *= 2.0


def fit_accuracy_curve(samples, b_bracket=(1e-4, 1e4), tol=1e-12):
    """Least-squares (a, b) fit of accuracy = a*arctan(b*power).

    For fixed b the optimal a is closed-form; b is found by golden-section
    on the residual over log10(b) in `b_bracket` (residual assumed unimodal
    there). Input: iterable of (power, accuracy) pairs.
    """
    from .solvers import golden_section  # local import: solvers -> cost -> accuracy

    pairs = [(float(p), float(y)) for p, y in samples]
    if len(pairs) < 2:
        raise ValueError("need at least two samples")
    powers = [p for p, _ in pairs]
    if min(powers) < 0:
        raise ValueError("powers must be nonnegative")
    if max(powers) == min(powers):
        raise ValueError("degenerate samples: all powers equal")

    def a_closed_form(b):
        num = den = 0.0
        for p, y in pairs:
            t = math.atan(b * p)
            num += y * t
            den += t * t
        return num / den if den > 0 else 0.0

    def residual_logb(logb):
        b = 10.0**logb
        a = a_closed_form(b)
        return sum((y - a * math.atan(b * p)) ** 2 for p, y in pairs)

    lo, hi = math.log10(b_bracket[0]), math.log10(b_bracket[1])
    logb = golden_section(residual_logb, lo, hi, tol)
    b = 10.0**logb
    return a_closed_form(b), b
