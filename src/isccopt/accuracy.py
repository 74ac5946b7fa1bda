"""Analytical accuracy model: ideal-accuracy curve and its fit, the pruning
and quantization penalty factors, the accuracy lower bound, the one inverse
map from a target accuracy to the minimum sensing power, the error naming
why a power above the cap fails, and the least pruning ratio under the cap."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError
from .solvers import brent

# fit_accuracy_curve searches b in FIT_B_BRACKET until the log10(b) bracket
# is FIT_LOGB_TOL wide
FIT_B_BRACKET = (1e-4, 1e4)
FIT_LOGB_TOL = 1e-12
# rounding slack on the accuracy cap a*pi/2 <= 1
A_CAP_SLACK = 1e-12
# rounding of K as sensing_power composes it and of K* = 1 - r_t/ideal, a
# few ulps of 1, which pruning_floor's root of u = U* carries
K_ROUNDING = 4.0 * math.ulp(1.0)


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
        if self.a * math.pi / 2.0 > 1.0 + A_CAP_SLACK:
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


# coefficients 1/((k+3) k!), k = 12..0, of u's series, summed by Horner in _u
_U_SERIES = tuple(1.0 / ((k + 3) * math.factorial(k)) for k in range(12, -1, -1))


def _u(rho: float, log_rho: float) -> float:
    """pruning_error_factor's u(rho) = integral of (ln t)^2 over [rho, 1],
    unchecked, from x = log_rho = ln(rho). The closed form 2 - rho -
    rho*(x - 1)^2 cancels as rho -> 1, where u ~ -x^3/3, so for x >= -0.3
    (rho >= 0.74) u is summed from its series -sum_k x^(k+3)/((k+3) k!):
    13 terms leave out less than 1e-17 of the sum, each at most 3|x|/4 of
    the one before. Below, the closed form's rounding, a few ulps of 1, is
    at most 7e-14 of u > 0.0073. So u is >= 0 and within 1e-13 relative of
    u at the float rho (5.2e-14 measured against a 120-digit reference, the
    worst just below x = -0.3)."""
    if log_rho < -0.3:
        return 2.0 - rho - rho * (log_rho - 1.0) ** 2
    if not log_rho:   # rho = 1, where every pair that does not prune sits
        return 0.0
    s = 0.0
    for c in _U_SERIES:
        s = s * log_rho + c
    return -log_rho ** 3 * s


def pruning_error_factor(rho: float) -> float:
    """Dimensionless pruning error factor 2 - rho - rho*(ln(rho) - 1)^2,
    evaluated without cancellation near rho = 1 (_u).

    Equals 0 at rho=1 and decreases monotonically as rho grows;
    derivative is -(ln rho)^2.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if rho > 1.0:
        raise ValueError("rho must not exceed 1")
    return _u(rho, math.log(rho))


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


def margin_factor(terms: PenaltyTerms, params: AccuracyParams) -> float:
    """The margin factor (w / (c_m s))^e of the penalty, saturated to inf
    where a tiny s or c_m makes it overflow (0 when w is 0): K >= 1 meets
    no accuracy target, so every pair with a nonzero penalty sum stays
    infeasible, as its reasons say."""
    try:
        return (terms.tail_norm / (params.c_m * params.s)) ** params.margin_exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf if terms.tail_norm else 0.0


def penalty_factor(rho: float, q: int, terms: PenaltyTerms,
                   params: AccuracyParams) -> float:
    """Combined accuracy penalty K in bound R0(ps) * (1 - K):

        K = (w / (c_m s))^e * (C*u(rho) + D*v(q))

    with e the margin exponent, C/D/w the split-dependent terms
    (margin_penalty).
    """
    quant = terms.quant_coeff * quant_error_factor(q)
    return margin_penalty(pruning_error_factor(rho), terms.prune_coeff, quant,
                          margin_factor(terms, params))


def margin_penalty(u: float, prune_coeff: float, quant: float, margin: float) -> float:
    """penalty_factor's K = margin*(prune_coeff*u + quant), unchecked, at
    u = pruning_error_factor(rho); 0 where either factor is, even when the
    other is infinite."""
    penalty = prune_coeff * u + quant
    return margin * penalty if penalty and margin else 0.0


def accuracy_lower_bound(alloc, terms: PenaltyTerms, params: AccuracyParams) -> float:
    """Guaranteed classification accuracy of an allocation, clamped at 0.

    `alloc` needs attributes p_s, rho, q (duck-typed to avoid a dependency
    on the cost module).
    """
    k = penalty_factor(alloc.rho, alloc.q, terms, params)
    return max(0.0, ideal_accuracy(alloc.p_s, params) * (1.0 - k))


def sensing_power(rho: float, prune_coeff: float, quant: float, margin: float, r_t: float,
                  a: float, b: float, ceiling: float) -> tuple[float, float, float]:
    """(p_s, dp_s/du, dp_s/drho): the smallest sensing power meeting
    accuracy target r_t at pruning ratio rho, with no cap, and its slopes in
    u and in rho, dp_s/drho = -(ln rho)^2 dp_s/du (u' = -(ln rho)^2), the
    one copy of that chain rule. The seven constants, in this order, are
    the caller's (PairEnergy.inverse), and sensing_power_error and
    pruning_floor take them in the same order: prune_coeff of the split,
    quant = quant_coeff*quant_error_factor(q) of the pair, margin =
    margin_factor(terms, params), the fit's a and b, and ceiling =
    accuracy_ceiling(params). It inverts R0(p_s)*(1 - K) = r_t; with
    T = r_t/(1 - K) the target,

        dp_s/du = (1 + (b p_s)^2) (T/(1 - K)) margin prune_coeff / (a b),

    as dT/dK = T/(1 - K). (inf, inf, -inf) where no sensing power meets r_t
    (K >= 1 or T at the ceiling), p_s's limit there; sensing_power_error
    names why. p_s is convex in rho: T is convex and increasing in K, K is
    convex in rho (u is), and tan is convex and increasing on [0, pi/2). A
    rho outside (0, 1] raises pruning_error_factor's ValueError."""
    if not 0.0 < rho <= 1.0:
        pruning_error_factor(rho)   # raises, but lets a NaN through, as there
    log_rho = math.log(rho)
    k = margin_penalty(_u(rho, log_rho), prune_coeff, quant, margin)
    if k >= 1.0:
        return math.inf, math.inf, -math.inf
    if r_t <= 0.0:
        return 0.0, 0.0, 0.0
    target = r_t / (1.0 - k)
    if target >= ceiling:
        return math.inf, math.inf, -math.inf
    ps = math.tan(target / a) / b
    scale = margin * prune_coeff if prune_coeff else 0.0
    if not scale:
        return ps, 0.0, 0.0
    bp = b * ps
    dp_du = (1.0 + bp * bp) * (target / (1.0 - k)) * scale / a / b
    return ps, dp_du, -(log_rho * log_rho) * dp_du


def sensing_power_error(rho: float, prune_coeff: float, quant: float, margin: float,
                        r_t: float, a: float, b: float, ceiling: float, p_s: float,
                        p_max: float) -> InfeasibleError:
    """The InfeasibleError for p_s = sensing_power(rho, ...)[0] above p_max,
    from sensing_power's seven constants, with K and the target derived
    again and tagged with the first that fails: margin_penalty (K >= 1),
    accuracy_ceiling (the target is not below the ceiling), else
    sensing_power_cap."""
    k = margin_penalty(pruning_error_factor(rho), prune_coeff, quant, margin)
    if k >= 1.0:
        return InfeasibleError("margin_penalty", f"penalty {k:.6g} >= 1")
    target = r_t / (1.0 - k)
    if target >= ceiling:
        return InfeasibleError(
            "accuracy_ceiling",
            f"required ideal accuracy {target:.6g} >= ceiling {ceiling:.6g}",
        )
    return InfeasibleError("sensing_power_cap", f"needs {p_s:.6g} W > {p_max:.6g} W")


def pruning_floor(prune_coeff: float, quant: float, margin: float, r_t: float, a: float,
                  b: float, ceiling: float, ideal: float, p_max: float,
                  floor: float) -> float:
    """Smallest rho >= floor, to the rounding of K, at which sensing_power
    stays within p_max, from its seven constants, in its order, and ideal =
    ideal_accuracy(p_max, params); floor in (0, 1] is not checked. That is
    K <= K* = 1 - r_t/ideal, or u(rho) <= U*, with U* from K(1) =
    margin_penalty(0, ...).

    u is convex and decreasing with derivative -(ln rho)^2, so Newton steps
    from left of the root rise monotonically to it, until a step no longer
    moves rho; each step passes its ln to _u and to the slope. As
    (ln s)^2 >= (1 - s)^2 on (0, 1], u(rho) >= (1 - rho)^3/3, so the steps
    start at the larger of `floor` and 1 - (3 U*)^(1/3); when U* < 0 no
    rho < 1 qualifies (u >= 0). Upward probes, one ln each, with steps that
    double, then close the gap that rounding leaves: K and K* round by
    about K_ROUNDING, which moves the root by K_ROUNDING/(scale (ln rho)^2),
    so the probes start that step above a root the steps rose to (at rho,
    with a step of an ulp, elsewhere). Each probe compares sensing_power
    with p_max and constructs no error; where the probe at rho = 1 misses
    p_max too, no rho in [floor, 1] is feasible, and sensing_power_error
    names its reason.
    """
    scale = margin * prune_coeff if prune_coeff else 0.0
    rho, step = floor, 0.0
    if scale > 0.0 and r_t < ideal:
        u_star = (1.0 - r_t / ideal - margin_penalty(0.0, prune_coeff, quant, margin)) / scale
        if u_star < 0.0:
            rho = 1.0
        elif 3.0 * u_star < 1.0:
            rho = max(floor, 1.0 - (3.0 * u_star) ** (1.0 / 3.0))
        while rho < 1.0:
            log_rho = math.log(rho)
            newton = (_u(rho, log_rho) - u_star) / log_rho ** 2
            if not rho + newton > rho:
                if rho > floor:
                    step = K_ROUNDING / (scale * log_rho ** 2)
                    rho = min(rho + step, 1.0)
                break
            rho = min(rho + newton, 1.0)
    step = max(step, math.ulp(rho))
    while True:
        p_s = sensing_power(rho, prune_coeff, quant, margin, r_t, a, b, ceiling)[0]
        if not p_s > p_max:
            return rho
        if rho >= 1.0:
            raise sensing_power_error(rho, prune_coeff, quant, margin, r_t, a, b, ceiling,
                                      p_s, p_max)
        rho = min(rho + step, 1.0)
        step *= 2.0


def fit_accuracy_curve(samples):
    """Least-squares (a, b) fit of accuracy = a*arctan(b*power).

    For fixed b the optimal a is closed-form; b minimizes the residual over
    log10(b) in FIT_B_BRACKET (residual assumed unimodal there), by Brent's
    method from the two evaluated ends of the bracket to a log10(b) bracket
    FIT_LOGB_TOL wide. Input: iterable of (power, accuracy) pairs.

    Raises ValueError when the fitted a breaks the accuracy cap
    a*pi/2 <= 1 that AccuracyParams enforces: samples that all lie in
    atan's near-linear range (b*power about 1 or less) fix only the
    product a*b, and the search then runs toward the small-b end.
    """
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

    lo, hi = math.log10(FIT_B_BRACKET[0]), math.log10(FIT_B_BRACKET[1])
    logb = brent(residual_logb, lo, hi, residual_logb(lo), residual_logb(hi), FIT_LOGB_TOL)
    b = 10.0**logb
    a = a_closed_form(b)
    if a * math.pi / 2.0 > 1.0 + A_CAP_SLACK:
        raise ValueError(
            f"fitted a = {a:.6g}, b = {b:.6g} breaks the accuracy cap a*pi/2 <= 1 "
            f"(largest b*power {b * max(powers):.3g}); samples in atan's near-linear "
            "range (b*power about 1 or less) fix only the product a*b: add samples "
            "at powers where the accuracy levels off")
    return a, b
