"""Scalar numerical kernels (Lambert W, golden-section search) and the KKT
closed form for the communication-power / edge-frequency subproblem."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cost import Scenario
from .errors import InfeasibleError

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # bracket contraction factor
LN2 = math.log(2.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function (w*e^w = x, w >= -1).

    Seeded Halley iteration: near the branch point -1/e a series in
    p = sqrt(2(e*x + 1)) seeds (and for tiny p directly returns) the root;
    large arguments start from the asymptotic log(x) - log(log(x)).
    Residual |w*e^w - x| converges to ~1e-16 * max(1, |x|). Stops when the
    step falls below rounding or stops shrinking (near the branch point the
    step test alone sits below rounding).
    """
    if math.isnan(x):
        raise ValueError("lambert_w0: nan argument")
    branch = -1.0 / math.e
    if x < branch:
        if x > branch * (1.0 + 1e-12):  # rounding fuzz at the branch point
            x = branch
        else:
            raise InfeasibleError("lambert_domain", f"x={x} < -1/e")
    p_sq = 2.0 * (math.e * x + 1.0)
    if p_sq <= 0.0:
        return -1.0
    if p_sq < 1e-6:
        # series about the branch point; error O(p^5) ~ 1e-15
        p = math.sqrt(p_sq)
        return -1.0 + p - p_sq / 3.0 + 11.0 / 72.0 * p * p_sq
    if x < 0.25:
        p = math.sqrt(p_sq)
        w = -1.0 + p - p_sq / 3.0 + 11.0 / 72.0 * p * p_sq
    elif x < math.e:
        w = math.log1p(x) * 0.7
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    prev = math.inf
    for _ in range(100):
        ew = math.exp(w)
        resid = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * resid / (2.0 * w + 2.0)
        dw = resid / denom
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)) or abs(dw) >= prev:
            break
        prev = abs(dw)
    return w


def golden_section(f, lb: float, ub: float, eps: float, stop=None) -> float | None:
    """Argmin of a unimodal function on [lb, ub] by golden-section search.

    Shrinks the bracket by the golden ratio until its width is at most eps
    (or rounding stops it shrinking) and returns the midpoint; exactly one
    new function evaluation per iteration. Non-finite function values raise.
    If given, `stop(lb, x1, x2, ub)` is asked with the bracket and its two
    evaluated interior points before each shrink; the search returns None
    as soon as it answers true.
    """
    if not lb < ub:
        raise ValueError(f"need lb < ub, got [{lb}, {ub}]")
    if not eps > 0:
        raise ValueError(f"need eps > 0, got {eps}")
    x1 = lb + (1.0 - INV_GOLDEN) * (ub - lb)
    x2 = lb + INV_GOLDEN * (ub - lb)
    f1, f2 = f(x1), f(x2)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise ValueError("non-finite objective value in golden-section search")
    width = math.inf
    while eps < ub - lb < width:
        if stop is not None and stop(lb, x1, x2, ub):
            return None
        width = ub - lb
        if f1 < f2:
            ub, x2, f2 = x2, x1, f1
            x1 = lb + (1.0 - INV_GOLDEN) * (ub - lb)
            f1 = f(x1)
            if not math.isfinite(f1):
                raise ValueError("non-finite objective value in golden-section search")
        else:
            lb, x1, f1 = x1, x2, f2
            x2 = lb + INV_GOLDEN * (ub - lb)
            f2 = f(x2)
            if not math.isfinite(f2):
                raise ValueError("non-finite objective value in golden-section search")
    return 0.5 * (lb + ub)


@dataclass(frozen=True)
class SubproblemContext:
    """Constants of the power/frequency subproblem: a1 = payload/bandwidth
    (seconds per inverse-rate unit), a2 = edge FLOPs, t2 = latency budget
    left after sensing and server compute."""

    a1: float
    a2: float
    t2: float

    def __post_init__(self):
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError("a1 and a2 must be positive")
        if not math.isfinite(self.t2):
            raise ValueError("t2 must be finite")


@dataclass(frozen=True)
class PowerFreqSolution:
    p_c: float
    nu_e: float
    t: float       # inverse spectral efficiency 1/log2(1+SNR)
    mu1: float     # multiplier of the latency constraint


def min_rate_time(sc: Scenario) -> float:
    """Smallest admissible inverse spectral efficiency, reached at p_max."""
    return 1.0 / math.log2(1.0 + sc.g_over_bn0 * sc.p_max)


def solve_pc_nue(ctx: SubproblemContext, sc: Scenario,
                 rel_tol: float = 1e-10, max_iter: int = 500) -> PowerFreqSolution:
    """Jointly optimal communication power and edge frequency.

    The latency constraint a1*t + a2/nu_e <= t2 is always active at the
    optimum (energy falls monotonically toward the deadline), so the
    multiplier mu1 solves lat(mu1) = t2 on the monotone latency map

        t(mu1)    = max(ln2 / (1 + W((mu1 * g_over_bn0 - 1)/e)), t_min)
        nu_e(mu1) = min(nu_max, (mu1 / (2*kappa))^(1/3)),

    where ln2 / (1 + W(.)) (principal branch) is the inverse rate solving
    the energy/latency stationarity condition. Safeguarded Newton steps on
    z = log(mu1) find the root, with the analytic derivative
    dW/du = 1/(e^W (1 + W)). They start at mu1 = 2*kappa*(a2/t2)^3, where
    a2/nu_e = t2 alone, so the start is at or below the root; the top of
    the bracket is the multiplier from which both t and nu_e sit at their
    bounds. A step leaving the bracket is replaced by bisection. Stops when
    the latency matches t2 within rel_tol. Infeasible when even
    (p_max, nu_max) misses the deadline.
    """
    g = sc.g_over_bn0
    t_min = min_rate_time(sc)
    floor = ctx.a1 * t_min + ctx.a2 / sc.nu_max
    if floor > ctx.t2 * (1.0 + 1e-12):
        raise InfeasibleError(
            "latency_budget",
            f"best achievable latency {floor:.6g} s > budget {ctx.t2:.6g} s")
    two_kappa = 2.0 * sc.kappa
    # the stationary inverse rate reaches t_min where 1 + W = ln(1 + g*p_max)
    snr = 1.0 + g * sc.p_max
    mu_top = max(two_kappa * sc.nu_max**3, (snr * (math.log(snr) - 1.0) + 1.0) / g)
    z_lo, z_hi = math.log(two_kappa * (ctx.a2 / ctx.t2) ** 3), math.log(mu_top)
    z = z_lo
    for _ in range(max_iter):
        mu1 = math.exp(z)
        nu = (mu1 / two_kappa) ** (1.0 / 3.0)
        slope = 0.0   # d lat / d z
        if nu < sc.nu_max:
            slope -= ctx.a2 / (3.0 * nu)
        else:
            nu = sc.nu_max
        w = lambert_w0((mu1 * g - 1.0) / math.e)
        if (1.0 + w) * t_min >= LN2:
            t = t_min
        elif w > -1.0:
            t = LN2 / (1.0 + w)
            slope -= ctx.a1 * t * mu1 * g / (math.exp(w + 1.0) * (1.0 + w) ** 2)
        else:
            t = math.inf
        lat = ctx.a1 * t + ctx.a2 / nu
        if abs(lat - ctx.t2) <= rel_tol * ctx.t2:
            break
        if lat > ctx.t2:
            z_lo = z
        else:
            z_hi = z
        step = (lat - ctx.t2) / slope if slope < 0.0 else math.nan
        z = z - step if z_lo < z - step < z_hi else 0.5 * (z_lo + z_hi)
    else:
        raise InfeasibleError("bisection_bracket",
                              f"latency {lat:.12g} s vs budget {ctx.t2:.12g} s")
    p_c = math.expm1(LN2 / t) / g
    return PowerFreqSolution(p_c=p_c, nu_e=nu, t=t, mu1=mu1)
