"""Brent's method, the one scalar minimizer (the pair search and the
accuracy-curve fit), and the KKT solve of the communication-power /
edge-frequency subproblem."""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import InfeasibleError

if TYPE_CHECKING:
    from .cost import Scenario

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # bracket contraction factor
LN2 = math.log(2.0)
# power_freq stops when the latency is within KKT_REL_TOL of the budget,
# and gives up after KKT_MAX_ITER steps
KKT_REL_TOL = 1e-10
KKT_MAX_ITER = 500


def brent_steps(f, lb: float, ub: float, f_lb: float, f_ub: float, eps: float):
    """Brent's method for the argmin of a unimodal function on [lb, ub],
    given its values f_lb, f_ub at the ends, as a generator: it yields the
    evaluated points in its current bracket, ascending, before each
    evaluation of f, and returns the evaluated point of least value (the
    smallest on ties).

    Keeps a bracket [a, b] whose ends are evaluated points and the best
    interior point x, starting from the golden-section point of [lb, ub].
    Each step evaluates f once inside the bracket and cuts it there or at
    x, so the points evaluated inside [a, b] are a, x and b: the first
    yield is (lb, ub), each later one the distinct points of (a, x, b),
    which is (a, b) where a step of rounding size leaves x on an end. A
    step evaluates f at the vertex of the parabola through x and two
    earlier points when that lies inside the bracket and moves less than
    half the step before last, otherwise at the golden-section point of
    the larger side of x; no step is shorter than eps/3. Stops when the
    bracket is at most eps wide (or rounding stops it shrinking), so a
    bracket no wider than eps returns with no yield. Non-finite values
    raise. A caller may stop asking for steps at any yield.
    """
    if not lb <= ub:
        raise ValueError(f"need lb <= ub, got [{lb}, {ub}]")
    if not eps > 0:
        raise ValueError(f"need eps > 0, got {eps}")
    seen = {}   # every evaluated point and its value

    def value(x, fx):
        if not math.isfinite(fx):
            raise ValueError("non-finite objective value in Brent's search")
        seen[x] = fx
        return fx

    value(lb, f_lb)
    value(ub, f_ub)
    a, b, tol, width = lb, ub, eps / 3.0, math.inf
    if eps < b - a:
        yield lb, ub
        # x: the interior point of least value; w, v: the other two points
        # the parabola passes through (the better and the worse end at
        # first); d, e: the last step and the one before (none yet, so the
        # first step is golden)
        x = a + (1.0 - INV_GOLDEN) * (b - a)
        fx = value(x, f(x))
        (fw, w), (fv, v) = sorted([(f_lb, lb), (f_ub, ub)])
        d = e = 0.0
    while eps < b - a < width:
        yield (a, x, b) if a < x < b else (a, b)
        width = b - a
        # the parabola's vertex is x + p/q
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:   # keep off the ends
                d = math.copysign(tol, a + b - 2.0 * x)
        else:
            e = (a if x >= 0.5 * (a + b) else b) - x
            d = (1.0 - INV_GOLDEN) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = value(u, f(u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return min(seen, key=lambda x: (seen[x], x))


def brent(f, lb: float, ub: float, f_lb: float, f_ub: float, eps: float) -> float:
    """brent_steps run to its end: the argmin it returns."""
    steps = brent_steps(f, lb, ub, f_lb, f_ub, eps)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def min_rate_time(sc: Scenario) -> float:
    """Smallest admissible inverse spectral efficiency 1/log2(1 + SNR),
    reached at p_max, through log1p, as cost.comm_rate takes the rate."""
    return LN2 / math.log1p(sc.g_over_bn0 * sc.p_max)


def check_deadline(a1: float, a2: float, t2: float, t_min: float, nu_max: float) -> None:
    """Raise InfeasibleError (latency_budget) when even (p_max, nu_max)
    misses the budget: a1*t_min + a2/nu_max > t2 beyond rounding, or
    t2 <= 0. t_min is min_rate_time(sc)."""
    floor = a1 * t_min + a2 / nu_max
    if floor > t2 * (1.0 + 1e-12) or t2 <= 0:
        raise InfeasibleError(
            "latency_budget",
            f"best achievable latency {floor:.6g} s > budget {t2:.6g} s")


def _mu1_ratio(z: float, exp_z: float) -> float:
    """(z*e^z - expm1(z)) / z^2, i.e. g_over_bn0*mu1(z)/z^2 (see
    power_freq), given exp_z = e^z; its Taylor series below z = 1e-3,
    where the difference cancels (either is within 1e-12 relative)."""
    if z > 1e-3:
        return (z * exp_z - math.expm1(z)) / (z * z)
    return 0.5 + z * (1.0 / 3.0 + z * (0.125 + z / 30.0))


def power_freq(a1: float, a2: float, t2: float, t_min: float, g: float, kappa: float,
               p_max: float, nu_max: float) -> tuple[float, float, float, float, float, float]:
    """Jointly optimal communication power and edge frequency: the least
    a1*t*p_c + kappa*a2*nu_e^2 subject to a1*t + a2/nu_e <= t2, where a1 is
    payload/bandwidth, a2 the edge FLOPs, t2 the latency budget left after
    sensing and server compute, and t = 1/log2(1 + g*p_c). The scenario's
    constants come as plain floats: t_min = min_rate_time(sc), g =
    g_over_bn0, kappa, p_max and nu_max.

    Returns (p_c, nu_e, t, mu1, energy, slope): t is the inverse spectral
    efficiency 1/log2(1 + SNR), mu1 the multiplier of the latency
    constraint, energy = p_c*a1*t + kappa*a2*nu_e^2, and slope the
    derivative of the least energy in a2, kappa*nu_e^2 + mu1/nu_e by the
    envelope theorem (3*kappa*nu_e^2 where mu1 = 2*kappa*nu_e^3, with no
    division), or 0 at a2 = 0, where the least energy, convex and
    nondecreasing in a2, has the subgradient 0. The Newton loop writes
    _mu1_ratio out, so a step makes no Python call.

    Infeasible when even (p_max, nu_max) misses the deadline
    (check_deadline). Nothing uploaded (a1 = 0): p_c = p_max and nu_e is
    the slowest frequency that meets the budget, mu1 = 2*kappa*nu_e^3 (0
    when a2 = 0 too, as the deadline is then slack). The upload never
    stretches past t_normal, the longest finite t (and at least t_min) at
    which p_c = expm1(ln2/t)/g is twice the least normal float or more;
    where the latency there is still under t2, the deadline is slack, the
    upload takes t_normal, and its energy is at its limit a1*ln2/g to
    rounding.
    Nothing computed on the edge (a2 = 0): the upload stretches to the
    budget (or t_normal) at nu_e = nu_max, and mu1 is the multiplier
    mu1(z) below.

    Otherwise the latency constraint is active at the optimum (energy falls
    monotonically toward the deadline). In the spectral efficiency
    z = ln2/t, stationarity in t gives the latency multiplier in closed
    form, and the frequency follows from it:

        mu1(z)  = (z*e^z - expm1(z)) / g_over_bn0
        nu_e(z) = min(nu_max, (mu1(z) / (2*kappa))^(1/3)).

    The latency a1*t + a2/nu_e(z) rises strictly with t on [t_min, t2/a1].
    If it already reaches t2 at t_min, that bound binds: the upload runs at
    p_max, the edge takes the rest of the budget, nu_e = a2/(t2 - a1*t_min),
    and mu1 = 2*kappa*nu_e^3; so it does where 2*kappa*g overflows, as
    nu_e(z) then rounds to 0. Otherwise Newton steps in t with the analytic
    slope solve latency = t2 from t_min (from t_normal where t2/a1 is
    longer, as the bracket's top); a step leaving the bracket is
    replaced by bisection in z. Stops when the latency matches t2 within
    KKT_REL_TOL.
    """
    if not (a1 >= 0.0 and a2 >= 0.0 and math.isfinite(t2)):
        raise ValueError(f"need a1 >= 0, a2 >= 0 and a finite t2, got {a1}, {a2}, {t2}")
    check_deadline(a1, a2, t2, t_min, nu_max)
    two_kappa = 2.0 * kappa
    if a1 == 0.0:
        if not a2:   # nothing uploaded or computed; nu_max**2 may overflow
            return p_max, nu_max, t_min, 0.0, 0.0, 0.0
        nu = min(a2 / t2, nu_max)
        return p_max, nu, t_min, two_kappa * nu**3, kappa * a2 * nu**2, 3.0 * kappa * nu * nu
    # past t_normal, p_c = expm1(ln2/t)/g falls below twice the least
    # normal float; the upload then stops at t_normal, kept finite and at
    # least t_min (the min and max are paid only there)
    t_normal = LN2 / (2.0 * sys.float_info.min) / g
    if a2 == 0.0:
        t, busy = max(t2 / a1, t_min), t2
        if not t < t_normal:
            t = max(min(t_normal, sys.float_info.max), t_min)
            busy = a1 * t
        z = LN2 / t
        p_c = math.expm1(z) / g
        return p_c, nu_max, t, z * z * _mu1_ratio(z, math.exp(z)) / g, p_c * busy, 0.0
    two_kappa_g = two_kappa * g
    # at t2/a1 the upload alone fills the budget; past t_normal the search
    # starts at t_normal, and stops there where the deadline is slack
    t_lo, t_hi, t = t_min, t2 / a1, t_min
    if not t_hi < t_normal:
        t_hi = t = max(min(t_normal, sys.float_info.max), t_min)
    for _ in range(KKT_MAX_ITER):
        z = LN2 / t
        exp_z = math.exp(z)
        # _mu1_ratio(z, exp_z), written out: a call per step costs 1.5% of
        # the solve time
        r = ((z * exp_z - math.expm1(z)) / (z * z) if z > 1e-3
             else 0.5 + z * (1.0 / 3.0 + z * (0.125 + z / 30.0)))
        # (mu1/(2*kappa))^(1/3), with z^2 kept out of the root: it rounds to
        # 0 only where 2*kappa*g overflows, and the latency is then unbounded
        nu = z ** (2.0 / 3.0) * (r / two_kappa_g) ** (1.0 / 3.0)
        if not nu < nu_max:
            nu = nu_max
        lat = a1 * t + a2 / nu if nu else math.inf
        if abs(lat - t2) <= KKT_REL_TOL * t2:
            break
        if lat < t2:
            if t == t_hi:   # at t_normal, with the deadline slack
                break
            t_lo = t
        elif t > t_lo and nu:
            t_hi = t
        else:
            # the latency misses t2 even at t = t_min (or at every t, where
            # nu rounds to 0), so that bound binds: upload at p_max, the
            # edge takes the rest of the budget
            nu = a2 / max(t2 - a1 * t_min, a2 / nu_max)
            return (p_max, nu, t_min, two_kappa * nu**3,
                    p_max * a1 * t_min + kappa * a2 * nu**2, 3.0 * kappa * nu * nu)
        # d lat / d t
        slope = a1 + a2 * z * exp_z / (3.0 * LN2 * r * nu) if nu < nu_max else a1
        t -= (lat - t2) / slope
        if not t_lo < t < t_hi:
            t = 2.0 / (1.0 / t_lo + 1.0 / t_hi)   # bisect z
    else:
        raise InfeasibleError("bisection_bracket",
                              f"latency {lat:.12g} s vs budget {t2:.12g} s")
    p_c = math.expm1(z) / g
    mu1 = z * z * r / g
    return p_c, nu, t, mu1, p_c * a1 * t + kappa * a2 * nu**2, kappa * nu * nu + mu1 / nu
