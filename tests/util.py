"""Helpers shared between the solver tests and the acceptance suite."""

import functools
import math
from dataclasses import replace

from isccopt.config import build_config
from isccopt.solvers import min_rate_time


@functools.cache
def stock_config():
    """The stock run configuration: DEFAULT_CONFIG with no overrides."""
    return build_config({})


def make_scenario(**kw):
    """The stock scenario with the given fields replaced."""
    return replace(stock_config().scenario, **kw)


def t_stationary_rootfind(mu1, g_over_bn0, tol=1e-14):
    """Reference for the stationary inverse rate of multiplier mu1: direct
    monotone root-finding of the stationarity residual
    (1 - z)e^z = 1 - mu1*g_over_bn0 in z = ln2/t."""
    target = 1.0 - mu1 * g_over_bn0

    def psi(z):
        return (1.0 - z) * math.exp(z)

    lo, hi = 0.0, 1.0
    for _ in range(400):
        if psi(hi) <= target:
            break
        hi *= 2.0
    else:
        raise ValueError("stationarity bracket failure")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if psi(mid) > target:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    return math.inf if z == 0.0 else math.log(2.0) / z


def pc_objective(ctx, sc, t, nu):
    """Communication plus computation energy at inverse rate t, frequency nu."""
    return ctx.a1 * math.expm1(math.log(2.0) / t) * t / sc.g_over_bn0 \
        + sc.kappa * ctx.a2 * nu**2


def kkt_residuals(ctx, sc, sol):
    """Relative stationarity and complementary-slackness residuals of a
    power/frequency solution."""
    g = sc.g_over_bn0
    z = math.log(2.0) / sol.t
    phi_t = (ctx.a1 / g) * (math.exp(z) * (1.0 - z) - 1.0)
    mu2 = 0.0
    t_min = min_rate_time(sc)
    if sol.t <= t_min * (1 + 1e-9):
        mu2 = phi_t + sol.mu1 * ctx.a1
    stat_t = phi_t + sol.mu1 * ctx.a1 - mu2
    scale_t = max(abs(phi_t), sol.mu1 * ctx.a1, 1e-300)
    mu3 = 0.0
    if sol.nu_e >= sc.nu_max * (1 - 1e-9):
        mu3 = sol.mu1 * ctx.a2 / sol.nu_e**2 - 2 * sc.kappa * ctx.a2 * sol.nu_e
    stat_nu = 2 * sc.kappa * ctx.a2 * sol.nu_e - sol.mu1 * ctx.a2 / sol.nu_e**2 + mu3
    scale_nu = max(2 * sc.kappa * ctx.a2 * sol.nu_e, 1e-300)
    comp2 = mu2 * (t_min - sol.t)
    comp3 = mu3 * (sol.nu_e - sc.nu_max)
    return (abs(stat_t) / scale_t, abs(stat_nu) / scale_nu,
            abs(comp2) / max(abs(mu2) * t_min, 1e-300) if mu2 else 0.0,
            abs(comp3) / max(abs(mu3) * sc.nu_max, 1e-300) if mu3 else 0.0)
