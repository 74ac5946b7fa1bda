"""Helpers shared between the solver tests and the acceptance suite."""

import decimal
import functools
import math
import sys
import types
import warnings
from dataclasses import replace

import numpy as np

from isccopt import accuracy, netmodel, optimizer, oracles, sensing, solvers
from isccopt.accuracy import (FIT_B_BRACKET, FIT_LOGB_TOL, accuracy_ceiling, ideal_accuracy,
                              margin_factor, penalty_factor, pruning_error_factor, pruning_floor,
                              quant_error_factor, sensing_power, sensing_power_error)
from isccopt.config import build_config
from isccopt.errors import InfeasibleError
from isccopt.quant import quantize_vector
from isccopt.solvers import INV_GOLDEN, LN2, _mu1_ratio, check_deadline, min_rate_time


# criterion 06's unimodal functions: (f, lb, ub, argmin)
UNIMODAL_BATTERY = [
    (lambda x: (x - 2.0) ** 2, 0.0, 5.0, 2.0),
    (lambda x: abs(x - math.pi), 0.0, 6.0, math.pi),
    (lambda x: 3.0 * (1.3 - x) if x < 1.3 else (x - 1.3) ** 1.5, 0.0, 4.0, 1.3),
    (lambda x: -x, 0.0, 1.0, 1.0),   # boundary minimum at ub
    (lambda x: x, 0.0, 1.0, 0.0),    # boundary minimum at lb
    (lambda x: math.exp(x) - 2.0 * x, 0.0, 2.0, math.log(2.0)),
]


def golden_section(f, lb, ub, eps):
    """Reference for solvers.brent: argmin of a unimodal function on
    [lb, ub] by golden-section search.

    Shrinks the bracket by the golden ratio until its width is at most eps
    (or rounding stops it shrinking) and returns the midpoint; exactly one
    new function evaluation per iteration. Non-finite function values raise.
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


def fit_residual(samples, b):
    """(a, residual) of the least-squares fit of accuracy = a*arctan(b*power)
    at a fixed b, with a in closed form: the expressions
    accuracy.fit_accuracy_curve minimizes."""
    num = den = 0.0
    for p, y in samples:
        t = math.atan(b * p)
        num += y * t
        den += t * t
    a = num / den if den > 0 else 0.0
    return a, sum((y - a * math.atan(b * p)) ** 2 for p, y in samples)


def fit_accuracy_curve_golden(samples):
    """Reference for accuracy.fit_accuracy_curve: the same fit with b found
    by golden-section search on the residual over log10(b) in FIT_B_BRACKET,
    to FIT_LOGB_TOL."""
    samples = [(float(p), float(y)) for p, y in samples]
    lo, hi = (math.log10(b) for b in FIT_B_BRACKET)
    logb = golden_section(lambda x: fit_residual(samples, 10.0**x)[1], lo, hi,
                          FIT_LOGB_TOL)
    b = 10.0**logb
    return fit_residual(samples, b)[0], b


# the stock sweeps (optimizer.apply_axis's axes): the tests' and identity.py's
SWEEPS = {"t_max": [0.5001, 0.51, 0.55, 0.6, 0.8, 1.0, 1.2, 1.4, 2.0],
          "r_t": [0.0, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99],
          "snr": [1.0, 10.0, 50.0, 100.0, 500.0, 1000.0]}


@functools.cache
def stock_config():
    """The stock run configuration: DEFAULT_CONFIG with no overrides."""
    return build_config({})


def make_scenario(**kw):
    """The stock scenario with the given fields replaced."""
    return replace(stock_config().scenario, **kw)


def halve_sensing_power(monkeypatch, when=lambda origin, sc: True):
    """Make the solver return answers that fail their accuracy check:
    optimizer.sensing_power gives half the accuracy inverse, and half its
    slopes in u and in rho, in the solves of the (origin, scenario) pairs
    that `when` selects. E and the surrogate bound read the one kernel, so
    the bounds stay below the halved E."""
    inverse, solve = optimizer.sensing_power, optimizer._enumerate
    active = [False]

    def enumerate_(net, sc, ap, origin):
        active[0] = when(origin, sc)
        return solve(net, sc, ap, origin)

    def halved(*args):
        p_s, dp_du, dp_s = inverse(*args)
        return (0.5 * p_s, 0.5 * dp_du, 0.5 * dp_s) if active[0] else (p_s, dp_du, dp_s)

    monkeypatch.setattr(optimizer, "_enumerate", enumerate_)
    monkeypatch.setattr(optimizer, "sensing_power", halved)


def record_math(monkeypatch, module, *names):
    """Record the calls that `module` makes to the math functions `names`:
    its `math` becomes a namespace of the same functions, with each of
    `names` logging its argument (the tuple of them, for two or more).
    Returns {name: [argument, ...]}. u(rho) takes one ln and the arctan
    inverse one tan, so these math calls show how often the kernels
    evaluate each."""
    calls = {name: [] for name in names}
    space = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                     if not k.startswith("_")})

    def logged(fn, log):
        return lambda *args: log.append(args[0] if len(args) == 1 else args) or fn(*args)

    for name in names:
        setattr(space, name, logged(getattr(math, name), calls[name]))
    monkeypatch.setattr(module, "math", space)
    return calls


def flops(layer, rho=1.0):
    """Floating point operations to compute one layer at pruning ratio rho,
    the per-layer count that netmodel's FLOP table sums:

    conv: (2*gamma_prev*psi^2*rho - 1)*alpha*beta*gamma
    mp:   alpha*beta*gamma*psi^2          (rho ignored)
    fc:   (2*n_prev*rho - 1)*n

    Degenerate negative values (tiny layers at small rho) clamp to 0.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    slope, intercept = netmodel.flops_affine(layer)
    return max(slope * rho + intercept, 0.0)


def finish(steps):
    """Run a search generator (solvers.brent_steps, PairEnergy.steps) to
    its end and return what it returns."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def solve_pair(l, q, net, sc, ap):
    """Reference for one pair of optimizer._enumerate: the least-energy
    allocation of the pair (l, q), checked on the split l.

    Minimizes E(rho) of PairEnergy by Brent's method over [rho_min, rho_max]
    (PairEnergy.steps run to its end). Raises InfeasibleError when no rho is
    feasible, and CheckError when the answer fails its check.
    """
    energy = optimizer.PairEnergy(optimizer.Split(net, sc, ap, l), q)
    return optimizer._answer(energy, finish(energy.steps()), "proposed", {l})


def bracketed(energy):
    """Run a fresh pair's search (PairEnergy.steps) through its bracket:
    the keys it yields before E at the bracket's bottom end (the relaxed
    bound first, then the rising keys of the surrogate bound, then the
    seed's lower_bound where E'(seed) <= 0), the bracket (rho_min, rho_max)
    it evaluated E at, and its first yield after it, None where the search
    returned there. A search that returns at the top (E'(top) <= 0) has
    the bracket (top, top). Raises the InfeasibleError the search raises."""
    keys, s = [], energy.split
    for key in energy.steps():
        if energy.points:
            top = next(iter(energy.points))   # the first point E records
            rho_min = min(top, pruning_floor(*energy.inverse, s.ideal, s.p_max,
                                             optimizer.RHO_FLOOR))
            if rho_min in energy.points:
                return keys, rho_min, top, key
        keys.append(key)
    return keys, min(energy.points), max(energy.points), None


def unseeded_pair(energy):
    """The golden-start reference for one pair's search: Brent's method
    (solvers.brent) on [rho_min, rho_max] from the golden-section point,
    with no seed and no early return at the top, on the fresh PairEnergy
    `energy` (a pair that prunes). Returns the argmin; raises what E
    raises at the ends."""
    s = energy.split
    top = energy.rho_max()
    e_top = energy(top)
    rho_min = min(top, pruning_floor(*energy.inverse, s.ideal, s.p_max, optimizer.RHO_FLOOR))
    return solvers.brent(energy, rho_min, top, energy(rho_min), e_top, optimizer.EPS_RHO)


def outcome(f, *args):
    """repr of what f returns (equal reprs are equal bits), or the reason
    and message of the InfeasibleError it raises."""
    try:
        return repr(f(*args))
    except InfeasibleError as err:
        return err.reason, str(err)


def inverse_at(q, terms, params, r_t):
    """The seven constants of accuracy.sensing_power, in its order, that
    PairEnergy binds as `inverse`, computed from (q, terms, params, r_t)."""
    return (terms.prune_coeff, terms.quant_coeff * quant_error_factor(q),
            margin_factor(terms, params), r_t, params.a, params.b, accuracy_ceiling(params))


def sensing_power_at(rho, q, terms, params, r_t, p_max):
    """accuracy.sensing_power at pair bits q under the cap p_max, with the
    constants that PairEnergy binds computed from (q, terms, params):
    the power, or the InfeasibleError that sensing_power_error names
    where it is above p_max."""
    inverse = inverse_at(q, terms, params, r_t)
    p_s = sensing_power(rho, *inverse)[0]
    if p_s > p_max:
        raise sensing_power_error(rho, *inverse, p_s, p_max)
    return p_s


def pruning_floor_at(q, terms, params, r_t, p_max, floor):
    """accuracy.pruning_floor at pair bits q, with the constants that
    PairEnergy.steps binds computed from (q, terms, params)."""
    return pruning_floor(*inverse_at(q, terms, params, r_t), ideal_accuracy(p_max, params),
                         p_max, floor)


def u_error(rho):
    """Relative error of accuracy.pruning_error_factor at the float rho
    against u(rho) = 2 - rho - rho*(ln rho - 1)^2 in 120-digit decimal
    arithmetic, a reference that shares no code with accuracy._u (the
    absolute error where u is 0, at rho = 1)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        r = decimal.Decimal(rho)
        want = 2 - r - r * (r.ln() - 1) ** 2
        got = decimal.Decimal(pruning_error_factor(rho))
        return float(abs((got - want) / want) if want else abs(got))


def kkt_args(sc):
    """The scenario constants of solvers.power_freq after (a1, a2, t2)."""
    return min_rate_time(sc), sc.g_over_bn0, sc.kappa, sc.p_max, sc.nu_max


def min_sensing_power_composed(rho, q, terms, params, r_t, p_max):
    """Reference for accuracy.sensing_power: the least sensing power
    composed of penalty_factor's K, accuracy_ceiling and the arctan
    inverse, the functions that the kernel writes out."""
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
    ps = 0.0 if target <= 0.0 else math.tan(target / params.a) / params.b
    if ps > p_max:
        raise InfeasibleError("sensing_power_cap", f"needs {ps:.6g} W > {p_max:.6g} W")
    return ps


def solve_pc_nue_reference(a1, a2, t2, sc):
    """Reference for solvers.power_freq: its (p_c, nu_e, t, mu1, energy,
    slope) with the scenario read at each use, check_deadline and _mu1_ratio
    called, and the KKT stopping constants read from `solvers` at the
    call."""
    if not (a1 >= 0.0 and a2 >= 0.0 and math.isfinite(t2)):
        raise ValueError(f"need a1 >= 0, a2 >= 0 and a finite t2, got {a1}, {a2}, {t2}")
    g = sc.g_over_bn0
    t_min = min_rate_time(sc)
    check_deadline(a1, a2, t2, t_min, sc.nu_max)
    two_kappa = 2.0 * sc.kappa
    if a1 == 0.0:
        nu = min(a2 / t2, sc.nu_max) if a2 else sc.nu_max
        return (sc.p_max, nu, t_min, two_kappa * nu**3 if a2 else 0.0, sc.kappa * a2 * nu**2,
                3.0 * sc.kappa * nu * nu if a2 else 0.0)
    # the longest upload, at which p_c = expm1(ln2/t)/g is at least twice
    # the least normal float, and the upload time past which it stops there
    t_normal = max(min(LN2 / (2.0 * sys.float_info.min) / g, sys.float_info.max), t_min)
    t_stop = LN2 / (2.0 * sys.float_info.min) / g
    if a2 == 0.0:
        # the upload takes the budget, or t_normal where that is longer
        t = max(t2 / a1, t_min)
        busy = t2 if t < t_stop else a1 * t_normal
        t = t if t < t_stop else t_normal
        z = LN2 / t
        p_c = math.expm1(z) / g
        return p_c, sc.nu_max, t, z * z * _mu1_ratio(z, math.exp(z)) / g, p_c * busy, 0.0
    t_lo, t_hi, t = t_min, t2 / a1, t_min
    if t_hi >= t_stop:
        t_hi = t = t_normal
    for _ in range(solvers.KKT_MAX_ITER):
        z = LN2 / t
        exp_z = math.exp(z)
        r = _mu1_ratio(z, exp_z)
        nu = z ** (2.0 / 3.0) * (r / (two_kappa * g)) ** (1.0 / 3.0)
        slope = a1
        if nu < sc.nu_max:
            slope += a2 * z * exp_z / (3.0 * LN2 * r * nu)
        else:
            nu = sc.nu_max
        lat = a1 * t + a2 / nu
        if abs(lat - t2) <= solvers.KKT_REL_TOL * t2:
            break
        if lat < t2 and t == t_hi:
            break   # the deadline is slack at t_normal
        if lat < t2:
            t_lo = t
        elif t > t_lo:
            t_hi = t
        else:
            nu = a2 / max(t2 - a1 * t_min, a2 / sc.nu_max)
            return (sc.p_max, nu, t_min, two_kappa * nu**3,
                    sc.p_max * a1 * t_min + sc.kappa * a2 * nu**2, 3.0 * sc.kappa * nu * nu)
        t -= (lat - t2) / slope
        if not t_lo < t < t_hi:
            t = 2.0 / (1.0 / t_lo + 1.0 / t_hi)
    else:
        raise InfeasibleError("bisection_bracket",
                              f"latency {lat:.12g} s vs budget {t2:.12g} s")
    p_c = math.expm1(z) / g
    mu1 = z * z * r / g
    return (p_c, nu, t, mu1, p_c * a1 * t + sc.kappa * a2 * nu**2,
            sc.kappa * nu * nu + mu1 / nu)


def min_pruning_ratio_probing(q, terms, params, r_t, p_max, floor):
    """Reference for accuracy.pruning_floor: the same Newton start, steps
    and first probe step, then upward probes that each call
    min_sensing_power_composed with the cap p_max and catch the
    InfeasibleError of every probe that misses it."""
    scale = margin_factor(terms, params) * terms.prune_coeff if terms.prune_coeff else 0.0
    ideal = ideal_accuracy(p_max, params)
    rho, step = floor, 0.0
    if scale > 0.0 and r_t < ideal:
        u_star = (1.0 - r_t / ideal - penalty_factor(1.0, q, terms, params)) / scale
        if u_star < 0.0:
            rho = 1.0
        elif 3.0 * u_star < 1.0:
            rho = max(floor, 1.0 - (3.0 * u_star) ** (1.0 / 3.0))
        while rho < 1.0:
            newton = (pruning_error_factor(rho) - u_star) / math.log(rho) ** 2
            if not rho + newton > rho:
                if rho > floor:
                    # the rounding of K and K* moves the root by this step
                    step = accuracy.K_ROUNDING / (scale * math.log(rho) ** 2)
                    rho = min(rho + step, 1.0)
                break
            rho = min(rho + newton, 1.0)
    step = max(step, math.ulp(rho))
    while True:
        try:
            min_sensing_power_composed(rho, q, terms, params, r_t, p_max)
            return rho
        except InfeasibleError:
            if rho >= 1.0:
                raise
            rho = min(rho + step, 1.0)
            step *= 2.0


def pruned_mass_partition(m, lam, rho, trials, seed):
    """Reference sampler for oracles.mc_pruning_expectation: per trial, draw
    all m magnitudes ~ Exponential(lam), find the floor((1-rho)*m) smallest
    with np.partition and sum their squares. Returns the per-trial sums;
    holds trials x m floats at once."""
    rng = np.random.default_rng(seed)
    k = int(np.floor((1.0 - rho) * m))
    x = rng.exponential(1.0 / lam, size=(trials, m))
    smallest = np.partition(x, k - 1, axis=1)[:, :k] if k > 0 else x[:, :0]
    return np.sum(smallest**2, axis=1)


def quantize_vector_select(f, spec, seed):
    """Reference for quant.quantize_vector: the same stochastic rounding
    written with integer knob indices and np.where selects."""
    rng = np.random.default_rng(seed)
    f = np.asarray(f, dtype=float)
    sign = np.where(f < 0.0, -1.0, 1.0)
    mag = np.abs(f)
    clipped = np.clip(mag, spec.f_min, spec.f_max)
    n_clamped = int(np.count_nonzero(clipped != mag))
    if n_clamped:
        warnings.warn(f"{n_clamped} feature magnitude(s) clamped", RuntimeWarning,
                      stacklevel=2)
    idx = np.floor((clipped - spec.f_min) / spec.step).astype(int)
    idx = np.minimum(idx, spec.n_knobs - 2)
    lower = spec.f_min + spec.step * idx
    p_up = (clipped - lower) / spec.step
    up = rng.random(size=f.shape) < p_up
    out = np.where(up, lower + spec.step, lower)
    return sign * out


def mc_quant_check_whole(spec, n, trials, seed):
    """Reference for oracles.mc_quant_check: the same report from the whole
    (trials, n) arrays at once, with the sign draws taken after the
    magnitudes from one generator and every pass allocating a full-size
    temporary."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(spec.f_min, spec.f_max, size=(trials, n))
    f = (1.0 - 2.0 * (rng.random((trials, n)) < 0.5)) * mags
    quantized = quantize_vector(f, spec, seed=seed + 1)
    e2 = quantized - f
    sq = np.sum(e2**2, axis=1)
    mean_sq = float(np.mean(sq))
    sigma_sq = float(np.std(sq) / math.sqrt(trials))
    bound = n * (spec.f_max - spec.f_min) ** 2 / (4.0 * (2.0 ** (spec.bits - 1) - 1.0) ** 2)
    bias = float(np.mean(e2))
    sigma_bias = float(np.std(e2) / math.sqrt(e2.size)) or 1e-300
    sq_violation = mean_sq - bound - 3.0 * sigma_sq
    bias_violation = abs(bias) - 4.0 * sigma_bias
    worst = max(sq_violation, bias_violation)
    return oracles.OracleReport(
        name="quantizer", trials=trials, passed=worst <= 0.0,
        worst_violation=worst, tolerance=0.0, seed=seed,
        stats={"mean_sq_error": mean_sq, "bound": bound, "bias": bias,
               "bias_sigmas": abs(bias) / sigma_bias, "bits": spec.bits})


def head_gap_norms_tensor(head, y):
    """Reference for oracles.head_gap_norms: the norms of the full
    (trials, K, dim) tensor of head-row differences head[y_t] - head[k]."""
    diffs = head[y][:, None, :] - head[None, :, :]
    return np.linalg.norm(diffs, axis=2).T


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


def max_rho_bisection(net, l, cap):
    """Reference for netmodel.max_rho: 100 bisection steps on the monotone
    cum_flops(1..l, rho) over (0, 1]; 0.0 when no rho meets the cap."""
    if netmodel.cum_flops(net, 1, l, 1.0) <= cap:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if netmodel.cum_flops(net, 1, l, mid) <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def pc_objective(abc, sc, t, nu):
    """Communication plus computation energy of the power/frequency
    subproblem abc = (a1, a2, t2) at inverse rate t, frequency nu."""
    a1, a2, _ = abc
    return a1 * math.expm1(math.log(2.0) / t) * t / sc.g_over_bn0 \
        + sc.kappa * a2 * nu**2


def kkt_residuals(abc, sc, sol):
    """Relative stationarity and complementary-slackness residuals of a
    solution sol = (p_c, nu_e, t, mu1, energy, slope) of the power/frequency
    subproblem abc = (a1, a2, t2), as solvers.power_freq returns it."""
    a1, a2, _ = abc
    _, nu_e, t, mu1, _, _ = sol
    g = sc.g_over_bn0
    z = math.log(2.0) / t
    phi_t = (a1 / g) * (math.exp(z) * (1.0 - z) - 1.0)
    mu2 = 0.0
    t_min = min_rate_time(sc)
    if t <= t_min * (1 + 1e-9):
        mu2 = phi_t + mu1 * a1
    stat_t = phi_t + mu1 * a1 - mu2
    scale_t = max(abs(phi_t), mu1 * a1, 1e-300)
    mu3 = 0.0
    if nu_e >= sc.nu_max * (1 - 1e-9):
        mu3 = mu1 * a2 / nu_e**2 - 2 * sc.kappa * a2 * nu_e
    stat_nu = 2 * sc.kappa * a2 * nu_e - mu1 * a2 / nu_e**2 + mu3
    scale_nu = max(2 * sc.kappa * a2 * nu_e, 1e-300)
    comp2 = mu2 * (t_min - t)
    comp3 = mu3 * (nu_e - sc.nu_max)
    return (abs(stat_t) / scale_t, abs(stat_nu) / scale_nu,
            abs(comp2) / max(abs(mu2) * t_min, 1e-300) if mu2 else 0.0,
            abs(comp3) / max(abs(mu3) * sc.nu_max, 1e-300) if mu3 else 0.0)


def svd_band(y, r1, r2):
    """Reference for sensing.clutter_filter: singular components r1..r2 of
    y rebuilt from a full SVD, the expression its fallback evaluates."""
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    keep = slice(r1 - 1, r2)
    return (u[:, keep] * s[keep]) @ vh[keep, :]


def generate_echo_reference(params, seed):
    """Reference for sensing.generate_echo: the same echo built with a
    complex copy of the target term and the noise added as one complex
    temporary from two draws of the echo's shape."""
    rng = np.random.default_rng(seed)
    t = np.arange(params.n_fast) / params.sample_rate
    amp = np.sqrt(params.power)
    doppler = np.exp(
        2j * np.pi * params.target.doppler_hz * params.chirp_duration
        * np.arange(params.n_chirps))
    target_fast = amp * params.target.gain * sensing._chirp(
        t - params.target.delay, params.chirp_duration, params.chirp_bandwidth)
    data = np.outer(target_fast, doppler).astype(complex)
    for path in params.clutter:
        fast = amp * path.gain * sensing._chirp(
            t - path.delay, params.chirp_duration, params.chirp_bandwidth)
        data += fast[:, None]
    if params.noise_psd > 0:
        sigma = np.sqrt(params.noise_psd * params.sample_rate / 2.0)
        shape = (params.n_fast, params.n_chirps)
        data += sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return data
