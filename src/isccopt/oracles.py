"""Independent brute-force and Monte-Carlo verifiers for the analytical
results and for both subproblem solvers.

Each oracle reaches the quantity it checks by another route: order statistics
sampled by Renyi's representation against the closed-form pruning factor
(with the exact finite-m mean reported beside it), measured forward-pass errors
against the norm-product bound, raw grid search against the KKT solver and
the full optimizer, and an end-to-end synthetic classification task against
the accuracy lower bound. grid_full shares the solver's closed-form
sensing-power inverse: it checks the search over (l, q, rho, nu_e, p_c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import netmodel
from .accuracy import (AccuracyParams, accuracy_ceiling, margin_factor,
                       pruning_error_factor, quant_error_factor, sensing_power)
from .cost import Scenario
from .errors import InfeasibleError
from .netmodel import forward, prune, pruning_error_bound, random_fc_network
from .optimizer import penalty_terms, solve_scenario
from .quant import QuantSpec, calibrate_range, quantize_vector
from .solvers import min_rate_time, power_freq


# mc_quant_check streams its trials in row blocks of about this many elements
QUANT_BLOCK = 2**16


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification suite. `worst_violation` is positive when
    the checked inequality is broken; `passed` means it stayed within
    `tolerance`. Deterministic given `seed`."""

    name: str
    trials: int
    passed: bool
    worst_violation: float
    tolerance: float
    seed: int
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "trials": self.trials, "passed": self.passed,
                "worst_violation": self.worst_violation,
                "tolerance": self.tolerance, "seed": self.seed,
                "stats": dict(self.stats)}


def mc_pruning_expectation(m: int, lam: float, rho: float, trials: int,
                           seed: int, tolerance: float = 0.05) -> OracleReport:
    """Order-statistics check of the closed-form pruned-mass approximation.

    Samples the k = floor((1-rho)*m) smallest of m magnitudes
    ~ Exponential(lam) directly by Renyi's representation (Renyi 1953),
    X_(i) = sum_{j<=i} E_j / (lam*(m-j+1)) with E_j ~ Exponential(1), sums
    their squares, averages over trials, and compares with
    (m/lam^2) * pruning_error_factor(rho). The stats also carry the exact
    finite-m mean sum_{i<=k} (S_i + H_i^2)/lam^2, where H and S are the
    running sums of 1/(m-j+1) and of its square, and its relative gap to
    the formula.
    """
    if m < 1000:
        raise ValueError("order-statistics oracle needs m >= 1000")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be interior for this oracle")
    rng = np.random.default_rng(seed)
    k = int(np.floor((1.0 - rho) * m))
    weights = 1.0 / (lam * np.arange(m, m - k, -1, dtype=float))
    chunk = max(1, int(5e6) // max(k, 1))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        x = rng.standard_exponential((n, k))
        x *= weights
        np.cumsum(x, axis=1, out=x)
        d = np.einsum("ij,ij->i", x, x)
        total += float(d.sum())
        total_sq += float((d**2).sum())
        done += n
    mc_mean = total / trials
    mc_std = math.sqrt(max(total_sq / trials - mc_mean**2, 0.0))
    exact_mean = float(np.sum(np.cumsum(weights**2) + np.cumsum(weights)**2))
    formula = m / lam**2 * pruning_error_factor(rho)
    rel_err = abs(mc_mean - formula) / formula if formula > 0 else math.inf
    return OracleReport(
        name="pruning-mean", trials=trials, passed=rel_err <= tolerance,
        worst_violation=rel_err, tolerance=tolerance, seed=seed,
        stats={"mc_mean": mc_mean, "mc_std": mc_std, "formula": formula,
               "abs_gap": abs(mc_mean - formula), "exact_mean": exact_mean,
               "exact_gap": exact_mean / formula - 1.0 if formula > 0 else math.inf,
               "m": m, "lam": lam, "rho": rho})


def mc_pruning_bound_check(depth: int, widths, trials: int, seed: int) -> OracleReport:
    """Strict-bound check: measured squared pruning error of the forward
    pass never exceeds the norm-product bound (zero tolerance).

    Random Laplacian-weight analysis networks, random pruning ratios,
    random unit-norm inputs; inputs are batched per network.
    """
    widths = list(widths)
    if len(widths) != depth + 1:
        raise ValueError("need depth+1 widths")
    rng = np.random.default_rng(seed)
    per_net = 100
    n_nets = max(1, (trials + per_net - 1) // per_net)
    worst = -math.inf
    worst_ratio = 0.0
    done = 0
    for _ in range(n_nets):
        if done >= trials:
            break
        n = min(per_net, trials - done)
        rates = rng.uniform(0.8, 4.0, size=depth) * np.sqrt(
            2.0 * np.array(widths[1:]) * np.array(widths[:-1]))
        net = random_fc_network(widths, rates, rng)
        rho = float(rng.uniform(0.05, 1.0))
        pruned = prune(net, rho, depth)
        bound = pruning_error_bound(net, pruned, depth)
        x = rng.standard_normal((widths[0], n))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        err = np.sum((forward(net, x, depth) - forward(pruned, x, depth))**2, axis=0)
        worst = max(worst, float(np.max(err) - bound))
        if bound > 0:
            worst_ratio = max(worst_ratio, float(np.max(err) / bound))
        done += n
    return OracleReport(
        name="pruning-bound", trials=done, passed=worst <= 0.0,
        worst_violation=worst, tolerance=0.0, seed=seed,
        stats={"worst_ratio": worst_ratio, "depth": depth})


def mc_quant_check(spec: QuantSpec, n: int, trials: int, seed: int) -> OracleReport:
    """Quantizer statistics: vector squared error within the closed-form
    bound (3 sigma) and per-element bias within 4 sigma of zero.

    Feature magnitudes are drawn uniformly in [f_min, f_max] with random
    signs; the bound n*(f_max-f_min)^2 / (4*(2^(bits-1)-1)^2) is evaluated
    inline, independent of the bound helper under test.

    The trials run in blocks of about QUANT_BLOCK elements (at least one
    row). The magnitudes are the first trials*n doubles of default_rng(seed)
    and the sign draws the next trials*n, so a second generator advanced
    past the magnitudes draws them block by block; the rounding draws come
    from one default_rng(seed + 1) passed through every block. Each block's
    errors land in one (trials, n) array, and the statistics are taken over
    it whole.
    """
    rng = np.random.default_rng(seed)
    sign_rng = np.random.default_rng(seed)
    sign_rng.bit_generator.advance(trials * n)
    round_rng = np.random.default_rng(seed + 1)
    e2 = np.empty((trials, n))
    sq = np.empty(trials)
    rows = max(1, QUANT_BLOCK // n)
    for r0 in range(0, trials, rows):
        shape = (min(rows, trials - r0), n)
        f = rng.uniform(spec.f_min, spec.f_max, size=shape)
        f *= 1.0 - 2.0 * (sign_rng.random(shape) < 0.5)
        err = e2[r0:r0 + shape[0]]
        np.subtract(quantize_vector(f, spec, seed=round_rng), f, out=err)
        np.sum(np.square(err, out=f), axis=1, out=sq[r0:r0 + shape[0]])
    mean_sq = float(np.mean(sq))
    sigma_sq = float(np.std(sq) / math.sqrt(trials))
    bound = n * (spec.f_max - spec.f_min) ** 2 / (4.0 * (2.0 ** (spec.bits - 1) - 1.0) ** 2)
    bias = float(np.mean(e2))
    sigma_bias = float(np.std(e2) / math.sqrt(e2.size)) or 1e-300
    sq_violation = mean_sq - bound - 3.0 * sigma_sq
    bias_violation = abs(bias) - 4.0 * sigma_bias
    worst = max(sq_violation, bias_violation)
    return OracleReport(
        name="quantizer", trials=trials, passed=worst <= 0.0,
        worst_violation=worst, tolerance=0.0, seed=seed,
        stats={"mean_sq_error": mean_sq, "bound": bound, "bias": bias,
               "bias_sigmas": abs(bias) / sigma_bias, "bits": spec.bits})


def grid_subproblem(a1: float, a2: float, t2: float, sc: Scenario, grid_n: int,
                    seed: int = 0, tolerance: float = 5e-3) -> OracleReport:
    """Exhaustive (t, nu_e) grid against the KKT power/frequency solver of
    the subproblem (a1, a2, t2) with a1, a2 > 0 (see power_freq).

    Grid energy is evaluated from the raw formulas; the solver must come
    within `tolerance` relative of the best feasible grid point (it should
    be below it, up to ties).
    """
    t_min = min_rate_time(sc)
    t_hi = t2 / a1
    grid_feasible = t_hi >= t_min
    try:
        _, nu_e, t_kkt, _, _, _ = power_freq(a1, a2, t2, t_min, sc.g_over_bn0, sc.kappa,
                                             sc.p_max, sc.nu_max)
        solver_obj = (a1 * math.expm1(math.log(2.0) / t_kkt) * t_kkt
                      / sc.g_over_bn0 + sc.kappa * a2 * nu_e**2)
        solver_feasible = True
    except InfeasibleError:
        solver_obj = math.inf
        solver_feasible = False
    best = math.inf
    if grid_feasible:
        t = np.linspace(t_min, t_hi, grid_n)
        nu = np.geomspace(sc.nu_max * 1e-4, sc.nu_max, grid_n)
        energy = (a1 * np.expm1(np.log(2.0) / t)[:, None] * t[:, None]
                  / sc.g_over_bn0 + sc.kappa * a2 * nu[None, :] ** 2)
        feasible = a1 * t[:, None] + a2 / nu[None, :] <= t2
        if np.any(feasible):
            best = float(np.min(energy[feasible]))
        else:
            grid_feasible = False
    if not grid_feasible and not solver_feasible:
        return OracleReport(name="power-freq-grid", trials=grid_n**2, passed=True,
                            worst_violation=0.0, tolerance=tolerance, seed=seed,
                            stats={"both_infeasible": 1.0})
    if grid_feasible != solver_feasible and not solver_feasible:
        # the grid found a point the solver called infeasible: hard failure
        return OracleReport(name="power-freq-grid", trials=grid_n**2, passed=False,
                            worst_violation=math.inf, tolerance=tolerance,
                            seed=seed, stats={"grid_best": best})
    violation = (solver_obj - best) / best if math.isfinite(best) else 0.0
    return OracleReport(
        name="power-freq-grid", trials=grid_n**2, passed=violation <= tolerance,
        worst_violation=violation, tolerance=tolerance, seed=seed,
        stats={"solver_energy": solver_obj, "grid_energy": best,
               "latency_slack": t2 - (a1 * t_kkt + a2 / nu_e)
               if solver_feasible else math.nan})


# grid_full's grid: rho on [GRID_RHO_LO, 1], nu_e over the top three
# decades below nu_max, p_c over the top four decades below p_max
GRID_RHO_N = 24
GRID_RHO_LO = 0.05
GRID_NUE_N = 16
GRID_PC_N = 16


def grid_full(net, sc: Scenario, ap: AccuracyParams, seed: int = 0,
              tolerance: float = math.inf) -> OracleReport:
    """Coarse exhaustive search over (l, q, rho, nu_e, p_c) with the
    sensing power inverted per rho, against the optimizer.

    The gap (solver energy - grid best)/grid best may be positive (the
    search over rho, Brent's method, assumes E(rho) is unimodal); it is
    reported, and `passed` reflects the given tolerance (default:
    report-only).
    """
    sol = solve_scenario(net, sc, ap)
    best = math.inf
    splits = sorted(sc.splits)
    rho_grid = np.linspace(GRID_RHO_LO, 1.0, GRID_RHO_N)
    nu_grid = np.geomspace(sc.nu_max * 1e-3, sc.nu_max, GRID_NUE_N)
    pc_grid = np.geomspace(sc.p_max * 1e-4, sc.p_max, GRID_PC_N)
    ceiling = accuracy_ceiling(ap)
    for l in splits:
        terms = penalty_terms(net, l, ap)
        margin = margin_factor(terms, ap)
        t_server = netmodel.cum_flops(net, l + 1, net.depth, 1.0) / sc.nu_s
        edge = np.array([netmodel.cum_flops(net, 1, l, r) for r in rho_grid])
        n_up = netmodel.upload_dim(net, l)
        for q in range(2, (sc.q_max if n_up else 2) + 1):
            quant = terms.quant_coeff * quant_error_factor(q)
            ps = np.array([sensing_power(float(r), terms.prune_coeff, quant, margin, sc.r_t,
                                         ap.a, ap.b, ceiling)[0] for r in rho_grid])
            ok_rho = ps <= sc.p_max
            if not np.any(ok_rho):
                continue
            e_sen = sc.t_sen * ps
            t_edge = edge[:, None] / nu_grid[None, :]
            e_comp = sc.kappa * edge[:, None] * nu_grid[None, :] ** 2
            rate = sc.bandwidth * np.log2(1.0 + sc.g_over_bn0 * pc_grid)
            t_comm = n_up * q / rate
            e_comm = pc_grid * t_comm
            t_tot = (sc.t_sen + t_server + t_edge[:, :, None]
                     + t_comm[None, None, :])
            e_tot = (e_sen[:, None, None] + e_comp[:, :, None]
                     + e_comm[None, None, :])
            feas = ok_rho[:, None, None] & (t_tot <= sc.t_max)
            if np.any(feas):
                best = min(best, float(np.min(e_tot[feas])))
    if not sol.feasible and not math.isfinite(best):
        return OracleReport(name="full-grid", trials=0, passed=True,
                            worst_violation=0.0, tolerance=tolerance, seed=seed,
                            stats={"both_infeasible": 1.0})
    if not sol.feasible:
        return OracleReport(name="full-grid", trials=0, passed=False,
                            worst_violation=math.inf, tolerance=tolerance,
                            seed=seed, stats={"grid_energy": best})
    gap = (sol.e_total - best) / best if math.isfinite(best) else 0.0
    return OracleReport(
        name="full-grid", trials=len(splits), passed=gap <= tolerance,
        worst_violation=gap, tolerance=tolerance, seed=seed,
        stats={"solver_energy": sol.e_total, "grid_energy": best, "gap": gap})


@dataclass(frozen=True)
class MarginTaskSpec:
    """Synthetic Gaussian-cluster classification task with a linear head,
    so per-sample margins are exact."""

    n_classes: int = 5
    input_dim: int = 32
    widths: tuple[int, ...] = (24, 16)
    cluster_radius: float = 4.5
    noise_scale: float = 0.1
    weight_norm: float = 1.3


def head_gap_norms(head: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(K, trials) array of ||head[y_t] - head[k]||, the norm that turns a
    logit gap into a feature-space margin. It depends on the class pair
    alone, so it is read from the K x K table of head-row distances."""
    pair_norms = np.linalg.norm(head[:, None, :] - head[None, :, :], axis=2)
    return pair_norms[y].T


def margin_experiment(task: MarginTaskSpec, rho: float, bits: int | None,
                      trials: int, seed: int) -> OracleReport:
    """End-to-end check of the accuracy lower bound with exact margins.

    Builds a frozen feature extractor and prototype linear head, measures
    ideal accuracy r0 and perturbed accuracy r_p after model pruning and
    stochastic feature quantization (bits=None skips quantization), and
    asserts

        r_p >= r0 * (1 - E||e||^2 / margin_min^2) - 3*sigma_stat.

    Also reports the minimum score, the minimum exact margin, the margin
    vs score/head-norm ratio, and the compensation constant that would make
    the bound tight.
    """
    rng = np.random.default_rng(seed)
    dims = [task.input_dim, *task.widths]
    depth = len(dims) - 1
    rates = [math.sqrt(2.0 * a * b) / task.weight_norm
             for a, b in zip(dims[1:], dims[:-1])]
    net = random_fc_network(dims, rates, rng)

    centers = rng.standard_normal((task.n_classes, task.input_dim))
    centers *= task.cluster_radius / np.linalg.norm(centers, axis=1, keepdims=True)
    proto = forward(net, centers.T, depth)  # feature-space prototypes
    head = proto.T / np.linalg.norm(proto.T, axis=1, keepdims=True)

    y = rng.integers(0, task.n_classes, size=trials)
    x = centers[y].T + task.noise_scale * rng.standard_normal((task.input_dim, trials))
    feats = forward(net, x, depth)
    logits = head @ feats
    pred0 = np.argmax(logits, axis=0)
    correct0 = pred0 == y
    r0 = float(np.mean(correct0))

    # exact feature-space margins and scores of correctly classified samples
    gaps = logits[y, np.arange(trials)][None, :] - logits
    gaps[y, np.arange(trials)] = np.inf
    norms = head_gap_norms(head, y)                          # (K, trials)
    norms[y, np.arange(trials)] = 1.0
    margins = np.min(gaps / norms, axis=0)
    scores = math.sqrt(2.0) * np.min(gaps, axis=0)
    margin_min = float(np.min(margins[correct0]))
    score_min = float(np.min(scores[correct0]))

    pruned = prune(net, rho, depth)
    feats_pruned = forward(pruned, x, depth)
    if bits is None:
        feats_hat = feats_pruned
    else:
        f_lo, f_hi = calibrate_range([feats_pruned], headroom=1.0)
        spec = QuantSpec(bits=bits, f_min=f_lo, f_max=f_hi)
        feats_hat = quantize_vector(feats_pruned, spec, seed=seed + 1)
    pred = np.argmax(head @ feats_hat, axis=0)
    r_p = float(np.mean(pred == y))

    err_sq = float(np.mean(np.sum((feats_hat - feats) ** 2, axis=0)))
    bound = max(0.0, r0 * (1.0 - err_sq / margin_min**2))
    sigma_stat = math.sqrt(max(r_p * (1.0 - r_p), 1e-12) / trials)
    violation = bound - 3.0 * sigma_stat - r_p
    if r_p < r0:
        c_m_tight = math.sqrt(err_sq / margin_min**2 / (1.0 - r_p / r0))
    else:
        c_m_tight = math.inf
    head_norm = float(np.linalg.norm(head))
    return OracleReport(
        name="margin", trials=trials, passed=violation <= 0.0,
        worst_violation=violation, tolerance=0.0, seed=seed,
        stats={"r0": r0, "r_p": r_p, "bound": bound, "err_sq": err_sq,
               "margin_min": margin_min, "score_min": score_min,
               "margin_score_ratio": margin_min * head_norm / score_min
               if score_min > 0 else math.inf,
               "c_m_tight": c_m_tight, "sigma_stat": sigma_stat,
               "slack": r_p - bound})


def random_test_case(rng):
    """Random small scenario for end-to-end solver studies: an FC analysis
    network plus a scenario whose latency, accuracy, and power constraints
    all bind over the draws. Returns (net, scenario, params)."""
    depth = int(rng.integers(3, 5))
    dims = [int(rng.integers(18, 28))]
    for _ in range(depth - 1):
        dims.append(max(5, int(dims[-1] * rng.uniform(0.5, 0.85))))
    dims.append(int(rng.integers(4, 7)))
    norms = [float(rng.uniform(1.0, 2.2)) for _ in range(depth - 1)]
    norms += [float(rng.uniform(0.5, 1.2))]
    rates = [math.sqrt(2.0 * a * b) / t
             for a, b, t in zip(dims[1:], dims[:-1], norms)]
    net = random_fc_network(dims, rates, rng)

    t_sen = float(rng.uniform(0.05, 0.3))
    t0 = 1e-5
    full_flops = netmodel.cum_flops(net, 1, net.depth, 1.0)
    nu_max = full_flops / (t_sen * rng.uniform(0.1, 0.6))
    kappa = float(rng.uniform(0.005, 0.04)) / (full_flops * nu_max**2)
    sc = Scenario(
        t_max=t_sen + float(rng.uniform(0.08, 0.5)),
        r_t=float(rng.uniform(0.6, 0.88)),
        p_max=1.0,
        nu_max=nu_max,
        nu_s=1e9,
        kappa=kappa,
        bandwidth=float(rng.uniform(3e3, 3e4)),
        g_over_bn0=float(10.0 ** rng.uniform(0.0, 2.0)),
        t0=t0,
        m_chirps=int(round(t_sen / t0)),
        q_max=5,
        splits=tuple(range(1, net.depth + 1)),
    )
    # scale the score floor so the accuracy penalty is material but not
    # hopeless at a mid-range operating point
    raw = max(
        (terms.tail_norm**2) * (terms.prune_coeff * pruning_error_factor(0.7)
                                + terms.quant_coeff * quant_error_factor(3))
        for terms in (penalty_terms(net, l, AccuracyParams(a=0.6366, b=50.0, s=1.0))
                      for l in sc.splits))
    k_target = float(rng.uniform(0.05, 0.5))
    s = math.sqrt(raw / k_target)
    ap = AccuracyParams(a=0.6366, b=float(rng.uniform(20.0, 200.0)), s=s)
    return net, sc, ap


def random_power_freq_context(rng):
    """Random feasible subproblem ((a1, a2, t2), scenario) for the KKT solver
    oracle, with a1, a2 > 0."""
    g = float(10.0 ** rng.uniform(0.0, 2.0))
    nu_max = float(10.0 ** rng.uniform(5.0, 7.0))
    kappa = float(10.0 ** rng.uniform(-22.0, -19.0))
    a1 = float(10.0 ** rng.uniform(-3.0, -1.0))
    a2 = float(10.0 ** rng.uniform(3.0, 5.5))
    sc = Scenario(t_max=1.0, r_t=0.5, p_max=1.0, nu_max=nu_max, nu_s=1e11,
                  kappa=kappa, bandwidth=1e5, g_over_bn0=g, t0=1e-5,
                  m_chirps=1000, q_max=4, splits=(1,))
    floor = a1 * min_rate_time(sc) + a2 / nu_max
    t2 = floor * float(rng.uniform(1.05, 4.0))
    return (a1, a2, t2), sc
