"""Outer enumeration over split point and quantization bits with an exact
nested pruning-ratio search per pair, the three ablation baselines, and
parameter sweeps."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

from . import netmodel
from .accuracy import (AccuracyParams, PenaltyTerms, min_pruning_ratio,
                       min_sensing_power)
from .cost import Allocation, CostBreakdown, Scenario, total_cost
from .errors import InfeasibleError
from .quant import delta_coeff
from .solvers import (SubproblemContext, golden_section, min_rate_time,
                      solve_pc_nue)

ORIGINS = ("proposed", "on_server", "on_device", "no_prune")

# smallest pruning ratio the rho search will consider; the decision domain
# is (0, 1] and the objective stays finite as rho -> 0+
RHO_FLOOR = 1e-9


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: allocation + cost when feasible, otherwise the
    per-(l, q) infeasibility reasons."""

    origin: str
    feasible: bool
    alloc: Allocation | None
    cost: CostBreakdown | None
    iterations: int
    reasons: tuple[tuple[int, int, str], ...] = ()

    @property
    def e_total(self) -> float:
        return self.cost.e_total if self.cost is not None else math.inf


def penalty_terms(net, l: int, ap: AccuracyParams) -> PenaltyTerms:
    """Split-dependent accuracy penalty coefficients.

    The quantization coefficient is dropped for a split after the last
    layer: nothing is transmitted there, so quantization cannot hurt.
    """
    prune_c = netmodel.pruning_penalty_coeff(net, l) if l >= 1 else 0.0
    if l < net.depth:
        quant_c = delta_coeff(net, l, ap.f_min, ap.f_max)
    else:
        quant_c = 0.0
    return PenaltyTerms(prune_coeff=prune_c, quant_coeff=quant_c,
                        tail_norm=netmodel.tail_norm_product(net, l))


class PairEnergy:
    """Energy of one (l, q) pair as a function of the pruning ratio alone.

    For fixed rho the sensing power is the closed-form inverse of the
    accuracy bound, and (p_c, nu_e) is the exact KKT optimum for the edge
    FLOPs a2 = cum_flops(1..l, rho), so

        E(rho) = t_sen * p_s(rho) + e_comm + e_comp.

    q is None for the on-device split l = L. A call raises InfeasibleError
    where rho admits no feasible point; each call that returns records
    (energy, p_s, p_c, nu_e) in `points`.
    """

    def __init__(self, l, q, net, sc: Scenario, terms: PenaltyTerms, ap: AccuracyParams):
        self.l, self.q, self.net, self.sc, self.terms, self.ap = l, q, net, sc, terms, ap
        t_server = netmodel.cum_flops(net, l + 1, net.depth, 1.0) / sc.nu_s
        self.t2 = sc.t_max - sc.t_sen - t_server   # left for edge compute and upload
        self.a1 = 0.0 if l == net.depth else netmodel.feature_dim(net, l) * q / sc.bandwidth
        self.points: dict[float, tuple[float, float, float, float]] = {}

    def __call__(self, rho: float) -> float:
        sc = self.sc
        p_s = min_sensing_power(rho, self.q, self.terms, self.ap, sc.r_t, sc.p_max)
        a2 = netmodel.cum_flops(self.net, 1, self.l, rho, warn=False)
        p_c, nu_e, e_edge = self._power_freq(a2)
        energy = sc.t_sen * p_s + e_edge
        self.points[rho] = energy, p_s, p_c, nu_e
        return energy

    def _power_freq(self, a2: float) -> tuple[float, float, float]:
        """Optimal (p_c, nu_e) for edge FLOPs a2 and their energy; handles
        the no-communication (l = L) and no-computation (a2 <= 0) corners."""
        sc, t2, a1 = self.sc, self.t2, self.a1
        if self.l == self.net.depth:
            if t2 <= 0:
                raise InfeasibleError("latency_budget", "sensing alone exceeds the deadline")
            if a2 <= 0:
                return sc.p_max, sc.nu_max, 0.0
            nu_req = a2 / t2
            if nu_req > sc.nu_max * (1.0 + 1e-12):
                raise InfeasibleError("latency_budget",
                                      f"needs {nu_req:.4g} FLOP/s > {sc.nu_max:.4g}")
            nu_e = min(nu_req, sc.nu_max)
            return sc.p_max, nu_e, sc.kappa * a2 * nu_e**2
        if a2 <= 0:
            # nothing to compute on the edge: stretch transmission to the budget
            t_star = t2 / a1
            if t_star < min_rate_time(sc):
                raise InfeasibleError("latency_budget",
                                      "upload misses the deadline even at p_max")
            p_c = math.expm1(math.log(2.0) / t_star) / sc.g_over_bn0
            return p_c, sc.nu_max, p_c * t2
        sol = solve_pc_nue(SubproblemContext(a1=a1, a2=a2, t2=t2), sc)
        return sol.p_c, sol.nu_e, sol.p_c * a1 * sol.t + sc.kappa * a2 * sol.nu_e**2

    def rho_max(self) -> float:
        """Largest rho whose edge FLOPs meet the deadline at (p_max, nu_max):
        a1*t_min + cum_flops(1..l, rho)/nu_max <= t2."""
        sc, net, l = self.sc, self.net, self.l
        cap = (self.t2 - self.a1 * min_rate_time(sc)) * sc.nu_max
        if cap <= 0:
            raise InfeasibleError(
                "latency_budget",
                f"no time left for edge compute (t2={self.t2:.6g} s)")
        slope, intercept = netmodel.cum_flops_affine(net, 1, l)
        if slope <= 0.0:
            if intercept > cap:
                raise InfeasibleError("latency_budget", "fixed edge FLOPs exceed budget")
            return 1.0
        rho_max = (cap - intercept) / slope
        if rho_max <= RHO_FLOOR:
            raise InfeasibleError(
                "latency_budget",
                f"edge compute misses deadline at any rho (rho_max={rho_max:.3g})")
        rho_max = min(rho_max, 1.0)
        # guard the closed form against the per-layer clamp at tiny rho
        if netmodel.cum_flops(net, 1, l, rho_max, warn=False) > cap * (1.0 + 1e-12):
            lo, hi = RHO_FLOOR, rho_max
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if netmodel.cum_flops(net, 1, l, mid, warn=False) <= cap:
                    lo = mid
                else:
                    hi = mid
            rho_max = lo
        return rho_max

    def best(self, rhos, origin: str) -> Solution:
        """Solution at the least-energy rho of `rhos` (the first on ties);
        `iterations` is the number of points E(rho) was evaluated at."""
        rho = min(rhos, key=lambda r: self.points[r][0] if r in self.points else self(r))
        _, p_s, p_c, nu_e = self.points[rho]
        alloc = Allocation(l=self.l, q=self.q or 2, rho=rho, p_s=p_s, p_c=p_c, nu_e=nu_e)
        return Solution(origin=origin, feasible=True, alloc=alloc,
                        cost=total_cost(alloc, self.net, self.sc),
                        iterations=len(self.points))


def solve_pair(l, q, net, sc: Scenario, terms: PenaltyTerms, ap: AccuracyParams,
               eps_rho: float = 1e-6, origin: str = "proposed") -> Solution:
    """Least-energy allocation of one (l, q) pair (q is None for l = L).

    Minimizes E(rho) of PairEnergy by golden-section search over
    [rho_min, rho_max]: rho_max is the largest rho whose edge compute meets
    the deadline at (p_max, nu_max), rho_min the smallest rho whose sensing
    power fits under p_max (both closed form). Both endpoints stay
    candidates. Raises InfeasibleError when no rho is feasible.
    """
    energy = PairEnergy(l, q, net, sc, terms, ap)
    rho_max = energy.rho_max()
    energy(rho_max)   # raises the binding reason when no rho is feasible
    rho_min = min(min_pruning_ratio(q, terms, ap, sc.r_t, sc.p_max, RHO_FLOOR), rho_max)
    rhos = [rho_min, rho_max]
    if rho_max - rho_min > eps_rho:
        rhos.insert(1, golden_section(energy, rho_min, rho_max, eps_rho))
    return energy.best(rhos, origin)


def _enumerate(net, sc, ap, origin, solve_one):
    """Shared outer loop of the proposed method and the no-prune baseline:
    `solve_one(l, q, terms)` solves one pair."""
    candidates = []
    reasons = []
    for l in sorted(sc.splits or net.split_candidates):
        terms = penalty_terms(net, l, ap)
        qs = [None] if l == net.depth else range(2, sc.q_max + 1)
        for q in qs:
            try:
                sol = solve_one(l, q, terms)
            except InfeasibleError as err:
                reasons.append((l, q if q is not None else 2, err.reason))
                continue
            candidates.append((sol.cost.e_total, sol.alloc.q, l, sol))
    if not candidates:
        return Solution(origin=origin, feasible=False, alloc=None, cost=None,
                        iterations=0, reasons=tuple(reasons))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    best = candidates[0][3]
    return replace(best, reasons=tuple(reasons))


def solve_scenario(net, sc: Scenario, ap: AccuracyParams,
                   eps_rho: float = 1e-6) -> Solution:
    """Minimum-energy allocation over all (l, q) pairs.

    Enumerates every admissible split and bit width, solves each pair with
    solve_pair, and returns the feasible solution of least energy (ties
    broken by smaller q, then smaller l). When every pair is infeasible the
    Solution carries one reason per pair.
    """
    return _enumerate(net, sc, ap, "proposed", lambda l, q, terms: solve_pair(
        l, q, net, sc, terms, ap, eps_rho=eps_rho))


def solve_baseline(kind: str, net, sc: Scenario, ap: AccuracyParams,
                   eps_rho: float = 1e-6) -> Solution:
    """Ablation baselines.

    on_server: upload the raw (quantized) input, all compute on the server.
    on_device: split after the last layer, pruning allowed, no uplink.
    no_prune: full enumeration with the pruning ratio pinned to 1.
    """
    if kind == "on_server":
        return _solve_on_server(net, sc, ap)
    if kind == "on_device":
        terms = penalty_terms(net, net.depth, ap)
        try:
            return solve_pair(net.depth, None, net, sc, terms, ap, eps_rho=eps_rho,
                              origin="on_device")
        except InfeasibleError as err:
            return Solution(origin="on_device", feasible=False, alloc=None,
                            cost=None, iterations=0,
                            reasons=((net.depth, 2, err.reason),))
    if kind == "no_prune":
        return _enumerate(net, sc, ap, "no_prune", lambda l, q, terms: PairEnergy(
            l, q, net, sc, terms, ap).best([1.0], "no_prune"))
    raise ValueError(f"unknown baseline {kind!r}")


def _solve_on_server(net, sc, ap):
    q_raw = sc.q_max
    terms = penalty_terms(net, 0, ap)
    try:
        p_s = min_sensing_power(1.0, q_raw, terms, ap, sc.r_t, sc.p_max)
        t_server = netmodel.cum_flops(net, 1, net.depth, 1.0) / sc.nu_s
        t2 = sc.t_max - sc.t_sen - t_server
        a1 = net.input_dim * q_raw / sc.bandwidth
        if t2 <= 0 or t2 / a1 < min_rate_time(sc):
            raise InfeasibleError("latency_budget",
                                  "raw upload misses the deadline even at p_max")
    except InfeasibleError as err:
        return Solution(origin="on_server", feasible=False, alloc=None,
                        cost=None, iterations=0, reasons=((0, q_raw, err.reason),))
    t_star = t2 / a1
    p_c = math.expm1(math.log(2.0) / t_star) / sc.g_over_bn0
    alloc = Allocation(l=0, q=q_raw, rho=1.0, p_s=p_s, p_c=p_c, nu_e=sc.nu_max)
    breakdown = total_cost(alloc, net, sc)
    return Solution(origin="on_server", feasible=True, alloc=alloc,
                    cost=breakdown, iterations=1)


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    solution: Solution


def apply_axis(sc: Scenario, axis: str, value: float) -> Scenario:
    """Scenario with one swept quantity replaced. The snr axis takes the
    linear SNR per watt (g/(B*N0))."""
    if axis == "t_max":
        return replace(sc, t_max=value)
    if axis == "r_t":
        return replace(sc, r_t=value)
    if axis == "snr":
        return replace(sc, g_over_bn0=value)
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(net, sc: Scenario, ap: AccuracyParams, axis: str, values,
          origins: tuple[str, ...] = ORIGINS, eps_rho: float = 1e-6) -> list[SweepRow]:
    """Re-solve the proposed method and every baseline per swept value.

    Infeasible points are recorded as infeasible rows; the sweep continues.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        sc_v = apply_axis(sc, axis, value)
        for origin in origins:
            if origin == "proposed":
                sol = solve_scenario(net, sc_v, ap, eps_rho=eps_rho)
            else:
                sol = solve_baseline(origin, net, sc_v, ap, eps_rho=eps_rho)
            rows.append(SweepRow(axis=axis, value=value, solution=sol))
    return rows


CSV_COLUMNS = ("scenario_id", "origin", "l", "q", "rho", "p_s", "p_c", "nu_e",
               "e_sen", "e_comp", "e_comm", "e_total", "t_total", "feasible",
               "iters")


def solution_row(scenario_id: str, sol: Solution) -> dict:
    row = {"scenario_id": scenario_id, "origin": sol.origin,
           "feasible": sol.feasible, "iters": sol.iterations}
    if sol.feasible:
        a, c = sol.alloc, sol.cost
        row.update(l=a.l, q=a.q, rho=repr(a.rho), p_s=repr(a.p_s),
                   p_c=repr(a.p_c), nu_e=repr(a.nu_e), e_sen=repr(c.e_sen),
                   e_comp=repr(c.e_comp), e_comm=repr(c.e_comm),
                   e_total=repr(c.e_total), t_total=repr(c.t_total))
    else:
        row.update({k: "" for k in CSV_COLUMNS if k not in row})
    return row


def write_solutions_csv(path, rows) -> None:
    """Write solution rows (dicts keyed by CSV_COLUMNS) deterministically."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def solution_to_dict(sol: Solution) -> dict:
    """JSON-ready view of a Solution, full precision."""
    out = {"origin": sol.origin, "feasible": sol.feasible,
           "iterations": sol.iterations, "reasons": [list(r) for r in sol.reasons]}
    if sol.feasible:
        a, c = sol.alloc, sol.cost
        out["allocation"] = {"l": a.l, "q": a.q, "rho": a.rho, "p_s": a.p_s,
                             "p_c": a.p_c, "nu_e": a.nu_e}
        out["cost"] = {"e_sen": c.e_sen, "e_comp": c.e_comp, "e_comm": c.e_comm,
                       "e_total": c.e_total, "t_sen": c.t_sen,
                       "t_comp_edge": c.t_comp_edge,
                       "t_comp_server": c.t_comp_server, "t_comm": c.t_comm,
                       "t_total": c.t_total}
    return out


def solution_from_dict(data: dict) -> Solution:
    """Inverse of solution_to_dict (costs are reconstructed, not re-derived)."""
    if not data.get("feasible"):
        return Solution(origin=data["origin"], feasible=False, alloc=None,
                        cost=None, iterations=data.get("iterations", 0),
                        reasons=tuple(tuple(r) for r in data.get("reasons", ())))
    a = data["allocation"]
    c = data["cost"]
    alloc = Allocation(l=a["l"], q=a["q"], rho=a["rho"], p_s=a["p_s"],
                       p_c=a["p_c"], nu_e=a["nu_e"])
    cost = CostBreakdown(e_sen=c["e_sen"], e_comp=c["e_comp"], e_comm=c["e_comm"],
                         t_sen=c["t_sen"], t_comp_edge=c["t_comp_edge"],
                         t_comp_server=c["t_comp_server"], t_comm=c["t_comm"])
    return Solution(origin=data["origin"], feasible=True, alloc=alloc, cost=cost,
                    iterations=data["iterations"],
                    reasons=tuple(tuple(r) for r in data.get("reasons", ())))


def dump_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
