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

# a pair is searched while its lower bound is at most the incumbent's
# e_total times (1 + PRUNE_RTOL); the margin absorbs the rounding between
# E(rho), the KKT stopping test and total_cost
PRUNE_RTOL = 1e-9


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
    prune_c = netmodel.pruning_penalty_coeff(net, l)
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

    q is None for the on-device split l = L (no upload). The split l = 0
    uploads the raw input: no edge FLOPs, so the upload stretches to the
    budget at nu_e = nu_max. A call raises InfeasibleError where rho
    admits no feasible point; each call that returns records
    (energy, p_s, p_c, nu_e, e_edge) in `points`.
    """

    def __init__(self, l, q, net, sc: Scenario, terms: PenaltyTerms, ap: AccuracyParams):
        self.l, self.q, self.net, self.sc, self.terms, self.ap = l, q, net, sc, terms, ap
        t_server = netmodel.cum_flops(net, l + 1, net.depth, 1.0) / sc.nu_s
        self.t2 = sc.t_max - sc.t_sen - t_server   # left for edge compute and upload
        self.a1 = 0.0 if l == net.depth else netmodel.feature_dim(net, l) * q / sc.bandwidth
        self.points: dict[float, tuple[float, float, float, float, float]] = {}

    def __call__(self, rho: float) -> float:
        sc = self.sc
        p_s = min_sensing_power(rho, self.q, self.terms, self.ap, sc.r_t, sc.p_max)
        a2 = netmodel.cum_flops(self.net, 1, self.l, rho, warn=False)
        p_c, nu_e, e_edge = self._power_freq(a2)
        energy = sc.t_sen * p_s + e_edge
        self.points[rho] = energy, p_s, p_c, nu_e, e_edge
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

    def bracket(self) -> tuple[float, float]:
        """(rho_min, rho_max) with E evaluated at both ends: rho_max is the
        largest rho whose edge compute meets the deadline at (p_max, nu_max),
        rho_min the smallest rho whose sensing power fits under p_max (both
        closed form). Raises InfeasibleError when no rho is feasible."""
        rho_max = self.rho_max()
        self(rho_max)   # raises the binding reason when no rho is feasible
        rho_min = min(min_pruning_ratio(self.q, self.terms, self.ap, self.sc.r_t,
                                        self.sc.p_max, RHO_FLOOR), rho_max)
        self(rho_min)
        return rho_min, rho_max

    def pin(self, rho: float) -> tuple[float, float]:
        """The one-point bracket [rho, rho], with E evaluated there."""
        self(rho)
        return rho, rho

    def lower_bound(self, *rhos: float) -> float:
        """Lower bound of E on [rhos[0], rhos[-1]] from E evaluated at the
        increasing points `rhos`: the least t_sen * p_s(b) + e_edge(a) over
        neighbours a < b. Exact, because p_s is nonincreasing in rho and the
        edge energy nondecreasing in the edge FLOPs, which are nondecreasing
        in rho."""
        pts = [self.points[r] for r in rhos]
        return min(self.sc.t_sen * b[1] + a[4] for a, b in zip(pts, pts[1:]))

    def search(self, rho_min: float, rho_max: float, eps_rho: float,
               origin: str, cutoff: float = math.inf) -> Solution | None:
        """Solution at the least-energy point of rho_min, the golden-section
        argmin over the bracket at eps_rho, and rho_max (the first on
        ties); `iterations` is the number of points E(rho) was evaluated at.

        None when both ends and the lower bound on a golden-section bracket
        (from its ends and interior points) exceed `cutoff`: the search
        stops there, as every candidate point lies above the cutoff.
        """
        rhos = [rho_min, rho_max]
        if rho_max - rho_min > eps_rho:
            stop = None
            if min(self.points[rho_min][0], self.points[rho_max][0]) > cutoff:
                stop = lambda *bracket: self.lower_bound(*bracket) > cutoff
            rho = golden_section(self, rho_min, rho_max, eps_rho, stop)
            if rho is None:
                return None
            rhos.insert(1, rho)
        rho = min(rhos, key=lambda r: self.points[r][0] if r in self.points else self(r))
        _, p_s, p_c, nu_e, _ = self.points[rho]
        alloc = Allocation(l=self.l, q=self.q or 2, rho=rho, p_s=p_s, p_c=p_c, nu_e=nu_e)
        return Solution(origin=origin, feasible=True, alloc=alloc,
                        cost=total_cost(alloc, self.net, self.sc),
                        iterations=len(self.points))


def solve_pair(l, q, net, sc: Scenario, terms: PenaltyTerms, ap: AccuracyParams,
               eps_rho: float = 1e-6, origin: str = "proposed") -> Solution:
    """Least-energy allocation of one (l, q) pair (q is None for l = L).

    Minimizes E(rho) of PairEnergy by golden-section search over
    [rho_min, rho_max] (PairEnergy.bracket). Raises InfeasibleError when no
    rho is feasible.
    """
    energy = PairEnergy(l, q, net, sc, terms, ap)
    return energy.search(*energy.bracket(), eps_rho, origin)


def _pairs(net, sc):
    """Every admissible (l, q) pair in enumeration order; q is None for the
    split after the last layer."""
    for l in sorted(sc.splits or net.split_candidates):
        for q in [None] if l == net.depth else range(2, sc.q_max + 1):
            yield l, q


def _enumerate(net, sc, ap, origin, pairs, bracket, eps_rho):
    """The one outer loop, a bound-and-prune over (l, q) pairs.

    Pass 1 brackets every pair in `pairs` order (`bracket(energy)` returns
    (rho_min, rho_max) with E evaluated at both ends) and takes the pair's
    lower bound from them; a pair that raises leaves its reason. The least
    energy at any bracket end is the first incumbent. Pass 2 searches the
    pairs whose bound is within PRUNE_RTOL of the incumbent, most promising
    first: by the mean of the bound and the better end, then q, then l. A
    search abandons its pair as soon as no point it could return is within
    PRUNE_RTOL of the incumbent, and a finished search lowers the incumbent
    to its e_total. A skipped or abandoned pair can neither beat nor tie the
    answer, so the answer is the least (e_total, q, l) over all pairs, with
    its `iterations`, as if every pair were searched.
    """
    reasons = []
    bounded = []
    terms = {}
    for l, q in pairs:
        if l not in terms:
            terms[l] = penalty_terms(net, l, ap)
        energy = PairEnergy(l, q, net, sc, terms[l], ap)
        try:
            rhos = bracket(energy)
        except InfeasibleError as err:
            reasons.append((l, q or 2, err.reason))
            continue
        bound = energy.lower_bound(*rhos)
        end = min(energy.points[r][0] for r in rhos)
        bounded.append((bound + end, q or 2, l, bound, end, energy, rhos))
    best = None
    incumbent = min((b[4] for b in bounded), default=math.inf)
    for _, q, l, bound, _, energy, rhos in sorted(bounded, key=lambda b: b[:3]):
        cutoff = incumbent * (1.0 + PRUNE_RTOL)
        if bound > cutoff:
            continue
        try:
            sol = energy.search(*rhos, eps_rho, origin, cutoff)
        except InfeasibleError as err:
            reasons.append((l, q, err.reason))
            continue
        if sol is None:
            continue
        if best is None or (sol.e_total, q, l) < (best.e_total, best.alloc.q, best.alloc.l):
            best = sol
        incumbent = min(incumbent, sol.e_total)
    if best is None:
        return Solution(origin=origin, feasible=False, alloc=None, cost=None,
                        iterations=0, reasons=tuple(sorted(reasons)))
    return replace(best, reasons=tuple(sorted(reasons)))


def solve_scenario(net, sc: Scenario, ap: AccuracyParams,
                   eps_rho: float = 1e-6) -> Solution:
    """Minimum-energy allocation over all (l, q) pairs.

    Solves the pairs as solve_pair does, skipping the search of every pair
    whose exact lower bound rules it out (see _enumerate), and returns the
    feasible solution of least energy (ties broken by smaller q, then
    smaller l). When every pair is infeasible the Solution carries one
    reason per pair.
    """
    return _enumerate(net, sc, ap, "proposed", _pairs(net, sc), PairEnergy.bracket,
                      eps_rho)


def solve_baseline(kind: str, net, sc: Scenario, ap: AccuracyParams,
                   eps_rho: float = 1e-6) -> Solution:
    """Ablation baselines: each picks its (l, q) pairs and rho bracket for
    the loop that solve_scenario runs.

    on_server: the pair (0, q_max) at rho = 1, i.e. upload the raw
    (quantized) input and run every layer on the server.
    on_device: split after the last layer, pruning allowed, no uplink.
    no_prune: full enumeration with the pruning ratio pinned to 1.
    """
    if kind == "on_server":
        pairs, bracket = [(0, sc.q_max)], lambda energy: energy.pin(1.0)
    elif kind == "on_device":
        pairs, bracket = [(net.depth, None)], PairEnergy.bracket
    elif kind == "no_prune":
        pairs, bracket = _pairs(net, sc), lambda energy: energy.pin(1.0)
    else:
        raise ValueError(f"unknown baseline {kind!r}")
    return _enumerate(net, sc, ap, kind, pairs, bracket, eps_rho)


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
