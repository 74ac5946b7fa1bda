"""Energy/latency cost model of one inference round and the feasibility
checker for the full constraint system."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import netmodel
from .accuracy import AccuracyParams, PenaltyTerms, accuracy_lower_bound
from .netmodel import NetworkModel
from .sensing import sensing_cost
from .solvers import LN2, min_rate_time


# widest feature word, in bits, that a bit width q may ask for
MAX_BITS = 64

# check_feasible passes a constraint whose slack is at least -FEASIBLE_TOL;
# the latency check also forgives LATENCY_ULPS roundings of t_max, as the
# slack t_max - t_total of a deadline-active answer rounds on t_max's scale
FEASIBLE_TOL = 1e-9
LATENCY_ULPS = 4


@dataclass(frozen=True)
class Scenario:
    """System constants of one deployment.

    Units: seconds, watts, Hz, FLOP/s; kappa in J*s^2/FLOP (effective
    switched capacitance); g_over_bn0 is the linear SNR per watt of
    transmit power (channel gain over bandwidth*noise density). `splits`
    is the set of admissible split layers l in 0..L, where l = 0 uploads
    the raw input and l = L runs every layer on the device.
    """

    t_max: float
    r_t: float
    p_max: float
    nu_max: float
    nu_s: float
    kappa: float
    bandwidth: float
    g_over_bn0: float
    t0: float
    m_chirps: int
    q_max: int
    splits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "splits", tuple(self.splits))
        positive = dict(t_max=self.t_max, p_max=self.p_max, nu_max=self.nu_max,
                        nu_s=self.nu_s, kappa=self.kappa, bandwidth=self.bandwidth,
                        g_over_bn0=self.g_over_bn0, t0=self.t0,
                        m_chirps=self.m_chirps)
        for name, value in positive.items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.r_t < 1.0:
            raise ValueError("target accuracy must lie in [0, 1)")
        if int(self.q_max) != self.q_max or not 2 <= self.q_max <= MAX_BITS:
            raise ValueError(f"q_max must be an integer in 2..{MAX_BITS}, got {self.q_max}")
        if not (self.g_over_bn0 * self.p_max > 0.0 and min_rate_time(self) < math.inf):
            raise ValueError(f"the SNR at p_max, g_over_bn0 * p_max = "
                             f"{self.g_over_bn0 * self.p_max:.3g}, is too small for "
                             f"any uplink rate (1/log2(1 + SNR) is not finite)")
        if not self.splits or len(set(self.splits)) != len(self.splits):
            raise ValueError(f"splits must be nonempty without repeats, got {self.splits}")
        if any(int(l) != l or l < 0 for l in self.splits):
            raise ValueError(f"splits must be nonnegative integers, got {self.splits}")

    @property
    def t_sen(self) -> float:
        return self.t0 * self.m_chirps


@dataclass(frozen=True)
class Allocation:
    """Decision tuple: split layer, quantization bits, pruning ratio,
    sensing/communication powers, edge compute frequency."""

    l: int
    q: int
    rho: float
    p_s: float
    p_c: float
    nu_e: float


@dataclass(frozen=True)
class CostBreakdown:
    e_sen: float
    e_comp: float
    e_comm: float
    t_sen: float
    t_comp_edge: float
    t_comp_server: float
    t_comm: float

    @property
    def e_total(self) -> float:
        return self.e_sen + self.e_comp + self.e_comm

    @property
    def t_total(self) -> float:
        return self.t_sen + self.t_comp_edge + self.t_comp_server + self.t_comm


def comm_rate(p_c: float, sc: Scenario) -> float:
    """Achievable uplink rate B*log2(1 + SNR(p_c)) in bit/s, through log1p,
    so an SNR below the rounding of 1 + SNR still gives a positive rate."""
    return sc.bandwidth * math.log1p(sc.g_over_bn0 * p_c) / LN2


def comm_cost(l: int, q: int, p_c: float, net: NetworkModel,
              sc: Scenario) -> tuple[float, float]:
    """(latency, energy) of uploading the split feature vector.

    Payload is upload_dim(l) * q bits at the achievable rate; a split after
    the last layer uploads nothing and costs (0, 0), also where the rate
    underflows to 0.
    """
    if p_c <= 0:
        raise ValueError("communication power must be positive")
    bits = netmodel.upload_dim(net, l) * q
    if not bits:
        return 0.0, 0.0
    t_comm = bits / comm_rate(p_c, sc)
    return t_comm, p_c * t_comm


def comp_cost(l: int, rho: float, nu_e: float, net: NetworkModel,
              sc: Scenario) -> tuple[float, float, float]:
    """(edge latency, server latency, edge energy) of the split computation.

    Edge runs layers 1..l at pruning ratio rho and frequency nu_e; the
    server runs the rest unpruned at its fixed frequency. Edge energy is
    kappa * FLOPs * nu_e^2, 0 with no edge FLOPs (where nu_e^2 may
    overflow); server energy is not accounted.
    """
    if nu_e <= 0:
        raise ValueError("edge frequency must be positive")
    edge_flops = netmodel.cum_flops(net, 1, l, rho)
    server_flops = netmodel.cum_flops(net, l + 1, net.depth, 1.0)
    t_edge = edge_flops / nu_e
    t_server = server_flops / sc.nu_s
    return t_edge, t_server, sc.kappa * edge_flops * nu_e**2 if edge_flops else 0.0


def total_cost(alloc: Allocation, net: NetworkModel, sc: Scenario) -> CostBreakdown:
    """Assemble every latency and energy term for one allocation."""
    t_sen, e_sen = sensing_cost(alloc.p_s, sc.t0, sc.m_chirps)
    t_edge, t_server, e_comp = comp_cost(alloc.l, alloc.rho, alloc.nu_e, net, sc)
    t_comm, e_comm = comm_cost(alloc.l, alloc.q, alloc.p_c, net, sc)
    return CostBreakdown(e_sen=e_sen, e_comp=e_comp, e_comm=e_comm,
                         t_sen=t_sen, t_comp_edge=t_edge,
                         t_comp_server=t_server, t_comm=t_comm)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    ok: bool
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Every constraint check of one allocation, and the cost breakdown the
    latency check read (None when the allocation lies outside the domain of
    total_cost)."""

    checks: tuple[ConstraintCheck, ...]
    cost: CostBreakdown | None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def slack(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.slack
        raise KeyError(name)


def _box(name: str, ok: bool, value: float, lo: float, hi: float) -> ConstraintCheck:
    """A bound check whose slack is the distance from `value` to the nearer
    of lo and hi, negative outside [lo, hi]."""
    return ConstraintCheck(name, ok, float(min(value - lo, hi - value)))


def check_feasible(alloc: Allocation, net: NetworkModel, sc: Scenario,
                   terms: PenaltyTerms, ap: AccuracyParams,
                   splits=None) -> FeasibilityReport:
    """Evaluate every constraint with its slack (positive = satisfied), and
    the allocation's cost breakdown. An allocation outside its box is
    reported, not raised on.

    `splits` overrides the admissible split set (baselines use l=0 or l=L
    outside the scenario's set). Slacks within -FEASIBLE_TOL still pass, so
    boundary-active converged solutions report ok; a latency slack passes
    within a further LATENCY_ULPS*epsilon*t_max, under 1e-15 s for t_max
    <= 1 s. A box check's slack is the distance to its nearer bound, so a
    failing check never shows a positive slack. Where total_cost has no
    value (a split outside 0..L, a power or frequency outside its domain,
    rho outside (0, 1]) the report carries no cost and the latency slack
    is -inf.
    """
    allowed = set(splits) if splits is not None else set(sc.splits)
    a = alloc
    try:
        bound = accuracy_lower_bound(a, terms, ap)
        accuracy_check = ConstraintCheck("accuracy", bound - sc.r_t >= -FEASIBLE_TOL,
                                         bound - sc.r_t)
    except ValueError:
        # quantizer domain violated (e.g. q < 2): no bound exists
        accuracy_check = ConstraintCheck("accuracy", False, -math.inf)
    try:
        breakdown = total_cost(a, net, sc) if a.l in range(net.depth + 1) else None
    except ValueError:
        breakdown = None
    latency = sc.t_max - breakdown.t_total if breakdown is not None else -math.inf
    integral_q = float(a.q).is_integer()
    checks = (
        accuracy_check,
        ConstraintCheck("latency", latency >= -(FEASIBLE_TOL + LATENCY_ULPS
                                                 * sys.float_info.epsilon * sc.t_max),
                        latency),
        ConstraintCheck("split", a.l in allowed, 0.0 if a.l in allowed else -1.0),
        _box("prune_ratio", 0.0 < a.rho <= 1.0 + FEASIBLE_TOL, a.rho, 0.0, 1.0),
        _box("sensing_power", 0.0 <= a.p_s <= sc.p_max + FEASIBLE_TOL, a.p_s, 0.0, sc.p_max),
        _box("comm_power", 0.0 < a.p_c <= sc.p_max + FEASIBLE_TOL, a.p_c, 0.0, sc.p_max),
        _box("edge_frequency", 0.0 < a.nu_e <= sc.nu_max * (1 + 1e-12),
             a.nu_e, 0.0, sc.nu_max),
        _box("quant_bits", integral_q and 2 <= a.q <= sc.q_max,
             a.q if integral_q else -math.inf, 2, sc.q_max),
    )
    return FeasibilityReport(checks=checks, cost=breakdown)
