"""Energy/latency cost model of one inference round and the feasibility
checker for the full constraint system."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import netmodel
from .accuracy import AccuracyParams, PenaltyTerms, accuracy_lower_bound
from .netmodel import NetworkModel
from .sensing import sensing_cost


@dataclass(frozen=True)
class Scenario:
    """System constants of one deployment.

    Units: seconds, watts, Hz, FLOP/s; kappa in J*s^2/FLOP (effective
    switched capacitance); g_over_bn0 is the linear SNR per watt of
    transmit power (channel gain over bandwidth*noise density).
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
    splits: tuple[int, ...] = ()

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
        if int(self.q_max) != self.q_max or self.q_max < 2:
            raise ValueError("q_max must be an integer >= 2")

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
    """Achievable uplink rate B*log2(1 + SNR(p_c)) in bit/s."""
    return sc.bandwidth * math.log2(1.0 + sc.g_over_bn0 * p_c)


def comm_cost(l: int, q: int, p_c: float, net: NetworkModel,
              sc: Scenario) -> tuple[float, float]:
    """(latency, energy) of uploading the split feature vector.

    Payload is feature_dim(l) * q bits at the achievable rate; a split after
    the last layer means fully on-device inference and costs (0, 0).
    """
    if l == net.depth:
        return 0.0, 0.0
    if p_c <= 0:
        raise ValueError("communication power must be positive")
    rate = comm_rate(p_c, sc)
    t_comm = netmodel.feature_dim(net, l) * q / rate
    return t_comm, p_c * t_comm


def comp_cost(l: int, rho: float, nu_e: float, net: NetworkModel,
              sc: Scenario) -> tuple[float, float, float]:
    """(edge latency, server latency, edge energy) of the split computation.

    Edge runs layers 1..l at pruning ratio rho and frequency nu_e; the
    server runs the rest unpruned at its fixed frequency. Edge energy is
    kappa * FLOPs * nu_e^2; server energy is not accounted.
    """
    if nu_e <= 0:
        raise ValueError("edge frequency must be positive")
    edge_flops = netmodel.cum_flops(net, 1, l, rho, warn=False)
    server_flops = netmodel.cum_flops(net, l + 1, net.depth, 1.0)
    t_edge = edge_flops / nu_e
    t_server = server_flops / sc.nu_s
    return t_edge, t_server, sc.kappa * edge_flops * nu_e**2


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
    checks: tuple[ConstraintCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def slack(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.slack
        raise KeyError(name)


def check_feasible(alloc: Allocation, net: NetworkModel, sc: Scenario,
                   terms: PenaltyTerms, ap: AccuracyParams,
                   splits=None, tol: float = 1e-9) -> FeasibilityReport:
    """Evaluate every constraint with its slack (positive = satisfied).

    `splits` overrides the admissible split set (baselines use l=0 or l=L
    outside the scenario's set). Slacks within -tol still pass, so
    boundary-active converged solutions report ok.
    """
    allowed = set(splits) if splits is not None else set(sc.splits or net.split_candidates)
    try:
        bound = accuracy_lower_bound(alloc, terms, ap)
        accuracy_check = ConstraintCheck("accuracy", bound - sc.r_t >= -tol,
                                         bound - sc.r_t)
    except ValueError:
        # quantizer domain violated (e.g. q < 2): no bound exists
        accuracy_check = ConstraintCheck("accuracy", False, -math.inf)
    breakdown = total_cost(alloc, net, sc)
    checks = (
        accuracy_check,
        ConstraintCheck("latency", sc.t_max - breakdown.t_total >= -tol,
                        sc.t_max - breakdown.t_total),
        ConstraintCheck("split", alloc.l in allowed, 0.0 if alloc.l in allowed else -1.0),
        ConstraintCheck("prune_ratio", 0.0 < alloc.rho <= 1.0 + tol,
                        min(alloc.rho, 1.0 - alloc.rho)),
        ConstraintCheck("sensing_power", 0.0 <= alloc.p_s <= sc.p_max + tol,
                        sc.p_max - alloc.p_s),
        ConstraintCheck("comm_power", 0.0 < alloc.p_c <= sc.p_max + tol,
                        sc.p_max - alloc.p_c),
        ConstraintCheck("edge_frequency", 0.0 < alloc.nu_e <= sc.nu_max * (1 + 1e-12),
                        sc.nu_max - alloc.nu_e),
        ConstraintCheck("quant_bits", int(alloc.q) == alloc.q and 2 <= alloc.q <= sc.q_max,
                        float(sc.q_max - alloc.q)),
    )
    return FeasibilityReport(checks=checks)
