"""Brute-force reference energy for the regret metrics.

For every (l, q) pair the search walks a grid over the pruning ratio rho
and the transmit power p_c. The sensing power comes from the closed-form
inverse of the accuracy bound, and the edge frequency is the smallest one
that meets the deadline (edge energy rises with nu_e), so the remaining
search is two-dimensional. The coarse grid is refined a few times around
its best point.

Only the model formulas are used: layer FLOP coefficients, weight norms and
the quantizer coefficient come from `netmodel` and `quant`; the accuracy
inverse, latency and energy terms are restated here with numpy. Nothing in
`solvers` or `optimizer` is called, so the reference cannot inherit a
solver defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isccopt import netmodel, quant
from isccopt.accuracy import PenaltyTerms

RHO_COARSE = np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 64),
                                       np.linspace(0.005, 1.0, 200)]))
PC_DECADES = 8          # p_c grid spans [p_max * 1e-8, p_max]
PC_COARSE_N = 160
REFINE_ROUNDS = 5
REFINE_N = 33


def penalty_terms(net, l: int, ap) -> PenaltyTerms:
    """Split-dependent accuracy penalty coefficients (no quantization term
    when the split is after the last layer: nothing is transmitted)."""
    prune_c = netmodel.pruning_penalty_coeff(net, l) if l >= 1 else 0.0
    quant_c = quant.delta_coeff(net, l, ap.f_min, ap.f_max) if l < net.depth else 0.0
    return PenaltyTerms(prune_coeff=prune_c, quant_coeff=quant_c,
                        tail_norm=netmodel.tail_norm_product(net, l))


def pairs(net, sc) -> list[tuple[int, int]]:
    """Every (l, q) pair the proposed method enumerates; a split after the
    last layer sends nothing and is reported with q = 2."""
    out = []
    for l in sorted(sc.splits or net.split_candidates):
        qs = [2] if l == net.depth else range(2, sc.q_max + 1)
        out.extend((l, q) for q in qs)
    return out


def _layer_flops(net, l_from: int, l_to: int, rho: np.ndarray) -> np.ndarray:
    total = np.zeros_like(rho)
    for i in range(l_from, l_to + 1):
        slope, intercept = netmodel.flops_affine(net.layer(i))
        total = total + np.maximum(slope * rho + intercept, 0.0)
    return total


def _sensing_power(rho, q, terms, ap, sc) -> np.ndarray:
    """Least sensing power meeting r_t at each rho; inf where none within
    p_max does (penalty >= 1, ideal-accuracy ceiling, or power cap)."""
    margin = (terms.tail_norm / (ap.c_m * ap.s)) ** ap.margin_exponent
    prune = 2.0 - rho - rho * (np.log(rho) - 1.0) ** 2
    q_term = terms.quant_coeff / (2.0 ** (q - 1) - 1.0) ** 2 if terms.quant_coeff else 0.0
    k = margin * (terms.prune_coeff * prune + q_term)
    ps = np.full(rho.shape, np.inf)
    ok = k < 1.0
    if sc.r_t <= 0.0:
        ps[ok] = 0.0
        return ps
    target = np.where(ok, sc.r_t / np.where(ok, 1.0 - k, 1.0), np.inf)
    ok &= target < ap.a * math.pi / 2.0
    ps[ok] = np.tan(target[ok] / ap.a) / ap.b
    ps[ps > sc.p_max] = np.inf
    return ps


def _energy_fn(net, sc, ap, l: int, q: int):
    """E(rho, p_c) on a broadcast grid, inf where infeasible."""
    terms = penalty_terms(net, l, ap)
    t_server = float(_layer_flops(net, l + 1, net.depth, np.ones(1))[0]) / sc.nu_s
    slack = sc.t_max - sc.t_sen - t_server
    bits = netmodel.feature_dim(net, l) * q

    def energy(rho, pc):
        ps = _sensing_power(rho, q, terms, ap, sc)
        flops = _layer_flops(net, 1, l, rho)
        if l == net.depth:
            t_comm = e_comm = np.zeros_like(pc)
        else:
            t_comm = bits / (sc.bandwidth * np.log2(1.0 + sc.g_over_bn0 * pc))
            e_comm = pc * t_comm
        budget = slack - t_comm
        with np.errstate(divide="ignore", invalid="ignore"):
            nu = np.where(flops > 0.0, flops / budget, 0.0)
            e_comp = sc.kappa * flops * nu * nu
        ok = np.isfinite(ps) & (budget >= 0.0) & ((flops == 0.0) | (budget > 0.0))
        ok &= nu <= sc.nu_max
        e_total = sc.t_sen * ps + e_comp + e_comm
        return np.where(ok, e_total, np.inf)

    return energy


def _grid_min(energy, rho_grid, pc_grid, refine: bool) -> float:
    e = energy(rho_grid[:, None], pc_grid[None, :])
    best = float(e.min())
    if not refine or not math.isfinite(best):
        return best
    for _ in range(REFINE_ROUNDS):
        i, j = np.unravel_index(int(np.argmin(e)), e.shape)
        r_lo, r_hi = rho_grid[max(i - 1, 0)], rho_grid[min(i + 1, rho_grid.size - 1)]
        rho_grid = np.linspace(r_lo, r_hi, REFINE_N) if r_hi > r_lo else rho_grid[i:i + 1]
        if pc_grid.size > 1:
            p_lo, p_hi = pc_grid[max(j - 1, 0)], pc_grid[min(j + 1, pc_grid.size - 1)]
            pc_grid = np.geomspace(p_lo, p_hi, REFINE_N)
        e = energy(rho_grid[:, None], pc_grid[None, :])
        best = min(best, float(e.min()))
    return best


@dataclass(frozen=True)
class Reference:
    """Least grid energy over all pairs (`best`), with the pruning ratio
    pinned to 1 (`no_prune`), and on the fully on-device split (`on_device`);
    inf where the grid found no feasible point."""

    best: float
    no_prune: float
    on_device: float


def reference_energy(net, sc, ap) -> Reference:
    pc_grid = np.geomspace(sc.p_max * 10.0 ** -PC_DECADES, sc.p_max, PC_COARSE_N)
    one = np.ones(1)
    best = no_prune = math.inf
    for l, q in pairs(net, sc):
        energy = _energy_fn(net, sc, ap, l, q)
        pcs = pc_grid if l < net.depth else sc.p_max * one
        best = min(best, _grid_min(energy, RHO_COARSE, pcs, refine=True))
        no_prune = min(no_prune, _grid_min(energy, one, pcs, refine=False))
    device = _grid_min(_energy_fn(net, sc, ap, net.depth, 2), RHO_COARSE,
                       sc.p_max * one, refine=True)
    return Reference(best=best, no_prune=no_prune, on_device=device)
