"""Outer enumeration over split point and quantization bits with an exact
nested pruning-ratio search per pair, the three ablation baselines, and
parameter sweeps."""

from __future__ import annotations

import csv
import heapq
import json
import math
from dataclasses import asdict, dataclass, fields, replace

from . import netmodel
from .accuracy import (AccuracyParams, PenaltyTerms, accuracy_ceiling, ideal_accuracy,
                       margin_factor, pruning_floor, quant_error_factor, sensing_power,
                       sensing_power_error)
from .cost import Allocation, CostBreakdown, Scenario, check_feasible
from .errors import CheckError, InfeasibleError
from .quant import delta_coeff
from .solvers import LN2, brent_steps, check_deadline, min_rate_time, power_freq

# the proposed design, then the three ablation baselines
ORIGINS = ("proposed", "on_server", "on_device", "no_prune")

# smallest pruning ratio the rho search will consider; the decision domain
# is (0, 1] and the objective stays finite as rho -> 0+
RHO_FLOOR = 1e-9

# width of the rho bracket at which the pair search (Brent's method) stops
EPS_RHO = 1e-6

# a pair is searched while its lower bound is at most the incumbent's
# E(rho) times (1 + PRUNE_RTOL); the margin absorbs the rounding between
# E(rho), its bounds and the KKT stopping test
PRUNE_RTOL = 1e-9

# secant steps of the surrogate bound (stage 2 of PairEnergy.steps) after its
# first two points
SURROGATE_STEPS = 1


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
    """Split-dependent accuracy penalty coefficients. The quantization
    coefficient is 0 for a split after the last layer (delta_coeff): nothing
    is uploaded there, so quantization cannot hurt. The pruning coefficient
    and tail norm are read from `net.penalty_table`; a split with no entry
    there computes them, and raises what they raise."""
    factors = net.penalty_table[l] if 0 <= l <= net.depth else None
    if factors is None:
        factors = netmodel.pruning_penalty_coeff(net, l), netmodel.tail_norm_product(net, l)
    return PenaltyTerms(prune_coeff=factors[0],
                        quant_coeff=delta_coeff(net, l, ap.f_min, ap.f_max),
                        tail_norm=factors[1])


class Split:
    """What every pair of split l reads, built once per split and solve:
    the network, scenario and accuracy model with the split's penalty
    terms; the budget t2 left for edge compute and upload after sensing and
    server compute; the number of features uploaded; the edge FLOPs a2_lo
    at RHO_FLOOR and the FlopPieces of layers 1..l; the upload's least
    inverse spectral efficiency t_min (min_rate_time); the margin factor
    (accuracy.margin_factor); and the scalars the pair kernels take, with
    the accuracy ceiling and the ideal accuracy at p_max."""

    def __init__(self, net, sc: Scenario, ap: AccuracyParams, l: int):
        self.net, self.sc, self.ap, self.l = net, sc, ap, l
        self.terms = terms = penalty_terms(net, l, ap)
        t_server = netmodel.cum_flops(net, l + 1, net.depth, 1.0) / sc.nu_s
        self.t2, self.dim = sc.t_max - sc.t_sen - t_server, netmodel.upload_dim(net, l)
        self.a2_lo, self.flops = netmodel.cum_flops(net, 1, l, RHO_FLOOR), net.flop_table[l]
        self.t_min = min_rate_time(sc)
        self.prune_coeff, self.margin = terms.prune_coeff, margin_factor(terms, ap)
        self.p_max, self.t_sen = sc.p_max, sc.t_sen
        self.g, self.kappa, self.nu_max = sc.g_over_bn0, sc.kappa, sc.nu_max
        self.ceiling, self.ideal = accuracy_ceiling(ap), ideal_accuracy(sc.p_max, ap)


def tangent_floor(width: float, e_a: float, g_a: float, e_b: float, g_b: float) -> float:
    """The least value over [a, b], b = a + width, of the larger tangent of
    a convex function with values e_a, e_b and slopes g_a, g_b at a and b:
    the tangents' value where they cross, rise/span right of a (rise is e_a
    less b's tangent at a), clamped to [a, b]; -inf where the slopes fall
    from a to b (rounding, or an overflow to inf or NaN)."""
    span = g_b - g_a
    if not span >= 0.0:
        return -math.inf
    rise = e_a - e_b + g_b * width
    if rise >= span * width:
        return e_a + g_a * width
    if rise > 0.0:
        return e_b - g_b * (width - rise / span)
    return e_a


class PairEnergy:
    """Energy of one (l, q) pair as a function of the pruning ratio alone.

    For fixed rho the sensing power is the closed-form inverse of the
    accuracy bound, and (p_c, nu_e) is the exact KKT optimum for the edge
    FLOPs a2 = cum_flops(1..l, rho), so

        E(rho) = t_sen * p_s(rho) + e_comm + e_comp.

    The on-device split l = L uploads nothing (a1 = 0), and the split l = 0
    computes nothing on the edge (a2 = 0); power_freq covers both
    corners. A call raises InfeasibleError where rho admits no feasible
    point or E overflows to inf; each call that returns records (energy,
    p_s, p_c, nu_e, e_edge, slope) in `points`, and `least` is the least
    energy recorded. The slope is E' = t_sen*dp_s/drho + dE_edge/da2 *
    da2/drho, from values the kernels return (see _record). The pair
    prunes when its origin does (`prune`) and a layer runs on the device
    (l > 0); one that does not holds rho at 1.

    E is evaluated by the kernels accuracy.sensing_power, FlopPieces.at
    and solvers.power_freq from constants bound once, not per call: the
    Split's, and the pair's quantization term quant_coeff*v(q), upload
    size a1 and sensing_power's seven constants `inverse`, bound here, which
    sensing_power_error and pruning_floor take too."""

    def __init__(self, split: Split, q: int, prune: bool = True):
        self.split, self.q = split, q
        self.a1 = split.dim * q / split.sc.bandwidth
        self.quant = split.terms.quant_coeff * quant_error_factor(q)
        self.inverse = (split.prune_coeff, self.quant, split.margin, split.sc.r_t,
                        split.ap.a, split.ap.b, split.ceiling)
        self.prune = prune and split.l > 0
        self.least = math.inf
        self.points: dict[float, tuple[float, float, float, float, float, float]] = {}

    def __call__(self, rho: float) -> float:
        s = self.split
        p_s, _, dp_s = sensing_power(rho, *self.inverse)
        if p_s > s.p_max:
            raise sensing_power_error(rho, *self.inverse, p_s, s.p_max)
        a2, da2 = s.flops.at(rho)
        return self._record(rho, p_s, dp_s, a2, da2)

    def _record(self, rho: float, p_s: float, dp_s: float, a2: float, da2: float) -> float:
        """E at rho from its sensing power p_s and slope dp_s = dp_s/drho,
        and its edge FLOPs a2 and their slope da2 (FlopPieces.at); raises
        InfeasibleError (energy_overflow) where E overflows to inf. The
        slope E' = t_sen*dp_s + dE_edge/da2 * da2 takes dE_edge/da2 from
        power_freq; E is convex on the pair's rho range (p_s is convex, a2
        convex and piecewise affine, and the least edge energy convex and
        nondecreasing in a2), so E' gives a tangent below E. An overflow
        can leave E' infinite or NaN; lower_bound stays a bound there."""
        s = self.split
        p_c, nu_e, _, _, e_edge, de_da2 = power_freq(self.a1, a2, s.t2, s.t_min, s.g,
                                                     s.kappa, s.p_max, s.nu_max)
        energy = s.t_sen * p_s + e_edge
        if energy == math.inf:
            raise InfeasibleError("energy_overflow", f"energy at rho = {rho:.6g} overflows")
        self.points[rho] = energy, p_s, p_c, nu_e, e_edge, s.t_sen * dp_s + de_da2 * da2
        if energy < self.least:
            self.least = energy
        return energy

    def rho_max(self) -> float:
        """Largest rho whose edge FLOPs meet the deadline at (p_max, nu_max):
        a1*t_min + cum_flops(1..l, rho)/nu_max <= t2."""
        s = self.split
        cap = (s.t2 - self.a1 * s.t_min) * s.nu_max
        rho_max = netmodel.max_rho(s.net, s.l, cap)
        if rho_max <= RHO_FLOOR:
            raise InfeasibleError(
                "latency_budget",
                f"edge compute misses the deadline at any rho (budget {cap:.6g} FLOPs)")
        return rho_max

    def lower_bound(self, rhos) -> float:
        """Lower bound of E over the rho the pair can still return, from E
        evaluated at the increasing points `rhos` (any number from 2; 2 or
        3 from a Brent step): every rho in [rhos[0], rhos[-1]], and the
        points already evaluated. It is the larger of two bounds over
        neighbours a < b, each the least over the segments [a, b]:

        - the chain, t_sen*p_s(b) + e_edge(a): p_s is nonincreasing in rho
          and the edge energy nondecreasing in the edge FLOPs, which are
          nondecreasing in rho;
        - the tangents: E is convex, so on [a, b] it lies above the larger
          of its tangents at a and b (their recorded slopes), whose least
          value there is tangent_floor.

        Where the slopes share a sign, that value can exceed E's least on
        [a, b], which then lies at a or b, an evaluated point; so the key
        is capped at `least`. That keeps it a bound, and keeps the key of
        the search that holds the incumbent at or below it, so that search
        always finishes. It reads only evaluated points: after E at the
        top, every key steps yields is this bound."""
        t_sen, points = self.split.t_sen, self.points
        a = rhos[0]
        e_a, _, _, _, edge_a, g_a = points[a]
        chain = tangent = math.inf
        for i in range(1, len(rhos)):
            b = rhos[i]
            e_b, p_b, _, _, edge_b, g_b = points[b]
            right = t_sen * p_b + edge_a
            if right < chain:
                chain = right
            cross = tangent_floor(b - a, e_a, g_a, e_b, g_b)
            if cross < tangent:
                tangent = cross
            a = b
            e_a = e_b
            edge_a = edge_b
            g_a = g_b
        if tangent > chain:
            chain = tangent
        least = self.least
        return least if chain > least else chain

    def edge_floor(self, a2: float, busy: float) -> float:
        """A floor on the least edge energy at edge FLOPs a2 where the upload
        takes at most `busy` of the budget t2 (a1*t <= busy):

            a1*T*p_c(T) + kappa*a2*(a2/max(t2 - a1*t_min, a2/nu_max))^2

        with T = max(busy/a1, t_min) and p_c(t) = expm1(ln2/t)/g_over_bn0.
        t*p_c(t) falls as t grows, to ln2/g_over_bn0 (the upload term where T
        overflows), and the edge frequency is at least a2/(t2 - a1*t_min), as
        the upload takes at least a1*t_min; the guard a2/nu_max only lowers
        that term, and keeps it finite where t2 - a1*t_min rounds to 0 or
        below (where the KKT solve runs at nu_max too)."""
        s, a1 = self.split, self.a1
        upload = compute = 0.0
        if a1:
            t = max(busy / a1, s.t_min)
            upload = (a1 * t * math.expm1(LN2 / t) if t < math.inf else a1 * LN2) / s.g
        if a2:
            nu = a2 / max(s.t2 - a1 * s.t_min, a2 / s.nu_max)
            compute = s.kappa * a2 * nu**2
        return upload + compute

    def steps(self):
        """The pair's search as a generator: before each unit of work it
        yields a lower bound of E over the rho it can still return; it
        returns the least-energy rho it evaluated (the smallest on ties),
        and raises InfeasibleError where no rho is feasible. Every key after
        E at the top is lower_bound over points it evaluated, and no yield
        repeats the key the pair holds: the pair heads the queue when it
        evaluates E, with a key at most its least E, so a repeat would
        change nothing. Five stages:

        1. The top end, rho_max for a pair that prunes and rho = 1 for one
           that does not, with every check E makes there before its KKT
           solve, in order (rho_max, sensing_power, check_deadline); then a
           yield of the relaxed bound, with no KKT solve: t_sen*p_s(top)
           plus edge_floor at a2_lo, the edge FLOPs at the bottom of the
           pair's rho range (RHO_FLOOR, or the top for a pair that does not
           prune), with the upload taking at most t2 - a2_lo/nu_max, as the
           edge compute takes at least a2_lo/nu_max. p_s does not rise with
           rho, and the edge energy does not fall as the edge FLOPs rise.
        2. For a pair that prunes, the surrogate bound: the least value over
           [RHO_FLOOR, top] of E's surrogate

               f(rho) = t_sen*p_s(rho) + max(edge_lo, D*(a2(rho)/a2_top)^3)

           with p_s uncapped, edge_lo the edge terms of the relaxed bound
           and D = edge_floor(a2_top, t2), a floor on the least edge energy
           at the top with the upload given the whole budget: no cap on
           nu_e. E >= f: scaling the edge FLOPs by s <= 1 scales the compute
           energy kappa*a2^3/time^2 of any split of the deadline by s^3, and
           the upload energy (>= 0) is at least s^3 of itself, so the least
           edge energy without the cap nu_max is at least s^3 D; the cap
           only adds to it. f is convex (p_s is, a2 is convex and piecewise
           affine, and the cube and the max keep that), so tangent_floor
           over a < b with f'(a) <= 0 < f'(b) is below its least value. Where
           D <= edge_lo, f's least value is the relaxed bound, at the top.

           f at the top is read from stage 1's values. b starts there, and
           a where f' <= 0 is proven. Below the top, f' <= beta*R(rho)^2 -
           A*(ln rho)^2, with A = t_sen*dp_s/du and beta = 3*D*a2'/a2_top at
           the top (dp_s/du rises as rho falls, and a2' does not), and R the
           chord of a2/a2_top from RHO_FLOOR to the top (a2 is convex, so
           below it). So f' <= 0 at and below the root of g(rho) = -ln(rho)
           - sqrt(beta/A)*R(rho), which is convex and decreasing: Newton
           steps from exp(-sqrt(beta/A)), where g >= 0 as R <= 1, stay below
           the root. Then up to SURROGATE_STEPS secant steps on f' replace a
           or b by the sign of f' there. A point where f is infinite (p_s
           has no value) lies left of every feasible rho, as does one where
           f' is -inf; until a is found, the bound is b's tangent at the
           leftmost such point (or RHO_FLOOR). The stage yields its bound
           each time it rises.
        3. E at the top. A pair that does not prune returns the top here,
           and so does one whose recorded slope E'(top) is at most 0: E is
           convex, so that slope (a value between E's one-sided slopes at
           the top) puts E's least value over [rho_min, top] at the top.
        4. The seed: stage 2's estimate of f's minimizer, the point its
           loop ends on (its next secant point, or its midpoint where it
           found no point with f' <= 0), where that lies inside
           (RHO_FLOOR, top). E at the seed; where that raises
           InfeasibleError (the seed lies below rho_min, or E overflows
           there) the seed is dropped. Otherwise, where E'(seed) <= 0, a
           yield of lower_bound over (seed, top): a convex E does not fall
           left of such a seed, and E(seed) is at least the capped
           lower_bound.
        5. The bracket, E at rho_min, the smallest rho whose sensing power
           fits under p_max (pruning_floor), then Brent's method on
           [rho_min, top] (solvers.brent_steps) to a width of EPS_RHO, from
           the seed where there is one (above rho_min) and from the
           golden-section point otherwise, with a yield before each
           evaluation of E of lower_bound over the evaluated points of its
           bracket (their chain and tangent bounds, capped at the least E).
        """
        s, inverse = self.split, self.inverse
        top = self.rho_max() if self.prune else 1.0
        p_s, dp_du, dp_s = sensing_power(top, *inverse)
        if p_s > s.p_max:
            raise sensing_power_error(top, *inverse, p_s, s.p_max)
        a2_top, da2_top = s.flops.at(top)
        check_deadline(self.a1, a2_top, s.t2, s.t_min, s.nu_max)
        t_sen = s.t_sen
        a2_lo = s.a2_lo if self.prune else a2_top
        edge_lo = self.edge_floor(a2_lo, s.t2 - a2_lo / s.nu_max)
        bound = t_sen * p_s + edge_lo
        yield bound
        # stage 2, which can rise above the relaxed bound only where D > edge_lo
        seed = None
        d_top = self.edge_floor(a2_top, s.t2) if self.prune and a2_top else edge_lo
        if d_top > edge_lo:
            f_b = t_sen * p_s + d_top
            g_b = t_sen * dp_s + 3.0 * d_top * da2_top / a2_top
            if g_b > 0.0:
                flops_at = s.flops.at

                def f(rho):
                    """(f, f') at rho; (inf, -inf) left of the rho at which
                    some sensing power meets r_t."""
                    p_s, _, dp_s = sensing_power(rho, *inverse)
                    if p_s == math.inf:
                        return math.inf, -math.inf
                    a2, da2 = flops_at(rho)
                    cube = d_top * (a2 / a2_top) ** 3
                    if cube > edge_lo:
                        return t_sen * p_s + cube, t_sen * dp_s + 3.0 * cube * da2 / a2
                    return t_sen * p_s + edge_lo, t_sen * dp_s

                # a: three Newton steps on g, with c = sqrt(beta/A) and the
                # chord R(rho) = r_lo + r_slope*(rho - RHO_FLOOR)
                a_top = t_sen * dp_du
                c = math.sqrt(3.0 * d_top * da2_top / a2_top / a_top) if a_top else math.inf
                r_lo = s.a2_lo / a2_top
                r_slope = (1.0 - r_lo) / (top - RHO_FLOOR)
                rho = math.exp(-c)
                for _ in range(3):
                    if not RHO_FLOOR < rho < top:
                        break
                    g = -math.log(rho) - c * (r_lo + r_slope * (rho - RHO_FLOOR))
                    rho += g / (1.0 / rho + c * r_slope)
                lo, b, a = RHO_FLOOR, top, None
                for _ in range(SURROGATE_STEPS + 1):
                    if not (lo < rho < b and f_b > bound):
                        break
                    f_c, g_c = f(rho)
                    if g_c == -math.inf:
                        lo = rho
                    elif g_c <= 0.0:
                        lo = a = rho
                        f_a, g_a = f_c, g_c
                    else:
                        b, f_b, g_b = rho, f_c, g_c
                    if a is None:
                        key, rho = f_b - g_b * (b - lo), 0.5 * (lo + b)
                    else:
                        span = g_b - g_a
                        if span == math.inf:
                            break
                        key = tangent_floor(b - a, f_a, g_a, f_b, g_b)
                        rho = a - g_a / span * (b - a)   # where the secant of f' is 0
                    if key > bound:
                        bound = key
                        yield bound
                if RHO_FLOOR < rho < top:
                    seed = rho
            elif f_b > bound:
                # f does not rise to the top, so its least value is there
                yield f_b
        e_top = self._record(top, p_s, dp_s, a2_top, da2_top)
        points = self.points
        if not self.prune or points[top][5] <= 0.0:
            return top
        e_seed = None
        if seed is not None:
            try:
                e_seed = self(seed)
            except InfeasibleError:
                seed = None
            else:
                # right of the seed lower_bound holds, and left of it
                # E(seed), at least that capped bound, where E'(seed) <= 0
                if points[seed][5] <= 0.0:
                    yield self.lower_bound((seed, top))
        rho_min = min(pruning_floor(*inverse, s.ideal, s.p_max, RHO_FLOOR), top)
        if seed is not None and not rho_min < seed:
            # pruning_floor stops within the rounding of K above the least
            # feasible rho, so a feasible seed can lie at or below it
            seed = None
        search = brent_steps(self, rho_min, top, self(rho_min), e_top, EPS_RHO, seed, e_seed)
        while True:
            try:
                rhos = next(search)
            except StopIteration as done:
                return done.value
            yield self.lower_bound(rhos)


def _answer(energy: PairEnergy, rho: float, origin: str, splits) -> Solution:
    """The Solution of `energy`'s pair at `rho`, a point E was evaluated at.
    check_feasible over `splits` gives its cost breakdown, and CheckError
    names each constraint it fails, with its slack; `iterations` is the
    number of points E was evaluated at."""
    _, p_s, p_c, nu_e, _, _ = energy.points[rho]
    s = energy.split
    alloc = Allocation(l=s.l, q=energy.q, rho=rho, p_s=p_s, p_c=p_c, nu_e=nu_e)
    report = check_feasible(alloc, s.net, s.sc, s.terms, s.ap, splits)
    failed = [f"{c.name} slack {c.slack!r}" for c in report.checks if not c.ok]
    if failed:
        raise CheckError(f"{origin} (l={alloc.l}, q={alloc.q}): " + ", ".join(failed))
    return Solution(origin=origin, feasible=True, alloc=alloc, cost=report.cost,
                    iterations=len(energy.points))


def _pairs(net, sc, origin: str = "proposed") -> list[tuple[int, int]]:
    """The (l, q) pairs an origin enumerates, in order; with the prune rule
    beside the call in _enumerate this is each origin's whole rule. proposed
    and no_prune take every admissible pair (a split that uploads nothing,
    after the last layer, has the one pair (l, 2)). on_server uploads the raw quantized input and
    runs every layer on the server: the pair (0, q_max). on_device runs
    every layer on the device and uploads nothing: the pair (L, 2)."""
    if origin == "on_server":
        return [(0, sc.q_max)]
    if origin == "on_device":
        return [(net.depth, 2)]
    if origin not in ORIGINS:
        raise ValueError(f"unknown origin {origin!r}")
    return [(l, q) for l in sorted(sc.splits)
            for q in range(2, (sc.q_max if netmodel.upload_dim(net, l) else 2) + 1)]


def _nan_key(origin: str, l: int, q: int) -> CheckError:
    return CheckError(f"{origin} (l={l}, q={q}): lower bound is NaN")


def _enumerate(net, sc, ap, origin):
    """The one outer loop, a best-first branch and bound over the origin's
    (l, q) pairs; the one per-origin rule in it is PairEnergy's `prune`,
    false for no_prune (rho = 1).

    Every pair's search (PairEnergy.steps) first takes its first step, in
    the origin's pair order: each search yields its relaxed bound there or
    raises InfeasibleError, and none records a point, so the order cannot
    matter. One priority queue, heapified once, then holds each search
    that yielded, keyed by (lower bound, q, l), a total order. Each pass
    advances the least entry by one step: a yielded key puts it back (a
    NaN key, first or later, raises CheckError naming the pair, as it
    would end the loop unsearched), an InfeasibleError leaves its reason,
    and a finished search competes for the answer on (E, q, l). The least
    E(rho) evaluated so far is the incumbent, and the loop stops when the
    least key is above it times (1 + PRUNE_RTOL). Every pair left in the queue then has every point it
    could return above the incumbent, so the answer is the least (E, q, l)
    over all pairs, with its `iterations`, as if every pair were searched.

    The answer is built once, by _answer, which raises CheckError naming
    each constraint it fails. A loop that ends with a finite incumbent but
    no finished search broke the invariant above (a key above its pair's
    least E): it raises CheckError naming the origin, not an infeasible
    answer.
    """
    if not all(0 <= l <= net.depth for l in sc.splits):
        raise ValueError(f"scenario.splits {sc.splits} must lie in 0..{net.depth}")
    pairs = _pairs(net, sc, origin)
    splits = {l: Split(net, sc, ap, l) for l in {l for l, _ in pairs}}
    reasons, queue = [], []
    for l, q in pairs:
        energy = PairEnergy(splits[l], q, origin != "no_prune")
        steps = energy.steps()
        try:
            key = next(steps)
        except InfeasibleError as err:
            reasons.append((l, q, err.reason))
            continue
        if math.isnan(key):
            raise _nan_key(origin, l, q)
        queue.append((key, q, l, energy, steps))
    heapq.heapify(queue)
    incumbent, best = math.inf, None
    while queue and queue[0][0] <= incumbent * (1.0 + PRUNE_RTOL):
        _, q, l, energy, steps = queue[0]
        try:
            key = next(steps)
        except InfeasibleError as err:
            heapq.heappop(queue)
            reasons.append((l, q, err.reason))
            continue
        except StopIteration as done:
            heapq.heappop(queue)
            e = energy.points[done.value][0]
            if best is None or (e, q, l) < best[:3]:
                best = (e, q, l, energy, done.value)
        else:
            if math.isnan(key):
                raise _nan_key(origin, l, q)
            heapq.heapreplace(queue, (key, q, l, energy, steps))
        if energy.least < incumbent:
            incumbent = energy.least
    reasons = tuple(sorted(reasons))
    if best is None and incumbent < math.inf:
        raise CheckError(f"{origin}: no pair finished its search, incumbent {incumbent!r} J")
    if best is None:
        return Solution(origin=origin, feasible=False, alloc=None, cost=None,
                        iterations=0, reasons=reasons)
    return replace(_answer(*best[3:], origin, splits), reasons=reasons)


def solve_scenario(net, sc: Scenario, ap: AccuracyParams) -> Solution:
    """Minimum-energy allocation over all (l, q) pairs.

    Searches each pair's rho by Brent's method (PairEnergy), one step at a
    time from a best-first queue of lower bounds that leaves every pair it
    rules out unfinished (see _enumerate), and returns the feasible
    solution of least energy (ties broken by smaller q, then smaller l).
    When every pair is infeasible the Solution carries one reason per pair.
    Raises CheckError when the answer fails its check.
    """
    return _enumerate(net, sc, ap, "proposed")


def solve_baseline(kind: str, net, sc: Scenario, ap: AccuracyParams) -> Solution:
    """Ablation baseline `kind` (on_server, on_device or no_prune), solved
    by the loop of solve_scenario over the pairs that _pairs states for it;
    no_prune's pairs do not prune (rho = 1), the others' do."""
    if kind not in ORIGINS[1:]:
        raise ValueError(f"unknown baseline {kind!r}")
    return _enumerate(net, sc, ap, kind)


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
          origins: tuple[str, ...] = ORIGINS) -> list[SweepRow]:
    """Re-solve the proposed method and every baseline per swept value.

    Infeasible points are recorded as infeasible rows; the sweep continues.
    An answer failing its check raises CheckError prefixed with axis=value.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        sc_v = apply_axis(sc, axis, value)
        for origin in origins:
            try:
                sol = _enumerate(net, sc_v, ap, origin)
            except CheckError as err:
                raise CheckError(f"{axis}={value!r} {err}") from err
            rows.append(SweepRow(axis=axis, value=value, solution=sol))
    return rows


CSV_COLUMNS = ("scenario_id", "origin", "l", "q", "rho", "p_s", "p_c", "nu_e",
               "e_sen", "e_comp", "e_comm", "e_total", "t_total", "feasible",
               "iters")


def solution_row(scenario_id: str, sol: Solution) -> dict:
    """solution_to_dict flattened onto CSV_COLUMNS; the columns an
    infeasible solution has no value for are empty."""
    data = solution_to_dict(sol)
    flat = {"scenario_id": scenario_id, "iters": data["iterations"], **data,
            **data.get("allocation", {}), **data.get("cost", {})}
    return {key: flat.get(key, "") for key in CSV_COLUMNS}


def write_solutions_csv(path, rows) -> None:
    """Write solution rows (dicts keyed by CSV_COLUMNS) deterministically."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def solution_to_dict(sol: Solution) -> dict:
    """JSON-ready view of a Solution, full precision; the cost also carries
    its e_total and t_total."""
    out = {"origin": sol.origin, "feasible": sol.feasible,
           "iterations": sol.iterations, "reasons": [list(r) for r in sol.reasons]}
    if sol.feasible:
        out["allocation"] = asdict(sol.alloc)
        out["cost"] = {**asdict(sol.cost), "e_total": sol.cost.e_total,
                       "t_total": sol.cost.t_total}
    return out


def _from_fields(cls, record: dict):
    return cls(**{f.name: record[f.name] for f in fields(cls)})


def solution_from_dict(data: dict) -> Solution:
    """Strict inverse of solution_to_dict: every key it writes must be
    present (the cost's totals are recomputed, not read)."""
    feasible = data["feasible"]
    return Solution(
        origin=data["origin"], feasible=feasible,
        alloc=_from_fields(Allocation, data["allocation"]) if feasible else None,
        cost=_from_fields(CostBreakdown, data["cost"]) if feasible else None,
        iterations=data["iterations"],
        reasons=tuple(tuple(r) for r in data["reasons"]))


def dump_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
