"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time

import numpy as np
import pytest

from isccopt import optimizer as opt
from isccopt import oracles as orc
from isccopt.cost import check_feasible
from isccopt.errors import InfeasibleError
from isccopt.quant import QuantSpec
from isccopt.solvers import golden_section, lambert_w0, solve_pc_nue
from util import kkt_residuals


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


class TestCriterion01PruningExpectation:
    def test_order_statistics_match_closed_form(self):
        start = time.monotonic()
        worst = 0.0
        for i, lam in enumerate((0.5, 1.0, 2.0)):
            for j, rho in enumerate(np.arange(0.1, 0.95, 0.1)):
                rep = orc.mc_pruning_expectation(100000, lam, float(rho), 100,
                                                 seed=1000 + 10 * i + j)
                worst = max(worst, rep.worst_violation)
        elapsed = time.monotonic() - start
        report(1, worst <= 0.05 and elapsed <= 60.0,
               f"order-statistics mean vs closed form: worst rel err "
               f"{worst:.4f} (tol 0.05) over 27 combos in {elapsed:.1f}s")


class TestCriterion02PruningBoundStrict:
    def test_no_violation_in_1e4_trials(self):
        start = time.monotonic()
        rep = orc.mc_pruning_bound_check(3, [16, 12, 10, 8], 10000, seed=2000)
        elapsed = time.monotonic() - start
        report(2, rep.passed and rep.worst_violation <= 0.0 and elapsed <= 60.0,
               f"pruning error bound strict over {rep.trials} trials: worst "
               f"violation {rep.worst_violation:.3g} in {elapsed:.1f}s")


class TestCriterion03Quantizer:
    def test_unbiased_and_bounded(self):
        worst = -math.inf
        bias_sigmas = 0.0
        for q in (2, 3, 4, 6):
            rep = orc.mc_quant_check(QuantSpec(bits=q, f_min=0.0, f_max=1.0),
                                     n=100, trials=1000, seed=3000 + q)
            worst = max(worst, rep.worst_violation)
            bias_sigmas = max(bias_sigmas, rep.stats["bias_sigmas"])
            assert rep.passed
        report(3, worst <= 0.0,
               f"quantizer unbiased (worst bias {bias_sigmas:.2f} sigma, tol 4) "
               f"and squared error within bound at 3 sigma for q in 2,3,4,6")


class TestCriterion04PowerFreqOptimality:
    def test_kkt_solution_against_grid(self):
        rng = np.random.default_rng(4000)
        worst_gap = -math.inf
        worst_lat = 0.0
        worst_kkt = 0.0
        for i in range(20):
            ctx, sc = orc.random_power_freq_context(rng)
            rep = orc.grid_subproblem(ctx, sc, 400, seed=i, tolerance=5e-3)
            assert rep.passed, rep.stats
            worst_gap = max(worst_gap, rep.worst_violation)
            sol = solve_pc_nue(ctx, sc)
            lat = abs(ctx.a1 * sol.t + ctx.a2 / sol.nu_e - ctx.t2) / ctx.t2
            worst_lat = max(worst_lat, lat)
            worst_kkt = max(worst_kkt, max(kkt_residuals(ctx, sc, sol)))
        ok = worst_gap <= 5e-3 and worst_lat <= 1e-9 and worst_kkt <= 1e-8
        report(4, ok,
               f"power/frequency solver vs 400x400 grid: worst rel gap "
               f"{worst_gap:.2e} (tol 5e-3), latency residual {worst_lat:.2e} "
               f"(tol 1e-9), KKT residual {worst_kkt:.2e} (tol 1e-8)")


class TestCriterion05LambertW:
    def test_defining_equation_residual(self):
        pts = np.concatenate([
            [-1.0 / math.e],
            -1.0 / math.e + np.geomspace(1e-12, 0.99 / math.e, 12),
            np.geomspace(1e-9, 1e6, 37),
        ])
        assert pts.size == 50
        worst = 0.0
        for x in pts:
            w = lambert_w0(float(x))
            worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
        report(5, worst <= 1e-12,
               f"Lambert W residual over 50 points in [-1/e, 1e6]: worst "
               f"{worst:.2e} (tol 1e-12)")


class TestCriterion06GoldenSection:
    def test_unimodal_battery(self):
        eps = 1e-8
        battery = [
            (lambda x: (x - 2.0) ** 2, 0.0, 5.0, 2.0),
            (lambda x: abs(x - math.pi), 0.0, 6.0, math.pi),
            (lambda x: 3.0 * (1.3 - x) if x < 1.3 else (x - 1.3) ** 1.5,
             0.0, 4.0, 1.3),
            (lambda x: -x, 0.0, 1.0, 1.0),   # boundary minimum at ub
            (lambda x: x, 0.0, 1.0, 0.0),    # boundary minimum at lb
            (lambda x: math.exp(x) - 2.0 * x, 0.0, 2.0, math.log(2.0)),
        ]
        worst = max(abs(golden_section(f, lb, ub, eps) - argmin)
                    for f, lb, ub, argmin in battery)
        report(6, worst <= eps,
               f"golden section battery (quadratic, |.|, piecewise, boundary): "
               f"worst error {worst:.2e} (tol 1e-8)")


class TestCriterion07PairSolverOptimality:
    def test_pairs_at_or_below_rho_grid(self):
        # every pair the solver returns is at or below a 400-point rho grid
        # of E(rho) with the exact KKT block, and passes check_feasible;
        # every pair feasible on the grid is feasible for the solver
        rng = np.random.default_rng(7000)
        grid = np.linspace(opt.RHO_FLOOR, 1.0, 400)
        feasible_cases = 0
        attempts = 0
        gaps = []
        missed = 0
        unchecked = 0
        while feasible_cases < 100 and attempts < 400:
            attempts += 1
            net, sc, ap = orc.random_test_case(rng)
            any_pair = False
            for l in sorted(sc.splits):
                terms = opt.penalty_terms(net, l, ap)
                qs = [None] if l == net.depth else range(2, sc.q_max + 1)
                for q in qs:
                    energy = opt.PairEnergy(l, q, net, sc, terms, ap)
                    best = math.inf
                    for rho in grid:
                        try:
                            best = min(best, energy(float(rho)))
                        except InfeasibleError:
                            pass
                    try:
                        sol = opt.solve_pair(l, q, net, sc, terms, ap)
                    except InfeasibleError:
                        missed += math.isfinite(best)
                        continue
                    any_pair = True
                    unchecked += not check_feasible(sol.alloc, net, sc, terms, ap).ok
                    if math.isfinite(best):
                        gaps.append(sol.e_total / best - 1.0)
            if any_pair:
                feasible_cases += 1
        worst = max(gaps)
        ok = (feasible_cases == 100 and worst <= 1e-9 and missed == 0
              and unchecked == 0)
        report(7, ok,
               f"pair solver on {feasible_cases} feasible random scenarios "
               f"({len(gaps)} pairs) vs a 400-point rho grid with the exact KKT "
               f"block: worst gap {worst:.2e} (tol 1e-9), median gap "
               f"{float(np.median(gaps)):.2e}, grid-feasible pairs rejected "
               f"{missed}, check_feasible failures {unchecked}")


@pytest.fixture(scope="module")
def tmax_sweep(template_net, default_scenario, default_params):
    values = [0.6, 0.8, 1.0, 1.2, 1.4]
    rows = opt.sweep(template_net, default_scenario, default_params, "t_max",
                     values)
    return values, rows


def energies_by_origin(rows, value):
    return {r.solution.origin: r.solution for r in rows if r.value == value}


class TestCriterion08BaselineDominance:
    def test_proposed_never_loses(self, tmax_sweep):
        values, rows = tmax_sweep
        worst_excess = -math.inf
        for v in values:
            sols = energies_by_origin(rows, v)
            assert sols["proposed"].feasible
            for origin in ("on_server", "on_device", "no_prune"):
                if sols[origin].feasible:
                    worst_excess = max(
                        worst_excess,
                        sols["proposed"].e_total - sols[origin].e_total)
        report(8, worst_excess <= 1e-9,
               f"proposed energy <= every feasible baseline over the t_max "
               f"sweep: worst excess {worst_excess:.2e} J (tol 1e-9)")


class TestCriterion09Trends:
    def test_energy_trends(self, tmax_sweep, template_net, default_scenario,
                           default_params):
        values, rows = tmax_sweep
        prop_t = [energies_by_origin(rows, v)["proposed"].e_total for v in values]
        tmax_ok = all(a >= b - 1e-12 for a, b in zip(prop_t, prop_t[1:]))

        rt_values = [0.75, 0.80, 0.85, 0.90, 0.94]
        rt_rows = opt.sweep(template_net, default_scenario, default_params,
                            "r_t", rt_values, origins=("proposed",))
        prop_r = [r.solution.e_total for r in rt_rows]
        rt_ok = (all(r.solution.feasible for r in rt_rows)
                 and all(a <= b + 1e-12 for a, b in zip(prop_r, prop_r[1:])))

        snr_values = [1.0, 10.0 ** 0.5, 10.0, 10.0 ** 1.5, 100.0]
        snr_rows = opt.sweep(template_net, default_scenario, default_params,
                             "snr", snr_values, origins=("on_device",))
        ondev = {r.solution.cost.e_total for r in snr_rows}
        snr_ok = len(ondev) == 1

        report(9, tmax_ok and rt_ok and snr_ok,
               f"trends on >=5 points: energy nonincreasing in t_max ({tmax_ok}), "
               f"nondecreasing in r_t ({rt_ok}), on-device exactly invariant "
               f"across snr ({snr_ok})")


class TestCriterion10MarginBound:
    def test_end_to_end_accuracy_bound(self):
        rep = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.8, bits=8,
                                    trials=10000, seed=10000)
        s = rep.stats
        report(10, rep.passed,
               f"end-to-end accuracy bound with exact margins and c_m=1: "
               f"r_p={s['r_p']:.4f} >= bound-3sigma={s['bound'] - 3 * s['sigma_stat']:.4f} "
               f"(r0={s['r0']:.4f}, slack={s['slack']:.4f}, "
               f"calibrated c_m={s['c_m_tight']:.4g})")


class TestCriterion11ScenarioArchetypes:
    def test_qualitative_pattern(self, template_net, default_scenario,
                                 default_params):
        # archetypes split the network properly: splits exclude the final
        # layer so the uplink knobs (q, p_c) are part of every solution
        archetypes = {
            "latency": dict(r_t=0.80, t_max=0.6, g_over_bn0=100.0),
            "accuracy": dict(r_t=0.94, t_max=1.2, g_over_bn0=100.0),
            "snr": dict(r_t=0.80, t_max=1.2, g_over_bn0=1.0),
        }
        allocs = {}
        for name, patch in archetypes.items():
            from dataclasses import replace
            sc = replace(default_scenario, splits=tuple(range(1, 7)), **patch)
            sol = opt.solve_scenario(template_net, sc, default_params)
            assert sol.feasible, name
            allocs[name] = sol.alloc
        lat, acc, snr = allocs["latency"], allocs["accuracy"], allocs["snr"]
        checks = {
            "latency has largest nu_e": lat.nu_e >= max(acc.nu_e, snr.nu_e),
            "latency has smallest rho": lat.rho <= min(acc.rho, snr.rho),
            "accuracy has largest p_s": acc.p_s >= max(lat.p_s, snr.p_s),
            "accuracy has largest rho": acc.rho >= max(lat.rho, snr.rho),
            "snr has deepest split": snr.l >= max(lat.l, acc.l),
            "snr has largest p_c": snr.p_c >= max(lat.p_c, acc.p_c),
        }
        failed = [k for k, v in checks.items() if not v]
        detail = (f"latency=(l={lat.l},q={lat.q},rho={lat.rho:.3f},"
                  f"p_s={lat.p_s:.4f},p_c={lat.p_c:.4f},nu={lat.nu_e:.3g}) "
                  f"accuracy=(l={acc.l},q={acc.q},rho={acc.rho:.3f},"
                  f"p_s={acc.p_s:.4f},p_c={acc.p_c:.4f},nu={acc.nu_e:.3g}) "
                  f"snr=(l={snr.l},q={snr.q},rho={snr.rho:.3f},"
                  f"p_s={snr.p_s:.4f},p_c={snr.p_c:.4f},nu={snr.nu_e:.3g})")
        report(11, not failed,
               f"scenario archetypes reproduce the qualitative trade-off "
               f"pattern ({'; failed: ' + ', '.join(failed) if failed else 'all six'}); "
               + detail)


class TestCriterion12FullProblemGap:
    def test_median_gap_to_grid(self):
        rng = np.random.default_rng(12000)
        gaps = []
        attempts = 0
        while len(gaps) < 10 and attempts < 60:
            attempts += 1
            net, sc, ap = orc.random_test_case(rng)
            rep = orc.grid_full(net, sc, ap, seed=attempts)
            if "both_infeasible" in rep.stats:
                continue
            assert rep.stats.get("grid_energy") is not None
            gaps.append(rep.stats["gap"])
        assert len(gaps) == 10
        median = float(np.median(gaps))
        report(12, median <= 0.05,
               f"optimizer vs coarse full grid over 10 random "
               f"scenarios: median gap {median:.3%} (soft ceiling 5%), "
               f"max gap {max(gaps):.3%}")
