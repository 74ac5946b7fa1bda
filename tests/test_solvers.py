import math

import numpy as np
import pytest

from isccopt import solvers
from isccopt.errors import InfeasibleError
from isccopt.optimizer import PairEnergy, penalty_terms, solve_pair
from isccopt.oracles import random_power_freq_context
from isccopt.solvers import (INV_GOLDEN, SubproblemContext, golden_section,
                             lambert_w0, min_rate_time, solve_pc_nue)
from util import (kkt_residuals, make_scenario, pc_objective,
                  t_stationary_rootfind)


class TestLambertW:
    def test_anchor_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-8)

    def test_residual_over_range(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([
            [-1 / math.e, -1 / math.e + 1e-12, -0.25, -1e-8, 0.0, 1e-8],
            10.0 ** rng.uniform(-6, 6, size=40),
            -1 / math.e + 10.0 ** rng.uniform(-10, -0.5, size=10),
        ])
        for x in xs:
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_domain_error(self):
        with pytest.raises(InfeasibleError):
            lambert_w0(-1.0 / math.e - 1e-6)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))

    def test_monotone(self):
        xs = np.linspace(-1 / math.e + 1e-9, 100, 200)
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_halley_steps_bounded(self, monkeypatch):
        # one exp per Halley step; near the branch point the step test alone
        # sits below rounding, so the iteration must also stop once the step
        # stops shrinking
        calls = 0
        exp = math.exp

        def counting_exp(x):
            nonlocal calls
            calls += 1
            return exp(x)

        xs = np.concatenate([
            [-1.0 / math.e],
            -1.0 / math.e + np.geomspace(1e-12, 0.99 / math.e, 12),
            np.geomspace(1e-9, 1e6, 37),
            np.linspace(-1.0 / math.e, -0.335, 400),
        ])
        worst = 0
        for x in xs:
            calls = 0
            monkeypatch.setattr(solvers.math, "exp", counting_exp)
            w = lambert_w0(float(x))
            monkeypatch.undo()
            worst = max(worst, calls)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert worst <= 6


class TestGoldenSection:
    def test_quadratic(self):
        assert golden_section(lambda x: (x - 2) ** 2, 0, 5, 1e-8) == pytest.approx(
            2.0, abs=1e-8)

    def test_absolute_value(self):
        assert golden_section(lambda x: abs(x - math.pi), 0, 6, 1e-8) == pytest.approx(
            math.pi, abs=1e-8)

    def test_boundary_minimum(self):
        assert golden_section(lambda x: -x, 0, 1, 1e-8) == pytest.approx(1.0, abs=1e-8)
        assert golden_section(lambda x: x, 0, 1, 1e-8) == pytest.approx(0.0, abs=1e-8)

    def test_asymmetric_piecewise(self):
        def f(x):
            return 3.0 * (1.3 - x) if x < 1.3 else (x - 1.3) ** 1.5

        assert golden_section(f, 0, 4, 1e-8) == pytest.approx(1.3, abs=1e-8)

    def test_iteration_count(self):
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return (x - 0.4) ** 2

        lb, ub, eps = 0.0, 1.0, 1e-6
        golden_section(f, lb, ub, eps)
        expected = math.ceil(math.log((ub - lb) / eps) / math.log(1 / INV_GOLDEN))
        assert calls == expected + 2  # two seed evaluations, one per iteration

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            golden_section(lambda x: float("nan"), 0, 1, 1e-6)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section(lambda x: x, 1, 1, 1e-6)
        for eps in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                golden_section(lambda x: x, 0, 1, eps)

    def test_eps_below_rounding_terminates(self):
        # the bracket stops shrinking at a few ulps: the search must stop too
        x = golden_section(lambda x: (x - 0.3) ** 2, 1e-9, 1.0, 1e-300)
        assert x == pytest.approx(0.3, abs=1e-12)

    def test_stop_abandons_the_search(self):
        seen = []

        def stop(*bracket):
            seen.append(bracket)
            return len(seen) == 3

        assert golden_section(lambda x: (x - 0.3) ** 2, 0, 1, 1e-8, stop) is None
        assert len(seen) == 3
        # asked with the shrinking bracket and its two interior points
        for lb, x1, x2, ub in seen:
            assert lb < x1 < x2 < ub
        assert seen[2][3] - seen[2][0] < seen[0][3] - seen[0][0]

    def test_stop_that_never_fires_changes_nothing(self):
        def f(x):
            return (x - 0.3) ** 2

        assert golden_section(f, 0, 1, 1e-8, lambda *b: False) == golden_section(f, 0, 1, 1e-8)


class TestTStationary:
    def test_lambert_form_matches_rootfinding(self):
        # off its t_min bound, the inverse rate solve_pc_nue returns is the
        # stationary point of its multiplier
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(400):
            ctx, sc = random_power_freq_context(rng)
            sol = solve_pc_nue(ctx, sc)
            if sol.t > min_rate_time(sc):
                checked += 1
                assert sol.t == pytest.approx(
                    t_stationary_rootfind(sol.mu1, sc.g_over_bn0), rel=1e-10)
        assert checked >= 350


class TestSolvePcNue:
    def test_boundary_active_corner(self):
        sc = make_scenario()
        t_min = min_rate_time(sc)
        ctx = SubproblemContext(a1=0.01, a2=1e5, t2=0.01 * t_min + 1e5 / sc.nu_max)
        sol = solve_pc_nue(ctx, sc)
        assert sol.p_c == pytest.approx(sc.p_max, rel=1e-6)
        assert sol.nu_e == pytest.approx(sc.nu_max, rel=1e-6)

    def test_latency_active_with_slack_budget(self):
        sc = make_scenario()
        ctx = SubproblemContext(a1=0.02, a2=2e5, t2=0.25)
        sol = solve_pc_nue(ctx, sc)
        lat = ctx.a1 * sol.t + ctx.a2 / sol.nu_e
        assert lat == pytest.approx(ctx.t2, rel=1e-9)

    def test_infeasible_budget(self):
        sc = make_scenario()
        t_min = min_rate_time(sc)
        floor = 0.01 * t_min + 1e5 / sc.nu_max
        with pytest.raises(InfeasibleError) as err:
            solve_pc_nue(SubproblemContext(a1=0.01, a2=1e5, t2=floor * 0.9), sc)
        assert err.value.reason == "latency_budget"

    def test_against_fine_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ctx, sc = random_power_freq_context(rng)
            sol = solve_pc_nue(ctx, sc)
            t = np.linspace(min_rate_time(sc), ctx.t2 / ctx.a1, 300)
            nu = np.geomspace(sc.nu_max * 1e-4, sc.nu_max, 300)
            energy = (ctx.a1 * np.expm1(math.log(2.0) / t)[:, None] * t[:, None]
                      / sc.g_over_bn0 + sc.kappa * ctx.a2 * nu[None, :] ** 2)
            feas = ctx.a1 * t[:, None] + ctx.a2 / nu[None, :] <= ctx.t2
            best = float(np.min(energy[feas]))
            got = pc_objective(ctx, sc, sol.t, sol.nu_e)
            assert got <= best * (1 + 5e-3)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ctx, sc = random_power_freq_context(rng)
            sol = solve_pc_nue(ctx, sc)
            res = kkt_residuals(ctx, sc, sol)
            assert max(res) <= 1e-8

    def test_a_constants_validated(self):
        with pytest.raises(ValueError):
            SubproblemContext(a1=0.0, a2=1.0, t2=1.0)
        with pytest.raises(ValueError):
            SubproblemContext(a1=1.0, a2=-1.0, t2=1.0)


def rho_context(template_net, default_params, **kw):
    sc = make_scenario(**kw)
    l = kw.pop("l", 3)
    terms = penalty_terms(template_net, l, default_params)
    return l, sc, terms


def feasible_energies(energy, grid):
    """E(rho) over the grid points where it is feasible."""
    vals = []
    for r in grid:
        try:
            vals.append(energy(float(r)))
        except InfeasibleError:
            continue
    return np.array(vals)


class TestSolveRhoPs:
    """The pruning-ratio cases, run on the pair solver's search over the
    joint energy E(rho)."""

    def test_zero_target_returns_lower_bracket(self, template_net, default_params):
        l, sc, terms = rho_context(template_net, default_params, r_t=0.0)
        sol = solve_pair(l, 4, template_net, sc, terms, default_params)
        assert sol.alloc.p_s == 0.0
        assert sol.alloc.rho <= 1e-6  # pinned to the bottom of the bracket

    def test_budget_exhausted(self, template_net, default_params):
        l, sc, terms = rho_context(template_net, default_params, t_max=0.5001)
        with pytest.raises(InfeasibleError) as err:
            solve_pair(l, 4, template_net, sc, terms, default_params)
        assert err.value.reason == "latency_budget"

    def test_accuracy_constraint_active(self, template_net, default_params):
        from isccopt.accuracy import accuracy_lower_bound
        l, sc, terms = rho_context(template_net, default_params)
        sol = solve_pair(l, 4, template_net, sc, terms, default_params)
        assert accuracy_lower_bound(sol.alloc, terms, default_params) == pytest.approx(
            sc.r_t, abs=1e-9)

    def test_against_dense_grid(self, template_net, default_params):
        rng = np.random.default_rng(31)
        grid = np.linspace(1e-9, 1.0, 2000)
        checked = 0
        while checked < 20:
            l = int(rng.integers(1, 8))
            q = int(rng.integers(2, 7))
            sc = make_scenario(t_max=float(rng.uniform(0.6, 1.2)),
                               r_t=float(rng.uniform(0.5, 0.9)))
            terms = penalty_terms(template_net, l, default_params)
            q = None if l == template_net.depth else q
            try:
                sol = solve_pair(l, q, template_net, sc, terms, default_params)
            except InfeasibleError:
                assert feasible_energies(PairEnergy(l, q, template_net, sc, terms,
                                                    default_params), grid).size == 0
                continue
            checked += 1
            vals = feasible_energies(
                PairEnergy(l, q, template_net, sc, terms, default_params), grid)
            assert sol.e_total <= vals.min() + 1e-9

    def test_objective_unimodal_on_bracket(self, template_net, default_params):
        # sampled-unimodality diagnostic: at most one strict local minimum
        rng = np.random.default_rng(41)
        for _ in range(10):
            l = int(rng.integers(1, 8))
            q = None if l == template_net.depth else int(rng.integers(2, 7))
            terms = penalty_terms(template_net, l, default_params)
            sc = make_scenario(r_t=float(rng.uniform(0.5, 0.9)))
            vals = feasible_energies(
                PairEnergy(l, q, template_net, sc, terms, default_params),
                np.linspace(0.05, 1.0, 200))
            if vals.size < 3:
                continue
            diffs = np.diff(vals)
            tol = 1e-15 * np.max(np.abs(vals))
            sign = np.where(diffs > tol, 1, np.where(diffs < -tol, -1, 0))
            sign = sign[sign != 0]
            transitions = int(np.sum((sign[:-1] == -1) & (sign[1:] == 1)))
            assert transitions <= 1
