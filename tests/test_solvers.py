import math
import sys

import numpy as np
import pytest

from isccopt.cost import Scenario
from isccopt.errors import InfeasibleError
from isccopt.optimizer import EPS_RHO, PairEnergy, Split, _pairs, penalty_terms
from isccopt.oracles import random_power_freq_context
from isccopt import solvers
from isccopt.solvers import (INV_GOLDEN, KKT_REL_TOL, LN2, brent, brent_steps, min_rate_time,
                             power_freq)
from util import (UNIMODAL_BATTERY, bracketed, finish, golden_section, kkt_args, kkt_residuals,
                  make_scenario, outcome, pc_objective, solve_pair, solve_pc_nue_reference,
                  t_stationary_rootfind)


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


def parabola(x):
    return (x - 0.3) ** 2


class TestBrent:
    def test_unimodal_battery(self):
        # criterion 06's battery, each function with fewer evaluations than
        # golden section takes from the same evaluated ends
        for f, lb, ub, argmin in UNIMODAL_BATTERY:
            calls = []

            def counted(x):
                calls.append(x)
                return f(x)

            x = brent(counted, lb, ub, f(lb), f(ub), 1e-8)
            assert abs(x - argmin) <= 1e-8
            assert lb <= min(calls) and max(calls) <= ub
            brent_calls = len(calls)
            golden_section(counted, lb, ub, 1e-8)
            assert brent_calls < len(calls) - brent_calls

    def test_returns_the_least_evaluated_point(self):
        # an end is returned as given, and the smallest point wins ties
        assert brent(lambda x: x, 0.0, 1.0, 0.0, 1.0, 1e-8) == 0.0
        assert brent(lambda x: -x, 0.0, 1.0, 0.0, -1.0, 1e-8) == 1.0
        assert brent(lambda x: 1.0, 0.2, 0.9, 1.0, 1.0, 1e-8) == 0.2

    def test_narrow_bracket_evaluates_nothing(self):
        def f(x):
            raise AssertionError("evaluated")

        assert brent(f, 0.5, 0.5, 2.0, 2.0, 1e-6) == 0.5
        assert brent(f, 0.5, 0.5 + 1e-7, 2.0, 1.0, 1e-6) == 0.5 + 1e-7

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            brent(lambda x: float("nan"), 0, 1, 1.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            brent(parabola, 0, 1, float("inf"), 0.49, 1e-6)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            brent(parabola, 1, 0, 0.49, 0.09, 1e-6)
        for eps in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                brent(parabola, 0, 1, 0.09, 0.49, eps)

    def test_eps_below_rounding_terminates(self):
        # the bracket stops shrinking at a few ulps: the search must stop too
        calls = []

        def counted(x):
            calls.append(x)
            return parabola(x)

        x = brent(counted, 1e-9, 1.0, parabola(1e-9), parabola(1.0), 1e-300)
        assert x == pytest.approx(0.3, abs=1e-12)
        assert len(calls) < 100


class TestBrentSteps:
    @staticmethod
    def check_yields(f, lb, ub, eps):
        """Run brent_steps on f over [lb, ub] and check each yield against
        the evaluations it made: before each evaluation, the evaluated
        points in the current bracket, ascending; (lb, ub) first, then the
        distinct points of (a, x, b), with x the interior point of least
        value (the latest on ties), as in Brent's method. Returns the number
        of yields, the last bracket, and the number of yields where x lies
        on an end of [a, b]."""
        f_lb, f_ub = f(lb), f(ub)
        evaluated, x = [lb, ub], []   # x: (point, value) after each evaluation

        def counted(u):
            fu = f(u)
            if not x or fu <= x[-1][1]:
                x.append((u, fu))
            evaluated.append(u)
            return fu

        steps = brent_steps(counted, lb, ub, f_lb, f_ub, eps)
        bracket, n_yields, on_end = (lb, ub), 0, 0
        while True:
            try:
                points = next(steps)
            except StopIteration:
                break
            n_yields += 1
            # one evaluation between two yields, none before the first
            assert len(evaluated) == n_yields + 1
            assert list(points) == sorted(set(points))
            assert bracket[0] <= points[0] and points[-1] <= bracket[1]
            bracket = points[0], points[-1]
            assert list(points) == sorted(u for u in set(evaluated)
                                          if bracket[0] <= u <= bracket[1])
            if n_yields == 1:
                assert tuple(points) == (lb, ub)
            else:
                assert tuple(points) == tuple(sorted({bracket[0], x[-1][0], bracket[1]}))
                assert 2 <= len(points) <= 3
                on_end += len(points) == 2
        assert len(evaluated) == n_yields + 2
        return n_yields, bracket, on_end

    def test_yields_the_evaluated_points_of_its_bracket(self):
        # the bracket starts at [lb, ub] and only shrinks, and the points
        # Brent's method has evaluated inside it are a, x and b; at eps
        # 1e-300 steps of rounding size leave x on an end (a yield of two)
        on_end = 0
        for f, lb, ub, _ in UNIMODAL_BATTERY:
            for eps in (1e-8, 1e-300):
                n_yields, bracket, ends = self.check_yields(f, lb, ub, eps)
                assert n_yields >= 3 and bracket[1] - bracket[0] < ub - lb
                on_end += ends
        assert on_end >= 1

    def test_pair_search_yields_a_x_and_b(self, template_net, default_scenario,
                                          default_params):
        # E(rho) of every stock pair on its bracket, at EPS_RHO
        searched = 0
        for l, q in _pairs(template_net, default_scenario):
            energy = PairEnergy(Split(template_net, default_scenario, default_params, l), q)
            try:
                _, rho_min, rho_max, _ = bracketed(energy)
            except InfeasibleError:
                continue
            if rho_max - rho_min > EPS_RHO:
                searched += self.check_yields(energy, rho_min, rho_max, EPS_RHO)[0] >= 3
        assert searched >= 20

    def test_narrow_bracket_finishes_without_a_yield(self):
        for ub in (0.5, 0.5 + 1e-7, 0.5 + 9e-7):
            with pytest.raises(StopIteration) as done:
                next(brent_steps(parabola, 0.5, ub, parabola(0.5), parabola(ub), 1e-6))
            assert done.value.value == 0.5   # the end of least value

    def test_run_to_its_end_is_brent(self):
        for f, lb, ub, _ in UNIMODAL_BATTERY:
            for eps in (1e-4, 1e-8, 1e-300):
                args = (f, lb, ub, f(lb), f(ub), eps)
                assert finish(brent_steps(*args)) == brent(*args)


class TestTStationary:
    def test_inverse_rate_matches_rootfinding(self):
        # off its t_min bound, the inverse rate power_freq returns is the
        # stationary point of its multiplier
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(400):
            abc, sc = random_power_freq_context(rng)
            _, _, t, mu1, _, _ = power_freq(*abc, *kkt_args(sc))
            if t > min_rate_time(sc):
                checked += 1
                assert t == pytest.approx(t_stationary_rootfind(mu1, sc.g_over_bn0), rel=1e-10)
        assert checked >= 350


class TestSolvePcNue:
    def test_boundary_active_corner(self):
        sc = make_scenario()
        t_min = min_rate_time(sc)
        p_c, nu_e, _, _, _, _ = power_freq(0.01, 1e5, 0.01 * t_min + 1e5 / sc.nu_max,
                                           *kkt_args(sc))
        assert p_c == pytest.approx(sc.p_max, rel=1e-6)
        assert nu_e == pytest.approx(sc.nu_max, rel=1e-6)

    def test_latency_active_with_slack_budget(self):
        sc = make_scenario()
        a1, a2, t2 = 0.02, 2e5, 0.25
        _, nu_e, t, _, energy, _ = power_freq(a1, a2, t2, *kkt_args(sc))
        assert a1 * t + a2 / nu_e == pytest.approx(t2, rel=1e-9)
        assert energy == pytest.approx(pc_objective((a1, a2, t2), sc, t, nu_e), rel=1e-12)

    @pytest.mark.parametrize("a1, a2, t2, g, nu_max, kappa", [
        (0.001373648480281528, 177307.34392644008, 6.868667743383109,
         3.241957906293015, 103202.64776101366, 1.943759341998906e-22),
        (0.0022130576074375235, 293545.736929997, 6.44410437968787,
         1.2822423249122905, 155258.94256791487, 1.5771100609359044e-22),
    ], ids=["draw-1", "draw-2"])
    def test_small_multiplier_draws_solve(self, a1, a2, t2, g, nu_max, kappa):
        # two random_power_freq_context draws whose multiplier sits where
        # mu1*g_over_bn0 is close to 0; both are feasible with slack, and
        # the latency must meet the budget within the solver's stop test
        sc = Scenario(t_max=1.0, r_t=0.5, p_max=1.0, nu_max=nu_max, nu_s=1e11,
                      kappa=kappa, bandwidth=1e5, g_over_bn0=g, t0=1e-5,
                      m_chirps=1000, q_max=4, splits=(1,))
        sol = power_freq(a1, a2, t2, *kkt_args(sc))
        _, nu_e, t, _, _, _ = sol
        assert abs(a1 * t + a2 / nu_e - t2) <= KKT_REL_TOL * t2
        assert max(kkt_residuals((a1, a2, t2), sc, sol)) <= 1e-8

    def test_budget_at_the_floor(self):
        # t2 equal to the best achievable latency: (p_max, nu_max) exactly
        rng = np.random.default_rng(4)
        for _ in range(50):
            (a1, a2, _), sc = random_power_freq_context(rng)
            t_min = min_rate_time(sc)
            energy = power_freq(a1, a2, a1 * t_min + a2 / sc.nu_max, *kkt_args(sc))[4]
            assert energy == pytest.approx(
                sc.p_max * a1 * t_min + sc.kappa * a2 * sc.nu_max**2, rel=1e-12)

    def test_t_min_binds_near_the_floor(self):
        # when the latency at t_min still misses the budget, the upload runs
        # at p_max and the edge frequency takes the rest of the budget
        rng = np.random.default_rng(29)
        bound = 0
        for _ in range(100):
            (a1, a2, _), sc = random_power_freq_context(rng)
            t_min = min_rate_time(sc)
            t2 = (a1 * t_min + a2 / sc.nu_max) * 1.001
            sol = power_freq(a1, a2, t2, *kkt_args(sc))
            p_c, nu_e, t, _, _, _ = sol
            if t == t_min:
                bound += 1
                assert p_c == sc.p_max
                assert nu_e == a2 / (t2 - a1 * t_min) < sc.nu_max
                assert max(kkt_residuals((a1, a2, t2), sc, sol)) <= 1e-8
            else:
                assert t > t_min
        assert bound >= 3

    @pytest.mark.parametrize("a1", [1e-18, 1e-300])
    def test_vanishing_upload_meets_the_no_upload_corner(self, a1):
        # t2/a1 is far beyond any float a Newton step or a midpoint in t
        # could evaluate safely; the solve must still converge, to the
        # a1 = 0 answer
        (_, a2, _), sc = random_power_freq_context(np.random.default_rng(1))
        t2 = 4.0 * a2 / sc.nu_max
        _, nu_e, t, _, energy, _ = power_freq(a1, a2, t2, *kkt_args(sc))
        _, corner_nu_e, _, _, corner_energy, _ = power_freq(0.0, a2, t2, *kkt_args(sc))
        assert abs(a1 * t + a2 / nu_e - t2) <= KKT_REL_TOL * t2
        assert nu_e == pytest.approx(corner_nu_e, rel=1e-9)
        assert energy == pytest.approx(corner_energy, rel=1e-9)

    def test_infeasible_budget(self):
        sc = make_scenario()
        t_min = min_rate_time(sc)
        floor = 0.01 * t_min + 1e5 / sc.nu_max
        with pytest.raises(InfeasibleError) as err:
            power_freq(0.01, 1e5, floor * 0.9, *kkt_args(sc))
        assert err.value.reason == "latency_budget"

    @pytest.mark.parametrize("a1, a2", [(0.0, 1e5), (0.01, 0.0), (0.0, 0.0)],
                             ids=["no-upload", "no-edge-compute", "neither"])
    def test_corners(self, a1, a2):
        # nothing uploaded: p_max and the slowest frequency meeting the
        # budget; nothing computed on the edge: the upload stretches to the
        # budget at nu_max; neither: zero energy. Just past each corner's
        # floor the budget is missed.
        sc = make_scenario()
        floor = a1 * min_rate_time(sc) + a2 / sc.nu_max
        t2 = 2.0 * floor or 0.1
        sol = power_freq(a1, a2, t2, *kkt_args(sc))
        p_c, nu_e, t, _, energy, _ = sol
        if a1 == 0.0:
            assert p_c == sc.p_max
            assert nu_e == (a2 / t2 if a2 else sc.nu_max)
            assert energy == sc.kappa * a2 * nu_e**2
        else:
            assert t == t2 / a1
            assert nu_e == sc.nu_max
            assert energy == pytest.approx(pc_objective((a1, a2, t2), sc, t, nu_e), rel=1e-12)
        assert (energy == 0.0) == (a1 == a2 == 0.0)
        assert max(kkt_residuals((a1, a2, t2), sc, sol)) <= 1e-12
        if floor:
            power_freq(a1, a2, floor, *kkt_args(sc))
        with pytest.raises(InfeasibleError) as err:
            power_freq(a1, a2, floor * (1.0 - 1e-9), *kkt_args(sc))
        assert err.value.reason == "latency_budget"

    def test_against_fine_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            abc, sc = random_power_freq_context(rng)
            a1, a2, t2 = abc
            _, nu_e, t_kkt, _, _, _ = power_freq(*abc, *kkt_args(sc))
            t = np.linspace(min_rate_time(sc), t2 / a1, 300)
            nu = np.geomspace(sc.nu_max * 1e-4, sc.nu_max, 300)
            energy = (a1 * np.expm1(math.log(2.0) / t)[:, None] * t[:, None]
                      / sc.g_over_bn0 + sc.kappa * a2 * nu[None, :] ** 2)
            feas = a1 * t[:, None] + a2 / nu[None, :] <= t2
            best = float(np.min(energy[feas]))
            got = pc_objective(abc, sc, t_kkt, nu_e)
            assert got <= best * (1 + 5e-3)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            abc, sc = random_power_freq_context(rng)
            res = kkt_residuals(abc, sc, power_freq(*abc, *kkt_args(sc)))
            assert max(res) <= 1e-8

    def test_slope_is_the_energy_derivative_in_a2(self):
        # the sixth output, the least energy's slope in the edge FLOPs,
        # matches the central difference of the energy in a2 (the envelope
        # theorem) on random_power_freq_context draws
        rng = np.random.default_rng(29)
        compared = 0
        for _ in range(200):
            (a1, a2, t2), sc = random_power_freq_context(rng)
            h = 1e-5 * a2
            try:
                ends = [power_freq(a1, a2 + d, t2, *kkt_args(sc))[4] for d in (-h, h)]
            except InfeasibleError:
                continue
            slope = power_freq(a1, a2, t2, *kkt_args(sc))[5]
            assert slope == pytest.approx((ends[1] - ends[0]) / (2.0 * h), rel=1e-4)
            compared += 1
        assert compared >= 150

    def test_a_constants_validated(self):
        # a negative payload or FLOP count, or a budget that is not finite
        sc = make_scenario()
        for a1, a2, t2 in ((-1e-3, 1.0, 1.0), (1.0, -1.0, 1.0), (math.nan, 1.0, 1.0),
                           (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)):
            with pytest.raises(ValueError):
                power_freq(a1, a2, t2, *kkt_args(sc))

    @pytest.mark.parametrize("t2", [1e300, 1e308, 1.7976931348623157e308])
    def test_raw_upload_over_a_vast_budget(self, t2):
        # nothing computed on the edge: the upload stretches to the budget,
        # and where t2/a1 overflows (from about t2 1.1e307 at the stock a1
        # 0.06144) it takes t2; either way its power stays positive, it meets
        # the budget, and its energy is a1*ln2/g, the limit the relaxed bound
        # takes, to rounding
        sc = make_scenario()
        a1 = 0.06144
        p_c, nu_e, t, _, energy, _ = power_freq(a1, 0.0, t2, *kkt_args(sc))
        assert p_c > 0.0 and nu_e == sc.nu_max
        assert a1 * t <= t2
        assert energy == pytest.approx(a1 * LN2 / sc.g_over_bn0, rel=1e-12)

    @pytest.mark.parametrize("g, a1", [(1.288249551693143e27, 0.06144), (100.0, 1.408843e-8)],
                             ids=["snr_db-271.1", "bandwidth-4.4e11"])
    def test_raw_upload_stops_where_its_power_leaves_the_normal_floats(self, g, a1):
        # stretched to a budget of 1e300 s, the upload's power expm1(ln2/t)/g
        # would underflow to 0 or to a subnormal, and the rate the cost model
        # reads back from it to 0 or to a rounded value; the upload stops at
        # t_normal, with a normal power, inside the budget, and its energy
        # at its limit a1*ln2/g
        sc = make_scenario(g_over_bn0=g)
        p_c, nu_e, t, _, energy, _ = power_freq(a1, 0.0, 1e300, *kkt_args(sc))
        assert p_c >= sys.float_info.min and nu_e == sc.nu_max
        assert a1 * LN2 / math.log1p(g * p_c) == pytest.approx(a1 * t, rel=1e-12)
        assert a1 * t < 1e300
        assert energy == pytest.approx(a1 * LN2 / g, rel=1e-12)

    def test_edge_split_upload_stops_where_its_power_leaves_the_normal_floats(self):
        # a1 = 1e-112 under a budget of 1e300 s: t2/a1 overflows, and the
        # bisection in z once doubled t to inf, where nu_e rounds to 0 and
        # the Newton slope divided by 0; the search starts at t_normal, and
        # stops there, as the deadline is slack there
        sc = make_scenario()
        a1, a2, t2 = 1e-112, 1e6, 1e300
        p_c, nu_e, t, _, energy, _ = power_freq(a1, a2, t2, *kkt_args(sc))
        assert p_c >= sys.float_info.min and 0.0 < nu_e < sc.nu_max
        assert a1 * t + a2 / nu_e < 1e-6 * t2
        assert energy == pytest.approx(a1 * LN2 / sc.g_over_bn0 + sc.kappa * a2 * nu_e**2,
                                       rel=1e-12)

    @pytest.mark.parametrize("kw", [{}, {"g_over_bn0": 1e27}])
    def test_search_from_t_normal_meets_a_binding_deadline(self, kw):
        # t2/a1 = 1e306 lies past t_normal, but the edge compute misses the
        # deadline there: the Newton steps run down from t_normal to the
        # KKT point, with the latency on the budget
        sc = make_scenario(**kw)
        abc = a1, a2, t2 = 1e-306, 1e6, 1.0
        sol = power_freq(*abc, *kkt_args(sc))
        _, nu_e, t, _, _, _ = sol
        assert a1 * t + a2 / nu_e == pytest.approx(t2, rel=KKT_REL_TOL)
        assert max(kkt_residuals(abc, sc, sol)) <= 1e-8


class TestPowerFreqKernel:
    """solvers.power_freq, with the mu1 ratio written out, gives the bits
    and reasons of the body that calls _mu1_ratio
    (tests/util.solve_pc_nue_reference) on every branch."""

    SCENARIOS = ({}, {"nu_max": 1e5}, {"kappa": 1e-26}, {"g_over_bn0": 1e4})
    # fractions of the floor a1*t_min + a2/nu_max; those next to 1 meet and
    # miss check_deadline's rounding allowance of 1e-12
    BUDGETS = (0.5, 1.0 - 1e-9, 1.0 - 5e-12, 1.0 - 5e-13, 1.0, 1.0 + 1e-13, 1.001, 1.5,
               10.0, 1e3, 1e6)

    @staticmethod
    def branch(a1, a2, t2, sc):
        """The exit of power_freq that returns for (a1, a2, t2), or the
        reason it raises."""
        try:
            p_c, nu_e, t, _, _, _ = power_freq(a1, a2, t2, *kkt_args(sc))
        except InfeasibleError as err:
            return err.reason
        if a1 == 0.0 or a2 == 0.0:
            return "no_upload" if a1 == 0.0 else "no_edge_compute"
        if t == min_rate_time(sc) and p_c == sc.p_max:
            return "t_min_binds"
        if a1 * t + a2 / nu_e < 1e-6 * t2:
            return "slack_at_t_normal"
        if LN2 / t <= 1e-3:
            return "taylor"
        return "nu_max_clamp" if nu_e == sc.nu_max else "interior"

    def cases(self):
        for kw in self.SCENARIOS:
            sc = make_scenario(**kw)
            for a1 in (0.0, 1e-4, 0.02, 2.0):
                for a2 in (0.0, 1e3, 2e5, 1e8):
                    floor = a1 * min_rate_time(sc) + a2 / sc.nu_max
                    for t2 in [floor * f for f in self.BUDGETS] + [0.0, -1.0, 0.1, 10.0]:
                        yield a1, a2, t2, sc
        # random contexts at their own budget and just above the floor,
        # where t_min binds for some
        rng = np.random.default_rng(29)
        for _ in range(100):
            (a1, a2, t2), sc = random_power_freq_context(rng)
            floor = a1 * min_rate_time(sc) + a2 / sc.nu_max
            for budget in (t2, floor * 1.001, floor):
                yield a1, a2, budget, sc
        # upload times t2/a1 past t_normal, where p_c would leave the normal
        # floats: slack there, or binding below it
        for kw in ({}, {"g_over_bn0": 1e27}):
            for a1, a2, t2 in ((0.06144, 0.0, 1e300), (1e-112, 1e6, 1e300),
                               (1e-306, 1e6, 1.0)):
                yield a1, a2, t2, make_scenario(**kw)

    def test_equals_the_reference_on_every_branch(self):
        seen = {}
        for a1, a2, t2, sc in self.cases():
            got = outcome(power_freq, a1, a2, t2, *kkt_args(sc))
            assert got == outcome(solve_pc_nue_reference, a1, a2, t2, sc), (a1, a2, t2, sc)
            branch = self.branch(a1, a2, t2, sc)
            seen[branch] = seen.get(branch, 0) + 1
        assert set(seen) == {"latency_budget", "no_upload", "no_edge_compute", "t_min_binds",
                             "slack_at_t_normal", "taylor", "nu_max_clamp", "interior"}, seen

    def test_equals_the_reference_when_the_iterations_run_out(self, monkeypatch):
        # two Newton steps are too few for most interior solves
        monkeypatch.setattr(solvers, "KKT_MAX_ITER", 2)
        reasons = 0
        for a1, a2, t2, sc in self.cases():
            got = outcome(power_freq, a1, a2, t2, *kkt_args(sc))
            assert got == outcome(solve_pc_nue_reference, a1, a2, t2, sc), (a1, a2, t2, sc)
            reasons += got[0] == "bisection_bracket"
        assert reasons >= 20


def rho_context(**kw):
    l = kw.pop("l", 3)
    return l, make_scenario(**kw)


def feasible_energies(energy, grid):
    """E(rho) over the grid points where it is feasible."""
    vals = []
    for r in grid:
        try:
            vals.append(energy(float(r)))
        except InfeasibleError:
            continue
    return np.array(vals)


class TestPairRhoSearch:
    """The pruning-ratio cases of the pair solver's search over the joint
    energy E(rho)."""

    def test_zero_target_returns_lower_bracket(self, template_net, default_params):
        l, sc = rho_context(r_t=0.0)
        sol = solve_pair(l, 4, template_net, sc, default_params)
        assert sol.alloc.p_s == 0.0
        assert sol.alloc.rho <= 1e-6  # pinned to the bottom of the bracket

    def test_budget_exhausted(self, template_net, default_params):
        l, sc = rho_context(t_max=0.5001)
        with pytest.raises(InfeasibleError) as err:
            solve_pair(l, 4, template_net, sc, default_params)
        assert err.value.reason == "latency_budget"

    def test_accuracy_constraint_active(self, template_net, default_params):
        from isccopt.accuracy import accuracy_lower_bound
        l, sc = rho_context()
        sol = solve_pair(l, 4, template_net, sc, default_params)
        terms = penalty_terms(template_net, l, default_params)
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
            split = Split(template_net, sc, default_params, l)
            q = 2 if l == template_net.depth else q
            try:
                sol = solve_pair(l, q, template_net, sc, default_params)
            except InfeasibleError:
                assert feasible_energies(PairEnergy(split, q), grid).size == 0
                continue
            checked += 1
            vals = feasible_energies(PairEnergy(split, q), grid)
            assert sol.e_total <= vals.min() + 1e-9

    def test_objective_unimodal_on_bracket(self, template_net, default_params):
        # sampled-unimodality diagnostic: at most one strict local minimum
        rng = np.random.default_rng(41)
        for _ in range(10):
            l = int(rng.integers(1, 8))
            q = 2 if l == template_net.depth else int(rng.integers(2, 7))
            sc = make_scenario(r_t=float(rng.uniform(0.5, 0.9)))
            vals = feasible_energies(PairEnergy(Split(template_net, sc, default_params, l), q),
                                     np.linspace(0.05, 1.0, 200))
            if vals.size < 3:
                continue
            diffs = np.diff(vals)
            tol = 1e-15 * np.max(np.abs(vals))
            sign = np.where(diffs > tol, 1, np.where(diffs < -tol, -1, 0))
            sign = sign[sign != 0]
            transitions = int(np.sum((sign[:-1] == -1) & (sign[1:] == 1)))
            assert transitions <= 1
