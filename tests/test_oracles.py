import math
from fractions import Fraction

import numpy as np
import pytest

from isccopt import oracles as orc
from isccopt.quant import QuantSpec
from isccopt.solvers import min_rate_time
from util import (head_gap_norms_tensor, make_scenario, mc_quant_check_whole,
                  pruned_mass_partition)


class TestPruningExpectation:
    def test_mid_rho_accuracy(self):
        rep = orc.mc_pruning_expectation(100000, 1.0, 0.5, 100, seed=1)
        assert rep.passed
        assert rep.worst_violation <= 0.05

    def test_near_identity_pruning(self):
        m = 100000
        rep = orc.mc_pruning_expectation(m, 1.0, 0.99, 50, seed=2)
        assert rep.stats["abs_gap"] <= 1e-3 * m

    def test_rate_scaling(self):
        r1 = orc.mc_pruning_expectation(100000, 1.0, 0.3, 60, seed=3)
        r2 = orc.mc_pruning_expectation(100000, 2.0, 0.3, 60, seed=4)
        assert r1.stats["formula"] == pytest.approx(4 * r2.stats["formula"])
        assert r1.stats["mc_mean"] == pytest.approx(4 * r2.stats["mc_mean"], rel=0.03)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            orc.mc_pruning_expectation(100, 1.0, 0.5, 10, seed=0)
        with pytest.raises(ValueError):
            orc.mc_pruning_expectation(10000, 1.0, 1.0, 10, seed=0)

    @pytest.mark.parametrize("m", [1000, 5000])
    def test_exact_mean_matches_rational_sum(self, m):
        # sum_{i<=k} (S_i + H_i^2)/lam^2 in exact rationals over the common
        # denominator lcm(m-k+1, ..., m)^2
        lam, rho = 1.7, 0.35
        rep = orc.mc_pruning_expectation(m, lam, rho, 1, seed=0)
        k = int(np.floor((1.0 - rho) * m))
        den = math.lcm(*range(m - k + 1, m + 1))
        h = s = total = 0
        for j in range(1, k + 1):
            w = den // (m - j + 1)
            h += w
            s += w * w
            total += s + h * h
        exact = Fraction(total, den**2) / Fraction(lam) ** 2
        assert rep.stats["exact_mean"] == pytest.approx(float(exact), rel=1e-12)
        assert rep.stats["exact_gap"] == pytest.approx(
            rep.stats["exact_mean"] / rep.stats["formula"] - 1.0, rel=1e-15)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.9996])
    def test_renyi_sampler_matches_partition_reference(self, rho):
        # Renyi's representation draws the same order statistics as
        # partitioning all m draws; rho = 0.9996 leaves k = 0 at m = 2000
        m, lam, trials = 2000, 1.3, 2000
        rep = orc.mc_pruning_expectation(m, lam, rho, trials, seed=31)
        ref = pruned_mass_partition(m, lam, rho, trials, seed=32)
        mean, sigma = rep.stats["mc_mean"], rep.stats["mc_std"] / math.sqrt(trials)
        ref_sigma = float(np.std(ref)) / math.sqrt(trials)
        assert abs(mean - rep.stats["exact_mean"]) <= 4.0 * sigma
        assert abs(mean - float(np.mean(ref))) <= 4.0 * math.hypot(sigma, ref_sigma)
        assert abs(float(np.mean(ref)) - rep.stats["exact_mean"]) <= 4.0 * ref_sigma
        if rho == 0.9996:
            assert mean == rep.stats["exact_mean"] == float(np.mean(ref)) == 0.0

    def test_deterministic(self):
        a = orc.mc_pruning_expectation(10000, 1.0, 0.4, 20, seed=9)
        b = orc.mc_pruning_expectation(10000, 1.0, 0.4, 20, seed=9)
        assert a.worst_violation == b.worst_violation
        assert a.stats == b.stats


class TestPruningBound:
    def test_no_violations(self):
        rep = orc.mc_pruning_bound_check(3, [16, 12, 10, 8], 2000, seed=5)
        assert rep.passed
        assert rep.worst_violation <= 0.0

    def test_single_layer_ratio_below_one(self):
        rep = orc.mc_pruning_bound_check(1, [12, 8], 500, seed=6)
        assert rep.passed
        assert rep.stats["worst_ratio"] <= 1.0

    def test_deterministic(self):
        a = orc.mc_pruning_bound_check(2, [10, 8, 6], 300, seed=7)
        b = orc.mc_pruning_bound_check(2, [10, 8, 6], 300, seed=7)
        assert a.worst_violation == b.worst_violation


class TestQuantOracle:
    def test_bound_and_bias(self):
        rep = orc.mc_quant_check(QuantSpec(bits=2, f_min=0.0, f_max=1.0),
                                 n=100, trials=20000, seed=8)
        assert rep.passed
        assert rep.stats["mean_sq_error"] <= rep.stats["bound"]

    def test_interval_scaling(self):
        # mean squared error scales as the squared interval count ratio
        r5 = orc.mc_quant_check(QuantSpec(bits=5, f_min=0.0, f_max=1.0),
                                n=100, trials=30000, seed=9)
        r6 = orc.mc_quant_check(QuantSpec(bits=6, f_min=0.0, f_max=1.0),
                                n=100, trials=30000, seed=10)
        expected = (31 / 15) ** 2
        got = r5.stats["mean_sq_error"] / r6.stats["mean_sq_error"]
        assert got == pytest.approx(expected, rel=0.10)

    @pytest.mark.parametrize("bits", [2, 3, 4, 6])
    @pytest.mark.parametrize("n, trials, seed", [
        (100, 10000, 1),                      # the validate suite's arguments
        (100, 1001, 77),                      # 655 rows a block, ragged end
        (37, 4000, 9001),
        (100, 1, 5),
        (orc.QUANT_BLOCK + 3, 3, 12)])        # one row a block
    def test_streamed_matches_whole_array_reference(self, bits, n, trials, seed):
        spec = QuantSpec(bits=bits, f_min=0.0, f_max=1.3)
        got = orc.mc_quant_check(spec, n=n, trials=trials, seed=seed)
        assert repr(got) == repr(mc_quant_check_whole(spec, n, trials, seed))

    def test_many_small_blocks_match_reference(self, monkeypatch):
        # 6 rows a block: 17 blocks, the last one of 4 rows
        monkeypatch.setattr(orc, "QUANT_BLOCK", 64)
        spec = QuantSpec(bits=3, f_min=0.2, f_max=1.0)
        got = orc.mc_quant_check(spec, n=10, trials=100, seed=31)
        assert repr(got) == repr(mc_quant_check_whole(spec, 10, 100, 31))


class TestGridSubproblem:
    def test_boundary_corner_agrees(self):
        from isccopt.cost import Scenario
        sc = Scenario(t_max=1.0, r_t=0.5, p_max=1.0, nu_max=1e6, nu_s=1e11,
                      kappa=1e-20, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=1000, q_max=4, splits=(1,))
        floor = 0.05 * min_rate_time(sc) + 1e4 / sc.nu_max
        rep = orc.grid_subproblem(0.05, 1e4, floor, sc, 100, seed=0)
        assert rep.passed

    def test_random_contexts(self, rng):
        for i in range(10):
            abc, sc = orc.random_power_freq_context(rng)
            rep = orc.grid_subproblem(*abc, sc, 200, seed=i)
            assert rep.passed, rep.stats

    def test_both_infeasible(self):
        from isccopt.cost import Scenario
        sc = Scenario(t_max=1.0, r_t=0.5, p_max=1.0, nu_max=1e6, nu_s=1e11,
                      kappa=1e-20, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=1000, q_max=4, splits=(1,))
        floor = 0.05 * min_rate_time(sc) + 1e4 / sc.nu_max
        rep = orc.grid_subproblem(0.05, 1e4, floor * 0.5, sc, 50, seed=0)
        assert rep.passed
        assert rep.stats.get("both_infeasible") == 1.0


class TestGridFull:
    def test_small_gap_on_random_case(self, rng):
        net, sc, ap = orc.random_test_case(rng)
        rep = orc.grid_full(net, sc, ap, seed=0)
        if "both_infeasible" in rep.stats:
            pytest.skip("drawn case infeasible; covered by acceptance battery")
        assert rep.stats["gap"] >= -0.5  # grid is coarse; solver may be far better
        assert math.isfinite(rep.stats["solver_energy"])

    def test_both_infeasible_case(self, template_net, default_params):
        sc = make_scenario(t_max=0.5001, q_max=4, splits=(1, 2))
        rep = orc.grid_full(template_net, sc, default_params, seed=0)
        assert rep.passed
        assert rep.stats.get("both_infeasible") == 1.0


class TestMarginExperiment:
    def test_zero_perturbation_preserves_accuracy(self):
        rep = orc.margin_experiment(orc.MarginTaskSpec(), rho=1.0, bits=None,
                                    trials=4000, seed=21)
        assert rep.stats["r_p"] == rep.stats["r0"]
        assert rep.stats["err_sq"] == 0.0
        assert rep.passed

    def test_default_operating_point_bound_holds(self):
        rep = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.8, bits=8,
                                    trials=10000, seed=22)
        assert rep.passed
        assert 0.0 < rep.stats["bound"] < rep.stats["r_p"]
        assert rep.stats["margin_score_ratio"] >= 1.0

    def test_overwhelming_perturbation_clamps_bound(self):
        rep = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.2, bits=2,
                                    trials=3000, seed=23)
        assert rep.stats["bound"] == 0.0
        assert rep.passed  # vacuous bound is trivially satisfied

    @pytest.mark.parametrize("bits", [None, 2, 8])
    @pytest.mark.parametrize("seed", [3, 501, 9001])
    def test_pair_table_matches_tensor_reference(self, monkeypatch, bits, seed):
        got = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.8, bits=bits,
                                    trials=3000, seed=seed)
        monkeypatch.setattr(orc, "head_gap_norms", head_gap_norms_tensor)
        want = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.8, bits=bits,
                                     trials=3000, seed=seed)
        assert repr(got) == repr(want)

    def test_head_gap_norms_bit_identical_to_tensor(self):
        rng = np.random.default_rng(4)
        head = rng.standard_normal((7, 16))
        y = rng.integers(0, 7, size=500)
        got = orc.head_gap_norms(head, y)
        assert got.shape == (7, 500)
        assert got.tobytes() == np.ascontiguousarray(head_gap_norms_tensor(head, y)).tobytes()

    def test_deterministic(self):
        a = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.9, bits=6,
                                  trials=2000, seed=24)
        b = orc.margin_experiment(orc.MarginTaskSpec(), rho=0.9, bits=6,
                                  trials=2000, seed=24)
        assert a.worst_violation == b.worst_violation
        assert a.stats == b.stats


class TestRandomCases:
    def test_random_test_case_mostly_feasible(self):
        from isccopt.optimizer import solve_scenario
        rng = np.random.default_rng(99)
        feasible = 0
        for _ in range(20):
            net, sc, ap = orc.random_test_case(rng)
            sol = solve_scenario(net, sc, ap)
            feasible += sol.feasible
        assert feasible >= 10

    def test_power_freq_context_feasible(self, rng):
        for _ in range(20):
            (a1, a2, t2), sc = orc.random_power_freq_context(rng)
            floor = a1 * min_rate_time(sc) + a2 / sc.nu_max
            assert t2 >= floor
