import math

import numpy as np
import pytest

from isccopt.accuracy import (AccuracyParams, PenaltyTerms, accuracy_ceiling,
                              accuracy_lower_bound, fit_accuracy_curve,
                              ideal_accuracy, min_pruning_ratio,
                              min_sensing_power, penalty_factor, pruning_error_factor,
                              quant_error_factor)
from isccopt.cost import Allocation
from isccopt.errors import InfeasibleError


def alloc(p_s=0.1, rho=1.0, q=2, l=1):
    return Allocation(l=l, q=q, rho=rho, p_s=p_s, p_c=0.1, nu_e=1e6)


class TestPruningErrorFactor:
    def test_zero_at_one(self):
        assert pruning_error_factor(1.0) == 0.0

    def test_values(self):
        # direct evaluation of 2 - rho - rho*(ln rho - 1)^2
        assert pruning_error_factor(0.5) == pytest.approx(0.0666263, abs=1e-5)
        assert pruning_error_factor(0.1) == pytest.approx(0.809293, abs=1e-5)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.02, 1.0, 200)
        vals = [pruning_error_factor(r) for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_central_differences(self):
        h = 1e-7
        for rho in np.linspace(0.05, 0.95, 20):
            numeric = (pruning_error_factor(rho + h)
                       - pruning_error_factor(rho - h)) / (2 * h)
            assert abs(numeric - (-(math.log(rho)) ** 2)) <= 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            pruning_error_factor(0.0)
        with pytest.raises(ValueError):
            pruning_error_factor(1.2)


class TestQuantErrorFactor:
    def test_values(self):
        assert quant_error_factor(2) == 1.0
        assert quant_error_factor(3) == pytest.approx(1 / 9)
        assert quant_error_factor(4) == pytest.approx(1 / 49)

    def test_strictly_decreasing(self):
        vals = [quant_error_factor(q) for q in range(2, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            quant_error_factor(1)
        with pytest.raises(ValueError):
            quant_error_factor(2.5)


class TestIdealAccuracy:
    def test_zero_power(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        assert ideal_accuracy(0.0, p) == 0.0

    def test_limit(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        assert ideal_accuracy(1e9, p) == pytest.approx(0.6 * math.pi / 2, rel=1e-6)
        assert accuracy_ceiling(p) == pytest.approx(0.6 * math.pi / 2)

    def test_point_value(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        assert ideal_accuracy(0.02, p) == pytest.approx(0.6 * math.atan(1.0), rel=1e-12)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            AccuracyParams(a=0.7, b=50.0, s=1.0)  # 0.7*pi/2 > 1
        with pytest.raises(ValueError):
            AccuracyParams(a=0.6, b=50.0, s=0.0)


class TestFit:
    def test_exact_recovery(self):
        a, b = 0.6, 50.0
        powers = np.linspace(0.001, 0.2, 40)
        samples = [(p, a * math.atan(b * p)) for p in powers]
        a_hat, b_hat = fit_accuracy_curve(samples)
        assert a_hat == pytest.approx(a, rel=1e-6)
        assert b_hat == pytest.approx(b, rel=1e-6)

    def test_zero_accuracy_gives_zero_a(self):
        samples = [(p, 0.0) for p in np.linspace(0.01, 0.1, 10)]
        a_hat, _ = fit_accuracy_curve(samples)
        assert a_hat == 0.0

    def test_noisy_recovery(self):
        rng = np.random.default_rng(5)
        a, b = 0.6, 50.0
        powers = np.linspace(0.001, 0.2, 200)
        samples = [(p, a * math.atan(b * p) + rng.normal(0, 0.01)) for p in powers]
        a_hat, _ = fit_accuracy_curve(samples)
        assert a_hat == pytest.approx(a, rel=0.02)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_accuracy_curve([(0.1, 0.5), (0.1, 0.6)])
        with pytest.raises(ValueError):
            fit_accuracy_curve([(0.1, 0.5)])


class TestPenaltyAndBound:
    def test_no_penalty_when_error_free(self):
        p = AccuracyParams(a=0.6, b=50.0, s=2.0)
        terms = PenaltyTerms(prune_coeff=3.0, quant_coeff=0.0, tail_norm=1.5)
        k = penalty_factor(1.0, None, terms, p)
        assert k == 0.0
        a = alloc(p_s=0.05, rho=1.0, q=2)
        assert accuracy_lower_bound(a, terms, p) == pytest.approx(
            ideal_accuracy(0.05, p))

    def test_clamped_at_zero(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        terms = PenaltyTerms(prune_coeff=0.0, quant_coeff=5.0, tail_norm=1.0)
        assert accuracy_lower_bound(alloc(q=2), terms, p) == 0.0

    def test_worked_example(self):
        # margin term (2/4)^2 = 0.25, penalties 0.4 -> K = 0.1; R0 = 0.9
        p = AccuracyParams(a=0.6366, b=100.0, s=4.0, c_m=1.0, margin_exponent=2)
        terms = PenaltyTerms(prune_coeff=0.0, quant_coeff=0.4, tail_norm=2.0)
        ps = math.tan(0.9 / p.a) / p.b
        got = accuracy_lower_bound(alloc(p_s=ps, rho=1.0, q=2), terms, p)
        assert got == pytest.approx(0.81, rel=1e-9)

    def test_margin_exponent_one(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=4.0, margin_exponent=1)
        terms = PenaltyTerms(prune_coeff=0.0, quant_coeff=0.4, tail_norm=2.0)
        assert penalty_factor(1.0, 2, terms, p) == pytest.approx(0.2)

    def test_monotonicity(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=2.0)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=1.0, tail_norm=1.0)
        base = accuracy_lower_bound(alloc(p_s=0.05, rho=0.7, q=3), terms, p)
        assert accuracy_lower_bound(alloc(p_s=0.06, rho=0.7, q=3), terms, p) >= base
        assert accuracy_lower_bound(alloc(p_s=0.05, rho=0.8, q=3), terms, p) >= base
        assert accuracy_lower_bound(alloc(p_s=0.05, rho=0.7, q=4), terms, p) >= base


class TestMinSensingPower:
    def make_terms(self, k_at_q2=0.1):
        # margin term 1, quant factor v(2)=1 -> K = quant_coeff at rho=1
        return PenaltyTerms(prune_coeff=0.0, quant_coeff=k_at_q2, tail_norm=1.0)

    def test_zero_target(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        assert min_sensing_power(1.0, 2, self.make_terms(), p, 0.0, 1.0) == 0.0

    def test_ceiling_infeasible(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        with pytest.raises(InfeasibleError) as err:
            min_sensing_power(1.0, 2, self.make_terms(0.1), p, 0.85, 10.0)
        assert err.value.reason == "accuracy_ceiling"

    def test_closed_form_inversion(self):
        p = AccuracyParams(a=0.63, b=50.0, s=1.0)
        got = min_sensing_power(1.0, 2, self.make_terms(0.1), p, 0.85, 10.0)
        assert got == pytest.approx(math.tan((0.85 / 0.9) / 0.63) / 50.0, rel=1e-12)
        assert got == pytest.approx(0.2785470, rel=1e-5)

    def test_power_cap(self):
        p = AccuracyParams(a=0.63, b=50.0, s=1.0)
        with pytest.raises(InfeasibleError) as err:
            min_sensing_power(1.0, 2, self.make_terms(0.1), p, 0.85, 0.2)
        assert err.value.reason == "sensing_power_cap"

    def test_margin_penalty_infeasible(self):
        p = AccuracyParams(a=0.63, b=50.0, s=1.0)
        with pytest.raises(InfeasibleError) as err:
            min_sensing_power(1.0, 2, self.make_terms(1.5), p, 0.5, 1.0)
        assert err.value.reason == "margin_penalty"

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        for _ in range(50):
            terms = PenaltyTerms(prune_coeff=float(rng.uniform(0, 2)),
                                 quant_coeff=float(rng.uniform(0, 2)),
                                 tail_norm=float(rng.uniform(0.2, 2)))
            rho = float(rng.uniform(0.2, 1.0))
            q = int(rng.integers(2, 7))
            r_t = float(rng.uniform(0.3, 0.9))
            try:
                ps = min_sensing_power(rho, q, terms, p, r_t, 1e6)
            except InfeasibleError:
                continue
            a = alloc(p_s=ps, rho=rho, q=q)
            assert accuracy_lower_bound(a, terms, p) == pytest.approx(r_t, abs=1e-9)

    def test_required_power_nonincreasing_in_rho(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=1.5, quant_coeff=0.2, tail_norm=1.0)
        grid = np.linspace(0.05, 1.0, 60)
        ps = [min_sensing_power(r, 3, terms, p, 0.8, 1e6) for r in grid]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_inverse_derivative_nondecreasing_along_u(self):
        # d(power)/d(factor) grows with the pruning factor on the arctan model
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=1.5, quant_coeff=0.0, tail_norm=1.0)
        us = np.linspace(0.0, 0.5, 40)
        margin = (terms.tail_norm / (p.c_m * p.s)) ** 2
        powers = [math.tan((0.8 / (1 - margin * terms.prune_coeff * u)) / p.a) / p.b
                  for u in us]
        slopes = np.diff(powers) / np.diff(us)
        assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(slopes, slopes[1:]))


class TestMinPruningRatio:
    def test_boundary_of_the_sensing_power_cap(self):
        # min_sensing_power succeeds at the closed-form rho_min and raises
        # just below it (unless rho_min is the floor itself)
        rng = np.random.default_rng(19)
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        interior = 0
        for _ in range(200):
            terms = PenaltyTerms(prune_coeff=float(rng.uniform(0.1, 3)),
                                 quant_coeff=float(rng.uniform(0, 1)),
                                 tail_norm=float(rng.uniform(0.5, 3)))
            q = int(rng.integers(2, 7))
            r_t = float(rng.uniform(0.3, 0.9))
            p_max = float(10.0 ** rng.uniform(-2, 0))
            try:
                min_sensing_power(1.0, q, terms, p, r_t, p_max)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    min_pruning_ratio(q, terms, p, r_t, p_max, 1e-9)
                continue
            rho = min_pruning_ratio(q, terms, p, r_t, p_max, 1e-9)
            assert 1e-9 <= rho <= 1.0
            min_sensing_power(rho, q, terms, p, r_t, p_max)
            if rho > 1e-9:
                interior += 1
                with pytest.raises(InfeasibleError):
                    min_sensing_power(rho * (1.0 - 1e-9), q, terms, p, r_t, p_max)
        assert interior >= 50

    def test_floor_when_pruning_is_free(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=0.0, quant_coeff=0.5, tail_norm=1.0)
        assert min_pruning_ratio(3, terms, p, 0.8, 1.0, 1e-9) == 1e-9
        terms = PenaltyTerms(prune_coeff=0.5, quant_coeff=0.5, tail_norm=1.0)
        assert min_pruning_ratio(3, terms, p, 0.0, 1.0, 1e-9) == 1e-9
