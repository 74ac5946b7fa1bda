import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from isccopt.accuracy import (A_CAP_SLACK, FIT_LOGB_TOL, AccuracyParams, PenaltyTerms,
                              accuracy_ceiling, accuracy_lower_bound, fit_accuracy_curve,
                              ideal_accuracy, margin_factor, penalty_factor,
                              pruning_error_factor, quant_error_factor, sensing_power)
from isccopt.cost import Allocation
from isccopt.errors import InfeasibleError
from util import (fit_accuracy_curve_golden, fit_residual, min_pruning_ratio_probing,
                  min_sensing_power_composed, outcome, pruning_floor_at, record_math,
                  sensing_power_at, u_error)


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

    def test_matches_a_120_digit_reference(self):
        # u(rho) = 2 - rho - rho*(ln rho - 1)^2 at the float rho in 120-digit
        # decimal arithmetic; near rho = 1 the float closed form cancels (at
        # 1 - 7.4e-12 it gave -2.2e-16), the stable u keeps 1e-13
        rhos = [*np.geomspace(1e-9, 1.0, 2000)[:-1], *(1.0 - np.geomspace(1e-16, 0.9, 2000))]
        rhos += [1.0 - 10.0**-k for k in range(1, 16)] + [1.0 - 7.4e-12, math.exp(-0.3)]
        rhos += [math.nextafter(math.exp(-0.3), d) for d in (0.0, 1.0)]
        assert max(u_error(float(rho)) for rho in rhos) <= 1e-13

    def test_nonnegative_and_nonincreasing_up_to_one(self):
        grid = np.concatenate([np.linspace(1e-9, 1.0, 100001),
                               1.0 - np.geomspace(1e-16, 1e-2, 20001)[::-1]])
        vals = [pruning_error_factor(float(r)) for r in np.unique(grid)]
        assert min(vals) >= 0.0 and vals[-1] == 0.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))

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

    def test_ci_samples_match_golden_section(self):
        # the 25 noise-free samples of 0.6366*atan(100 p), p in [0.005, 0.2],
        # that CI fits with the installed console script
        samples = [(p, 0.6366 * math.atan(100 * p))
                   for p in (0.005 + 0.195 * k / 24 for k in range(25))]
        a_hat, b_hat = fit_accuracy_curve(samples)
        _, b_ref = fit_accuracy_curve_golden(samples)
        assert abs(math.log10(b_hat) - math.log10(b_ref)) <= FIT_LOGB_TOL
        assert abs(a_hat / 0.6366 - 1.0) <= 1e-9
        assert abs(b_hat / 100.0 - 1.0) <= 1e-9

    def test_noisy_battery_no_worse_than_golden_section(self):
        # on each seeded noisy draw the residual at the fitted b is at most
        # the golden-section reference's, up to rounding
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.uniform(0.2, 2.0 / math.pi)
            b = 10.0 ** rng.uniform(-1.0, 3.0)
            n = int(rng.integers(5, 41))
            powers = rng.uniform(0.0, 3.0 / b * 10.0 ** rng.uniform(-1.0, 1.0), size=n)
            acc = a * np.arctan(b * powers) + rng.normal(0.0, rng.uniform(0.001, 0.05),
                                                         size=n)
            samples = list(zip(powers.tolist(), acc.tolist()))
            a_ref, b_ref = fit_accuracy_curve_golden(samples)
            try:
                _, b_hat = fit_accuracy_curve(samples)
            except ValueError:
                # rejected only where the reference's a breaks the cap too
                assert a_ref * math.pi / 2.0 > 1.0 + A_CAP_SLACK
                continue
            assert (fit_residual(samples, b_hat)[1]
                    <= fit_residual(samples, b_ref)[1] * (1.0 + 1e-12))

    @staticmethod
    def near_linear_samples(seed):
        # 10 noisy samples of 0.31*atan(466 p) with b*p <= 0.22
        rng = np.random.default_rng(seed)
        powers = np.linspace(0.022, 0.22, 10) / 466.0
        acc = 0.31 * np.arctan(466.0 * powers) + rng.normal(0.0, 2e-3, size=10)
        return list(zip(powers.tolist(), acc.tolist()))

    def test_near_linear_fit_passes_accuracy_params_or_raises(self):
        # every returned fit satisfies AccuracyParams' cap, with its slack;
        # a rejected one (seed 39 runs to b near 1e-4, a near 1e6) says why
        rejected = 0
        for seed in range(40):
            samples = self.near_linear_samples(seed)
            try:
                a_hat, b_hat = fit_accuracy_curve(samples)
            except ValueError as err:
                assert "fix only the product a*b" in str(err)
                a_ref, _ = fit_accuracy_curve_golden(samples)
                assert a_ref * math.pi / 2.0 > 1.0 + A_CAP_SLACK
                rejected += 1
                continue
            assert a_hat * math.pi / 2.0 <= 1.0 + A_CAP_SLACK
            AccuracyParams(a=a_hat, b=b_hat, s=1.0)
        assert 0 < rejected < 40
        with pytest.raises(ValueError):
            fit_accuracy_curve(self.near_linear_samples(39))


class TestPenaltyAndBound:
    def test_no_penalty_when_error_free(self):
        p = AccuracyParams(a=0.6, b=50.0, s=2.0)
        terms = PenaltyTerms(prune_coeff=3.0, quant_coeff=0.0, tail_norm=1.5)
        k = penalty_factor(1.0, 2, terms, p)
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

    def test_margin_saturates(self):
        # (w/(c_m s))^2 overflows at s = 1e-300: the factor is inf, K is inf
        # where the penalty sum is positive and 0 where it is 0, never NaN
        p = AccuracyParams(a=0.6366, b=100.0, s=1e-300)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=0.0, tail_norm=2.0)
        assert margin_factor(terms, p) == math.inf
        assert penalty_factor(1.0, 2, terms, p) == 0.0
        assert penalty_factor(0.5, 2, terms, p) == math.inf
        assert sensing_power_at(1.0, 2, terms, p, 0.5, 1.0) > 0.0
        with pytest.raises(InfeasibleError) as err:
            sensing_power_at(0.5, 2, terms, p, 0.5, 1.0)
        assert err.value.reason == "margin_penalty"
        # only rho = 1 meets the target, and with no pruning term any rho
        assert pruning_floor_at(2, terms, p, 0.5, 1.0, 1e-9) == 1.0
        unpruned = PenaltyTerms(prune_coeff=0.0, quant_coeff=0.0, tail_norm=2.0)
        assert pruning_floor_at(2, unpruned, p, 0.5, 1.0, 1e-9) == 1e-9
        # c_m * s underflows to 0: inf for a positive tail norm, 0 for none
        tiny = AccuracyParams(a=0.6366, b=100.0, s=1e-200, c_m=1e-200)
        assert margin_factor(terms, tiny) == math.inf
        assert margin_factor(PenaltyTerms(1.0, 1.0, 0.0), tiny) == 0.0

    def test_zero_margin_keeps_k_zero(self):
        # a saturated (infinite) quantization coefficient behind a zero
        # margin factor: K is 0, not 0*inf = NaN
        p = AccuracyParams(a=0.6366, b=100.0, s=1.0)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=math.inf, tail_norm=0.0)
        assert margin_factor(terms, p) == 0.0
        assert penalty_factor(0.5, 2, terms, p) == 0.0
        assert sensing_power_at(0.5, 2, terms, p, 0.5, 1.0) > 0.0
        assert penalty_factor(0.5, 2, replace(terms, tail_norm=1.0), p) == math.inf

    def test_monotonicity(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=2.0)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=1.0, tail_norm=1.0)
        base = accuracy_lower_bound(alloc(p_s=0.05, rho=0.7, q=3), terms, p)
        assert accuracy_lower_bound(alloc(p_s=0.06, rho=0.7, q=3), terms, p) >= base
        assert accuracy_lower_bound(alloc(p_s=0.05, rho=0.8, q=3), terms, p) >= base
        assert accuracy_lower_bound(alloc(p_s=0.05, rho=0.7, q=4), terms, p) >= base


class TestMinSensingPower:
    """accuracy.sensing_power at (q, terms, params), bound by
    tests/util.sensing_power_at."""

    def make_terms(self, k_at_q2=0.1):
        # margin term 1, quant factor v(2)=1 -> K = quant_coeff at rho=1
        return PenaltyTerms(prune_coeff=0.0, quant_coeff=k_at_q2, tail_norm=1.0)

    def test_zero_target(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        assert sensing_power_at(1.0, 2, self.make_terms(), p, 0.0, 1.0) == 0.0

    def test_ceiling_infeasible(self):
        p = AccuracyParams(a=0.6, b=50.0, s=1.0)
        with pytest.raises(InfeasibleError) as err:
            sensing_power_at(1.0, 2, self.make_terms(0.1), p, 0.85, 10.0)
        assert err.value.reason == "accuracy_ceiling"

    def test_closed_form_inversion(self):
        p = AccuracyParams(a=0.63, b=50.0, s=1.0)
        got = sensing_power_at(1.0, 2, self.make_terms(0.1), p, 0.85, 10.0)
        assert got == pytest.approx(math.tan((0.85 / 0.9) / 0.63) / 50.0, rel=1e-12)
        assert got == pytest.approx(0.2785470, rel=1e-5)

    def test_power_cap(self):
        p = AccuracyParams(a=0.63, b=50.0, s=1.0)
        with pytest.raises(InfeasibleError) as err:
            sensing_power_at(1.0, 2, self.make_terms(0.1), p, 0.85, 0.2)
        assert err.value.reason == "sensing_power_cap"

    def test_margin_penalty_infeasible(self):
        p = AccuracyParams(a=0.63, b=50.0, s=1.0)
        with pytest.raises(InfeasibleError) as err:
            sensing_power_at(1.0, 2, self.make_terms(1.5), p, 0.5, 1.0)
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
                ps = sensing_power_at(rho, q, terms, p, r_t, 1e6)
            except InfeasibleError:
                continue
            a = alloc(p_s=ps, rho=rho, q=q)
            assert accuracy_lower_bound(a, terms, p) == pytest.approx(r_t, abs=1e-9)

    def test_required_power_nonincreasing_in_rho(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=1.5, quant_coeff=0.2, tail_norm=1.0)
        grid = np.linspace(0.05, 1.0, 60)
        ps = [sensing_power_at(r, 3, terms, p, 0.8, 1e6) for r in grid]
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


class TestSensingPowerKernel:
    """accuracy.sensing_power, K from margin_penalty and the arctan
    inverse, gives the bits and reasons of the composition of
    penalty_factor and the inverse (tests/util.min_sensing_power_composed)."""

    def test_equals_the_composition(self):
        rhos = [float(r) for r in np.geomspace(1e-9, 1.0, 24)] + [1.0 - 2.0**-53, 1.0]
        seen = set()
        for s in (3.0, 1e-300):   # the margin factor overflows to inf at 1e-300
            p = AccuracyParams(a=0.6366, b=100.0, s=s)
            for c, d, w in itertools.product((0.0, 0.05, 1.0), (0.0, 0.5, 10.0), (0.0, 3.0)):
                terms = PenaltyTerms(prune_coeff=c, quant_coeff=d, tail_norm=w)
                margin = margin_factor(terms, p)
                for q, rho, r_t, p_max in itertools.product(
                        (2, 3, 6), rhos, (0.0, 0.3, 0.6, 0.9, 0.99, 0.99999), (1.0, 0.01)):
                    args = (rho, q, terms, p, r_t, p_max)
                    got = outcome(sensing_power_at, *args)
                    assert got == outcome(min_sensing_power_composed, *args), args
                    kind = (got[0] if isinstance(got, tuple)
                            else "zero" if got == "0.0" else "power")
                    seen.add((margin if margin in (0.0, math.inf) else "finite", kind))
        reasons = ("margin_penalty", "accuracy_ceiling", "sensing_power_cap")
        assert {("finite", kind) for kind in reasons + ("zero", "power")} <= seen
        assert {(0.0, "power"), (0.0, "zero"), (0.0, "accuracy_ceiling"),
                (0.0, "sensing_power_cap"), (math.inf, "margin_penalty"),
                (math.inf, "power")} <= seen

    def test_rho_outside_zero_one_raises(self):
        # the kernel takes v(q) on trust (PairEnergy's quant_error_factor
        # checks q), but pruning_error_factor checks rho; the reference
        # checks both
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=0.5, tail_norm=1.0)
        for rho, match in ((0.0, "rho must be positive"), (1.5, "rho must not exceed 1")):
            with pytest.raises(ValueError, match=match):
                sensing_power(rho, 1.0, 0.5, margin_factor(terms, p), 0.5, p.a, p.b,
                              accuracy_ceiling(p))
            with pytest.raises(ValueError, match=match):
                min_sensing_power_composed(rho, 2, terms, p, 0.5, 1.0)
        with pytest.raises(ValueError, match="quantization bits"):
            min_sensing_power_composed(0.5, 1, terms, p, 0.5, 1.0)


class TestSensingPowerSlope:
    """accuracy.sensing_power's slopes: dp_s/drho is -(ln rho)^2 dp_s/du to
    the bit, it matches the central differences of the power in rho, and it
    rises with rho (p_s is convex in rho), which the surrogate bound's and
    the tangent keys' tangents rely on."""

    def test_value_slope_and_convexity(self):
        rhos = [float(r) for r in np.geomspace(1e-3, 1.0, 40)]
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        compared = 0
        for c, d, w in itertools.product((0.0, 0.05, 1.0), (0.0, 0.5), (0.0, 3.0)):
            terms = PenaltyTerms(prune_coeff=c, quant_coeff=d, tail_norm=w)
            margin = margin_factor(terms, p)
            for q, r_t in itertools.product((2, 6), (0.0, 0.3, 0.6, 0.9)):
                args = (c, d * quant_error_factor(q), margin, r_t, p.a, p.b,
                        accuracy_ceiling(p))

                def power(rho):
                    return sensing_power(rho, *args)[0]

                slopes = []
                for rho in rhos:
                    p_s, dp_du, dp_s = sensing_power(rho, *args)
                    if p_s == math.inf:
                        assert (dp_du, dp_s) == (math.inf, -math.inf)
                        continue
                    log_rho = math.log(rho)
                    assert dp_s == -(log_rho * log_rho) * dp_du, (rho, args)
                    slopes.append(dp_s)
                    h = 1e-6 * rho
                    ends = power(rho - h), power(min(rho + h, 1.0))
                    if rho < 1.0 and math.inf not in ends:
                        diff = (ends[1] - ends[0]) / (min(rho + h, 1.0) - (rho - h))
                        assert dp_s == pytest.approx(diff, rel=1e-4, abs=1e-9 * p_s)
                        compared += 1
                assert slopes == sorted(slopes)
        assert compared >= 500

class TestMinPruningRatio:
    """accuracy.pruning_floor at (q, terms, params), bound by
    tests/util.pruning_floor_at."""

    def test_boundary_of_the_sensing_power_cap(self):
        # sensing_power succeeds at the closed-form rho_min and raises
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
                sensing_power_at(1.0, q, terms, p, r_t, p_max)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    pruning_floor_at(q, terms, p, r_t, p_max, 1e-9)
                continue
            rho = pruning_floor_at(q, terms, p, r_t, p_max, 1e-9)
            assert 1e-9 <= rho <= 1.0
            sensing_power_at(rho, q, terms, p, r_t, p_max)
            if rho > 1e-9:
                interior += 1
                with pytest.raises(InfeasibleError):
                    sensing_power_at(rho * (1.0 - 1e-9), q, terms, p, r_t, p_max)
        assert interior >= 50

    def test_cubic_lower_bound_of_the_factor(self):
        # (ln s)^2 >= (1 - s)^2 on (0, 1], so u(rho) >= (1 - rho)^3/3 and the
        # Newton start 1 - (3 U*)^(1/3) lies left of the root (checked up to
        # 0.999, where the bound's slack still exceeds the rounding of u)
        for rho in np.geomspace(1e-9, 0.999, 500):
            assert pruning_error_factor(float(rho)) >= (1.0 - rho) ** 3 / 3.0

    def test_newton_starts_at_the_cubic_bound(self, monkeypatch):
        # U* = 1e-6: the steps start at 1 - (3e-6)^(1/3), next to the root,
        # rather than at the floor; each Newton step and each probe takes
        # one ln(rho), and the one probe one tan
        import isccopt.accuracy as acc
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=0.0, tail_norm=3.0)
        r_t = ideal_accuracy(1.0, p) * (1.0 - 1e-6)
        calls = record_math(monkeypatch, acc, "log", "tan")
        rho = pruning_floor_at(3, terms, p, r_t, 1.0, 1e-9)
        monkeypatch.undo()
        start = 1.0 - 3e-6 ** (1.0 / 3.0)
        assert start <= rho <= start + 1e-3
        assert pruning_error_factor(rho) == pytest.approx(1e-6, rel=1e-6)
        assert min(calls["log"]) == pytest.approx(start, rel=1e-9)
        assert len(calls["log"]) <= 5
        assert len(calls["tan"]) == 1

    @pytest.mark.parametrize("quant_coeff, r_t, reason", [
        (10.0, 0.5, "margin_penalty"), (0.7, 0.4, "accuracy_ceiling"),
        (0.7, 0.2985, "sensing_power_cap")])
    def test_infeasible_at_one_probes_only_one(self, monkeypatch, quant_coeff, r_t, reason):
        # U* < 0: even rho = 1 misses the target, and u >= 0, so no Newton
        # step is taken, rho = 1 is the one point probed (by sensing_power,
        # with one ln(rho)) and its reason is raised
        import isccopt.accuracy as acc
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=1.0, quant_coeff=quant_coeff, tail_norm=3.0)
        probes = []
        monkeypatch.setattr(acc, "sensing_power",
                            lambda rho, *args: probes.append(rho) or sensing_power(rho, *args))
        factors = record_math(monkeypatch, acc, "log")["log"]
        with pytest.raises(InfeasibleError) as err:
            pruning_floor_at(2, terms, p, r_t, 1.0, 1e-9)
        assert err.value.reason == reason
        assert probes == [1.0]
        # the probe's ln, and the one sensing_power_error takes to name it
        assert factors == [1.0, 1.0]

    def test_equals_the_probing_reference(self):
        # pruning_floor, with its Newton step's u(rho) written out and its
        # probes through sensing_power: the floors and reasons of the
        # reference that probes by the composition, also
        # where the margin factor is 0 (w = 0) or saturates to inf
        rhos, seen = set(), set()
        for s in (3.0, 1e-300):
            p = AccuracyParams(a=0.6366, b=100.0, s=s)
            for c, d, w in itertools.product((0.0, 0.05, 1.0), (0.0, 0.5, 10.0), (0.0, 3.0)):
                terms = PenaltyTerms(prune_coeff=c, quant_coeff=d, tail_norm=w)
                margin = margin_factor(terms, p)
                for q, r_t, p_max in itertools.product(
                        (2, 3, 6), np.linspace(0.0, 0.99999, 40), (1.0, 0.01)):
                    args = (q, terms, p, float(r_t), p_max, 1e-9)
                    got = outcome(pruning_floor_at, *args)
                    assert got == outcome(min_pruning_ratio_probing, *args), args
                    if isinstance(got, tuple):
                        seen.add((margin if margin in (0.0, math.inf) else "finite", got[0]))
                    else:
                        rhos.add(float(got))
                        seen.add((margin if margin in (0.0, math.inf) else "finite", "floor"))
        assert len(rhos) >= 100
        assert {(m, "floor") for m in (0.0, math.inf, "finite")} <= seen
        assert {("finite", reason) for reason in
                ("margin_penalty", "accuracy_ceiling", "sensing_power_cap")} <= seen
        assert (math.inf, "margin_penalty") in seen

    def test_floor_when_pruning_is_free(self):
        p = AccuracyParams(a=0.6366, b=100.0, s=3.0)
        terms = PenaltyTerms(prune_coeff=0.0, quant_coeff=0.5, tail_norm=1.0)
        assert pruning_floor_at(3, terms, p, 0.8, 1.0, 1e-9) == 1e-9
        terms = PenaltyTerms(prune_coeff=0.5, quant_coeff=0.5, tail_norm=1.0)
        assert pruning_floor_at(3, terms, p, 0.0, 1.0, 1e-9) == 1e-9
