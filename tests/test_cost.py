import math

import numpy as np
import pytest

from isccopt import netmodel as nm
from isccopt.cost import (Allocation, Scenario, check_feasible, comm_cost,
                          comp_cost, total_cost)
from util import make_scenario


def make_alloc(**kw):
    base = dict(l=2, q=4, rho=0.8, p_s=0.05, p_c=0.1, nu_e=2e6)
    base.update(kw)
    return Allocation(**base)


class TestCommCost:
    def test_worked_example(self, template_net, default_scenario):
        # 120 features at 4 bits, 0.1 MHz, 20 dB SNR, 0.1 W
        t, e = comm_cost(5, 4, 0.1, template_net, default_scenario)
        rate = 1e5 * math.log2(1 + 100 * 0.1)
        assert rate == pytest.approx(345943.16, rel=1e-6)
        assert t == pytest.approx(480 / rate, rel=1e-12)
        assert t == pytest.approx(1.38751e-3, rel=1e-5)
        assert e == pytest.approx(0.1 * t, rel=1e-12)

    def test_on_device_split_is_free(self, template_net, default_scenario):
        assert comm_cost(7, 4, 0.1, template_net, default_scenario) == (0.0, 0.0)

    def test_linear_in_bits(self, template_net, default_scenario):
        t1, e1 = comm_cost(5, 2, 0.1, template_net, default_scenario)
        t2, e2 = comm_cost(5, 4, 0.1, template_net, default_scenario)
        assert t2 == pytest.approx(2 * t1, rel=1e-15)
        assert e2 == pytest.approx(2 * e1, rel=1e-15)

    def test_latency_strictly_decreasing_in_power(self, template_net, default_scenario):
        ts = [comm_cost(5, 4, p, template_net, default_scenario)[0]
              for p in np.geomspace(1e-3, 1.0, 20)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_energy_monotone_with_shannon_floor(self, template_net, default_scenario):
        # energy per round rises with transmit power and approaches the
        # finite floor bits*ln2/(B*G) as the power vanishes
        sc = default_scenario
        powers = np.geomspace(1e-9, 100.0, 40)
        es = [comm_cost(5, 4, p, template_net, sc)[1] for p in powers]
        assert all(a < b for a, b in zip(es, es[1:]))
        floor = 480 * math.log(2) / (sc.bandwidth * sc.g_over_bn0)
        assert es[0] == pytest.approx(floor, rel=1e-4)
        assert es[0] > floor

    def test_positive_power_required(self, template_net, default_scenario):
        with pytest.raises(ValueError):
            comm_cost(5, 4, 0.0, template_net, default_scenario)


class TestCompCost:
    def test_all_on_server(self, template_net, default_scenario):
        t_e, t_s, e = comp_cost(0, 1.0, 1e6, template_net, default_scenario)
        assert t_e == 0.0 and e == 0.0
        assert t_s == pytest.approx(826015 / 1e11)

    def test_energy_formula(self, template_net, default_scenario):
        t_e, _, e = comp_cost(7, 1.0, 8e6, template_net, default_scenario)
        flops = nm.cum_flops(template_net, 1, 7, 1.0)
        assert e == pytest.approx(1e-21 * flops * (8e6) ** 2, rel=1e-15)
        assert t_e == pytest.approx(flops / 8e6, rel=1e-15)

    def test_quadratic_in_frequency(self, template_net, default_scenario):
        es = [comp_cost(3, 0.7, nu, template_net, default_scenario)[2]
              for nu in (1e6, 2e6, 4e6)]
        assert es[1] == pytest.approx(4 * es[0], rel=1e-12)
        assert es[2] == pytest.approx(4 * es[1], rel=1e-12)

    def test_positive_frequency_required(self, template_net, default_scenario):
        with pytest.raises(ValueError):
            comp_cost(3, 0.7, 0.0, template_net, default_scenario)


class TestTotalCost:
    def test_breakdown_matches_components(self, template_net, default_scenario):
        a = make_alloc()
        b = total_cost(a, template_net, default_scenario)
        t_comm, e_comm = comm_cost(a.l, a.q, a.p_c, template_net, default_scenario)
        t_e, t_s, e_comp = comp_cost(a.l, a.rho, a.nu_e, template_net, default_scenario)
        assert (b.t_comm, b.e_comm) == (t_comm, e_comm)
        assert (b.t_comp_edge, b.t_comp_server, b.e_comp) == (t_e, t_s, e_comp)
        assert b.e_sen == a.p_s * 0.5
        assert b.t_sen == 0.5

    def test_latency_constrained_sensing_energy(self, template_net, default_scenario):
        b = total_cost(make_alloc(p_s=0.0189), template_net, default_scenario)
        assert b.e_sen == pytest.approx(9.45e-3)

    def test_totals_are_exact_sums(self, template_net, default_scenario):
        b = total_cost(make_alloc(), template_net, default_scenario)
        assert b.e_total == b.e_sen + b.e_comp + b.e_comm
        assert b.t_total == b.t_sen + b.t_comp_edge + b.t_comp_server + b.t_comm
        recomputed = sum((b.e_sen, b.e_comp, b.e_comm))
        assert abs(b.e_total - recomputed) <= 1e-15 * max(b.e_total, 1e-300)

    def test_no_edge_compute_energy(self, template_net, default_scenario):
        b = total_cost(make_alloc(l=0, q=default_scenario.q_max),
                       template_net, default_scenario)
        assert b.e_comp == 0.0

    def test_energy_increasing_in_knobs(self, template_net, default_scenario):
        base = total_cost(make_alloc(), template_net, default_scenario)
        assert total_cost(make_alloc(p_s=0.06), template_net,
                          default_scenario).e_total > base.e_total
        assert total_cost(make_alloc(nu_e=3e6), template_net,
                          default_scenario).e_total > base.e_total

    def test_latency_nonincreasing_in_speed_knobs(self, template_net, default_scenario):
        base = total_cost(make_alloc(), template_net, default_scenario)
        assert total_cost(make_alloc(nu_e=3e6), template_net,
                          default_scenario).t_total <= base.t_total
        assert total_cost(make_alloc(p_c=0.2), template_net,
                          default_scenario).t_total <= base.t_total


class TestCheckFeasible:
    @pytest.fixture
    def terms(self, template_net, default_params):
        from isccopt.optimizer import penalty_terms
        return penalty_terms(template_net, 2, default_params)

    def test_latency_overshoot_slack(self, template_net, default_params, terms):
        sc = make_scenario(t_max=0.4, r_t=0.1, splits=(1, 2, 3))
        a = make_alloc(p_s=0.9, nu_e=8e6, rho=1.0)
        report = check_feasible(a, template_net, sc, terms, default_params)
        latency = report.slack("latency")
        breakdown = total_cost(a, template_net, sc)
        assert not report.ok
        assert latency == pytest.approx(0.4 - breakdown.t_total)
        assert latency < 0

    def test_quant_bits_domain(self, template_net, default_scenario,
                               default_params, terms):
        a = make_alloc(q=1)
        report = check_feasible(a, template_net, default_scenario, terms,
                                default_params)
        assert not report.slack("quant_bits") >= 0 or not report.ok
        assert not [c for c in report.checks if c.name == "quant_bits"][0].ok

    def test_split_override(self, template_net, default_scenario,
                            default_params):
        from isccopt.optimizer import penalty_terms
        terms0 = penalty_terms(template_net, 0, default_params)
        a = make_alloc(l=0, q=6, rho=1.0, p_s=0.06)
        bad = check_feasible(a, template_net, default_scenario, terms0,
                             default_params)
        good = check_feasible(a, template_net, default_scenario, terms0,
                              default_params, splits={0})
        assert not [c for c in bad.checks if c.name == "split"][0].ok
        assert [c for c in good.checks if c.name == "split"][0].ok


class TestScenarioValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            Scenario(t_max=0.0, r_t=0.5, p_max=1.0, nu_max=1e6, nu_s=1e9,
                     kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                     m_chirps=1000, q_max=4)

    def test_target_range(self):
        with pytest.raises(ValueError):
            Scenario(t_max=1.0, r_t=1.0, p_max=1.0, nu_max=1e6, nu_s=1e9,
                     kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                     m_chirps=1000, q_max=4)

    def test_zero_target_allowed(self):
        sc = Scenario(t_max=1.0, r_t=0.0, p_max=1.0, nu_max=1e6, nu_s=1e9,
                      kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=1000, q_max=4)
        assert sc.t_sen == pytest.approx(0.01)

    def test_q_max_domain(self):
        with pytest.raises(ValueError):
            Scenario(t_max=1.0, r_t=0.5, p_max=1.0, nu_max=1e6, nu_s=1e9,
                     kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                     m_chirps=1000, q_max=1)
