import math

import pytest

from isccopt import netmodel as nm
from isccopt import optimizer as opt
from isccopt.accuracy import min_pruning_ratio
from isccopt.cost import Scenario, check_feasible, total_cost
from isccopt.errors import InfeasibleError


class TestPenaltyTerms:
    def test_input_split(self, template_net, default_params):
        terms = opt.penalty_terms(template_net, 0, default_params)
        assert terms.prune_coeff == 0.0
        assert terms.quant_coeff == pytest.approx(0.25 * 1024)
        assert terms.tail_norm == pytest.approx(
            nm.tail_norm_product(template_net, 0))

    def test_last_layer_split_drops_quantization(self, template_net, default_params):
        terms = opt.penalty_terms(template_net, 7, default_params)
        assert terms.quant_coeff == 0.0
        assert terms.tail_norm == 1.0
        assert terms.prune_coeff > 0

    def test_interior_split(self, template_net, default_params):
        terms = opt.penalty_terms(template_net, 3, default_params)
        assert terms.quant_coeff == pytest.approx(0.25 * 400)  # next layer pools
        assert terms.prune_coeff == pytest.approx(
            nm.pruning_penalty_coeff(template_net, 3))


class TestAlternateInner:
    """Per-pair cases of the pair solver."""

    def test_returns_least_evaluated_energy(self, template_net,
                                            default_scenario, default_params):
        # the chosen point is no worse than either end of the rho bracket,
        # and the search stops after the golden-section evaluations plus
        # the bracket ends
        for l, q in ((1, 4), (3, 6), (5, 2), (6, 3)):
            terms = opt.penalty_terms(template_net, l, default_params)
            sol = opt.solve_pair(l, q, template_net, default_scenario, terms,
                                 default_params)
            energy = opt.PairEnergy(l, q, template_net, default_scenario, terms,
                                    default_params)
            rho_max = energy.rho_max()
            rho_min = min_pruning_ratio(q, terms, default_params, default_scenario.r_t,
                                        default_scenario.p_max, opt.RHO_FLOOR)
            assert sol.e_total <= min(energy(rho_min), energy(rho_max)) * (1 + 1e-12)
            assert rho_min <= sol.alloc.rho <= rho_max
            assert 3 <= sol.iterations <= 40

    def test_on_device_split(self, template_net, default_scenario, default_params):
        terms = opt.penalty_terms(template_net, 7, default_params)
        sol = opt.solve_pair(7, None, template_net, default_scenario,
                             terms, default_params)
        assert sol.cost.t_comm == 0.0
        assert sol.cost.e_comm == 0.0
        # edge compute deadline is active
        assert sol.cost.t_total == pytest.approx(default_scenario.t_max, rel=1e-9)

    def test_infeasible_budget_raises(self, template_net, default_params):
        sc = Scenario(t_max=0.5004, r_t=0.85, p_max=1.0, nu_max=8e6, nu_s=1e11,
                      kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=50000, fs=1e7, q_max=6, splits=(1,))
        terms = opt.penalty_terms(template_net, 1, default_params)
        with pytest.raises(InfeasibleError):
            opt.solve_pair(1, 6, template_net, sc, terms, default_params)


class TestSolveScenario:
    def test_feasible_and_constraint_checked(self, template_net,
                                             default_scenario, default_params):
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        assert sol.feasible
        terms = opt.penalty_terms(template_net, sol.alloc.l, default_params)
        report = check_feasible(sol.alloc, template_net, default_scenario,
                                terms, default_params)
        assert report.ok
        # the accuracy constraint is active at the solution
        assert abs(report.slack("accuracy")) <= 1e-6

    def test_deterministic(self, template_net, default_scenario, default_params):
        a = opt.solve_scenario(template_net, default_scenario, default_params)
        b = opt.solve_scenario(template_net, default_scenario, default_params)
        assert a == b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vacuous_accuracy_target(self, template_net, default_params):
        sc = Scenario(t_max=2.0, r_t=0.0, p_max=1.0, nu_max=8e6, nu_s=1e11,
                      kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=50000, fs=1e7, q_max=6, splits=tuple(range(1, 8)))
        sol = opt.solve_scenario(template_net, sc, default_params)
        assert sol.feasible
        assert sol.alloc.p_s <= 1e-12
        assert sol.cost.e_sen <= 1e-12

    def test_all_pairs_infeasible_reports_reasons(self, template_net,
                                                  default_params):
        sc = Scenario(t_max=0.5001, r_t=0.85, p_max=1.0, nu_max=8e6, nu_s=1e11,
                      kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=50000, fs=1e7, q_max=4, splits=(1, 2, 3))
        sol = opt.solve_scenario(template_net, sc, default_params)
        assert not sol.feasible
        assert sol.e_total == math.inf
        pairs = {(l, q) for l, q, _ in sol.reasons}
        assert pairs == {(l, q) for l in (1, 2, 3) for q in (2, 3, 4)}

    def test_tie_break_prefers_smaller_q_then_l(self, template_net,
                                                default_scenario, default_params):
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        # no strictly cheaper (e, q, l) lexicographic candidate exists
        assert sol.feasible


class TestBaselines:
    def test_on_device_has_no_comm(self, template_net, default_scenario,
                                   default_params):
        sol = opt.solve_baseline("on_device", template_net, default_scenario,
                                 default_params)
        assert sol.feasible
        assert sol.cost.e_comm == 0.0
        assert sol.cost.t_comm == 0.0
        assert sol.alloc.l == template_net.depth

    def test_on_server_has_no_edge_compute(self, template_net, default_scenario,
                                           default_params):
        sol = opt.solve_baseline("on_server", template_net, default_scenario,
                                 default_params)
        assert sol.feasible
        assert sol.cost.e_comp == 0.0
        assert sol.alloc.l == 0
        assert sol.alloc.q == default_scenario.q_max

    def test_no_prune_keeps_everything(self, template_net, default_scenario,
                                       default_params):
        sol = opt.solve_baseline("no_prune", template_net, default_scenario,
                                 default_params)
        assert sol.feasible
        assert sol.alloc.rho == 1.0

    def test_unknown_kind(self, template_net, default_scenario, default_params):
        with pytest.raises(ValueError):
            opt.solve_baseline("nope", template_net, default_scenario,
                               default_params)

    def test_proposed_dominates_each_baseline(self, template_net,
                                              default_scenario, default_params):
        prop = opt.solve_scenario(template_net, default_scenario, default_params)
        for kind in ("on_server", "on_device", "no_prune"):
            base = opt.solve_baseline(kind, template_net, default_scenario,
                                      default_params)
            if base.feasible:
                assert prop.e_total <= base.e_total + 1e-9


class TestSweep:
    def test_row_count_and_values(self, template_net, default_scenario,
                                  default_params):
        values = [0.7, 0.8, 0.9]
        rows = opt.sweep(template_net, default_scenario, default_params,
                         "t_max", values)
        assert len(rows) == len(values) * 4
        assert [r.value for r in rows[::4]] == values
        origins = {r.solution.origin for r in rows}
        assert origins == set(opt.ORIGINS)

    def test_axis_application(self, default_scenario):
        assert opt.apply_axis(default_scenario, "t_max", 1.1).t_max == 1.1
        assert opt.apply_axis(default_scenario, "r_t", 0.7).r_t == 0.7
        assert opt.apply_axis(default_scenario, "snr", 10.0).g_over_bn0 == 10.0
        with pytest.raises(ValueError):
            opt.apply_axis(default_scenario, "bogus", 1.0)

    def test_on_device_invariant_across_snr(self, template_net,
                                            default_scenario, default_params):
        rows = opt.sweep(template_net, default_scenario, default_params, "snr",
                         [1.0, 10.0, 100.0], origins=("on_device",))
        energies = {r.solution.cost.e_total for r in rows}
        assert len(energies) == 1

    def test_empty_values_rejected(self, template_net, default_scenario,
                                   default_params):
        with pytest.raises(ValueError):
            opt.sweep(template_net, default_scenario, default_params, "t_max", [])


class TestSerialization:
    def test_solution_roundtrip_recosts_exactly(self, template_net,
                                                default_scenario, default_params):
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        data = opt.solution_to_dict(sol)
        back = opt.solution_from_dict(data)
        assert back == sol
        recost = total_cost(back.alloc, template_net, default_scenario)
        assert recost.e_total == pytest.approx(sol.cost.e_total, rel=1e-12)

    def test_infeasible_roundtrip(self, template_net, default_params):
        sc = Scenario(t_max=0.5001, r_t=0.85, p_max=1.0, nu_max=8e6, nu_s=1e11,
                      kappa=1e-21, bandwidth=1e5, g_over_bn0=100.0, t0=1e-5,
                      m_chirps=50000, fs=1e7, q_max=4, splits=(1,))
        sol = opt.solve_scenario(template_net, sc, default_params)
        back = opt.solution_from_dict(opt.solution_to_dict(sol))
        assert back == sol

    def test_csv_rows(self, template_net, default_scenario, default_params,
                      tmp_path):
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        rows = [opt.solution_row("base", sol)]
        path = tmp_path / "out.csv"
        opt.write_solutions_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == ",".join(opt.CSV_COLUMNS)
        assert len(text) == 2
        assert text[1].startswith("base,proposed,")
