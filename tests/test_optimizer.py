import math
from dataclasses import fields, replace

import numpy as np
import pytest

from isccopt import netmodel as nm
from isccopt import optimizer as opt
from isccopt import oracles as orc
from isccopt.accuracy import min_pruning_ratio
from isccopt.cost import check_feasible, total_cost
from isccopt.errors import InfeasibleError
from util import make_scenario


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
        sc = make_scenario(t_max=0.5004, splits=(1,))
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

    def test_vacuous_accuracy_target(self, template_net, default_params):
        sc = make_scenario(t_max=2.0, r_t=0.0)
        sol = opt.solve_scenario(template_net, sc, default_params)
        assert sol.feasible
        assert sol.alloc.p_s <= 1e-12
        assert sol.cost.e_sen <= 1e-12

    def test_all_pairs_infeasible_reports_reasons(self, template_net,
                                                  default_params):
        sc = make_scenario(t_max=0.5001, q_max=4, splits=(1, 2, 3))
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


def exhaustive(kind, net, sc, ap):
    """What solve_scenario (kind "proposed") or the on_device / no_prune
    baseline must return: every pair searched in enumeration order, the
    least (e_total, q, l) kept, one reason per rejected pair."""
    best, reasons = None, []
    splits = [net.depth] if kind == "on_device" else sorted(sc.splits or net.split_candidates)
    for l in splits:
        terms = opt.penalty_terms(net, l, ap)
        for q in [None] if l == net.depth else range(2, sc.q_max + 1):
            try:
                if kind == "no_prune":
                    energy = opt.PairEnergy(l, q, net, sc, terms, ap)
                    sol = energy.search(*energy.pin(1.0), 1e-6, kind)
                else:
                    sol = opt.solve_pair(l, q, net, sc, terms, ap, origin=kind)
            except InfeasibleError as err:
                reasons.append((l, 2 if q is None else q, err.reason))
                continue
            if best is None or ((sol.e_total, sol.alloc.q, l)
                                < (best.e_total, best.alloc.q, best.alloc.l)):
                best = sol
    if best is None:
        return opt.Solution(origin=kind, feasible=False, alloc=None, cost=None,
                            iterations=0, reasons=tuple(reasons))
    return replace(best, reasons=tuple(reasons))


@pytest.fixture(scope="module")
def criterion07_cases():
    """Criterion 07's 100 random_test_case scenarios (rng 7000) with a
    feasible pair."""
    rng = np.random.default_rng(7000)
    cases = []
    for _ in range(400):
        net, sc, ap = orc.random_test_case(rng)
        if opt.solve_scenario(net, sc, ap).feasible:
            cases.append((net, sc, ap))
            if len(cases) == 100:
                break
    assert len(cases) == 100
    return cases


SWEEPS = {"t_max": [0.5001, 0.51, 0.55, 0.6, 0.8, 1.0, 1.2, 1.4, 2.0],
          "r_t": [0.0, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99],
          "snr": [1.0, 10.0, 50.0, 100.0, 500.0, 1000.0]}


class TestBoundAndPrune:
    """The endpoint lower bound and the best-first search that skips pairs
    it rules out."""

    def test_bound_below_every_feasible_point(self, criterion07_cases):
        grid = np.linspace(opt.RHO_FLOOR, 1.0, 400)
        pairs = 0
        for net, sc, ap in criterion07_cases:
            for l in sorted(sc.splits):
                terms = opt.penalty_terms(net, l, ap)
                for q in [None] if l == net.depth else range(2, sc.q_max + 1):
                    energy = opt.PairEnergy(l, q, net, sc, terms, ap)
                    try:
                        rho_min, rho_max = energy.bracket()
                    except InfeasibleError:
                        continue
                    pairs += 1
                    bound = energy.lower_bound(rho_min, rho_max)
                    assert bound <= opt.solve_pair(l, q, net, sc, terms, ap).e_total
                    # the bound from interior points too, as a search uses it
                    chain = np.linspace(rho_min, rho_max, 5)
                    for rho in chain:
                        energy(float(rho))
                    chain_bound = energy.lower_bound(*map(float, chain))
                    assert bound <= chain_bound
                    fresh = opt.PairEnergy(l, q, net, sc, terms, ap)
                    for rho in grid:
                        try:
                            e = fresh(float(rho))
                        except InfeasibleError:
                            continue
                        assert bound <= e
                        if rho_min <= rho <= rho_max:
                            assert chain_bound <= e
        assert pairs >= 800

    @pytest.mark.parametrize("axis", sorted(SWEEPS))
    def test_equals_exhaustive_search_on_stock_sweeps(self, template_net,
                                                      default_scenario,
                                                      default_params, axis):
        for value in SWEEPS[axis]:
            sc = opt.apply_axis(default_scenario, axis, value)
            for kind in ("proposed", "on_device", "no_prune"):
                got = (opt.solve_scenario(template_net, sc, default_params)
                       if kind == "proposed"
                       else opt.solve_baseline(kind, template_net, sc, default_params))
                want = exhaustive(kind, template_net, sc, default_params)
                for f in fields(opt.Solution):
                    assert getattr(got, f.name) == getattr(want, f.name), (value, kind, f.name)

    def test_equals_exhaustive_search_on_random_cases(self, criterion07_cases):
        for net, sc, ap in criterion07_cases:
            got = opt.solve_scenario(net, sc, ap)
            want = exhaustive("proposed", net, sc, ap)
            for f in fields(opt.Solution):
                assert getattr(got, f.name) == getattr(want, f.name), f.name

    def test_skips_and_abandons_searches(self, template_net, default_scenario,
                                         default_params, monkeypatch):
        # the stock solve starts fewer searches than it brackets and
        # abandons some of those it starts
        searches = []
        search = opt.PairEnergy.search

        def logged(self, *args):
            sol = search(self, *args)
            searches.append(sol)
            return sol

        monkeypatch.setattr(opt.PairEnergy, "search", logged)
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        bracketed = sum(1 for _ in opt._pairs(template_net, default_scenario)) - len(sol.reasons)
        finished = [s for s in searches if s is not None]
        assert sol.feasible
        assert 1 <= len(finished) < len(searches) < bracketed


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

    @pytest.mark.parametrize("axis", ["t_max", "snr"])
    def test_on_server_uploads_raw_input_until_the_deadline(
            self, template_net, default_scenario, default_params, axis):
        # the pair (0, q_max) at rho = 1: no edge compute, so nu_e sits at
        # nu_max and the upload stretches to the deadline
        terms = opt.penalty_terms(template_net, 0, default_params)
        for value in SWEEPS[axis]:
            sc = opt.apply_axis(default_scenario, axis, value)
            sol = opt.solve_baseline("on_server", template_net, sc, default_params)
            if not sol.feasible:
                assert [r[:2] for r in sol.reasons] == [(0, sc.q_max)]
                continue
            a = sol.alloc
            assert (a.l, a.q, a.rho, a.nu_e) == (0, sc.q_max, 1.0, sc.nu_max)
            assert sol.iterations == 1
            assert sol.cost.t_total == pytest.approx(sc.t_max, rel=1e-12)
            assert check_feasible(a, template_net, sc, terms, default_params,
                                  splits=[0]).ok

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
        sc = make_scenario(t_max=0.5001, q_max=4, splits=(1,))
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
