import json
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isccopt import netmodel as nm
from isccopt import optimizer as opt
from isccopt import oracles as orc
from isccopt.accuracy import accuracy_ceiling
from isccopt.cost import Allocation, check_feasible, comm_cost, total_cost
from isccopt.errors import CheckError, InfeasibleError
from isccopt.solvers import INV_GOLDEN, KKT_REL_TOL, min_rate_time, power_freq
from util import (SWEEPS, bracketed, finish, halve_sensing_power, make_scenario,
                  min_pruning_ratio_probing,
                  min_sensing_power_composed, outcome, pruning_floor_at, record_math,
                  solve_pair, solve_pc_nue_reference, stock_config)


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


def factors_or_error(net, l):
    """(pruning_penalty_coeff, tail_norm_product) of split l, or the type
    and message of what they raise."""
    try:
        return nm.pruning_penalty_coeff(net, l), nm.tail_norm_product(net, l)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


def assert_penalty_table_matches(net, ap):
    """net.penalty_table holds the two functions' values at every split,
    and penalty_terms raises what they raise where it holds nothing."""
    assert len(net.penalty_table) == net.depth + 1
    for l, factors in enumerate(net.penalty_table):
        want = factors_or_error(net, l)
        if factors is not None:
            assert factors == want, l
            continue
        with pytest.raises(want[0]) as err:
            opt.penalty_terms(net, l, ap)
        assert str(err.value) == want[1]


class TestPenaltyTable:
    """NetworkModel.penalty_table: the network-only penalty factors of every
    split, built once per network."""

    def test_equals_the_functions(self, template_net, default_params, criterion07_cases):
        assert None not in template_net.penalty_table
        assert_penalty_table_matches(template_net, default_params)
        for net, _, ap in criterion07_cases:
            assert None not in net.penalty_table
            assert_penalty_table_matches(net, ap)

    def test_with_weights_and_replace_rebuild_it(self, template_net, default_params):
        doubled = template_net.with_weights(
            [2.0 * layer.weights for layer in template_net.layers if layer.is_weighted])
        pruned = nm.prune(template_net, 0.5, 3)   # built by replace
        for net in (doubled, pruned):
            assert net.penalty_table[1:] != template_net.penalty_table[1:]
            assert_penalty_table_matches(net, default_params)

    def test_splits_whose_factors_raise_store_nothing(self, template_net, default_params):
        # no weights (ValueError), an all-zero layer (ValueError) and norms
        # so small that M/lambda^2 overflows (OverflowError): penalty_terms
        # raises as the functions do
        bare = replace(template_net, layers=tuple(
            replace(layer, weights=None) for layer in template_net.layers))
        layers = list(template_net.layers)
        layers[0] = replace(layers[0], weights=np.zeros_like(layers[0].weights))
        zero = replace(template_net, layers=tuple(layers))
        tiny = template_net.with_weights(
            [1e-300 * layer.weights for layer in template_net.layers if layer.is_weighted])
        for net, error in ((bare, ValueError), (zero, ValueError), (tiny, OverflowError)):
            assert error in {factors_or_error(net, l)[0] for l in range(net.depth + 1)}
            assert None in net.penalty_table
            assert_penalty_table_matches(net, default_params)


class TestSolvePair:
    """Per-pair cases of the pair solver."""

    def test_returns_least_evaluated_energy(self, template_net,
                                            default_scenario, default_params):
        # the chosen point is no worse than either end of the rho bracket,
        # and Brent's method stops after at most 11 evaluations besides the
        # bracket ends (golden section took 32)
        for l, q in ((1, 4), (3, 6), (5, 2), (6, 3)):
            split = opt.Split(template_net, default_scenario, default_params, l)
            sol = solve_pair(l, q, template_net, default_scenario, default_params)
            energy = opt.PairEnergy(split, q)
            rho_max = energy.rho_max()
            rho_min = pruning_floor_at(q, split.terms, default_params, default_scenario.r_t,
                                       default_scenario.p_max, opt.RHO_FLOOR)
            assert sol.e_total <= min(energy(rho_min), energy(rho_max)) * (1 + 1e-12)
            assert rho_min <= sol.alloc.rho <= rho_max
            assert 3 <= sol.iterations <= 13

    def test_on_device_split(self, template_net, default_scenario, default_params):
        sc = default_scenario
        sol = solve_pair(7, 2, template_net, sc, default_params)
        assert sol.cost.t_comm == 0.0
        assert sol.cost.e_comm == 0.0
        # nothing is uploaded at any bit width, so the split has one pair
        for q in range(2, sc.q_max + 1):
            assert comm_cost(7, q, sc.p_max, template_net, sc) == (0.0, 0.0)
        assert [p for p in opt._pairs(template_net, sc) if p[0] == 7] == [(7, 2)]
        # edge compute deadline is active
        assert sol.cost.t_total == pytest.approx(sc.t_max, rel=1e-9)

    def test_infeasible_budget_raises(self, template_net, default_params):
        sc = make_scenario(t_max=0.5004, splits=(1,))
        with pytest.raises(InfeasibleError):
            solve_pair(1, 6, template_net, sc, default_params)

    def test_edge_flops_over_budget_at_every_rho(self, template_net, default_params):
        # at t_max = 0.501 layers 1..5 need more FLOPs at rho = RHO_FLOOR than
        # the deadline leaves at nu_max: the deadline, not the accuracy
        # target, rules the pair out
        sc = make_scenario(t_max=0.501)
        energy = opt.PairEnergy(opt.Split(template_net, sc, default_params, 5), 2)
        cap = (energy.split.t2 - energy.a1 * min_rate_time(sc)) * sc.nu_max
        assert nm.cum_flops(template_net, 1, 5, opt.RHO_FLOOR) > cap > 0
        with pytest.raises(InfeasibleError) as err:
            next(energy.steps())
        assert err.value.reason == "latency_budget"


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

    def test_stock_solve_costs_its_answer_once(self, template_net, default_scenario,
                                               default_params, monkeypatch):
        # the answer's breakdown is the one check_feasible computes; count
        # total_cost in every module that holds the name
        calls = []

        def counted(*args):
            calls.append(args)
            return total_cost(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("isccopt") and getattr(module, "total_cost", None) is total_cost:
                monkeypatch.setattr(module, "total_cost", counted)
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        assert sol.feasible
        assert len(calls) == 1
        assert sol.cost == total_cost(sol.alloc, template_net, default_scenario)

    def test_tie_break_prefers_smaller_q_then_l(self, template_net,
                                                default_scenario, default_params):
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        # no strictly cheaper (e, q, l) lexicographic candidate exists
        assert sol.feasible


def exhaustive(kind, net, sc, ap):
    """What solve_scenario (kind "proposed") or the on_device / no_prune
    baseline must return: every pair searched in enumeration order, the
    least (e_total, q, l) kept, one reason per rejected pair. The pairs are
    ranked by total_cost's e_total, not by the E(rho) that the solve loop
    ranks them by, so the loop's ranking is checked against the cost
    model."""
    best, reasons = None, []
    splits = [net.depth] if kind == "on_device" else sorted(sc.splits)
    for l in splits:
        split = opt.Split(net, sc, ap, l)
        for q in [2] if l == net.depth else range(2, sc.q_max + 1):
            energy = opt.PairEnergy(split, q, prune=kind != "no_prune")
            try:
                rho = finish(energy.steps())
            except InfeasibleError as err:
                reasons.append((l, q, err.reason))
                continue
            _, p_s, p_c, nu_e, _, _ = energy.points[rho]
            alloc = Allocation(l=l, q=q, rho=rho, p_s=p_s, p_c=p_c, nu_e=nu_e)
            sol = opt.Solution(origin=kind, feasible=True, alloc=alloc,
                               cost=total_cost(alloc, net, sc),
                               iterations=len(energy.points))
            if best is None or ((sol.e_total, q, l)
                                < (best.e_total, best.alloc.q, best.alloc.l)):
                best = sol
    if best is None:
        return opt.Solution(origin=kind, feasible=False, alloc=None, cost=None,
                            iterations=0, reasons=tuple(reasons))
    return replace(best, reasons=tuple(reasons))


def watch_steps(monkeypatch, key):
    """Patch PairEnergy.steps to pass each pair's i-th yield (from 0)
    through key(energy, i, bound); returns the list of pairs whose search
    returns, filled as they return."""
    steps = opt.PairEnergy.steps
    finished = []

    def watched(self):
        search, i = steps(self), 0
        while True:
            try:
                bound = next(search)
            except StopIteration as done:
                finished.append(self)
                return done.value
            yield key(self, i, bound)
            i += 1

    monkeypatch.setattr(opt.PairEnergy, "steps", watched)
    return finished


def count_calls(monkeypatch, *names):
    """Count the calls the optimizer makes to each of its functions `names`."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(opt, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(opt, name, counted(name))
    return calls


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


class TestBoundAndPrune:
    """The endpoint lower bound and the best-first search that skips pairs
    it rules out."""

    def test_bound_below_every_feasible_point(self, criterion07_cases):
        grid = np.linspace(opt.RHO_FLOOR, 1.0, 400)
        pairs = unpruned = 0
        for net, sc, ap in criterion07_cases:
            for l in sorted(sc.splits):
                split = opt.Split(net, sc, ap, l)
                for q in [2] if l == net.depth else range(2, sc.q_max + 1):
                    # a pair that does not prune: its one point is rho = 1
                    energy = opt.PairEnergy(split, q, prune=False)
                    try:
                        relaxed = next(energy.steps()) / (1.0 + 1e-12)
                    except InfeasibleError:
                        pass
                    else:
                        assert relaxed <= energy(1.0)
                        unpruned += 1
                    energy = opt.PairEnergy(split, q)
                    try:
                        keys, rho_min, rho_max, second = bracketed(energy)
                    except InfeasibleError:
                        continue
                    pairs += 1
                    bound = energy.lower_bound((rho_min, rho_max))
                    # the first yield after the bracket, where it is wider
                    # than EPS_RHO: the larger of lower_bound and the last
                    # key before the bracket (the surrogate bound, or the
                    # relaxed bound where there is none)
                    assert keys == sorted(keys)
                    assert second == (max(keys[-1], bound) if rho_max - rho_min > opt.EPS_RHO
                                      else None)
                    # the relaxed bound can be exact (rho_min = RHO_FLOOR
                    # with the upload at p_max): then it and E round an ulp
                    # apart, far inside the gate's PRUNE_RTOL margin
                    relaxed = keys[0] / (1.0 + 1e-12)
                    assert relaxed <= bound
                    assert bound <= solve_pair(l, q, net, sc, ap).e_total
                    # the bound from interior points too, as a search uses it
                    chain = np.linspace(rho_min, rho_max, 5)
                    for rho in chain:
                        energy(float(rho))
                    chain_bound = energy.lower_bound([float(rho) for rho in chain])
                    assert bound <= chain_bound
                    fresh = opt.PairEnergy(split, q)
                    for rho in grid:
                        try:
                            e = fresh(float(rho))
                        except InfeasibleError:
                            continue
                        assert relaxed <= bound <= e
                        if rho_min <= rho <= rho_max:
                            assert chain_bound <= e
        assert pairs >= 800 and unpruned >= 800

    def test_relaxed_bound_raises_what_the_bracket_raises(self, criterion07_cases,
                                                          template_net, default_params):
        # the tight stock grid rejects pairs for each of the top end's
        # reasons; a pair the relaxed bound passes is bracketed or rejected
        # only at its bottom end, which no case here does
        cases = list(criterion07_cases)
        cases += [(template_net, make_scenario(t_max=t, r_t=r), default_params)
                  for t in (0.5001, 0.501, 0.505, 0.51, 0.52) for r in (0.85, 0.95, 0.99)]
        # a pair that does not prune also raises what E(1) raises
        seen = set()
        for net, sc, ap in cases:
            for l, q in opt._pairs(net, sc):
                split = opt.Split(net, sc, ap, l)
                for prune in (True, False):
                    calls = [lambda e: next(e.steps()), bracketed]
                    if not prune:
                        calls.append(lambda e: e(1.0))
                    outcomes = []
                    for call in calls:
                        energy = opt.PairEnergy(split, q, prune=prune)
                        try:
                            call(energy)
                            outcomes.append(None)
                        except InfeasibleError as err:
                            outcomes.append(err.reason)
                    assert len(set(outcomes)) == 1, (l, q, prune, sc)
                    seen.add((prune, outcomes[0]))
        assert {(prune, reason) for prune in (True, False)
                for reason in (None, "latency_budget", "sensing_power_cap")} <= seen

    def test_stock_solve_brackets_fewer_pairs(self, template_net, default_scenario,
                                              default_params, monkeypatch):
        # 104 KKT solves and 29 pruning floors with every pair bracketed,
        # 83 and 19 with the relaxed bound alone, 31 and 1 with the surrogate
        # bound after E at the top; ahead of it, the surrogate bound rules
        # out 18 of the 19 pairs the relaxed bound leaves before they record
        # a point. The answer is the one every pair searched gives
        calls = count_calls(monkeypatch, "power_freq", "pruning_floor")
        past_relaxed = set()

        def key(energy, i, bound):
            if i:
                past_relaxed.add(energy)   # a yield past the relaxed bound
            return bound

        finished = watch_steps(monkeypatch, key)
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        assert calls["power_freq"] == 13
        assert calls["pruning_floor"] == 1
        ruled_out = past_relaxed - set(finished)
        assert len(ruled_out) == 18
        assert all(energy.points == {} for energy in ruled_out)
        monkeypatch.undo()
        assert sol == exhaustive("proposed", template_net, default_scenario, default_params)

    def test_stock_no_prune_gates_its_pairs(self, template_net, default_scenario,
                                            default_params, monkeypatch):
        # 30 KKT solves with every no_prune pair evaluated at rho = 1; the
        # relaxed bound rules out all but the winner
        calls = count_calls(monkeypatch, "power_freq")
        sol = opt.solve_baseline("no_prune", template_net, default_scenario, default_params)
        assert calls["power_freq"] == 1
        monkeypatch.undo()
        assert sol == exhaustive("no_prune", template_net, default_scenario, default_params)

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
        # the stock solve starts searches on fewer pairs than it queues
        # (the relaxed bound keeps the others from being bracketed) and
        # abandons some of the searches it starts
        searches = set()

        def key(energy, i, bound):
            if i:
                searches.add(energy)   # a yield past the relaxed bound
            return bound

        finished = watch_steps(monkeypatch, key)
        sol = opt.solve_scenario(template_net, default_scenario, default_params)
        searches.update(finished)
        queued = len(opt._pairs(template_net, default_scenario)) - len(sol.reasons)
        assert sol.feasible
        assert 1 <= len(finished) < len(searches) < queued


class TestBoundConstants:
    """PairEnergy evaluates E(rho) by the kernels from constants bound per
    solve, split and pair; each point it records has the bits and reasons
    of E composed from the references of the kernels."""

    @pytest.mark.parametrize("q", [1, 2.5])
    def test_bits_below_two_or_fractional_raise(self, template_net, default_scenario,
                                                default_params, q):
        # the kernels take v(q) on trust; binding it checks q
        split = opt.Split(template_net, default_scenario, default_params, 2)
        with pytest.raises(ValueError, match="quantization bits"):
            opt.PairEnergy(split, q)

    def test_points_equal_the_composed_energy(self, criterion07_cases, template_net,
                                              default_scenario, default_params):
        cases = list(criterion07_cases[:40])
        cases += [(template_net, make_scenario(t_max=t, r_t=r), default_params)
                  for t, r in ((0.8, 0.9), (0.51, 0.85), (0.52, 0.95), (1.8, 0.99))]
        rhos = [float(r) for r in np.geomspace(opt.RHO_FLOOR, 1.0, 12)]
        kinds = set()
        for net, sc, ap in cases:
            for l, q in opt._pairs(net, sc):
                energy = opt.PairEnergy(opt.Split(net, sc, ap, l), q)
                terms = energy.split.terms

                def recorded(rho):
                    # the slope, the sixth field, is checked against E on a
                    # grid (TestTangents)
                    energy(rho)
                    return energy.points[rho][:5]

                def composed(rho):
                    p_s = min_sensing_power_composed(rho, q, terms, ap, sc.r_t, sc.p_max)
                    p_c, nu_e, _, _, e_edge, _ = solve_pc_nue_reference(
                        energy.a1, nm.cum_flops(net, 1, l, rho), energy.split.t2, sc)
                    return sc.t_sen * p_s + e_edge, p_s, p_c, nu_e, e_edge

                for rho in rhos:
                    got = outcome(recorded, rho)
                    assert got == outcome(composed, rho), (l, q, rho)
                    kinds.add(got[0] if isinstance(got, tuple) else "feasible")
        assert {"feasible", "latency_budget", "sensing_power_cap", "margin_penalty",
                "accuracy_ceiling"} <= kinds


class TestFixedCosts:
    """The pair loop's fixed costs cut with every answer kept (probes that
    raise nothing, one relaxed bound for a lone pair), the relaxed bound's
    guards where the deadline overflows or the bound is NaN, and the pairs
    rejected where the edge energy overflows."""

    def test_min_pruning_ratio_equals_the_probing_reference(
            self, criterion07_cases, template_net, default_scenario, default_params):
        # criterion 07's cases at their own r_t, and every stock pair on a
        # dense r_t grid up to just past the accuracy ceiling
        cases = [(net, sc, ap, [sc.r_t]) for net, sc, ap in criterion07_cases]
        ceiling = accuracy_ceiling(default_params)
        cases.append((template_net, default_scenario, default_params,
                      [float(r) for r in np.linspace(0.0, 1.01 * ceiling, 450)]))
        kinds = dict.fromkeys(("floor", "above", "raises"), 0)
        for net, sc, ap, r_ts in cases:
            for l, q in opt._pairs(net, sc):
                terms = opt.penalty_terms(net, l, ap)
                for r_t in r_ts:
                    args = (q, terms, ap, r_t, sc.p_max, opt.RHO_FLOOR)
                    got = outcome(pruning_floor_at, *args)
                    assert got == outcome(min_pruning_ratio_probing, *args), (l, q, r_t)
                    kinds["raises" if isinstance(got, tuple) else "floor"
                          if got == repr(opt.RHO_FLOOR) else "above"] += 1
        assert sum(kinds.values()) >= 15000
        assert min(kinds.values()) >= 500, kinds

    def test_returning_probe_constructs_no_error(self, template_net, default_scenario,
                                                 default_params, monkeypatch):
        # every stock pair at tight accuracy targets: a call that returns
        # raises nothing, although most of them probe the cap more than
        # once (a probe that reaches the cap takes one tan). With K_ROUNDING
        # at 0 the probes start at the Newton root; from K_ROUNDING above
        # it nearly every call returns at its first probe
        import isccopt.accuracy as acc
        monkeypatch.setattr(acc, "K_ROUNDING", 0.0)
        made = []
        init = InfeasibleError.__init__
        monkeypatch.setattr(InfeasibleError, "__init__",
                            lambda self, *args: made.append(args) or init(self, *args))
        probes = record_math(monkeypatch, acc, "tan")["tan"]
        returned = probed_again = 0
        for l, q in opt._pairs(template_net, default_scenario):
            terms = opt.penalty_terms(template_net, l, default_params)
            for r_t in np.linspace(0.84, 0.99, 31):
                made.clear()
                probes.clear()
                try:
                    pruning_floor_at(q, terms, default_params, float(r_t),
                                     default_scenario.p_max, opt.RHO_FLOOR)
                except InfeasibleError:
                    continue
                assert made == [], (l, q, r_t)
                returned += 1
                probed_again += len(probes) > 1
        assert returned >= 500 and probed_again >= returned // 2

    def test_errors_are_made_only_for_the_pairs_that_fail(self, template_net,
                                                         default_scenario, default_params,
                                                         monkeypatch):
        # every InfeasibleError a solve constructs is the reason of a pair it
        # rejects: no E(rho) evaluation, surrogate bound or pruning_floor
        # probe that succeeds constructs one, on the stock sweeps by every
        # origin, which reject pairs for each reason sensing_power_error names
        made = []
        init = InfeasibleError.__init__
        monkeypatch.setattr(InfeasibleError, "__init__",
                            lambda self, *args: made.append(args[0]) or init(self, *args))
        seen = set()
        for axis in sorted(SWEEPS):
            for value in SWEEPS[axis]:
                sc = opt.apply_axis(default_scenario, axis, value)
                for origin in opt.ORIGINS:
                    made.clear()
                    sol = solve_origin(origin, template_net, sc, default_params)
                    assert sorted(made) == sorted(r[2] for r in sol.reasons), (axis, value)
                    seen.update(made)
        assert {"margin_penalty", "accuracy_ceiling", "sensing_power_cap"} <= seen, seen

    def test_lone_pair_takes_one_relaxed_bound(self, template_net, default_params,
                                               monkeypatch):
        # every pair of every origin takes its relaxed bound, so on_server
        # and on_device, with one pair, take exactly one; a lone pair
        # rejected there keeps the reason the relaxed bound raises
        calls = []
        steps = opt.PairEnergy.steps

        def counted(self):
            calls.append(self)
            return (yield from steps(self))

        monkeypatch.setattr(opt.PairEnergy, "steps", counted)
        rejected = 0
        for t_max, r_t in ((0.8, 0.9), (0.51, 0.85), (0.5001, 0.9), (1.8, 0.99)):
            sc = make_scenario(t_max=t_max, r_t=r_t)
            n_pairs = len(opt._pairs(template_net, sc))
            for origin, want in (("proposed", n_pairs), ("no_prune", n_pairs),
                                 ("on_server", 1), ("on_device", 1)):
                calls.clear()
                sol = opt._enumerate(template_net, sc, default_params, origin)
                assert len(calls) == want, (origin, t_max, r_t)
                if want > 1 or sol.feasible:
                    continue
                rejected += 1
                [(l, q, reason)] = sol.reasons
                energy = opt.PairEnergy(opt.Split(template_net, sc, default_params, l), q)
                assert outcome(next, steps(energy))[0] == reason
        assert rejected >= 2

    def test_nan_bound_fails_closed(self, template_net, default_scenario, default_params,
                                    monkeypatch):
        watch_steps(monkeypatch, lambda energy, i, bound: math.nan
                    if (energy.split.l, energy.q, i) == (3, 4, 0) else bound)
        with pytest.raises(CheckError, match=r"proposed \(l=3, q=4\): lower bound is NaN"):
            opt.solve_scenario(template_net, default_scenario, default_params)

    def test_overflowing_deadline_solves_as_a_finite_one(self, template_net, default_params):
        # at t_max 1e308 the relaxed bound's upload time overflows to inf,
        # and its upload term takes its limit; the answer is 1e300's, apart
        # from the edge frequency and times that the deadline scales
        scaled = {"nu_e", "t_comp_edge"}
        for origin in ("proposed", "no_prune"):
            got = opt._enumerate(template_net, make_scenario(t_max=1e308), default_params,
                                 origin)
            want = opt._enumerate(template_net, make_scenario(t_max=1e300), default_params,
                                  origin)
            assert got.feasible
            assert got.e_total == want.e_total
            for a, b in ((got, want), (got.alloc, want.alloc), (got.cost, want.cost)):
                for f in fields(a):
                    if f.name not in scaled | {"alloc", "cost"}:
                        assert getattr(a, f.name) == getattr(b, f.name), (origin, f.name)

    @pytest.mark.parametrize("kappa",
                             [1e290, 1e300, 1e305, 1e308, 1.7e308, sys.float_info.max])
    def test_overflowing_edge_energy_is_rejected(self, template_net, default_params, kappa):
        # from kappa 1e290 up the edge energy kappa*a2*nu_e^2 overflows to
        # inf on the device, and from 9e307 up 2*kappa*g overflows too, so
        # the KKT solve's frequency rounds to 0; such a pair is rejected
        # (energy_overflow), and the raw-input upload, which computes
        # nothing on the edge, answers as at kappa 1e290
        sc = make_scenario(kappa=kappa)
        got = opt.solve_scenario(template_net, sc, default_params)
        want = opt.solve_scenario(template_net, make_scenario(kappa=1e290), default_params)
        assert (got.alloc.l, got.alloc.q) == (0, 6)
        assert got.alloc == want.alloc and got.cost == want.cost
        assert got.e_total == pytest.approx(0.0266748, abs=5e-8)
        device = opt.solve_baseline("on_device", template_net, sc, default_params)
        assert device.reasons == ((template_net.depth, 2, "energy_overflow"),)
        no_prune = opt.solve_baseline("no_prune", template_net, sc, default_params)
        assert no_prune.alloc == got.alloc


class TestOnePathLoop:
    """_enumerate advances every pair's search (PairEnergy.steps) the same
    way, from its first step to its last."""

    @pytest.mark.parametrize("i", [1, 5, 11])
    def test_nan_key_fails_closed_at_a_later_step(self, template_net, default_scenario,
                                                  default_params, monkeypatch, i):
        # the stock winner (2, 6) yields 12 keys: its relaxed bound, its
        # surrogate bound (yield 1), then a bound per search step
        watch_steps(monkeypatch, lambda energy, j, bound: math.nan
                    if (energy.split.l, energy.q, j) == (2, 6, i) else bound)
        with pytest.raises(CheckError, match=r"proposed \(l=2, q=6\): lower bound is NaN"):
            opt.solve_scenario(template_net, default_scenario, default_params)

    def test_unbracketable_pair_raises_on_its_first_step(self, template_net,
                                                         default_params):
        # a pair whose top end fails raises on its first next(), with the
        # reason and message that E raises there, and evaluates nothing
        seen = set()
        for t_max in (0.5001, 0.501, 0.505, 0.51):
            for r_t in (0.85, 0.95, 0.99):
                sc = make_scenario(t_max=t_max, r_t=r_t)
                for l, q in opt._pairs(template_net, sc):
                    split = opt.Split(template_net, sc, default_params, l)
                    for prune in (True, False):
                        top = opt.PairEnergy(split, q, prune=prune)
                        want = outcome(lambda e: e(e.rho_max() if e.prune else 1.0), top)
                        if not isinstance(want, tuple):
                            continue
                        energy = opt.PairEnergy(split, q, prune=prune)
                        assert outcome(next, energy.steps()) == want, (l, q, prune, sc)
                        assert energy.points == {}
                        seen.add(want[0])
        assert {"latency_budget", "sensing_power_cap"} <= seen

    @pytest.mark.parametrize("origin, kkt, floors", [
        ("proposed", 13, 1), ("on_server", 1, 0), ("on_device", 13, 1), ("no_prune", 1, 0)])
    def test_stock_kernel_calls(self, template_net, default_scenario, default_params,
                                monkeypatch, origin, kkt, floors):
        # sensing_power runs once per point: the surrogate bound reads the
        # top's values from the top-end checks (87 and 16 calls when it
        # evaluated the top again)
        powers = {"proposed": 68, "on_server": 1, "on_device": 15, "no_prune": 36}[origin]
        calls = count_calls(monkeypatch, "power_freq", "pruning_floor", "sensing_power")
        opt._enumerate(template_net, default_scenario, default_params, origin)
        assert ((calls["power_freq"], calls["pruning_floor"], calls["sensing_power"])
                == (kkt, floors, powers))


def check_keys(split, q):
    """Run the pair (split, q)'s whole search and check every key it yields
    (the relaxed bound, the surrogate bounds and the Brent-phase bounds)
    against every E it evaluates and against the least E over a 400-point
    grid of its feasible rho, [rho_min, top], each with a factor 1 + 1e-12
    for rounding. Returns (number of feasible grid points, whether the
    surrogate bound rose above the relaxed bound, whether the KKT solve at
    the top ran at nu_max), or None for a pair with no feasible rho."""
    energy = opt.PairEnergy(split, q)
    steps, keys, before_bracket = energy.steps(), [], 0
    try:
        while True:
            keys.append(next(steps))
            before_bracket += len(energy.points) <= 1
    except StopIteration:
        pass
    except InfeasibleError:
        return None
    top = max(energy.points)
    s = split
    rho_min = min(pruning_floor_at(q, s.terms, s.ap, s.sc.r_t, s.p_max, opt.RHO_FLOOR), top)
    grid = opt.PairEnergy(split, q)
    least = math.inf
    for rho in np.linspace(rho_min, top, 400):
        try:
            least = min(least, grid(float(rho)))
        except InfeasibleError:
            continue
    evaluated = min(point[0] for point in energy.points.values())
    for key in keys:
        assert key <= min(evaluated, least) * (1.0 + 1e-12), (s.l, q, keys)
    return len(grid.points), before_bracket > 1, energy.points[top][3] == s.nu_max


class TestSurrogateBound:
    """Every key a pair yields, the surrogate bound's among them, is at
    most every E the pair can return."""

    def test_every_key_below_every_point(self):
        # 200 random_test_case draws (rng 7000), whose first 100 are
        # criterion 07's cases, and the stock scenario on a tight grid, where
        # the KKT solve at the top runs at nu_max for most pairs: there the
        # surrogate bound must hold too, as its D has no cap on nu_e
        rng = np.random.default_rng(7000)
        cases = [orc.random_test_case(rng) for _ in range(200)]
        net, sc, ap = stock_config().network, stock_config().scenario, stock_config().accuracy
        cases += [(net, replace(sc, t_max=t, r_t=r), ap) for t in (0.52, 0.56, 0.6, 1.0)
                  for r in (0.85, 0.95)]
        points = surrogates = at_nu_max = 0
        for net, sc, ap in cases:
            for l, q in opt._pairs(net, sc):
                if l == 0:
                    continue   # the raw-input split does not prune
                checked = check_keys(opt.Split(net, sc, ap, l), q)
                if checked is not None:
                    points += checked[0]
                    surrogates += checked[1]
                    at_nu_max += checked[1] and checked[2]
        assert points >= 400 * 1000
        assert surrogates >= 1000 and at_nu_max >= 50

    def test_floor_below_the_kkt_edge_energy_at_the_top(self):
        # D, edge_floor at the top with the upload given the whole budget t2,
        # is at most the KKT solve's edge energy there, with the cap nu_max
        # and without it, on every pair that prunes of 400 random_test_case
        # draws (rng 7000) and of the stock network on the tight-deadline
        # grid; the cap binds at the top of at least 50 of them
        rng = np.random.default_rng(7000)
        cases = [orc.random_test_case(rng) for _ in range(400)]
        net, sc, ap = stock_config().network, stock_config().scenario, stock_config().accuracy
        cases += [(net, replace(sc, t_max=0.51 + 0.01 * k, r_t=r), ap) for k in range(10)
                  for r in (0.85, 0.9, 0.95)]
        pairs = capped = 0
        for net, sc, ap in cases:
            for l, q in opt._pairs(net, sc):
                if l == 0:
                    continue   # the raw-input split does not prune
                s = opt.Split(net, sc, ap, l)
                energy = opt.PairEnergy(s, q)
                try:
                    a2 = s.flops.at(energy.rho_max())[0]
                    kkt = [power_freq(energy.a1, a2, s.t2, s.t_min, s.g, s.kappa, s.p_max, cap)
                           for cap in (s.nu_max, math.inf)]
                except InfeasibleError:
                    continue
                floor = energy.edge_floor(a2, s.t2)
                for *_, e_edge, _ in kkt:
                    assert floor <= e_edge * (1.0 + 1e-12), (l, q, sc)
                pairs += 1
                capped += kkt[0][1] == s.nu_max
        assert pairs >= 2000 and capped >= 50

    @pytest.mark.parametrize("edge", ["slack", "zero", "below", "overflow"])
    def test_floor_at_the_edges_of_the_deadline(self, template_net, default_params, edge):
        # where (p_max, nu_max) meets the deadline only within check_deadline's
        # 1e-12 slack, where t2 - a1*t_min rounds to 0 or below, and where the
        # upload time t2/a1 overflows, edge_floor in both its uses (the
        # relaxed bound's upload time and the whole budget) is finite and at
        # most the KKT edge energy
        sc = make_scenario(t_max=1e308 if edge == "overflow" else 0.8)
        s = opt.Split(template_net, sc, default_params, 2)
        energy = opt.PairEnergy(s, 6)
        a1, a2 = energy.a1, s.flops.at(0.5)[0]
        if edge == "slack":
            s.t2 = (a1 * s.t_min + a2 / s.nu_max) / (1.0 + 5e-13)
        elif edge in ("zero", "below"):
            s.t2 = a1 * s.t_min * (1.0 if edge == "zero" else 1.0 - 1e-13)
            a2 = s.t2 * s.nu_max * 1e-13
        gap = s.t2 - a1 * s.t_min
        assert {"slack": 0.0 < gap < a2 / s.nu_max, "zero": gap == 0.0, "below": gap < 0.0,
                "overflow": s.t2 / a1 == math.inf}[edge]
        *_, e_edge, _ = power_freq(a1, a2, s.t2, s.t_min, s.g, s.kappa, s.p_max, s.nu_max)
        for busy in (s.t2 - a2 / s.nu_max, s.t2):
            floor = energy.edge_floor(a2, busy)
            assert math.isfinite(floor) and floor <= e_edge * (1.0 + 1e-12), busy


class TestDeepStacks:
    """Fully connected stacks whose penalty coefficients grow geometrically
    with depth (to 1.4e36 at depth 32), so that K = 1 is crossed within
    1e-12 of rho = 1, where u(rho) must not cancel."""

    @pytest.mark.parametrize("depth, pair, e_total", [
        (12, (10, 6), 0.02149083), (16, (14, 6), 0.02231660),
        (24, (22, 6), 0.02581916), (32, (29, 6), 0.03219955)])
    def test_answers_and_relaxed_bounds(self, default_params, monkeypatch,
                                        depth, pair, e_total):
        # the closed-form u answered depth 12 with no finished search,
        # and depths 16-32 with (14, 6) 0.01332 J, (23, 5) 0.005554 J and
        # (31, 6) 0.01306 J at points where the rounded u < 0 (p_s down to
        # 5.5e-20 W), below their pairs' relaxed bounds
        net = nm.random_fc_network([256] + [128] * (depth - 1) + [10], [50.0] * depth, 1)
        sc = make_scenario(splits=tuple(range(depth + 1)), q_max=6)
        first = {}
        watch_steps(monkeypatch, lambda energy, i, bound:
                    first.setdefault(energy, bound) if i == 0 else bound)
        sol = opt.solve_scenario(net, sc, default_params)
        assert (sol.alloc.l, sol.alloc.q) == pair
        assert sol.e_total == pytest.approx(e_total, rel=1e-6)
        for energy, bound in first.items():
            assert all(bound <= point[0] for point in energy.points.values())
        # every key of every pair that prunes, against its points and a
        # dense grid of its feasible rho
        monkeypatch.undo()
        points = 0
        for l, q in opt._pairs(net, sc):
            checked = check_keys(opt.Split(net, sc, default_params, l), q) if l else None
            points += checked[0] if checked else 0
        assert points >= 20


# how far above E(rho), relative, a recorded tangent may reach: E and E'
# come from power_freq, which stops where the latency is within KKT_REL_TOL
# of its budget (the energy was within 6.4e-11 of a 50-digit reference at
# that stop, ROADMAP item 5), so the floor is KKT_REL_TOL, a tenth of the
# PRUNE_RTOL margin the queue's stop test grants every key
TANGENT_FLOOR = KKT_REL_TOL


def tangent_excess(split, q, n=200):
    """Run the pair (split, q)'s whole search, then return the largest
    (tangent - E)/E of any recorded tangent E(r) + E'(r)*(x - r) over a
    grid of n points x spanning the evaluated rho, and the number of grid
    points; None for a pair with no feasible rho."""
    energy = opt.PairEnergy(split, q)
    try:
        finish(energy.steps())
    except InfeasibleError:
        return None
    grid = opt.PairEnergy(split, q)
    xs, es = [], []
    for x in np.linspace(min(energy.points), max(energy.points), n):
        try:
            es.append(grid(float(x)))
        except InfeasibleError:
            continue
        xs.append(float(x))
    xs, es = np.array(xs), np.array(es)
    worst = -math.inf
    for r, (e, *_, slope) in energy.points.items():
        if math.isfinite(slope):
            worst = max(worst, float(np.max((e + slope * (xs - r) - es) / es)))
    return worst, len(xs)


class TestTangents:
    """E is convex on a pair's rho range, so every tangent that E(rho)
    records (its slope E', from the kernels' dp_s/du, mu1 and FLOP slope)
    lies below E, within TANGENT_FLOOR."""

    def test_floor_inside_the_prune_margin(self):
        assert TANGENT_FLOOR < opt.PRUNE_RTOL

    def test_tangents_below_e(self, criterion07_cases):
        # criterion 07's random_test_case draws, the stock network on the
        # tight-deadline grid (where the KKT solve runs at nu_max at many
        # tops) and the depth-32 and -64 stacks, whose pairs prune within
        # 1e-6 of rho = 1 or not at all
        cfg = stock_config()
        cases = [("random", *case) for case in criterion07_cases[:40]]
        cases += [("tight", cfg.network, replace(cfg.scenario, t_max=t, r_t=r), cfg.accuracy)
                  for t in np.linspace(0.51, 0.60, 10) for r in (0.85, 0.9, 0.95)]
        for depth in (32, 64):
            net = nm.random_fc_network([256] + [128] * (depth - 1) + [10], [50.0] * depth, 1)
            cases.append(("stack", net, make_scenario(splits=tuple(range(depth + 1)), q_max=6),
                          cfg.accuracy))
        worst, points = {}, {}
        for kind, net, sc, ap in cases:
            for l, q in opt._pairs(net, sc):
                if l == 0:
                    continue   # the raw-input split does not prune
                checked = tangent_excess(opt.Split(net, sc, ap, l), q)
                if checked is not None:
                    worst[kind] = max(worst.get(kind, -math.inf), checked[0])
                    points[kind] = points.get(kind, 0) + checked[1]
        assert max(worst.values()) <= TANGENT_FLOOR, worst
        assert points["random"] >= 40 * 1000 and points["tight"] >= 30 * 1000, points


def golden_search(energy, rho_min, rho_max, e_min, e_max, eps):
    """The golden-section pair search that Brent's method replaced, as a
    reference for solvers.brent_steps in PairEnergy.steps, with its
    protocol: golden-section steps to a bracket of eps, yielding the
    evaluated points of the golden bracket (its ends and interior points),
    ascending, before each evaluation of E; returns the least E of rho_min, the final bracket's
    midpoint and rho_max."""
    rhos = [rho_min, rho_max]
    if rho_max - rho_min > eps:
        lb, ub = rho_min, rho_max
        x1, x2 = lb + (1.0 - INV_GOLDEN) * (ub - lb), lb + INV_GOLDEN * (ub - lb)
        yield lb, ub
        f1 = energy(x1)
        yield lb, x1, ub
        f2 = energy(x2)
        width = math.inf
        while eps < ub - lb < width:
            yield lb, x1, x2, ub
            width = ub - lb
            if f1 < f2:
                ub, x2, f2 = x2, x1, f1
                x1 = lb + (1.0 - INV_GOLDEN) * (ub - lb)
                f1 = energy(x1)
            else:
                lb, x1, f1 = x1, x2, f2
                x2 = lb + INV_GOLDEN * (ub - lb)
                f2 = energy(x2)
        yield lb, x1, x2, ub
        rhos.insert(1, 0.5 * (lb + ub))
    return min(rhos, key=lambda r: energy.points[r][0] if r in energy.points else energy(r))


def count_evaluations(monkeypatch, cases):
    """Each case's (origin, net, sc, ap) Solution and its number of E(rho)
    evaluations (PairEnergy._record calls, which include the bracket's top
    end)."""
    evaluations = []
    record = opt.PairEnergy._record

    def counted(self, *args):
        evaluations[-1] += 1
        return record(self, *args)

    monkeypatch.setattr(opt.PairEnergy, "_record", counted)
    out = []
    for case in cases:
        evaluations.append(0)
        out.append((solve_origin(*case), evaluations[-1]))
    return out


@pytest.fixture(scope="module")
def search_cases(criterion07_cases, template_net, default_scenario, default_params):
    """Criterion 07's cases by the proposed method and the stock sweeps by
    every origin, as (origin, net, sc, ap)."""
    cases = [("proposed", *case) for case in criterion07_cases]
    cases += [(origin, template_net, opt.apply_axis(default_scenario, axis, value),
               default_params)
              for axis in sorted(SWEEPS) for value in SWEEPS[axis]
              for origin in opt.ORIGINS]
    return cases


class TestBrentPairSearch:
    def test_no_worse_than_golden_section(self, search_cases, monkeypatch):
        # on criterion 07's cases and the stock sweeps by every origin: the
        # same feasibility, pair and reasons as the golden-section search,
        # no higher energy, and no more E(rho) evaluations on any input
        got = count_evaluations(monkeypatch, search_cases)
        monkeypatch.setattr(opt, "brent_steps", golden_search)
        want = count_evaluations(monkeypatch, search_cases)
        for i, ((g, g_evals), (w, w_evals)) in enumerate(zip(got, want)):
            assert (g.feasible, g.reasons) == (w.feasible, w.reasons), i
            if w.feasible:
                assert (g.alloc.l, g.alloc.q) == (w.alloc.l, w.alloc.q), i
                assert g.e_total <= w.e_total * (1 + 1e-12), i
            assert g_evals <= w_evals, i
        # about two fifths fewer in all (4724 against 7753)
        assert sum(n for _, n in got) <= 0.7 * sum(n for _, n in want)

    def test_evaluation_counts(self, search_cases, template_net, default_scenario,
                               default_params, monkeypatch):
        # the best-first queue's E(rho) evaluations: 2387 on these cases
        # with tangent keys (2622 with the chain bound alone, 3024 with the
        # surrogate bound after E at the top, 4724 with the relaxed bound
        # alone, and the two-pass loop before the queue made 4968), and 13
        # for the stock solve (31 with the surrogate bound after the top,
        # 83 with the relaxed bound alone)
        counts = count_evaluations(monkeypatch, search_cases)
        assert sum(n for _, n in counts) <= 2387
        (_, stock), = count_evaluations(
            monkeypatch, [("proposed", template_net, default_scenario, default_params)])
        assert stock <= 13


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

    @pytest.mark.parametrize("origin", opt.ORIGINS)
    def test_split_above_depth_rejected(self, template_net, default_scenario,
                                        default_params, origin):
        sc = replace(default_scenario, splits=(9,))
        with pytest.raises(ValueError, match=r"must lie in 0\.\.7"):
            if origin == "proposed":
                opt.solve_scenario(template_net, sc, default_params)
            else:
                opt.solve_baseline(origin, template_net, sc, default_params)

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


def assert_proposed_never_loses(net, sc, ap):
    """The proposed answer is at most each baseline's whose pairs lie in
    the scenario's split set (no_prune's always do)."""
    prop = opt.solve_scenario(net, sc, ap)
    for kind, split in (("on_server", 0), ("on_device", net.depth), ("no_prune", None)):
        if split is not None and split not in sc.splits:
            continue
        base = opt.solve_baseline(kind, net, sc, ap)
        if base.feasible:
            assert prop.e_total <= base.e_total * (1 + 1e-12), (kind, sc)


class TestProposedNeverLoses:
    # dense just above t_sen = 0.5 s, where the raw-input upload wins
    T_MAX = [0.501 + 0.001 * k for k in range(100)] + [0.7 + 0.1 * k for k in range(12)]

    @pytest.mark.parametrize("axis", ["t_max", "r_t", "snr"])
    def test_stock_sweeps(self, template_net, default_scenario, default_params, axis):
        assert 0 in default_scenario.splits
        for value in self.T_MAX if axis == "t_max" else SWEEPS[axis]:
            sc = opt.apply_axis(default_scenario, axis, value)
            assert_proposed_never_loses(template_net, sc, default_params)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_cases_with_raw_input_split(self, seed):
        net, sc, ap = orc.random_test_case(np.random.default_rng(seed))
        assert_proposed_never_loses(net, replace(sc, splits=(0,) + sc.splits), ap)


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


def solve_origin(origin, net, sc, ap):
    if origin == "proposed":
        return opt.solve_scenario(net, sc, ap)
    return opt.solve_baseline(origin, net, sc, ap)


class TestLibraryChecksItsAnswers:
    """The solve loop runs check_feasible on its answer, so every caller of
    solve_scenario, solve_baseline and sweep gets a checked answer."""

    @pytest.mark.parametrize("origin", opt.ORIGINS)
    def test_failing_answer_raises(self, template_net, default_scenario,
                                   default_params, monkeypatch, origin):
        halve_sensing_power(monkeypatch)
        with pytest.raises(CheckError, match=rf"^{origin} \(l=\d+, q=\d+\): "
                                             r"accuracy slack -"):
            solve_origin(origin, template_net, default_scenario, default_params)

    def test_sweep_names_the_failing_row(self, template_net, default_scenario,
                                         default_params, monkeypatch):
        halve_sensing_power(monkeypatch,
                            lambda origin, sc: origin == "no_prune" and sc.t_max == 0.9)
        with pytest.raises(CheckError, match=r"^t_max=0\.9 no_prune \(l=\d+, q=\d+\): "
                                             r"accuracy slack -"):
            opt.sweep(template_net, default_scenario, default_params, "t_max",
                      [0.7, 0.8, 0.9])

    @pytest.mark.parametrize("origin", opt.ORIGINS)
    def test_each_origin_checked_on_its_own_splits(self, template_net, default_scenario,
                                                   default_params, origin):
        # l = 0 and l = L lie outside these splits; on_server and on_device
        # are checked on the split of their one pair
        sc = replace(default_scenario, splits=(2, 3))
        sol = solve_origin(origin, template_net, sc, default_params)
        assert sol.feasible
        assert sol.alloc.l in {l for l, _ in opt._pairs(template_net, sc, origin)}


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
        assert not sol.feasible
        back = opt.solution_from_dict(opt.solution_to_dict(sol))
        assert back == sol
        assert back == opt.solution_from_dict(json.loads(json.dumps(opt.solution_to_dict(sol))))

    @pytest.mark.parametrize("origin", opt.ORIGINS)
    def test_every_origin_roundtrips_through_json(self, template_net, default_scenario,
                                                  default_params, origin):
        sol = solve_origin(origin, template_net, default_scenario, default_params)
        assert sol.feasible
        data = json.loads(json.dumps(opt.solution_to_dict(sol)))
        assert opt.solution_from_dict(data) == sol
        assert data["cost"]["e_total"] == sol.e_total
        assert data["cost"]["t_total"] == sol.cost.t_total

    @pytest.mark.parametrize("path", [("origin",), ("feasible",), ("iterations",),
                                      ("reasons",), ("allocation", "nu_e"),
                                      ("cost", "t_comm")])
    def test_from_dict_is_strict(self, template_net, default_scenario,
                                 default_params, path):
        data = opt.solution_to_dict(
            opt.solve_scenario(template_net, default_scenario, default_params))
        record = data
        for key in path[:-1]:
            record = record[key]
        del record[path[-1]]
        with pytest.raises(KeyError):
            opt.solution_from_dict(data)

    def test_infeasible_csv_row(self, template_net, default_params):
        sc = make_scenario(t_max=0.5001, q_max=4, splits=(1,))
        row = opt.solution_row("edge", opt.solve_scenario(template_net, sc, default_params))
        assert tuple(row) == opt.CSV_COLUMNS
        filled = {"scenario_id": "edge", "origin": "proposed", "feasible": False, "iters": 0}
        assert row == {key: filled.get(key, "") for key in opt.CSV_COLUMNS}

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
