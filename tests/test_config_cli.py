import copy
import csv
import dataclasses
import functools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isccopt
from isccopt import cli, config, netmodel, sensing
from isccopt.accuracy import AccuracyParams
from isccopt.cli import main
from isccopt.config import DEFAULT_CONFIG, build_config, load_config
from isccopt.cost import Scenario, check_feasible, total_cost
from isccopt.errors import ConfigError
from isccopt.optimizer import (ORIGINS, PairEnergy, _pairs, penalty_terms,
                               solution_from_dict, solve_baseline, solve_scenario)
from isccopt.oracles import random_test_case
from isccopt.sensing import ClutterPath, EchoParams, TargetPath
from edge_cases import CASE, CASES, fc_stack, run, written_answers
from util import halve_sensing_power


def row_answers(case, root, monkeypatch, capsys, command=None):
    """Run `command`, or else the row's own, in-process through cli.main on
    an edge-case row's config and files in the new directory `root`; assert
    that the run keeps the row and return the answers it wrote."""
    root.mkdir(exist_ok=True)
    monkeypatch.chdir(root)
    def call(argv):
        return main(argv), capsys.readouterr().err
    _, err, answers, problems = run(case, root, call, command)
    assert not problems, (problems, err)
    return answers


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_edge_case(tmp_path, monkeypatch, capsys, case):
    # one row of the edge-case table (tests/edge_cases.py), in-process; CI
    # runs the same rows through the installed console script
    row_answers(case, tmp_path, monkeypatch, capsys)


def table_rows(*names, key=None):
    """The named rows of the edge-case table as pytest parameters, each
    identified by the value it sets for the config field `key`, or else by
    its name."""
    def ident(case):
        if key is None:
            return case.name
        [value] = [block[key] for block in case.overrides.values() if key in block]
        return str(value)
    return [pytest.param(CASE[name], id=ident(CASE[name])) for name in names]


class TestConfig:
    def test_defaults_build(self):
        cfg = load_config(None)
        assert cfg.scenario.t_max == 0.8
        assert cfg.scenario.g_over_bn0 == pytest.approx(100.0)
        assert cfg.network.depth == 7
        assert cfg.network.layer(1).weights is not None
        assert cfg.seed == 0

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError):
            build_config({"bogus": 1})
        with pytest.raises(ConfigError):
            build_config({"scenario": {"t_max": 0.8, "nope": 2}})
        with pytest.raises(ConfigError):
            build_config({"network": {"layers": [{"kind": "fc", "n": 4,
                                                  "n_prev": 4, "foo": 1}],
                                      "input_dim": 4}})
        with pytest.raises(ConfigError):
            build_config({"echo": {"target": {"delay": 1e-6, "doppler_hz": 0,
                                              "gain": [1, 0], "x": 1}}})
        # removed keys: fs, the solver block, network.split_candidates and
        # network.rates
        for raw in ({"scenario": {"fs": 1e7}}, {"solver": {"eps_rho": 1e-6}},
                    {"network": {"split_candidates": [1, 2]}},
                    {"network": {"rates": [1, 1, 1, 1, 1]}}):
            with pytest.raises(ConfigError, match="unknown key"):
                build_config(raw)

    def test_partial_override_merges_defaults(self):
        cfg = build_config({"scenario": {"t_max": 1.2}})
        assert cfg.scenario.t_max == 1.2
        assert cfg.scenario.r_t == 0.85  # default preserved

    def test_snr_db_conversion(self):
        cfg = build_config({"scenario": {"snr_db": 0.0}})
        assert cfg.scenario.g_over_bn0 == pytest.approx(1.0)

    def test_splits_must_fit_depth(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": {"splits": [8]}})

    def test_weights_file(self, tmp_path):
        rng = np.random.default_rng(0)
        ws = [rng.standard_normal((4, 6)), rng.standard_normal((2, 4))]
        path = tmp_path / "w.bin"
        np.concatenate([w.reshape(-1) for w in ws]).astype("<f8").tofile(path)
        cfg = build_config({
            "scenario": {"splits": [1, 2]},
            "network": {"input_dim": 6,
                        "layers": [{"kind": "fc", "n": 4, "n_prev": 6},
                                   {"kind": "fc", "n": 2, "n_prev": 4}],
                        "weights_file": str(path)},
        })
        np.testing.assert_array_equal(cfg.network.layer(1).weights, ws[0])

    @pytest.mark.parametrize("suffix", [".bin", ".txt"])
    def test_stock_weights_through_weights_file(self, tmp_path, suffix):
        # the conv layers' (gamma, gamma_prev*psi^2) rows, written row-major
        # in layer order, load back into the same network
        stock = build_config({})
        flat = np.concatenate([layer.weights.reshape(-1)
                               for layer in stock.network.layers if layer.is_weighted])
        path = tmp_path / f"weights{suffix}"
        if suffix == ".bin":
            flat.astype("<f8").tofile(path)
        else:
            np.savetxt(path, flat)
        cfg = build_config({"network": {"weights_file": str(path)}})
        assert repr(cfg.network) == repr(stock.network)
        for ours, theirs in zip(cfg.network.layers, stock.network.layers):
            if not theirs.is_weighted:
                continue
            assert ours.weights.shape == theirs.weights.shape == theirs.weight_shape
            if suffix == ".bin":
                np.testing.assert_array_equal(ours.weights, theirs.weights)
            else:
                np.testing.assert_allclose(ours.weights, theirs.weights, rtol=1e-15)
        assert repr(solve_scenario(cfg.network, cfg.scenario, cfg.accuracy)) == repr(
            solve_scenario(stock.network, stock.scenario, stock.accuracy))

    def test_integral_float_dims_give_the_same_network(self):
        layers = [{key: value if key == "kind" else float(value)
                   for key, value in record.items()}
                  for record in DEFAULT_CONFIG["network"]["layers"]]
        net = build_config({"network": {"layers": layers}}).network
        stock = build_config({}).network
        assert repr(net) == repr(stock)   # the dimensions are ints again
        for ours, theirs in zip(net.layers, stock.layers):
            if theirs.is_weighted:
                np.testing.assert_array_equal(ours.weights, theirs.weights)

    def test_missing_layer_dimension_is_named(self):
        with pytest.raises(ConfigError, match=r"^missing network\.layers\[0\]\.n_prev$"):
            build_config({"network": {"layers": [{"kind": "fc", "n": 4}]}})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_not_in_utf_8_is_refused(self, tmp_path):
        path = tmp_path / "latin-1.json"
        path.write_bytes(b'{"scenario": {"t_max": 0.8}} \xff')
        with pytest.raises(ConfigError, match="^cannot read config"):
            load_config(path)

    def test_resolved_echoes_defaults(self):
        cfg = build_config({})
        assert cfg.resolved["scenario"] == DEFAULT_CONFIG["scenario"]
        assert cfg.resolved["seed"] == 0

    def test_table_ii_config_is_the_default(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "tableII.json"
        assert load_config(path).resolved == build_config({}).resolved


class TestCliSolve:
    def test_exit_zero_and_outputs(self, tmp_path, capsys):
        rc = main(["solve", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "solution.csv").exists()
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["solution"]["feasible"] is True
        assert payload["config"]["scenario"]["t_max"] == 0.8
        out = capsys.readouterr().out
        assert "proposed: E=" in out

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--seed", "7", "--out", str(a)]) == 0
        assert main(["solve", "--seed", "7", "--out", str(b)]) == 0
        assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()

    def test_solution_json_recosts_within_1e12(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "solution.json").read_text())
        sol = solution_from_dict(payload["solution"])
        cfg = load_config(None)
        recost = total_cost(sol.alloc, cfg.network, cfg.scenario)
        assert math.isclose(recost.e_total, sol.cost.e_total, rel_tol=1e-12)

    def test_infeasible_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "tight.json"
        cfg_path.write_text(json.dumps({"scenario": {"t_max": 0.5001}}))
        rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_clamped_rho_solve_is_warning_free(self, tmp_path):
        # r_t = 0 puts the chosen rho at the floor, where layer FLOPs clamp
        cfg_path = tmp_path / "vacuous.json"
        cfg_path.write_text(json.dumps({"scenario": {"r_t": 0.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["solution"]["allocation"]["rho"] <= 1e-6

    def test_config_error_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scenario": {"wrong_key": 1}}))
        rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 3
        assert "config error" in capsys.readouterr().err

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep")
        rc = main(["solve", "--out", str(path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output")
        assert str(path) in err and "Traceback" not in err
        assert path.read_text() == "keep"

    def test_output_name_taken_by_a_directory_exits_3(self, tmp_path, capsys):
        (tmp_path / "solution.json").mkdir()
        rc = main(["solve", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output")
        assert str(tmp_path / "solution.json") in err
        # no partial output: the CSV is not left behind, nor a temporary
        assert sorted(p.name for p in tmp_path.iterdir()) == ["solution.json"]

    def test_sweep_json_taken_by_a_directory_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "sweep.json").mkdir()
        rc = main(["sweep", "--axis", "t_max", "--values", "0.8", "--out", str(tmp_path)])
        assert rc == 3
        assert str(tmp_path / "sweep.json") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]

    @pytest.mark.parametrize("case", table_rows("t_max-7.2e67", "t_max-1e155", "t_max-1e200",
                                                "t_max-1e300", "t_max-1e308", key="t_max"))
    def test_loose_deadline_solves(self, tmp_path, monkeypatch, capsys, case):
        [sol] = row_answers(case, tmp_path, monkeypatch, capsys)
        assert (sol["allocation"]["l"], sol["allocation"]["q"]) == (7, 2)
        assert sol["cost"]["e_total"] == pytest.approx(0.0208303, rel=1e-6)

    @pytest.mark.parametrize("case", table_rows("s-1e-100", "s-1e-160", "s-1e-300", key="s"))
    def test_tiny_min_score_solves(self, tmp_path, monkeypatch, capsys, case):
        # only the on-device pair, whose penalty is 0 at rho = 1, stays
        # feasible, as it is already at s = 1e-100
        [sol] = row_answers(case, tmp_path, monkeypatch, capsys)
        alloc = sol["allocation"]
        assert (alloc["l"], alloc["q"], alloc["rho"]) == (7, 2, 1.0)
        assert sol["cost"]["e_total"] == pytest.approx(0.0270924, rel=1e-6)

    def test_huge_feature_range_rejects_the_uploading_pairs(self, tmp_path, monkeypatch,
                                                            capsys):
        # on_server's exit 2 with its reason is the row f_max-1e200-on_server
        [sol] = row_answers(CASE["f_max-1e200"], tmp_path, monkeypatch, capsys)
        assert (sol["allocation"]["l"], sol["allocation"]["q"]) == (7, 2)
        assert len(sol["reasons"]) == 35
        assert {reason for _, _, reason in sol["reasons"]} == {"margin_penalty"}

    def test_huge_kappa_solves_and_on_device_names_the_overflow(self, tmp_path, monkeypatch,
                                                                capsys):
        # on_device's exit 2 with its reason is the row kappa-1e300-on_device
        [sol] = row_answers(CASE["kappa-1e300"], tmp_path, monkeypatch, capsys)
        assert (sol["allocation"]["l"], sol["allocation"]["q"]) == (0, 6)

    def test_raw_upload_under_an_overflowing_deadline_answers(self, tmp_path, monkeypatch,
                                                              capsys):
        # the upload's energy at t_max 1e308 is at its limit a1*ln2/g, as at
        # 1e300
        answers = {}
        for name in ("t_max-1e300-on_server", "t_max-1e308-on_server"):
            [answers[name]] = row_answers(CASE[name], tmp_path / name, monkeypatch, capsys)
        sol = answers["t_max-1e308-on_server"]
        assert sol["allocation"]["p_c"] > 0.0
        assert sol["cost"]["t_total"] <= 1e308
        assert sol["cost"]["e_comm"] == pytest.approx(
            answers["t_max-1e300-on_server"]["cost"]["e_comm"], rel=1e-12)

    @pytest.mark.parametrize("case", table_rows("nu_max-1e155-on_server", "nu_max-1e300-on_server",
                                                "nu_max-max-on_server", key="nu_max"))
    def test_raw_upload_at_a_huge_edge_frequency_answers(self, tmp_path, monkeypatch, capsys,
                                                         case, template_net, default_scenario,
                                                         default_params):
        # the answer costs what it costs at the stock nu_max
        [sol] = row_answers(case, tmp_path, monkeypatch, capsys)
        nu_max = case.overrides["scenario"]["nu_max"]
        assert (sol["allocation"]["l"], sol["allocation"]["nu_e"]) == (0, nu_max)
        assert sol["cost"]["e_comp"] == 0.0
        stock = solve_baseline("on_server", template_net, default_scenario, default_params)
        assert sol["cost"]["e_total"] == pytest.approx(stock.e_total, rel=1e-12)

    @pytest.mark.parametrize("case", table_rows("tiny_upload-solve", "tiny_upload-no_prune",
                                                "snr_db-271.1", "snr_db-3031.5",
                                                "bandwidth-4.4e11"))
    def test_upload_past_the_normal_floats_answers(self, tmp_path, monkeypatch, capsys, case):
        [sol] = row_answers(case, tmp_path, monkeypatch, capsys)
        assert sol["allocation"]["p_c"] >= sys.float_info.min

    @pytest.mark.parametrize("command", [
        ["solve"], ["baseline", "--kind", "on_device"], ["baseline", "--kind", "no_prune"]])
    def test_rate_underflow_answers_on_the_device(self, tmp_path, monkeypatch, capsys,
                                                  command):
        # the device answers as at snr_db -1523 alone, every uploading split
        # missing the deadline
        [sol] = row_answers(CASE["null_rate-on_device"], tmp_path, monkeypatch, capsys,
                            command)
        assert (sol["allocation"]["l"], sol["allocation"]["q"]) == (7, 2)
        assert sol["cost"]["e_comm"] == 0.0
        if command[-1] != "no_prune":
            assert sol["cost"]["e_total"] == pytest.approx(0.0233641, rel=1e-5)

    @pytest.mark.parametrize("case", table_rows("snr_db--165-on_device", "snr_db--300-on_device",
                                                key="snr_db"))
    @pytest.mark.parametrize("command", [["solve"], ["baseline", "--kind", "on_device"]])
    def test_tiny_snr_answers_on_the_device(self, tmp_path, monkeypatch, capsys, case,
                                            command):
        [sol] = row_answers(case, tmp_path, monkeypatch, capsys, command)
        assert (sol["allocation"]["l"], sol["allocation"]["q"]) == (7, 2)
        assert sol["cost"]["e_total"] == pytest.approx(0.0233641, rel=1e-5)

    def test_deep_stack_answers(self, tmp_path, monkeypatch, capsys):
        # with u's closed form, the search of (10, 6) pushed a key above its
        # own least E and the solve exited 4
        [sol] = row_answers(CASE["deep-stack"], tmp_path, monkeypatch, capsys)
        assert (sol["allocation"]["l"], sol["allocation"]["q"]) == (10, 6)

    def test_search_that_finishes_no_pair_exits_4(self, tmp_path, capsys, monkeypatch):
        # a key above every point of its pair breaks the loop's invariant:
        # the on-device pair is bracketed, its search is keyed at inf, and
        # the loop stops with a finite incumbent and no finished search.
        # That is a broken invariant, not an infeasible problem: exit 4
        monkeypatch.setattr(PairEnergy, "lower_bound", lambda self, rhos: math.inf)
        rc = main(["baseline", "--kind", "on_device", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert "on_device: no pair finished its search" in err
        assert not (tmp_path / "out" / "solution.json").exists()


def stock_layers_with(index, key, value):
    """The stock network's layer records with one dimension replaced."""
    layers = [dict(record) for record in DEFAULT_CONFIG["network"]["layers"]]
    layers[index][key] = value
    return layers


def stock_weights_file(head):
    """Writer of a weights file for the stock network: the entries `head`,
    then ones."""
    def write(tmp_path):
        count = sum(layer.weight_count for layer in load_config(None).network.layers)
        path = tmp_path / "weights.bin"
        np.concatenate([head, np.ones(count - len(head))]).astype("<f8").tofile(path)
        return str(path)
    return write


# the stock echo is 100 fast-time samples x 256 chirps; the stock network's
# first layer has 150 weights. Each entry names its test, so an entry added
# or deleted renames no other
BAD_VALUES = [
    pytest.param("scenario", "t_max", float("nan"), id="scenario-t_max-nan"),
    pytest.param("scenario", "nu_max", float("inf"), id="scenario-nu_max-inf"),
    pytest.param("scenario", "m_chirps", 50000.7, id="scenario-m_chirps-50000.7"),
    pytest.param("scenario", "splits", [], id="scenario-splits-value3"),
    pytest.param("scenario", "splits", [-1], id="scenario-splits-value4"),
    pytest.param("scenario", "splits", [2.5], id="scenario-splits-value5"),
    pytest.param("echo", "power", float("nan"), id="echo-power-nan"),
    pytest.param("echo", "noise_psd", float("inf"), id="echo-noise_psd-inf"),
    pytest.param("echo", "target",
                 {"delay": 2e-6, "doppler_hz": float("nan"), "gain": [1.0, 0.0]},
                 id="echo-target-value8"),
    pytest.param("scenario", "splits", [1, 1], id="scenario-splits-value9"),
    pytest.param("echo", "svd_r1", 0, id="echo-svd_r1-0"),
    pytest.param("echo", "svd_r1", 101, id="echo-svd_r1-101"),
    pytest.param("echo", "svd_r2", -1, id="echo-svd_r2--1"),
    pytest.param("echo", "svd_r2", 101, id="echo-svd_r2-101"),
    pytest.param("echo", "window_len", 0, id="echo-window_len-0"),
    pytest.param("echo", "window_len", 257, id="echo-window_len-257"),
    pytest.param("echo", "hop", 0, id="echo-hop-0"),
    pytest.param("network", "weights_file", "no-such-weights.bin",
                 id="network-weights_file-no-such-weights.bin"),
    pytest.param("network", "weights_file", stock_weights_file(np.zeros(150)),
                 id="network-weights_file-write0"),
    pytest.param("network", "weights_file", stock_weights_file([np.nan]),
                 id="network-weights_file-write1"),
    pytest.param("network", "rates", [0, 1, 1, 1, 1], id="network-rates-value20"),
    pytest.param("network", "target_norms", [0, 2.5, 2.5, 0.6, 0.6],
                 id="network-target_norms-value21"),
    pytest.param("network", "target_norms", [1e-300, 2.5, 2.5, 0.6, 0.6],
                 id="network-target_norms-value22"),
    pytest.param("network", "target_norms", [1e300, 2.5, 2.5, 0.6, 0.6],
                 id="network-target_norms-value23"),
    pytest.param("network", "target_norms", [], id="network-target_norms-value24"),
    pytest.param("network", "target_norms", None, id="network-target_norms-None"),
    # each layer dimension is named in the message: network.layers[i].<key>
    pytest.param("network", "layers", stock_layers_with(4, "n", 2.5), id="network-layers-value26"),
    pytest.param("network", "layers", stock_layers_with(2, "gamma", True),
                 id="network-layers-value27"),
    pytest.param("network", "layers", stock_layers_with(1, "psi", "5"),
                 id="network-layers-value28"),
    pytest.param("network", "layers", [{"kind": "fc", "n": 4}], id="network-layers-value29"),
    pytest.param("scenario", "q_max", 65, id="scenario-q_max-65"),
    # a record that is not a JSON object, a gain that is neither a number
    # nor an [re, im] pair, and a missing path key are named by their path
    pytest.param("echo", "target", [1, 2], id="echo-target-value31"),
    pytest.param("network", "layers", [[1, 2]], id="network-layers-value32"),
    pytest.param("echo", "target", {"delay": 2e-6, "doppler_hz": 3000.0, "gain": [1]},
                 id="echo-target-value33"),
    pytest.param("echo", "target", {"delay": 2e-6, "doppler_hz": 3000.0},
                 id="echo-target-value34"),
    pytest.param("echo", "clutter", [{"delay": 1e-6}], id="echo-clutter-value35"),
    pytest.param("echo", "clutter", [{"delay": 1e-6, "gain": True}], id="echo-clutter-value36"),
    # g*p_max below about 4e-309: the least inverse rate ln2/log1p(SNR) is inf
    pytest.param("scenario", "p_max", 1e-320, id="scenario-p_max-1e-320"),
    # the solver block is gone: its keys are unknown and named in the message
    pytest.param("solver", "eps_rho", 0, id="solver-eps_rho-0"),
    pytest.param("solver", "eps_rho", float("nan"), id="solver-eps_rho-nan"),
    pytest.param("solver", "max_iter", 0, id="solver-max_iter-0"),
    # an array that is not a JSON array is named by its path
    pytest.param("network", "layers", 5, id="network-layers-5"),
    pytest.param("network", "target_norms", 5, id="network-target_norms-5"),
]


@pytest.mark.parametrize("block, key, value", BAD_VALUES)
def test_bad_value_exits_3_with_message(tmp_path, capsys, block, key, value):
    if callable(value):   # a file the config names, written here
        value = value(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({block: {key: value}}))   # NaN/Infinity literals
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "config error" in err and key in err


@pytest.mark.parametrize("raw, message", [
    ({"echo": {"target": [1, 2]}}, "echo.target must be a JSON object"),
    ({"network": {"layers": [[1, 2]]}}, "network.layers[0] must be a JSON object"),
    ({"echo": {"target": {"delay": 2e-6, "doppler_hz": 3000.0, "gain": [1]}}},
     "echo.target.gain must be a number or an [re, im] pair"),
    ({"echo": {"clutter": [{"delay": 1e-6, "gain": [1, 2, 3]}]}},
     "echo.clutter[0].gain must be a number or an [re, im] pair"),
    ({"echo": {"target": {"delay": 2e-6, "doppler_hz": 3000.0}}},
     "missing echo.target.gain"),
    ({"echo": {"clutter": [{"gain": 1.0}]}}, "missing echo.clutter[0].delay"),
    ({"echo": {"clutter": [5]}}, "echo.clutter[0] must be a JSON object"),
    ({"echo": [1]}, "echo must be a JSON object"),
    ({"scenario": 5}, "scenario must be a JSON object"),
    ({"network": {"layers": 5}}, "network.layers must be a JSON array"),
    ({"echo": {"clutter": 5}}, "echo.clutter must be a JSON array"),
    ({"echo": {"clutter": {"a": 1}}}, "echo.clutter must be a JSON array"),
    ({"scenario": {"splits": 5}}, "scenario.splits must be a JSON array"),
    ({"network": {"target_norms": 5}}, "network.target_norms must be a JSON array")])
def test_wrong_shape_names_its_path(raw, message):
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    assert str(err.value).startswith(message)


def numeric_keys(*path):
    """The paths of the numbers in the DEFAULT_CONFIG record at `path`."""
    record = functools.reduce(operator.getitem, path, DEFAULT_CONFIG)
    return [(*path, key) for key, value in record.items() if isinstance(value, (int, float))]


# every numeric leaf of DEFAULT_CONFIG but the layer dimensions, splits and
# gains, each in a record of its own or as the first entry of its array
NUMERIC_LEAVES = [*numeric_keys("scenario"), *numeric_keys("accuracy"), *numeric_keys("echo"),
                  *numeric_keys("echo", "target"), *numeric_keys("echo", "clutter", 0),
                  *numeric_keys("network"), ("network", "target_norms", 0)]


def leaf_name(path):
    """`path` as the config's messages write it: echo.clutter[0].delay."""
    return "".join(f"[{part}]" if isinstance(part, int) else f".{part}"
                   for part in path).lstrip(".")


@pytest.mark.parametrize("value", [True, "1", None, [1], 10**400],
                         ids=["true", "string", "null", "array", "past-float"])
@pytest.mark.parametrize("path", NUMERIC_LEAVES, ids=[leaf_name(p) for p in NUMERIC_LEAVES])
def test_wrong_typed_number_names_its_path(path, value):
    # a number is read as the type of its stock default, and a boolean,
    # string, null, array or an integer no float holds is refused by path
    raw = copy.deepcopy(DEFAULT_CONFIG)
    *parents, key = path
    functools.reduce(operator.getitem, parents, raw)[key] = value
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    assert str(err.value).startswith(f"{leaf_name(path)} must be "), str(err.value)


@pytest.mark.parametrize("cls, stock", [
    (Scenario, DEFAULT_CONFIG["scenario"]), (AccuracyParams, DEFAULT_CONFIG["accuracy"]),
    (EchoParams, DEFAULT_CONFIG["echo"]), (TargetPath, DEFAULT_CONFIG["echo"]["target"]),
    (ClutterPath, DEFAULT_CONFIG["echo"]["clutter"][0])],
    ids=["scenario", "accuracy", "echo", "target", "clutter"])
def test_stock_defaults_have_their_field_types(cls, stock):
    # the config reads each number as the type of its stock default, so an
    # int field with a float default (q_max 6.0) would read as a real
    for field in dataclasses.fields(cls):
        if field.type == "int" or (field.type == "float" and field.name in stock):
            assert type(stock[field.name]).__name__ == field.type, field.name


def no_allocation(name):
    def fail(*args, **kwargs):
        pytest.fail(f"{name} called on a config past its size bound")
    return fail


SENSE_CHAIN = ((sensing, "generate_echo"), (sensing, "clutter_filter"),
               (sensing, "spectrogram"))
# far above the bounds: a config that got past them would need terabytes;
# (command, config, the functions that would allocate it, names in the error)
TOO_LARGE = [
    ("sense-demo", {"echo": {"n_chirps": 1_000_000_000}}, SENSE_CHAIN,
     ["echo.n_chirps", str(config.MAX_ECHO_SAMPLES)]),
    ("sense-demo", {"echo": {"sample_rate": 1e308, "chirp_duration": 1e10}}, SENSE_CHAIN,
     ["echo.sample_rate", "echo.chirp_duration", "inf samples"]),
    ("sense-demo", {"echo": {"n_chirps": 40_000, "window_len": 20_000, "hop": 1}},
     SENSE_CHAIN, ["echo.window_len", "echo.hop", str(config.MAX_ECHO_SAMPLES)]),
    ("solve", {"network": {"input_dim": 10**6,
                           "layers": [{"kind": "fc", "n": 10**6, "n_prev": 10**6}],
                           "target_norms": [1.0]},
               "scenario": {"splits": [0, 1]}},
     ((netmodel, "generate_weights"),),
     ["network.layers", "network.target_norms", str(config.MAX_GENERATED_WEIGHTS)]),
]


@pytest.mark.parametrize("command, raw, allocators, names", TOO_LARGE,
                         ids=["echo", "echo-overflow", "spectrogram", "weights"])
def test_too_large_to_allocate_exits_3(tmp_path, capsys, monkeypatch, command, raw,
                                       allocators, names):
    # rejected while the config is read: nothing of that size is built
    for module, name in allocators:
        monkeypatch.setattr(module, name, no_allocation(name))
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(raw))
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "config error" in err and all(name in err for name in names)


SCENARIO_VALUES = {
    "t_max": (0.45, 2.0), "r_t": (-0.1, 0.99), "p_max": (0.01, 2.0),
    "nu_max": (1e5, 1e8), "kappa": (1e-23, 1e-19), "snr_db": (-10.0, 40.0),
    "m_chirps": (1000, 60000),
}
ODD = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 0.5, 1e5 + 0.7])


@st.composite
def config_overrides(draw):
    """Valid scenario values, at most one of them replaced by a non-finite,
    non-positive or borderline one."""
    scenario = {}
    for key, (lo, hi) in SCENARIO_VALUES.items():
        if draw(st.booleans()):
            scenario[key] = draw(st.integers(lo, hi) if key == "m_chirps"
                                 else st.floats(lo, hi))
    odd = draw(st.sampled_from([None] * 4 + list(SCENARIO_VALUES)))
    if odd is not None:
        scenario[odd] = draw(ODD)
    return {"scenario": scenario}


def assert_every_origin_solves_or_gives_reasons(net, sc, ap):
    """Each origin returns an allocation that passes check_feasible on the
    splits of its (l, q) pairs, or one reason per pair."""
    every_pair = list(_pairs(net, sc))
    pairs_of = {"proposed": every_pair, "no_prune": every_pair,
                "on_server": [(0, sc.q_max)], "on_device": [(net.depth, 2)]}
    assert set(pairs_of) == set(ORIGINS)
    for origin, pairs in pairs_of.items():
        if origin == "proposed":
            sol = solve_scenario(net, sc, ap)
        else:
            sol = solve_baseline(origin, net, sc, ap)
        if sol.feasible:
            terms = penalty_terms(net, sol.alloc.l, ap)
            splits = {l for l, _ in pairs}
            assert check_feasible(sol.alloc, net, sc, terms, ap, splits=splits).ok, origin
        else:
            assert [r[:2] for r in sol.reasons] == pairs, origin


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(config_overrides())
def test_config_values_fail_closed_or_solve_feasibly(raw):
    # every config either is rejected with ConfigError or is solved by
    # every origin (see assert_every_origin_solves_or_gives_reasons)
    try:
        cfg = build_config(raw)
    except ConfigError:
        return
    assert_every_origin_solves_or_gives_reasons(cfg.network, cfg.scenario, cfg.accuracy)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_random_cases_solve_feasibly_or_give_reasons(seed):
    assert_every_origin_solves_or_gives_reasons(
        *random_test_case(np.random.default_rng(seed)))


# the numeric scenario and accuracy fields the whole-domain property test
# draws: positive ones at 10^U(-300, 300) times their stock value, snr_db in
# +-3200 dB, and f_min (stock 0) at a signed 10^U(-300, 300)
POSITIVE_FIELDS = [("scenario", key) for key in ("t_max", "r_t", "p_max", "nu_max", "nu_s",
                                                 "kappa", "bandwidth", "t0")]
POSITIVE_FIELDS += [("accuracy", key) for key in ("a", "b", "s", "c_m", "f_max")]
DOMAIN_FIELDS = POSITIVE_FIELDS + [("scenario", "snr_db"), ("accuracy", "f_min")]
DOMAIN_COMMANDS = (["solve"], ["baseline", "--kind", "on_server"],
                   ["baseline", "--kind", "on_device"], ["baseline", "--kind", "no_prune"],
                   ["sweep", "--axis", "t_max", "--values", "0.55,1.0"])


@st.composite
def domain_overrides(draw):
    """1-3 numeric scenario or accuracy fields drawn over the float range,
    on the stock network or on a fully connected stack of depth 2-32."""
    raw = {}
    if draw(st.booleans()):
        raw = fc_stack(draw(st.integers(2, 32)), draw(st.sampled_from((16, 64, 128))),
                       draw(st.integers(0, 2**32 - 1)))
    for block, key in draw(st.lists(st.sampled_from(DOMAIN_FIELDS), min_size=1,
                                    max_size=3, unique=True)):
        if key == "snr_db":
            value = draw(st.floats(-3200.0, 3200.0))
        else:
            stock = DEFAULT_CONFIG[block][key] or draw(st.sampled_from((-1.0, 1.0)))
            value = stock * 10.0 ** draw(st.floats(-300.0, 300.0))
        raw.setdefault(block, {})[key] = value
    return raw


def table_examples(test):
    """Pin each config of the edge-case table as an example of `test`."""
    configs = {json.dumps(case.overrides, sort_keys=True): case.overrides
               for case in CASES if case.overrides is not None}
    for raw in configs.values():
        test = example(raw)(test)
    return test


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@table_examples
@given(domain_overrides())
def test_every_command_fails_closed_or_answers_finitely(raw):
    # solve, the three baselines and a sweep, in-process, on configs drawn
    # over the whole float range: each exits 0 (answered), 2 (infeasible,
    # with reasons) or 3 (config refused), never with an exception or a
    # failed answer check (4); on exit 0 it writes one answer JSON, and every
    # number of an answer is finite
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(raw))
        for command in DOMAIN_COMMANDS:
            out = Path(tmp) / command[-1]
            rc = main([*command, "--config", str(cfg_path), "--out", str(out)])
            assert rc in (0, 2, 3), (raw, command, rc)
            _, problems = written_answers(command[0], rc, out)
            assert not problems, (raw, command, problems)


class TestCliSweepAndBaseline:
    def test_sweep_row_count(self, tmp_path):
        rc = main(["sweep", "--axis", "t_max",
                   "--values", "0.6,0.8,1.0,1.2,1.4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 4  # header + 5 values x 4 origins

    def test_sweep_at_a_tiny_snr_answers(self, tmp_path):
        # at g/(B N0) = 1e-300 the uplink rate is tiny but positive: the
        # on-device row, which uploads nothing, answers as at the stock SNR
        rc = main(["sweep", "--axis", "snr", "--values", "1e-300", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = {row["origin"]: row for row in csv.DictReader(lines)}
        assert rows["on_device"]["feasible"] == "True"
        assert float(rows["on_device"]["e_total"]) == pytest.approx(0.0233641, rel=1e-5)

    def test_baseline(self, tmp_path, capsys):
        rc = main(["baseline", "--kind", "on_device", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "baseline_on_device.csv").exists()
        assert "on_device: E=" in capsys.readouterr().out


class TestCliChecksBeforeOutput:
    def test_solve_answer_failing_its_check_exits_4(self, tmp_path, capsys, monkeypatch):
        halve_sensing_power(monkeypatch)
        rc = main(["solve", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "accuracy slack -" in err and "Traceback" not in err
        assert not (tmp_path / "solution.json").exists()
        assert not (tmp_path / "solution.csv").exists()

    def test_sweep_with_one_failing_row_exits_4(self, tmp_path, capsys, monkeypatch):
        halve_sensing_power(monkeypatch,
                            lambda origin, sc: origin == "on_server" and sc.t_max == 1.0)
        rc = main(["sweep", "--axis", "t_max", "--values", "0.8,1.0",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "t_max=1.0 on_server" in err and "accuracy slack -" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sweep.json").exists()
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("kind", ["on_server", "on_device", "no_prune"])
    def test_baselines_pass_on_their_own_splits(self, tmp_path, kind):
        # l = 0 and l = L lie outside the scenario's splits here; the check
        # takes each baseline's split set from its origin
        cfg_path = tmp_path / "mid_splits.json"
        cfg_path.write_text(json.dumps({"scenario": {"splits": [2, 3]}}))
        rc = main(["baseline", "--kind", kind, "--config", str(cfg_path),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / f"baseline_{kind}.json").exists()


class TestCliValidateFitSense:
    def test_validate_quantizer(self, tmp_path, capsys):
        rc = main(["validate", "--suite", "quantizer", "--trials", "5000",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS quantizer" in capsys.readouterr().out
        payload = json.loads((tmp_path / "validate_quantizer.json").read_text())
        assert payload["passed"] is True

    def test_validate_full_grid_caps_attempts(self, tmp_path, capsys, monkeypatch):
        # every draw infeasible for both sides: the suite stops at the cap
        # and fails instead of drawing forever
        calls = []

        def grid_full(*args, seed=0):
            calls.append(seed)
            return cli.oracles.OracleReport(
                name="full-grid", trials=0, passed=True, worst_violation=0.0,
                tolerance=math.inf, seed=seed, stats={"both_infeasible": 1.0})

        monkeypatch.setattr(cli.oracles, "grid_full", grid_full)
        rc = main(["validate", "--suite", "full-grid", "--out", str(tmp_path)])
        assert rc == 1
        assert len(calls) == cli.FULL_GRID_ATTEMPTS
        assert "FAIL full-grid" in capsys.readouterr().out
        payload = json.loads((tmp_path / "validate_full-grid.json").read_text())
        assert payload["passed"] is False
        (median,) = payload["reports"]
        assert median["name"] == "full-grid-median" and median["passed"] is False
        assert median["stats"] == {"attempts": cli.FULL_GRID_ATTEMPTS,
                                   "cases_found": 0,
                                   "cases_needed": cli.FULL_GRID_CASES}

    def test_validate_full_grid_solver_infeasible_fails(self, tmp_path, monkeypatch):
        # the grid solves a case the solver calls infeasible: that report
        # carries no gap stat, and the suite fails instead of raising
        monkeypatch.setattr(cli.oracles, "grid_full", lambda *a, seed=0: cli.oracles.OracleReport(
            name="full-grid", trials=0, passed=False, worst_violation=math.inf,
            tolerance=math.inf, seed=seed, stats={"grid_energy": 1.0}))
        rc = main(["validate", "--suite", "full-grid", "--out", str(tmp_path)])
        assert rc == 1
        payload = json.loads((tmp_path / "validate_full-grid.json").read_text())
        assert len(payload["reports"]) == cli.FULL_GRID_CASES + 1
        assert payload["reports"][-1]["stats"]["attempts"] == cli.FULL_GRID_CASES

    def test_fit_r0_recovers(self, tmp_path, capsys):
        a, b = 0.6, 50.0
        powers = np.linspace(0.001, 0.2, 50)
        rows = np.column_stack([powers, a * np.arctan(b * powers)])
        path = tmp_path / "samples.csv"
        np.savetxt(path, rows, delimiter=",")
        rc = main(["fit-r0", "--samples", str(path), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "fit_r0.json").read_text())
        assert payload["a"] == pytest.approx(a, rel=1e-6)
        assert payload["b"] == pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("flag, top", [("--trials", "MAX_TRIALS"),
                                           ("--grid-n", "MAX_GRID_N")])
    def test_validate_counts_above_bound_exit_3(self, tmp_path, capsys, monkeypatch,
                                                flag, top):
        # rejected before any suite is built: no report is written
        monkeypatch.setattr(cli, "_validate_suites",
                            lambda *args: pytest.fail("suites built past the bound"))
        value = str(getattr(cli, top) + 1)
        rc = main(["validate", "--suite", "all", flag, value, "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert flag in err and value in err
        assert not list(tmp_path.glob("validate_*.json"))

    def test_sense_demo(self, tmp_path, capsys):
        rc = main(["sense-demo", "--out", str(tmp_path)])
        assert rc == 0
        spec = np.loadtxt(tmp_path / "spectrogram.csv", delimiter=",")
        assert np.linalg.norm(spec) == pytest.approx(1.0, abs=1e-9)
        assert "spectrogram" in capsys.readouterr().out


def test_python_m_isccopt_help():
    src = str(Path(isccopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "isccopt", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: isccopt" in proc.stdout
