import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isccopt
from isccopt import netmodel as nm
from isccopt.cli import main
from isccopt.config import DEFAULT_CONFIG, build_config, load_config
from isccopt.cost import check_feasible, total_cost
from isccopt.errors import ConfigError
from isccopt.optimizer import (ORIGINS, _pairs, penalty_terms, solution_from_dict,
                               solve_baseline, solve_scenario)
from isccopt.oracles import random_test_case


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
        with pytest.raises(ConfigError):
            build_config({"solver": {"eps_rho": 1e-6, "mystery": True}})
        with pytest.raises(ConfigError):   # fs is not a scenario key
            build_config({"scenario": {"fs": 1e7}})

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
        net = nm.NetworkModel(layers=(nm.fc(4, 6), nm.fc(2, 4)),
                              input_dim=6).with_weights(ws)
        path = tmp_path / "w.bin"
        nm.save_weights(net, path)
        cfg = build_config({
            "scenario": {"splits": [1, 2]},
            "network": {"input_dim": 6,
                        "layers": [{"kind": "fc", "n": 4, "n_prev": 6},
                                   {"kind": "fc", "n": 2, "n_prev": 4}],
                        "weights_file": str(path)},
        })
        np.testing.assert_array_equal(cfg.network.layer(1).weights, ws[0])

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
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


BAD_VALUES = [
    ("scenario", "t_max", float("nan")),
    ("scenario", "nu_max", float("inf")),
    ("scenario", "m_chirps", 50000.7),
    ("solver", "eps_rho", 0),
    ("solver", "eps_rho", float("nan")),
    ("solver", "max_iter", 0),
    ("echo", "power", float("nan")),
    ("echo", "noise_psd", float("inf")),
    ("echo", "target", {"delay": 2e-6, "doppler_hz": float("nan"), "gain": [1.0, 0.0]}),
]


@pytest.mark.parametrize("block, key, value", BAD_VALUES)
def test_bad_value_exits_3_with_message(tmp_path, capsys, block, key, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({block: {key: value}}))   # NaN/Infinity literals
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "config error" in err and key in err


SCENARIO_VALUES = {
    "t_max": (0.45, 2.0), "r_t": (-0.1, 0.99), "p_max": (0.01, 2.0),
    "nu_max": (1e5, 1e8), "kappa": (1e-23, 1e-19), "snr_db": (-10.0, 40.0),
    "m_chirps": (1000, 60000),
}
ODD = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 0.5, 1e5 + 0.7])


@st.composite
def config_overrides(draw):
    """Valid scenario and solver values, at most one of them replaced by a
    non-finite, non-positive or borderline one."""
    scenario = {}
    for key, (lo, hi) in SCENARIO_VALUES.items():
        if draw(st.booleans()):
            scenario[key] = draw(st.integers(lo, hi) if key == "m_chirps"
                                 else st.floats(lo, hi))
    solver = {"eps_rho": draw(st.one_of(st.just(1e-6), st.floats(1e-300, 0.5)))}
    odd = draw(st.sampled_from([None] * 4 + list(SCENARIO_VALUES) + ["eps_rho"]))
    if odd is not None:
        (solver if odd == "eps_rho" else scenario)[odd] = draw(ODD)
    return {"scenario": scenario, "solver": solver}


def assert_every_origin_solves_or_gives_reasons(net, sc, ap, eps_rho=1e-6):
    """Each origin returns an allocation that passes check_feasible on the
    splits of its (l, q) pairs, or one reason per pair."""
    every_pair = [(l, q or 2) for l, q in _pairs(net, sc)]
    pairs_of = {"proposed": every_pair, "no_prune": every_pair,
                "on_server": [(0, sc.q_max)], "on_device": [(net.depth, 2)]}
    assert set(pairs_of) == set(ORIGINS)
    for origin, pairs in pairs_of.items():
        if origin == "proposed":
            sol = solve_scenario(net, sc, ap, eps_rho=eps_rho)
        else:
            sol = solve_baseline(origin, net, sc, ap, eps_rho=eps_rho)
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
    assert_every_origin_solves_or_gives_reasons(
        cfg.network, cfg.scenario, cfg.accuracy, cfg.solver["eps_rho"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_random_cases_solve_feasibly_or_give_reasons(seed):
    assert_every_origin_solves_or_gives_reasons(
        *random_test_case(np.random.default_rng(seed)))


class TestCliSweepAndBaseline:
    def test_sweep_row_count(self, tmp_path):
        rc = main(["sweep", "--axis", "t_max",
                   "--values", "0.6,0.8,1.0,1.2,1.4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 4  # header + 5 values x 4 origins

    def test_sweep_bad_values(self, tmp_path):
        rc = main(["sweep", "--axis", "t_max", "--values", "abc",
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_baseline(self, tmp_path, capsys):
        rc = main(["baseline", "--kind", "on_device", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "baseline_on_device.csv").exists()
        assert "on_device: E=" in capsys.readouterr().out


class TestCliValidateFitSense:
    def test_validate_quantizer(self, tmp_path, capsys):
        rc = main(["validate", "--suite", "quantizer", "--trials", "5000",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS quantizer" in capsys.readouterr().out
        payload = json.loads((tmp_path / "validate_quantizer.json").read_text())
        assert payload["passed"] is True

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
