"""Run configuration: JSON ingestion with fail-closed validation, plus the
built-in default scenario (a small CNN template with generated weights and
the stock simulation constants)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import netmodel
from .accuracy import AccuracyParams
from .cost import Scenario
from .errors import ConfigError
from .sensing import ClutterPath, EchoParams, TargetPath


DEFAULT_CONFIG = {
    "seed": 0,
    "scenario": {
        "t_max": 0.8,
        "r_t": 0.85,
        "p_max": 1.0,
        "nu_max": 8e6,
        "nu_s": 1e11,
        "kappa": 1e-21,
        "bandwidth": 1e5,
        "snr_db": 20.0,
        "t0": 1e-5,
        "m_chirps": 50000,
        "q_max": 6,
        "splits": [1, 2, 3, 4, 5, 6, 7],
    },
    "network": {
        "input_dim": 1024,
        "layers": [
            {"kind": "conv", "alpha": 28, "beta": 28, "gamma": 6, "psi": 5, "gamma_prev": 1},
            {"kind": "mp", "alpha": 14, "beta": 14, "gamma": 6, "psi": 2},
            {"kind": "conv", "alpha": 10, "beta": 10, "gamma": 16, "psi": 5, "gamma_prev": 6},
            {"kind": "mp", "alpha": 5, "beta": 5, "gamma": 16, "psi": 2},
            {"kind": "fc", "n": 120, "n_prev": 400},
            {"kind": "fc", "n": 60, "n_prev": 120},
            {"kind": "fc", "n": 5, "n_prev": 60},
        ],
        "weight_seed": 20,
        "target_norms": [6.0, 2.5, 2.5, 0.6, 0.6],
    },
    "accuracy": {
        "a": 0.6366,
        "b": 100.0,
        "s": 34.0,
        "c_m": 1.0,
        "margin_exponent": 2,
        "f_min": 0.0,
        "f_max": 1.0,
    },
    "echo": {
        "power": 0.1,
        "chirp_duration": 1e-5,
        "n_chirps": 256,
        "sample_rate": 1e7,
        "chirp_bandwidth": 1e6,
        "noise_psd": 1e-9,
        "target": {"delay": 2e-6, "doppler_hz": 3000.0, "gain": [1.0, 0.0]},
        "clutter": [
            {"delay": 1e-6, "gain": [2.0, 0.0]},
            {"delay": 3e-6, "gain": [1.5, 0.5]},
        ],
        "svd_r1": 2,
        "svd_r2": 0,
        "window_len": 64,
        "hop": 32,
    },
    "solver": {
        "eps_rho": 1e-6,
    },
}

_SCHEMA = {
    "": {"seed", "scenario", "network", "accuracy", "echo", "solver"},
    "scenario": set(DEFAULT_CONFIG["scenario"]),
    "network": {"input_dim", "layers", "weight_seed", "target_norms", "rates",
                "weights_file", "split_candidates"},
    "accuracy": set(DEFAULT_CONFIG["accuracy"]),
    "echo": set(DEFAULT_CONFIG["echo"]),
    "solver": set(DEFAULT_CONFIG["solver"]),
    "layer": {"kind", "alpha", "beta", "gamma", "psi", "gamma_prev", "n", "n_prev"},
    "path": {"delay", "doppler_hz", "gain"},
}


def _reject_unknown(block: dict, schema_key: str, where: str):
    unknown = set(block) - _SCHEMA[schema_key]
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where or 'config root'}")


def _merged(defaults: dict, override: dict) -> dict:
    out = dict(defaults)
    out.update(override)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: typed blocks plus the raw dict that
    produced them (re-embedded in every JSON output)."""

    scenario: Scenario
    network: netmodel.NetworkModel
    accuracy: AccuracyParams
    echo: EchoParams
    echo_processing: dict
    solver: dict
    seed: int
    resolved: dict


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Parse a JSON config file (defaults apply for omitted blocks/keys;
    unknown keys are rejected). `overrides` patches top-level scalar keys
    such as the seed."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if overrides:
        raw = _merged(raw, overrides)
    return build_config(raw)


def build_config(raw: dict) -> RunConfig:
    _reject_unknown(raw, "", "")
    try:
        resolved = {key: _merged(DEFAULT_CONFIG[key], raw.get(key, {}))
                    for key in ("scenario", "network", "accuracy", "echo", "solver")}
        sc = _build_scenario(resolved["scenario"])
        net = _build_network(resolved["network"])
        ap = _build_accuracy(resolved["accuracy"])
        echo, processing = _build_echo(resolved["echo"])
        solver = resolved["solver"]
        _reject_unknown(solver, "solver", "solver")
        solver["eps_rho"] = float(solver["eps_rho"])
        if not 0.0 < solver["eps_rho"] < math.inf:
            raise ConfigError(f"solver.eps_rho must be positive and finite, "
                              f"got {solver['eps_rho']!r}")
        seed = _integer(raw.get("seed", DEFAULT_CONFIG["seed"]), "seed")
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as err:
        raise ConfigError(str(err)) from err
    if not sc.splits:
        sc = replace(sc, splits=tuple(sorted(net.split_candidates)))
    if max(sc.splits) > net.depth:
        raise ConfigError(f"split candidates {sc.splits} exceed network depth {net.depth}")
    resolved = {"seed": seed, **resolved}
    return RunConfig(scenario=sc, network=net, accuracy=ap, echo=echo,
                     echo_processing=processing, solver=solver, seed=seed,
                     resolved=resolved)


def _integer(value, name: str) -> int:
    """An integral JSON number as int; 50000.7, NaN and booleans are
    rejected rather than truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _build_scenario(block: dict) -> Scenario:
    _reject_unknown(block, "scenario", "scenario")
    return Scenario(
        t_max=float(block["t_max"]),
        r_t=float(block["r_t"]),
        p_max=float(block["p_max"]),
        nu_max=float(block["nu_max"]),
        nu_s=float(block["nu_s"]),
        kappa=float(block["kappa"]),
        bandwidth=float(block["bandwidth"]),
        g_over_bn0=10.0 ** (float(block["snr_db"]) / 10.0),
        t0=float(block["t0"]),
        m_chirps=_integer(block["m_chirps"], "scenario.m_chirps"),
        q_max=_integer(block["q_max"], "scenario.q_max"),
        splits=tuple(_integer(l, "scenario.splits[]")
                     for l in block.get("splits", ())),
    )


def _build_layer(record: dict) -> netmodel.LayerSpec:
    _reject_unknown(record, "layer", "network.layers[]")
    kind = record.get("kind")
    if kind == "conv":
        return netmodel.conv(record["alpha"], record["beta"], record["gamma"],
                             record["psi"], record["gamma_prev"])
    if kind == "mp":
        return netmodel.maxpool(record["alpha"], record["beta"], record["gamma"],
                                record["psi"])
    if kind == "fc":
        return netmodel.fc(record["n"], record["n_prev"])
    raise ConfigError(f"unknown layer kind {kind!r}")


def _build_network(block: dict) -> netmodel.NetworkModel:
    _reject_unknown(block, "network", "network")
    layers = tuple(_build_layer(rec) for rec in block["layers"])
    net = netmodel.NetworkModel(
        layers=layers,
        input_dim=_integer(block["input_dim"], "network.input_dim"),
        split_candidates=frozenset(block.get("split_candidates", ())) or
        frozenset(range(1, len(layers) + 1)),
    )
    if block.get("weights_file"):
        return netmodel.load_weights(net, block["weights_file"])
    weight_seed = _integer(block["weight_seed"], "network.weight_seed")
    if block.get("rates"):
        return netmodel.generate_weights(net, block["rates"], weight_seed)
    if block.get("target_norms"):
        rates = netmodel.rates_for_norms(net, block["target_norms"])
        return netmodel.generate_weights(net, rates, weight_seed)
    return net


def _build_accuracy(block: dict) -> AccuracyParams:
    _reject_unknown(block, "accuracy", "accuracy")
    return AccuracyParams(
        a=float(block["a"]), b=float(block["b"]), s=float(block["s"]),
        c_m=float(block["c_m"]),
        margin_exponent=_integer(block["margin_exponent"], "accuracy.margin_exponent"),
        f_min=float(block["f_min"]), f_max=float(block["f_max"]))


def _complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(float(value[0]), float(value[1]))


def _build_echo(block: dict) -> tuple[EchoParams, dict]:
    _reject_unknown(block, "echo", "echo")
    target = block["target"]
    _reject_unknown(target, "path", "echo.target")
    clutter = []
    for rec in block.get("clutter", []):
        _reject_unknown(rec, "path", "echo.clutter[]")
        clutter.append(ClutterPath(delay=float(rec["delay"]), gain=_complex(rec["gain"])))
    params = EchoParams(
        power=float(block["power"]),
        chirp_duration=float(block["chirp_duration"]),
        n_chirps=_integer(block["n_chirps"], "echo.n_chirps"),
        sample_rate=float(block["sample_rate"]),
        target=TargetPath(delay=float(target["delay"]),
                          doppler_hz=float(target["doppler_hz"]),
                          gain=_complex(target["gain"])),
        clutter=tuple(clutter),
        noise_psd=float(block["noise_psd"]),
        chirp_bandwidth=float(block["chirp_bandwidth"]),
    )
    processing = {
        "svd_r1": _integer(block["svd_r1"], "echo.svd_r1"),
        "svd_r2": _integer(block["svd_r2"], "echo.svd_r2"),  # 0: up to full rank
        "window_len": _integer(block["window_len"], "echo.window_len"),
        "hop": _integer(block["hop"], "echo.hop"),
    }
    return params, processing


def sanitize_floats(obj):
    """Replace non-finite floats with None for strict-JSON output."""
    if isinstance(obj, dict):
        return {k: sanitize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_floats(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj
