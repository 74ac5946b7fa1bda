"""Run configuration: JSON ingestion with fail-closed validation, plus the
built-in default scenario (a small CNN template with generated weights and
the stock simulation constants)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import netmodel
from .accuracy import AccuracyParams
from .cost import Scenario
from .errors import ConfigError
from .sensing import ClutterPath, EchoParams, TargetPath

# largest weight count that network.target_norms may generate. Generating
# and checking the weights peaks at about 16.4 B per weight (the float64
# weights and one temporary of a layer's size), so about 0.33 GB at the bound
MAX_GENERATED_WEIGHTS = 20_000_000
# largest echo (n_fast x n_chirps samples) and spectrogram (frames x
# window_len bins) a config may ask for. The sense chain peaks at about 48 B
# per echo sample (the complex echo, its noise draws or the filter's copies)
# and 58 B per spectrogram bin, so about 0.2 GB at the bound
MAX_ECHO_SAMPLES = 4_000_000


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
        "splits": [0, 1, 2, 3, 4, 5, 6, 7],
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
}

# DEFAULT_CONFIG is the schema: each block and echo path record takes the keys
# of its stock default, and each number is read as the type of its default
# (an int default reads an integer, a float default a real). The network
# block may also name a weights file, and a layer record takes the keys of
# its kind
_NETWORK_KEYS = {*DEFAULT_CONFIG["network"], "weights_file"}
_LAYER_KEYS = {"kind", "alpha", "beta", "gamma", "psi", "gamma_prev", "n", "n_prev"}


def _reject_unknown(block: dict, allowed, where: str):
    # an unknown block is named with the keys it sets ("solver.eps_rho"),
    # so the message points at the setting the user wrote
    unknown = []
    for key in set(block) - set(allowed):
        value = block[key]
        unknown += [f"{key}.{k}" for k in value] if isinstance(value, dict) and value else [key]
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where or 'config root'}")


def _record(value, where: str) -> dict:
    """`value`, a config block or record, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _array(value, where: str) -> list:
    """`value`, a config array, which must be a JSON array."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON array, got {value!r}")
    return value


def _require(record: dict, keys, where: str) -> None:
    missing = [f"{where}.{key}" for key in keys if key not in record]
    if missing:
        raise ConfigError("missing " + ", ".join(missing))


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
        except (OSError, ValueError) as err:
            # ValueError: bad JSON or UTF-8, or an integer of more digits
            # than int() reads (sys.get_int_max_str_digits)
            raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if overrides:
        raw = _merged(raw, overrides)
    return build_config(raw)


def build_config(raw: dict) -> RunConfig:
    _reject_unknown(raw, DEFAULT_CONFIG, "")
    try:
        resolved = {key: _merged(DEFAULT_CONFIG[key], _record(raw.get(key, {}), key))
                    for key in ("scenario", "network", "accuracy", "echo")}
        sc = _build_scenario(resolved["scenario"])
        net = _build_network(resolved["network"])
        ap = _build_accuracy(resolved["accuracy"])
        echo, processing = _build_echo(resolved["echo"])
        seed = _integer(raw.get("seed", DEFAULT_CONFIG["seed"]), "seed")
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as err:
        raise ConfigError(str(err)) from err
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if not all(0 <= l <= net.depth for l in sc.splits):
        raise ConfigError(f"scenario.splits {sc.splits} must lie in 0..{net.depth}")
    resolved = {"seed": seed, **resolved}
    return RunConfig(scenario=sc, network=net, accuracy=ap, echo=echo,
                     echo_processing=processing, seed=seed, resolved=resolved)


def _real(value, where: str) -> float:
    """A JSON number as float. Booleans, strings, null, arrays, objects and
    integers past the float range are refused by their path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} must be a number within the float range, got an "
                          f"integer of {value.bit_length()} bits") from None


def _integer(value, where: str) -> int:
    """An integral JSON number as int; 50000.7, NaN and booleans are
    rejected rather than truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not _real(value, where).is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _numbers(record: dict, defaults: dict, where: str) -> dict:
    """Every key of `record` whose stock default in `defaults` is a number,
    read as the type of that default."""
    return {key: (_integer if type(default) is int else _real)(record[key], f"{where}.{key}")
            for key, default in defaults.items() if isinstance(default, (int, float))}


def _build_scenario(block: dict) -> Scenario:
    stock = DEFAULT_CONFIG["scenario"]
    _reject_unknown(block, stock, "scenario")
    numbers = _numbers(block, stock, "scenario")
    snr_db = numbers.pop("snr_db")
    return Scenario(**numbers, g_over_bn0=10.0 ** (snr_db / 10.0),
                    splits=tuple(_integer(l, "scenario.splits[]")
                                 for l in _array(block["splits"], "scenario.splits")))


def _build_layer(i: int, record: dict) -> netmodel.LayerSpec:
    where = f"network.layers[{i}]"
    _reject_unknown(_record(record, where), _LAYER_KEYS, where)
    kind = record.get("kind")

    def dims(*keys):
        _require(record, keys, where)
        return [_integer(record[key], f"{where}.{key}") for key in keys]

    if kind == "conv":
        return netmodel.conv(*dims("alpha", "beta", "gamma", "psi", "gamma_prev"))
    if kind == "mp":
        return netmodel.maxpool(*dims("alpha", "beta", "gamma", "psi"))
    if kind == "fc":
        return netmodel.fc(*dims("n", "n_prev"))
    raise ConfigError(f"unknown layer kind {kind!r}")


def _build_network(block: dict) -> netmodel.NetworkModel:
    _reject_unknown(block, _NETWORK_KEYS, "network")
    layers = tuple(_build_layer(i, rec)
                   for i, rec in enumerate(_array(block["layers"], "network.layers")))
    net = netmodel.NetworkModel(
        layers=layers, input_dim=_integer(block["input_dim"], "network.input_dim"))
    if block.get("weights_file"):
        source = "network.weights_file"
        try:
            net = netmodel.load_weights(net, block["weights_file"])
        except OSError as err:
            raise ConfigError(f"cannot read {source}: {err}") from err
    else:
        source = "network.target_norms"
        if not block.get("target_norms"):
            raise ConfigError(f"the network needs weights: set network.weights_file "
                              f"or a non-empty {source}")
        norms = [_real(t, f"{source}[{i}]")
                 for i, t in enumerate(_array(block["target_norms"], source))]
        if not all(0.0 < t < math.inf for t in norms):
            raise ConfigError(f"{source} entries must be positive and finite, got {norms}")
        weight_seed = _integer(block["weight_seed"], "network.weight_seed")
        count = sum(layer.weight_count for layer in net.layers)
        if count > MAX_GENERATED_WEIGHTS:
            raise ConfigError(f"network.layers hold {count:.3g} weights, more than the "
                              f"{MAX_GENERATED_WEIGHTS} that {source} may generate")
        rates = netmodel.rates_for_norms(net, norms)
        net = netmodel.generate_weights(net, rates, weight_seed)
    _check_weights(net, source)
    return net


def _check_weights(net: netmodel.NetworkModel, source: str) -> None:
    """Every weighted layer needs finite entries and nonzero, finite
    accuracy-bound factors ||W||_F^2 and M/lambda^2 (netmodel.prune_factors)."""
    for i, layer in enumerate(net.layers, start=1):
        if not layer.is_weighted:
            continue
        if not np.all(np.isfinite(layer.weights)):
            raise ConfigError(f"{source}: layer {i} has non-finite weights")
        try:
            with np.errstate(over="ignore"):
                factors = netmodel.prune_factors(layer)
        except (ArithmeticError, ValueError):   # overflow, or zero magnitude sum
            factors = (0.0,)
        if not all(0.0 < f < math.inf for f in factors):
            raise ConfigError(f"{source}: layer {i} weights are too small or too large: "
                              f"||W||_F^2 and M/lambda^2 must be nonzero and finite")


def _build_accuracy(block: dict) -> AccuracyParams:
    _reject_unknown(block, DEFAULT_CONFIG["accuracy"], "accuracy")
    return AccuracyParams(**_numbers(block, DEFAULT_CONFIG["accuracy"], "accuracy"))


def _complex(value, where: str) -> complex:
    """A path gain: a real number or an [re, im] pair of them."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    try:
        return complex(*(_real(part, where) for part in parts))
    except ConfigError:
        raise ConfigError(f"{where} must be a number or an [re, im] pair, "
                          f"got {value!r}") from None


def _path(record, stock: dict, where: str) -> dict:
    """An echo path record with exactly the keys of the stock record `stock`,
    as the keyword arguments of its path class."""
    _reject_unknown(_record(record, where), stock, where)
    _require(record, stock, where)
    return {**_numbers(record, stock, where),
            "gain": _complex(record["gain"], f"{where}.gain")}


def _build_echo(block: dict) -> tuple[EchoParams, dict]:
    stock = DEFAULT_CONFIG["echo"]
    _reject_unknown(block, stock, "echo")
    numbers = _numbers(block, stock, "echo")
    # svd_r2 = 0: up to full rank
    processing = {key: numbers.pop(key) for key in ("svd_r1", "svd_r2", "window_len", "hop")}
    params = EchoParams(
        **numbers,
        target=TargetPath(**_path(block["target"], stock["target"], "echo.target")),
        clutter=tuple(ClutterPath(**_path(rec, stock["clutter"][0], f"echo.clutter[{i}]"))
                      for i, rec in enumerate(_array(block["clutter"], "echo.clutter"))),
    )
    # n_fast * n_chirps in floats, so a product past the float range reads inf
    samples = np.floor(params.sample_rate * params.chirp_duration) * params.n_chirps
    if samples > MAX_ECHO_SAMPLES:
        raise ConfigError(f"echo.n_chirps x n_fast (echo.sample_rate x echo.chirp_duration) "
                          f"is {samples:.3g} samples, more than {MAX_ECHO_SAMPLES}")
    # the sense chain runs on an n_fast x n_chirps echo
    min_dim = min(params.n_fast, params.n_chirps)
    r1, r2 = processing["svd_r1"], processing["svd_r2"]
    if not 1 <= r1 <= (r2 or min_dim) <= min_dim:
        raise ConfigError(f"echo.svd_r1 and echo.svd_r2 need 1 <= svd_r1 <= svd_r2 <= "
                          f"{min_dim} (svd_r2 = 0: {min_dim}), got ({r1}, {r2})")
    # the periodic Hann window of length 1 is [0]: its spectrogram is all zero
    if not 2 <= processing["window_len"] <= params.n_chirps:
        raise ConfigError(f"echo.window_len must lie in 2..{params.n_chirps} (n_chirps), "
                          f"got {processing['window_len']}")
    if processing["hop"] < 1:
        raise ConfigError(f"echo.hop must be >= 1, got {processing['hop']}")
    window, hop = processing["window_len"], processing["hop"]
    bins = ((params.n_chirps - window) // hop + 1) * window
    if bins > MAX_ECHO_SAMPLES:
        raise ConfigError(f"echo.window_len and echo.hop give a spectrogram of {bins:.3g} "
                          f"bins, more than {MAX_ECHO_SAMPLES}")
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
