"""Seeded inputs of the benchmark workloads.

Every workload is a list of operations of three kinds, each run in its own
timed phase:

- solve: one call to `optimizer.solve_scenario` (origin "proposed") or
  `optimizer.solve_baseline`;
- sense: one echo -> clutter filter -> spectrogram chain;
- validate: one call of the numpy Monte-Carlo suites `pruning-mean`,
  `quantizer` or `margin`; the 14 calls of the phase are one pass of
  `isccopt validate --trials 20`, with the arguments it gives them.

Each run reports every end-to-end metric, so every workload has all three
phases; the solve inputs set what a workload is for. The same seed gives
the same operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from isccopt import config, oracles
from isccopt.optimizer import ORIGINS

STOCK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "tableII.json"

# ROADMAP's t_max sweep of the stock scenario (seconds)
T_MAX_SWEEP = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)
# snr sweep: one draw in each of 8 equal bands of log10 g/(B*N0) over
# [1, 3]; the stock value is 2
SNR_BANDS = tuple((1.0 + 0.25 * k, 1.25 + 0.25 * k) for k in range(8))
# (t_max, r_t) just above t_sen = 0.5 s: the baselines fail there, and the
# second point is infeasible for every origin
DEADLINE_EDGE = ((0.51, 0.85), (0.51, 0.95))
# t_max x r_t grid just above t_sen = 0.5 s: many (l, q) pairs are rejected
# and the tightest points are infeasible end to end
TIGHT_T_MAX = tuple(0.51 + 0.01 * k for k in range(10))
TIGHT_R_T = (0.85, 0.90, 0.95)
# solve times form one cluster per net depth (about 1.6x apart), so the
# draws are split evenly between depths 3 and 4: with free depth draws the
# median falls between the clusters and jumps from seed to seed
RANDOM_FC_CASES = 160
# echo sizes (fast-time samples x chirps): the stock 100x256 and a larger one
ECHO_SIZES = ((1e7, 256, 12), (2e7, 512, 4))   # (sample rate, chirps, copies)
VALIDATE_TRIALS = 20
# share of the run time per phase; solves carry the weight
SHARES = {"solve": 0.70, "sense": 0.10, "validate": 0.20}


@dataclass(frozen=True)
class Solve:
    origin: str
    net: object
    scenario: object
    accuracy: object
    label: str


@dataclass(frozen=True)
class Sense:
    echo: object
    seed: int
    processing: dict


@dataclass(frozen=True)
class Validate:
    """One suite call: `pruning-mean` (args lam, rho), `quantizer` (args
    bits) or `margin` (no args)."""
    suite: str
    seed: int
    args: tuple
    f_min: float
    f_max: float
    trials: int = VALIDATE_TRIALS


@dataclass(frozen=True)
class Workload:
    solves: list
    senses: list
    validates: list


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _senses(cfg, rng) -> list[Sense]:
    out = []
    for rate, chirps, copies in ECHO_SIZES:
        for _ in range(copies):
            target = replace(cfg.echo.target,
                             doppler_hz=float(rng.uniform(2500.0, 3500.0)))
            echo = replace(cfg.echo, sample_rate=rate, n_chirps=chirps, target=target)
            out.append(Sense(echo, int(rng.integers(2**31)), cfg.echo_processing))
    return out


def _validates(cfg, rng) -> list[Validate]:
    """The suite calls of one validate pass at a seeded config seed."""
    seed = int(rng.integers(2**31))
    bounds = (cfg.accuracy.f_min, cfg.accuracy.f_max)
    grid = itertools.product((0.5, 1.0, 2.0), (0.3, 0.5, 0.7))
    out = [Validate("pruning-mean", seed + i, (lam, rho), *bounds)
           for i, (lam, rho) in enumerate(grid)]
    out += [Validate("quantizer", seed + 201 + q, (q,), *bounds) for q in (2, 3, 4, 6)]
    out.append(Validate("margin", seed + 501, (), *bounds))
    return out


def stock_sweep(cfg, rng) -> list[Solve]:
    """Stock scenario, the jittered t_max sweep, an snr sweep and two
    deadline-edge points, each solved by all four origins. Apart from the
    edge points, deadlines are loose, so almost every pair runs the full
    inner loop; the edge points exercise the infeasible outcomes."""
    sc = cfg.scenario
    scenarios = [("stock", sc)]
    for t in T_MAX_SWEEP:
        t_max = t * float(rng.uniform(0.98, 1.02))
        scenarios.append((f"t_max={t_max!r}", replace(sc, t_max=t_max)))
    for lo, hi in SNR_BANDS:
        snr = 10.0 ** float(rng.uniform(lo, hi))
        scenarios.append((f"snr={snr!r}", replace(sc, g_over_bn0=snr)))
    for t, r in DEADLINE_EDGE:
        t_max = t + float(rng.uniform(-0.001, 0.001))
        r_t = r + float(rng.uniform(-0.002, 0.002))
        scenarios.append((f"t_max={t_max!r},r_t={r_t!r}",
                          replace(sc, t_max=t_max, r_t=r_t)))
    return [Solve(origin, cfg.network, scenario, cfg.accuracy, label)
            for label, scenario in scenarios for origin in ORIGINS]


def tight_deadline(cfg, rng) -> list[Solve]:
    """The stock network on a jittered t_max x r_t grid just above t_sen;
    proposed method only. The layers run on their rejection path."""
    out = []
    for t in TIGHT_T_MAX:
        for r in TIGHT_R_T:
            t_max = t + float(rng.uniform(-0.003, 0.003))
            r_t = r + float(rng.uniform(-0.01, 0.01))
            out.append(Solve("proposed", cfg.network,
                             replace(cfg.scenario, t_max=t_max, r_t=r_t), cfg.accuracy,
                             f"t_max={t_max!r},r_t={r_t!r}"))
    return out


def random_fc(rng) -> list[Solve]:
    """Seeded `random_test_case` draws: 3-4 layer FC nets, q_max 5, a random
    constraint binding; proposed method only. Draws of a depth whose half
    of the cases is full are skipped."""
    out = []
    left = {3: RANDOM_FC_CASES // 2, 4: RANDOM_FC_CASES - RANDOM_FC_CASES // 2}
    while len(out) < RANDOM_FC_CASES:
        net, sc, ap = oracles.random_test_case(rng)
        if left[net.depth]:
            left[net.depth] -= 1
            out.append(Solve("proposed", net, sc, ap, f"case{len(out)}"))
    return out


def load_stock():
    return config.load_config(STOCK_CONFIG)


def build(name: str, seed: int, cfg) -> Workload:
    """Generate the workload's inputs from the stock configuration `cfg`."""
    senses = _senses(cfg, _rng(seed, 1))
    validates = _validates(cfg, _rng(seed, 2))
    if name == "stock-sweep":
        solves = stock_sweep(cfg, _rng(seed, 3))
    elif name == "random-fc":
        solves = random_fc(_rng(seed, 4))
    elif name == "tight-deadline":
        solves = tight_deadline(cfg, _rng(seed, 5))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(solves, senses, validates)


NAMES = ("stock-sweep", "random-fc", "tight-deadline")
