"""Re-measure the hand baselines listed under ROADMAP "Recent".

    python3 benchmarks/baseline.py

Times, on the stock configs/tableII.json scenario with BLAS pinned to one
thread: one proposed solve, the `sweep` of t_max over 7 values x 4 origins,
and the sensing chain stages (echo generation, SVD clutter filter, STFT
spectrogram) on the stock 100x256 echo. Each figure is the median of
several warm repeats. Prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run   # pins BLAS to one thread and puts the program on the import path
import workloads
from isccopt import optimizer, sensing

T_MAX_SWEEP = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]


def median_time(fn, repeats: int) -> float:
    fn()   # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    if run.IMPORT_ERROR is not None:
        print(f"baseline: cannot import the program: {run.IMPORT_ERROR}", file=sys.stderr)
        return 2
    cfg = workloads.load_stock()
    net, sc, ap = cfg.network, cfg.scenario, cfg.accuracy
    proc = cfg.echo_processing
    echo = sensing.generate_echo(cfg.echo, seed=cfg.seed)
    r2 = proc["svd_r2"] or min(echo.shape)
    filtered = sensing.clutter_filter(echo, proc["svd_r1"], r2)
    result = {
        "stock_solve_ms": 1e3 * median_time(
            lambda: optimizer.solve_scenario(net, sc, ap), 15),
        "sweep_t_max_7x4_s": median_time(
            lambda: optimizer.sweep(net, sc, ap, "t_max", T_MAX_SWEEP), 3),
        "echo_ms": 1e3 * median_time(
            lambda: sensing.generate_echo(cfg.echo, seed=cfg.seed), 50),
        "svd_ms": 1e3 * median_time(
            lambda: sensing.clutter_filter(echo, proc["svd_r1"], r2), 50),
        "stft_ms": 1e3 * median_time(
            lambda: sensing.spectrogram(filtered, proc["window_len"], proc["hop"]), 50),
        "echo_shape": list(echo.shape),
        "env": run.environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
