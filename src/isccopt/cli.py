"""Command-line interface: solves, sweeps, baselines, validation suites,
accuracy-curve fits, and a sensing demo, all driven by a JSON config.

Exit codes: 0 success, 1 validation suite failure, 2 infeasible problem,
3 config error (a bad config or input, or an output that cannot be written),
4 an answer failed its constraint check (no file written).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import optimizer, oracles, sensing
from .accuracy import fit_accuracy_curve
from .config import RunConfig, load_config, sanitize_floats
from .errors import CheckError, ConfigError
from .quant import QuantSpec

# largest --trials and --grid-n that validate accepts. The quantizer suite
# holds about eleven trials x 100 float arrays at once (8.9 kB per trial),
# margin about 2.3 kB per trial, and each power-freq grid a few grid_n x
# grid_n arrays (17 B per cell), so the peaks at the bounds are about
# 0.45 GB and 0.27 GB
MAX_TRIALS = 50_000
MAX_GRID_N = 4_000
# full-grid draws random_test_case scenarios until FULL_GRID_CASES of them
# are feasible for the solver or the grid, and fails after
# FULL_GRID_ATTEMPTS draws, the cap of acceptance criterion 12
FULL_GRID_CASES = 10
FULL_GRID_ATTEMPTS = 60

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="isccopt",
        description="Energy-minimizing resource allocation for split edge "
                    "inference under accuracy and latency constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="solve the configured scenario")
    p.set_defaults(handler=cmd_solve, kind="proposed")

    p = sub.add_parser("baseline", parents=[common], help="solve one ablation baseline")
    p.add_argument("--kind", required=True, choices=optimizer.ORIGINS[1:])
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("sweep", parents=[common],
                       help="re-solve proposed + baselines along one axis")
    p.add_argument("--axis", required=True, choices=["t_max", "r_t", "snr"])
    p.add_argument("--values", required=True,
                   help="comma-separated values (snr axis: linear g/(B*N0))")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("validate", parents=[common], help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=["pruning-mean", "pruning-bound", "quantizer",
                            "power-freq-grid", "full-grid", "margin", "all"])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid-n", type=int, default=200)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("fit-r0", parents=[common],
                       help="fit the accuracy-vs-sensing-power curve")
    p.add_argument("--samples", required=True,
                   help="CSV with columns: sensing power, accuracy")
    p.set_defaults(handler=cmd_fit_r0)

    p = sub.add_parser("sense-demo", parents=[common],
                       help="synthetic echo -> clutter filter -> spectrogram")
    p.set_defaults(handler=cmd_sense_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed} if args.seed is not None else None
    try:
        cfg = load_config(args.config, overrides=overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    out_dir = Path(args.out)
    try:
        return args.handler(cfg, args, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        # the handlers read no file (fit-r0's samples raise ConfigError), so
        # this is the output directory or a file written into it
        print(f"config error: cannot write output {err.filename or out_dir}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 3
    except CheckError as err:
        print(f"answer check failed, no output written: {err}", file=sys.stderr)
        return 4


def _write_all(out_dir: Path, outputs) -> None:
    """Write every (name, write) output into out_dir, or none. out_dir is
    made here, with its parents, so a command that fails before it writes
    leaves no new directory. Each write(tmp) goes to a temporary name
    beside its path, and the temporaries are renamed onto the paths only
    once every write succeeded. An OSError removes the temporaries and any
    output already renamed, and names the output."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [(out_dir / name, write) for name, write in outputs]
    temps, done = [], []
    try:
        for path, write in outputs:
            temps.append(path.with_name(f".{path.name}.tmp"))
            write(temps[-1])
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
            done.append(path)
    except OSError as err:
        for stale in temps + done:
            with contextlib.suppress(OSError):
                stale.unlink()
        raise OSError(err.errno, err.strerror or str(err), str(path)) from err


def _write_solution(cfg: RunConfig, sol, out_dir: Path, stem: str) -> None:
    rows = [optimizer.solution_row(stem, sol)]
    payload = sanitize_floats({"config": cfg.resolved,
                               "solution": optimizer.solution_to_dict(sol)})
    _write_all(out_dir, [(f"{stem}.csv", lambda p: optimizer.write_solutions_csv(p, rows)),
                         (f"{stem}.json", lambda p: optimizer.dump_json(p, payload))])


def _report_infeasible(sol) -> None:
    print("infeasible problem; per-(l, q) reasons:", file=sys.stderr)
    for l, q, reason in sol.reasons:
        print(f"  l={l} q={q}: {reason}", file=sys.stderr)


def cmd_solve(cfg: RunConfig, args, out_dir: Path) -> int:
    """`solve` (kind proposed) and `baseline --kind`."""
    kind = args.kind
    if kind == "proposed":
        sol = optimizer.solve_scenario(cfg.network, cfg.scenario, cfg.accuracy)
    else:
        sol = optimizer.solve_baseline(kind, cfg.network, cfg.scenario, cfg.accuracy)
    _write_solution(cfg, sol, out_dir, "solution" if kind == "proposed" else f"baseline_{kind}")
    if not sol.feasible:
        _report_infeasible(sol)
        return 2
    a = sol.alloc
    print(f"{kind}: E={sol.cost.e_total:.6g} J  T={sol.cost.t_total:.6g} s  "
          f"l={a.l} q={a.q} rho={a.rho:.4f} p_s={a.p_s:.4g} W "
          f"p_c={a.p_c:.4g} W nu_e={a.nu_e:.4g} FLOP/s  ({sol.iterations} iters)")
    return 0


def cmd_sweep(cfg: RunConfig, args, out_dir: Path) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        for value in values:   # each value must make a valid scenario
            optimizer.apply_axis(cfg.scenario, args.axis, value)
    except ValueError as err:
        raise ConfigError(f"bad sweep values: {err}") from err
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = optimizer.sweep(cfg.network, cfg.scenario, cfg.accuracy, args.axis, values)
    csv_rows = [optimizer.solution_row(f"{args.axis}={row.value!r}", row.solution)
                for row in rows]
    payload = sanitize_floats({
        "config": cfg.resolved,
        "axis": args.axis,
        "rows": [{"value": row.value,
                  "solution": optimizer.solution_to_dict(row.solution)}
                 for row in rows],
    })
    _write_all(out_dir, [("sweep.csv", lambda p: optimizer.write_solutions_csv(p, csv_rows)),
                         ("sweep.json", lambda p: optimizer.dump_json(p, payload))])
    n_bad = sum(not row.solution.feasible for row in rows)
    print(f"sweep {args.axis}: {len(rows)} rows ({n_bad} infeasible) -> {out_dir/'sweep.csv'}")
    return 0


def _validate_suites(cfg: RunConfig, args):
    seed = cfg.seed
    trials = args.trials
    suites = {}
    suites["pruning-mean"] = lambda: [
        oracles.mc_pruning_expectation(100000, lam, rho, trials, seed=seed + i)
        for i, (lam, rho) in enumerate((l, r) for l in (0.5, 1.0, 2.0)
                                       for r in (0.3, 0.5, 0.7))]
    suites["pruning-bound"] = lambda: [
        oracles.mc_pruning_bound_check(3, [16, 12, 10, 8], max(trials, 1000),
                                       seed=seed + 101)]
    suites["quantizer"] = lambda: [
        oracles.mc_quant_check(QuantSpec(bits=q, f_min=cfg.accuracy.f_min,
                                         f_max=cfg.accuracy.f_max),
                               n=100, trials=max(trials, 10000), seed=seed + 201 + q)
        for q in (2, 3, 4, 6)]

    def power_freq():
        rng = np.random.default_rng(seed + 301)
        reports = []
        for i in range(20):
            abc, sc = oracles.random_power_freq_context(rng)
            reports.append(oracles.grid_subproblem(*abc, sc, args.grid_n, seed=seed + i))
        return reports

    suites["power-freq-grid"] = power_freq

    def full_grid():
        rng = np.random.default_rng(seed + 401)
        reports = []
        attempts = 0
        while len(reports) < FULL_GRID_CASES and attempts < FULL_GRID_ATTEMPTS:
            attempts += 1
            net, sc, ap = oracles.random_test_case(rng)
            rep = oracles.grid_full(net, sc, ap, seed=seed + len(reports))
            if "both_infeasible" not in rep.stats:
                reports.append(rep)
        found = len(reports)
        if found < FULL_GRID_CASES:
            reports.append(oracles.OracleReport(
                name="full-grid-median", trials=found, passed=False,
                worst_violation=math.inf, tolerance=0.05, seed=seed + 401,
                stats={"attempts": attempts, "cases_found": found,
                       "cases_needed": FULL_GRID_CASES}))
            return reports
        # a case the solver calls infeasible but the grid solves has no gap
        # stat; its worst_violation is inf
        gaps = sorted(r.worst_violation for r in reports)
        median = gaps[len(gaps) // 2]
        reports.append(oracles.OracleReport(
            name="full-grid-median", trials=found, passed=median <= 0.05,
            worst_violation=median, tolerance=0.05, seed=seed + 401,
            stats={"median_gap": median, "max_gap": gaps[-1],
                   "attempts": attempts}))
        return reports

    suites["full-grid"] = full_grid
    suites["margin"] = lambda: [
        oracles.margin_experiment(oracles.MarginTaskSpec(), rho=0.8, bits=8,
                                  trials=max(trials, 10000), seed=seed + 501)]
    return suites


def cmd_validate(cfg: RunConfig, args, out_dir: Path) -> int:
    for flag, value, top in (("--trials", args.trials, MAX_TRIALS),
                             ("--grid-n", args.grid_n, MAX_GRID_N)):
        if not 1 <= value <= top:
            raise ConfigError(f"{flag} must lie in 1..{top}, got {value}")
    suites = _validate_suites(cfg, args)
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        reports = suites[name]()
        ok = all(r.passed for r in reports)
        all_ok &= ok
        worst = max(r.worst_violation for r in reports)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {len(reports)} report(s), "
              f"worst violation {worst:.3g}")
        payload = sanitize_floats({"suite": name, "passed": ok,
                                   "config": cfg.resolved,
                                   "reports": [r.to_dict() for r in reports]})
        _write_all(out_dir, [(f"validate_{name}.json",
                              lambda p: optimizer.dump_json(p, payload))])
    return 0 if all_ok else 1


def cmd_fit_r0(cfg: RunConfig, args, out_dir: Path) -> int:
    try:
        data = np.loadtxt(args.samples, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read samples: {err}") from err
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError("samples CSV must have two columns: power, accuracy")
    if not np.all(np.isfinite(data)):
        raise ConfigError("samples CSV has non-finite entries")
    try:
        a, b = fit_accuracy_curve(data)
    except ValueError as err:
        raise ConfigError(f"cannot fit samples: {err}") from err
    payload = {"a": a, "b": b, "n_samples": int(data.shape[0]), "config": cfg.resolved}
    _write_all(out_dir, [("fit_r0.json", lambda p: optimizer.dump_json(p, payload))])
    print(f"a={a!r} b={b!r}")
    return 0


def cmd_sense_demo(cfg: RunConfig, args, out_dir: Path) -> int:
    echo = sensing.generate_echo(cfg.echo, seed=cfg.seed)
    proc = cfg.echo_processing
    r2 = proc["svd_r2"] or min(echo.shape)
    filtered = sensing.clutter_filter(echo, proc["svd_r1"], r2)
    spec = sensing.spectrogram(filtered, proc["window_len"], proc["hop"])
    path = out_dir / "spectrogram.csv"
    _write_all(out_dir, [(path.name, lambda p: np.savetxt(p, spec[None, :], delimiter=","))])
    print(f"echo {echo.shape[0]}x{echo.shape[1]} -> spectrogram of "
          f"{spec.size} bins (norm {np.linalg.norm(spec):.3f}) -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
