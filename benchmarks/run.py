"""isccopt benchmark: one workload, one process, one thread, closed loop.

    python3 benchmarks/run.py --workload stock-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/`; the
stock scenario is `configs/tableII.json`. Each operation starts only after
the previous one returns, and BLAS is pinned to one thread.

`--trace 0` times the workload's solve, sense and validate phases for their
shares of `--seconds` and prints every end-to-end metric. Each operation
runs between two runs of a calibration kernel, and its time is scaled to
the reference machine speed (see `calibration.py`); the unscaled figures
are printed as `raw` lines. `--trace 1` runs
each distinct operation once untraced and twice under the outside-in tracer
and prints the per-layer metrics. Both check every output; the last stdout
line is the JSON result. Details, the environment and (traced) the spans go
to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"   # before numpy loads; child processes inherit it

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from isccopt import cost, optimizer, oracles, sensing
    from isccopt.quant import QuantSpec

    import calibration
    import reference
    import workloads
    from tracer import Tracer
except ImportError as _err:   # reported by main(): the checkout lacks the program
    IMPORT_ERROR = _err
else:
    IMPORT_ERROR = None

OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120.0
ENERGY_RTOL = 1e-9
PHASES = ("solve", "sense", "validate")
# calibration kernel bracketing each operation of a phase
KERNEL_OF = {"solve": "scalar", "sense": "array", "validate": "array"}

END_TO_END_UNITS = {
    "setup_s": "s", "solve_ms_p50": "ms", "solve_ms_p90": "ms", "solves_per_s": "1/s",
    "energy_regret_median": "ratio", "energy_regret_max": "ratio",
    "sense_ms_p50": "ms", "sense_ms_p90": "ms", "validate_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, load the config and build the inputs")
    return p.parse_args(argv)


# --- operations -------------------------------------------------------------

def run_solve(op):
    if op.origin == "proposed":
        return optimizer.solve_scenario(op.net, op.scenario, op.accuracy)
    return optimizer.solve_baseline(op.origin, op.net, op.scenario, op.accuracy)


def run_sense(op):
    """Echo -> clutter filter -> spectrogram; also returns the bytes the
    three stages read and write, computed from the array sizes."""
    proc = op.processing
    echo = sensing.generate_echo(op.echo, seed=op.seed)
    filtered = sensing.clutter_filter(echo, proc["svd_r1"],
                                      proc["svd_r2"] or min(echo.shape))
    spec = sensing.spectrogram(filtered, proc["window_len"], proc["hop"])
    return spec, 2 * echo.nbytes + 2 * filtered.nbytes + spec.nbytes


def run_validate(op):
    """One suite call with the arguments `isccopt validate --trials
    <op.trials>` passes it."""
    if op.suite == "pruning-mean":
        lam, rho = op.args
        return oracles.mc_pruning_expectation(100000, lam, rho, op.trials, seed=op.seed)
    if op.suite == "quantizer":
        (bits,) = op.args
        return oracles.mc_quant_check(QuantSpec(bits=bits, f_min=op.f_min, f_max=op.f_max),
                                      n=100, trials=max(op.trials, 10000), seed=op.seed)
    return oracles.margin_experiment(oracles.MarginTaskSpec(), rho=0.8, bits=8,
                                     trials=max(op.trials, 10000), seed=op.seed)


RUNNERS = {"solve": run_solve, "sense": run_sense, "validate": run_validate}


def fingerprint(phase, out) -> str | bytes:
    """Exact identity of an output (floats by repr, arrays by bytes)."""
    if phase == "sense":
        return out[0].tobytes()
    return repr(out)


# --- output checks ----------------------------------------------------------

def check_solve(op, sol, ref) -> list[str]:
    net, sc, ap = op.net, op.scenario, op.accuracy
    if op.origin == "on_server":
        expected, splits = {(0, sc.q_max)}, {0}
    elif op.origin == "on_device":
        expected, splits = {(net.depth, 2)}, {net.depth}
    else:
        expected, splits = set(reference.pairs(net, sc)), None
    if not sol.feasible:
        fails = []
        got = [(l, q) for l, q, _ in sol.reasons]
        if len(got) != len(expected) or set(got) != expected:
            fails.append(f"infeasible with {len(got)} reasons for {len(expected)} pairs")
        ref_e = {"proposed": ref.best, "no_prune": ref.no_prune,
                 "on_device": ref.on_device}.get(op.origin, math.inf)
        if math.isfinite(ref_e):
            fails.append(f"infeasible, but the reference grid reaches {ref_e!r} J")
        return fails
    a = sol.alloc
    fails = []
    report = cost.check_feasible(a, net, sc, reference.penalty_terms(net, a.l, ap), ap,
                                 splits=splits)
    if not report.ok:
        fails.append("check_feasible: " + ", ".join(
            f"{c.name} slack {c.slack!r}" for c in report.checks if not c.ok))
    e_again = cost.total_cost(a, net, sc).e_total
    if not abs(e_again - sol.e_total) <= ENERGY_RTOL * abs(sol.e_total):
        fails.append(f"total_cost gives {e_again!r}, solution stores {sol.e_total!r}")
    return fails


def check_sense(out) -> list[str]:
    spec = out[0]
    if not np.all(np.isfinite(spec)):
        return ["non-finite spectrogram"]
    norm = float(np.linalg.norm(spec))
    return [] if abs(norm - 1.0) <= 1e-9 else [f"spectrogram norm {norm!r}"]


def check_validate(report) -> list[str]:
    return [] if report.passed else [
        f"{report.name} FAIL (worst violation {report.worst_violation!r})"]


# --- running phases ---------------------------------------------------------

class Phase:
    """Operations of one kind with their timings and outputs; outputs are
    checked after the timed region."""

    def __init__(self, name, ops, share=0.0):
        self.name, self.ops, self.share = name, ops, share
        self.kernel = KERNEL_OF[name]
        self.runs: list[tuple[int, float, object]] = []   # (op index, seconds, output)
        self.kernel_s: list[float] = []   # mean kernel time around each run
        self.busy = 0.0

    def step(self):
        """Run the next operation of the cycle between two runs of the
        phase's calibration kernel and record it."""
        i = len(self.runs) % len(self.ops)
        before = calibration.kernel_time(self.kernel)
        t0 = time.perf_counter()
        try:
            out = RUNNERS[self.name](self.ops[i])
        except Exception as err:   # recorded as a failed operation
            out = err
        dt = time.perf_counter() - t0
        after = calibration.kernel_time(self.kernel)
        self.runs.append((i, dt, out))
        self.kernel_s.append(0.5 * (before + after))
        self.busy += dt

    def case_times(self, origin: str | None = None, scaled: bool = True) -> list[float]:
        """Median time (seconds) of each distinct operation over its
        repeats; scaled to the reference machine speed unless `scaled` is
        false."""
        ref = calibration.REFERENCE_S[self.kernel]
        times: dict[int, list[float]] = {}
        for (i, dt, _), k in zip(self.runs, self.kernel_s):
            if origin is None or self.ops[i].origin == origin:
                times.setdefault(i, []).append(dt * ref / k if scaled else dt)
        return [statistics.median(t) for t in times.values()]


def run_phases(phases: list[Phase], seconds: float) -> None:
    """Closed loop until `seconds` have passed and every operation has run
    once. Phases are interleaved: the next operation comes from the phase
    furthest below its share of the elapsed time, so slow drifts in machine
    speed reach every metric alike. seconds=0 runs each operation once,
    phase after phase."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        todo = [p for p in phases if len(p.runs) < len(p.ops)]
        if elapsed >= seconds:
            if not todo:
                return
            todo[0].step()
        else:
            max(phases, key=lambda p: p.share * elapsed - p.busy).step()


def judge(phases: list[Phase], refs) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages). An op fails when it raised,
    when its output fails a check, or when a repeat differs from its first
    output. An infeasible scenario is a correct outcome."""
    attempted = failed = 0
    messages = []
    for ph in phases:
        first: dict[int, tuple] = {}
        for i, _, out in ph.runs:
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                messages.append(f"{ph.name}[{i}] raised {out!r}")
                continue
            if i not in first:
                op = ph.ops[i]
                if ph.name == "solve":
                    fails = check_solve(op, out, refs[op.label])
                elif ph.name == "sense":
                    fails = check_sense(out)
                else:
                    fails = check_validate(out)
                first[i] = (fingerprint(ph.name, out), fails)
                messages += [f"{ph.name}[{i}] {f}" for f in fails]
            ref_print, fails = first[i]
            if fails:
                failed += 1
            elif fingerprint(ph.name, out) != ref_print:
                failed += 1
                messages.append(f"{ph.name}[{i}] repeat differs from its first output")
    return attempted, failed, messages


def regret(solve_phase: Phase, refs) -> tuple[list[float], int]:
    """e_total / e_ref over the distinct feasible proposed solves, and the
    number of those the reference grid found no feasible point for."""
    ratios, missing, seen = [], 0, set()
    for i, _, sol in solve_phase.runs:
        op = solve_phase.ops[i]
        if i in seen or op.origin != "proposed" or isinstance(sol, Exception):
            continue
        seen.add(i)
        if not sol.feasible:
            continue
        e_ref = refs[op.label].best
        if math.isfinite(e_ref):
            ratios.append(sol.e_total / e_ref)
        else:
            missing += 1
    return ratios, missing


def pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# --- setup and environment --------------------------------------------------

def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the program, load the stock
    config (weights included) and build the workload inputs. The wait
    blocks: a wait with a timeout polls in sleeps of up to 50 ms, which
    rounds every time up to the next poll; a timer kills a hung probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def git_commit() -> str:
    """HEAD of the checkout read from .git without starting git; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """CPU, software versions, BLAS thread setting and commit of this run."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "commit": git_commit()}


# --- metrics ----------------------------------------------------------------

def end_to_end(phases: dict, refs, setup: list[float], scaled: bool = True) -> dict:
    """End-to-end metrics; times at the reference machine speed unless
    `scaled` is false."""
    solve, sense, validate = phases["solve"], phases["sense"], phases["validate"]
    proposed_ms = [t * 1e3 for t in solve.case_times("proposed", scaled)]
    sense_ms = [t * 1e3 for t in sense.case_times(None, scaled)]
    solve_s = solve.case_times(None, scaled)
    ratios, _ = regret(solve, refs)
    if not ratios:
        raise RuntimeError("no feasible proposed solve with a reference energy")
    return {
        "setup_s": statistics.median(setup),
        "solve_ms_p50": pct(proposed_ms, 50),
        "solve_ms_p90": pct(proposed_ms, 90),
        "solves_per_s": len(solve_s) / sum(solve_s),
        "energy_regret_median": statistics.median(ratios),
        "energy_regret_max": max(ratios),
        "sense_ms_p50": pct(sense_ms, 50),
        "sense_ms_p90": pct(sense_ms, 90),
        "validate_s": sum(validate.case_times(None, scaled)),
    }


def samples(phases: dict, refs, setup: list[float]) -> dict:
    solve, sense, validate = phases["solve"], phases["sense"], phases["validate"]
    ratios, missing = regret(solve, refs)
    kernel = {name: {"median_s": statistics.median(p.kernel_s), "min_s": min(p.kernel_s),
                     "reference_s": calibration.REFERENCE_S[p.kernel]}
              for name, p in phases.items()}
    return {"setup_probes": len(setup), "setup_s_all": setup, "solves": len(solve.runs),
            "distinct_solves": len(set(i for i, *_ in solve.runs)),
            "solves_per_s_busy": len(solve.runs) / solve.busy,
            "distinct_regret_solves": len(ratios), "reference_missing": missing,
            "sense_chains": len(sense.runs), "validate_passes": len(validate.runs) / len(validate.ops),
            "kernel": kernel}


def per_layer(summary, tracer, phases, extra: dict) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    solve = phases["solve"]
    tried = rejected = 0
    for i, _, sol in solve.runs:
        if isinstance(sol, Exception):
            continue
        op = solve.ops[i]
        tried += (len(reference.pairs(op.net, op.scenario))
                  if op.origin in ("proposed", "no_prune") else 1)
        rejected += len(sol.reasons)
    parents = tracer.arrays()["parent"]
    kept = len({(int(parents[i]), l, q) for i, l, q, _ in tracer.inner_calls})
    inner_calls = get("optimizer.alternate_inner", "calls")
    msp_calls = get("accuracy.min_sensing_power", "calls")
    pc_calls = get("solvers.solve_pc_nue", "calls")
    m = {}
    for name in ("netmodel.cum_flops", "accuracy.min_sensing_power", "solvers.solve_rho_ps",
                 "solvers.solve_pc_nue", "optimizer.alternate_inner", "cost.total_cost",
                 "quant.quantize_vector"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_ms"] = get(name, "self_ms")
    for name in ("solvers.golden_section", "solvers.lambert_w0", "optimizer.penalty_terms"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("sensing.generate_echo", "sensing.clutter_filter", "sensing.spectrogram",
                 "oracles.mc_pruning_expectation", "oracles.mc_quant_check",
                 "oracles.margin_experiment"):
        m[f"{name}.ms"] = get(name, "ms")
    m["accuracy.min_sensing_power.reject_ratio"] = (
        get("accuracy.min_sensing_power", "raised") / msp_calls if msp_calls else 0.0)
    m["solvers.lambert_w0.per_pc_nue"] = (
        get("solvers.lambert_w0", "calls") / pc_calls if pc_calls else 0.0)
    m["optimizer.alternate_inner.rounds"] = sum(r for *_, r in tracer.inner_calls)
    m["optimizer.pairs_tried"] = tried
    m["optimizer.pairs_rejected"] = rejected
    m["optimizer.inner_kept_ratio"] = kept / inner_calls if inner_calls else 0.0
    m["sensing.bytes_computed"] = sum(out[1] for _, _, out in phases["sense"].runs
                                      if not isinstance(out, Exception))
    m.update(extra)
    return m


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ms"):
        return "ms"
    if last == "bytes_computed":
        return "bytes"
    if last in ("reject_ratio", "per_pc_nue", "inner_kept_ratio", "fail_frac"):
        return "ratio"
    return "count"


# --- main -------------------------------------------------------------------

def build_phases(wl) -> dict:
    return {name: Phase(name, getattr(wl, name + "s"), workloads.SHARES[name])
            for name in PHASES}


def timed_run(wl, refs, seconds: float, setup: list[float]):
    """End-to-end metrics of one closed-loop run of `seconds`."""
    phases = build_phases(wl)
    run_phases(list(phases.values()), seconds)
    attempted, failed, messages = judge(list(phases.values()), refs)
    metrics = end_to_end(phases, refs, setup)
    details = {"samples": samples(phases, refs, setup),
               "raw_metrics": end_to_end(phases, refs, setup, scaled=False)}
    return metrics, attempted, failed, messages, phases, details


def stock_solve_calls(tracer) -> dict:
    """Calls per traced function inside the first root span, which in the
    stock-sweep workload is the solve of the unmodified stock scenario."""
    a = tracer.arrays()
    roots = np.flatnonzero(a["parent"] == -1)
    end = roots[1] if roots.size > 1 else a["parent"].size
    ids = a["name_id"][roots[0]:end]
    return {name: int(np.count_nonzero(ids == nid)) for nid, name in enumerate(tracer.names)}


def traced_run(wl, refs, load_ms: float, spans_path: Path):
    """Per-layer metrics: each operation once untraced, then twice traced.
    The traced outputs must equal the untraced ones bit for bit and the two
    traced passes must count the same calls. A pass's time is the sum of
    its operations' times at reference speed."""
    passes = []
    for traced in (False, True, True):
        phases = build_phases(wl)
        tracer = Tracer() if traced else None
        if tracer is None:
            run_phases(list(phases.values()), 0.0)
        else:
            with tracer:
                run_phases(list(phases.values()), 0.0)
        passes.append((phases, tracer, sum(sum(p.case_times()) for p in phases.values())))
    attempted = failed = 0
    messages = []
    for phases, *_ in passes:
        a, f, msg = judge(list(phases.values()), refs)
        attempted, failed, messages = attempted + a, failed + f, messages + msg
    (plain, _, t_plain), (traced1, tr1, t_traced), (traced2, tr2, _) = passes
    sum1, sum2 = tr1.summary(), tr2.summary()
    attempted += 2
    for name in PHASES:
        prints = [[fingerprint(name, out) for _, _, out in p[name].runs
                   if not isinstance(out, Exception)] for p in (plain, traced1, traced2)]
        if not prints[0] == prints[1] == prints[2]:
            failed += 1
            messages.append(f"{name}: traced outputs differ from untraced outputs")
            break
    calls1 = {k: v["calls"] for k, v in sum1.items()}
    calls2 = {k: v["calls"] for k, v in sum2.items()}
    if calls1 != calls2 or tr1.inner_calls != tr2.inner_calls:
        failed += 1
        messages.append("per-layer counts differ between two traced passes")
    extra = {"config.load_config.ms": load_ms,
             "trace.overhead_ms": (t_traced - t_plain) * 1e3,
             "trace.spans": len(tr1.name_id),
             "fail_frac": failed / attempted}
    metrics = per_layer(sum1, tr1, traced1, extra)
    details = {"layers": sum1, "untraced_pass_s": t_plain, "traced_pass_s": t_traced}
    if wl.solves[0].label == "stock":
        details["stock_solve_calls"] = stock_solve_calls(tr1)
    tr1.save(spans_path)
    return metrics, attempted, failed, messages, plain, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"benchmark: cannot import the program from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed, workloads.load_stock())
        return 0

    setup = measure_setup(args.workload, args.seed)
    t0 = time.perf_counter()
    cfg = workloads.load_stock()
    load_ms = (time.perf_counter() - t0) * 1e3
    wl = workloads.build(args.workload, args.seed, cfg)
    # reference energies: once per distinct scenario, outside every timing
    refs = {}
    for op in wl.solves:
        if op.label not in refs:
            refs[op.label] = reference.reference_energy(op.net, op.scenario, op.accuracy)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, attempted, failed, messages, phases, details = traced_run(
            wl, refs, load_ms, OUT_DIR / f"spans-{stem}.npz")
    else:
        metrics, attempted, failed, messages, phases, details = timed_run(
            wl, refs, args.seconds, setup)
    units = {k: END_TO_END_UNITS.get(k) or unit_of(k) for k in metrics}

    env = {**environment(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    solve = phases["solve"]
    details.update(env=env, metrics=metrics, failures=messages, solves=[
        {"label": solve.ops[i].label, "origin": solve.ops[i].origin,
         "e_total": getattr(out, "e_total", None), "e_ref": refs[solve.ops[i].label].best}
        for i, _, out in solve.runs[:len(solve.ops)]])
    out_path = OUT_DIR / f"result-{stem}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1, default=str) + "\n")

    print("env " + json.dumps(env))
    for msg in messages[:20]:
        print("FAIL " + msg, file=sys.stderr)
    for k, v in metrics.items():
        print(f"  {k:45s} {v!r} {units[k]}")
    for k, v in details.get("raw_metrics", {}).items():
        print(f"  raw {k:41s} {v!r} {units[k]}")
    print(f"details -> {out_path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
