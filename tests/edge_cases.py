"""The CLI's edge cases, one row each: the command, the config, the exit code
and the stderr text it must give, and why.

Run from the repository root, with the package installed:

    python tests/edge_cases.py

It runs every row through the `isccopt` console script on PATH, prints one
line per row and exits 1 if any row fails. Tier-1 runs the same rows
in-process through `cli.main` (`test_config_cli.test_edge_case`), and its
whole-domain property test takes each row's config as an example. A row
passes when its run
- exits with the row's code, with no traceback on stderr and the row's
  stderr text, if it has one;
- writes no answer with a number that is not finite, and on exit 0 of
  solve, baseline or sweep writes exactly one answer JSON;
- on exit 3 or 4, writes or changes no file and makes no directory: a
  failed run leaves no empty `out` behind.

Each row runs in an empty directory of its own, with `--out` left at its
default `out`. A row with overrides gets `--config config.json`, holding
them; its `files` (a path in that directory -> text, or None for a
directory) are made before the run. A new fail-closed case is one more
row.

Not a pytest module: pytest collects only `test_*.py`.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

TIMEOUT_S = 600   # a run past this is a hang
ANSWERING = ("solve", "baseline", "sweep")   # the commands that write one answer JSON


class Case(NamedTuple):
    name: str
    argv: list
    overrides: dict | None
    exit: int
    stderr: str | None
    reason: str
    files: dict | None = None


def fc_stack(depth, width, seed, **scenario):
    """Overrides for a fully connected stack of `depth` layers: 256 inputs,
    `width` units per hidden layer and 10 outputs, weights of `seed` scaled
    to norms sqrt(2*n*n_prev)/50, every split allowed, and the `scenario`
    fields given."""
    layers = ([{"kind": "fc", "n": width, "n_prev": 256}]
              + [{"kind": "fc", "n": width, "n_prev": width}] * (depth - 2)
              + [{"kind": "fc", "n": 10, "n_prev": width}])
    norms = [round(math.sqrt(2 * r["n"] * r["n_prev"]) / 50, 3) for r in layers]
    return {"network": {"input_dim": 256, "layers": layers, "weight_seed": seed,
                        "target_norms": norms},
            "scenario": {"splits": list(range(depth + 1)), **scenario}}


def _near_linear_samples():
    # 10 noisy samples of 0.31*atan(466 p) with 466 p <= 0.22
    p = np.linspace(0.022, 0.22, 10) / 466.0
    acc = 0.31 * np.arctan(466.0 * p) + np.random.default_rng(39).normal(0.0, 2e-3, 10)
    return "".join(f"{u!r},{v!r}\n" for u, v in zip(p.tolist(), acc.tolist()))


ON_SERVER = "baseline --kind on_server".split()
ON_DEVICE = "baseline --kind on_device".split()
NO_PRUNE = "baseline --kind no_prune".split()
HUGE_NU_MAX_SWEEP = "sweep --axis t_max --values 0.55,0.8".split()
LOG1P_RATE = ("the raw-input upload's SNR g*p_c falls below the rounding of 1 + SNR: "
              "the rate stays positive (log1p), not a division of the payload by 0")
HUGE_NU_MAX = ("the raw-input split computes nothing on the edge and reports nu_e = "
               "nu_max, whose square overflows: its edge energy is 0, not an OverflowError")
TINY_S = ("the accuracy margin factor (w/(c_m s))^2 overflows below about s = 1e-153 and "
          "saturates, not raises: the on-device pair answers")
NORMAL_UPLOAD = ("the raw-input upload's power underflows to 0 or to a subnormal: the "
                 "upload stops where it is still a normal float")
COUNT_BELOW_ONE = "a count below one is refused before any suite runs"
NULL_RATE = ("the uplink rate underflows to 0: the device's split uploads no bits and "
             "costs nothing to upload, not 0 bits divided by a rate of 0")

CASES = [
    Case("sense-demo", ["sense-demo"], None, 0, None,
         "the stock echo runs through the clutter filter into a spectrogram"),
    Case("solve", ["solve"], None, 0, None,
         "solve, baseline and sweep exit 4 when an answer fails check_feasible, so each "
         "origin's stock answer gates here"),
    Case("on_server", ON_SERVER, None, 0, None, "the stock raw-input upload answers"),
    Case("on_device", ON_DEVICE, None, 0, None, "the stock on-device split answers"),
    Case("no_prune", NO_PRUNE, None, 0, None, "the stock unpruned search answers"),
    Case("sweep", "sweep --axis t_max --values 0.55,1.0,1.8".split(), None, 0, None,
         "every origin answers at every t_max of a stock sweep"),
    Case("validate-all", "validate --suite all --trials 20".split(), None, 0, None,
         "validate exits 1 when a suite fails; the suites that raise --trials to 1000 "
         "or 10000, or take none, run as they are"),
    Case("validate-pruning-mean", "validate --suite pruning-mean".split(), None, 0, None,
         "pruning-mean at its default --trials 200, which --trials 20 leaves ungated"),
    Case("fit-r0-near-linear", "fit-r0 --samples samples.csv".split(), None, 3,
         "fix only the product a*b",
         "samples with b*p <= 0.22 fix only a*b, and the fit must say so, not answer "
         "(and make no output directory)",
         files={"samples.csv": _near_linear_samples()}),
    Case("sweep-bad-values", "sweep --axis t_max --values abc".split(), None, 3,
         "config error: bad sweep values",
         "a sweep value that is not a number is refused before any solve, and no "
         "output directory is made"),
    Case("sweep-snr-1e-320", "sweep --axis snr --values 1e-320".split(), None, 3,
         "too small for any uplink rate",
         "an SNR at p_max with no finite inverse rate is refused before any solve"),
    Case("fit-r0-one-row", "fit-r0 --samples samples.csv".split(), None, 3,
         "need at least two samples",
         "a one-row samples file has two columns, but the fit needs two samples",
         files={"samples.csv": "0.1,0.5\n"}),
    Case("validate-trials-zero", "validate --suite pruning-mean --trials 0".split(), None, 3,
         "--trials must lie in 1..", COUNT_BELOW_ONE),
    Case("validate-grid-n-negative", "validate --suite power-freq-grid --grid-n -3".split(),
         None, 3, "--grid-n must lie in 1..", COUNT_BELOW_ONE),
    Case("validate-grid-n-zero", "validate --suite power-freq-grid --grid-n 0".split(), None,
         3, "--grid-n must lie in 1..", COUNT_BELOW_ONE),
    Case("sense-demo-negative-seed", "sense-demo --seed -1".split(), None, 3,
         "seed must be nonnegative", "a negative seed is refused, not wrapped"),
    Case("out-is-a-file", ["solve"], None, 3, "config error: cannot write output out",
         "an --out that names an existing file is refused and left as it was",
         files={"out": "keep"}),
    Case("solution-json-is-a-directory", ["solve"], None, 3,
         "config error: cannot write output out/solution.json",
         "a solution.json taken by a directory is refused, with no solution.csv left",
         files={"out/solution.json": None}),
    Case("layers-not-an-array", ["solve"], {"network": {"layers": 5}}, 3,
         "network.layers must be a JSON array", "a malformed network names its key"),
    Case("clutter-doppler", ["sense-demo"],
         {"echo": {"clutter": [{"delay": 1e-6, "gain": 1.0, "doppler_hz": 500}]}}, 3,
         "['doppler_hz'] in echo.clutter[0]",
         "clutter is static: a Doppler key in a clutter record is unknown, not dropped"),
    Case("t_max-7.2e67", ["solve"], {"scenario": {"t_max": 7.196129813053469e+67}}, 0, None,
         "the answer's latency slack rounds to about -1.2e52 s, an ulp of t_max, and the "
         "latency check forgives it"),
    Case("t_max-1e155", ["solve"], {"scenario": {"t_max": 1e155}}, 0, None,
         "the relaxed bound's edge term is a frequency squared and does not overflow"),
    Case("t_max-1e200", ["solve"], {"scenario": {"t_max": 1e200}}, 0, None,
         "a deadline far past any upload or compute time solves"),
    Case("t_max-1e300", ["solve"], {"scenario": {"t_max": 1e300}}, 0, None,
         "a deadline far past any upload or compute time solves"),
    Case("t_max-1e308", ["solve"], {"scenario": {"t_max": 1e308}}, 0, None,
         "the relaxed bound's upload time overflows, and its upload term takes its "
         "limit, not inf*0 = NaN"),
    Case("t_max-1e15-on_server", ON_SERVER, {"scenario": {"t_max": 1e15}}, 0, None,
         LOG1P_RATE),
    Case("t_max-1e200-on_server", ON_SERVER, {"scenario": {"t_max": 1e200}}, 0, None,
         LOG1P_RATE),
    Case("t_max-1e300-on_server", ON_SERVER, {"scenario": {"t_max": 1e300}}, 0, None,
         LOG1P_RATE),
    Case("t_max-1e200-sweep-snr", "sweep --axis snr --values 10,100".split(),
         {"scenario": {"t_max": 1e200}}, 0, None, LOG1P_RATE),
    Case("t_max-1e308-on_server", ON_SERVER, {"scenario": {"t_max": 1e308}}, 0, None,
         "the raw-input upload time t2/a1 overflows: the upload takes t2 at a positive "
         "power, not p_c = 0 with an infinite latency"),
    Case("s-1e-100", ["solve"], {"accuracy": {"s": 1e-100}}, 0, None, TINY_S),
    Case("s-1e-160", ["solve"], {"accuracy": {"s": 1e-160}}, 0, None, TINY_S),
    Case("s-1e-300", ["solve"], {"accuracy": {"s": 1e-300}}, 0, None, TINY_S),
    Case("f_max-1e200", ["solve"], {"accuracy": {"f_max": 1e200}}, 0, None,
         "the quantization coefficient (f_max - f_min)^2 overflows and saturates: every "
         "uploading pair misses the accuracy target, and the device answers"),
    Case("f_max-1e200-on_server", ON_SERVER, {"accuracy": {"f_max": 1e200}}, 2,
         "l=0 q=6: margin_penalty", "the raw-input upload misses the accuracy target "
         "there, and names why"),
    Case("p_max-1e-300", ["solve"], {"scenario": {"p_max": 1e-300}}, 2,
         "l=7 q=2: sensing_power_cap",
         "p_max = 1e-300 leaves a tiny but positive uplink rate, so the config is not "
         "refused: every pair is rejected, and names why"),
    Case("kappa-1e300", ["solve"], {"scenario": {"kappa": 1e300}}, 0, None,
         "the edge energy of every pair that computes on the device overflows: those "
         "pairs are rejected (energy_overflow), not the search"),
    Case("kappa-1e300-on_device", ON_DEVICE, {"scenario": {"kappa": 1e300}}, 2,
         "l=7 q=2: energy_overflow", "on_device's one pair overflows: exit 2, naming why"),
    Case("kappa-1e308", ["solve"], {"scenario": {"kappa": 1e308}}, 0, None,
         "2*kappa*g overflows too, and the KKT solve's frequency rounds to 0"),
    Case("nu_max-1e155-on_server", ON_SERVER, {"scenario": {"nu_max": 1e155}}, 0, None,
         HUGE_NU_MAX),
    Case("nu_max-1e300-on_server", ON_SERVER, {"scenario": {"nu_max": 1e300}}, 0, None,
         HUGE_NU_MAX),
    Case("nu_max-max-on_server", ON_SERVER, {"scenario": {"nu_max": sys.float_info.max}},
         0, None, HUGE_NU_MAX),
    Case("nu_max-1e155-sweep", HUGE_NU_MAX_SWEEP, {"scenario": {"nu_max": 1e155}}, 0, None,
         HUGE_NU_MAX),
    Case("nu_max-1e300-sweep", HUGE_NU_MAX_SWEEP, {"scenario": {"nu_max": 1e300}}, 0, None,
         HUGE_NU_MAX),
    Case("nu_max-max-sweep", HUGE_NU_MAX_SWEEP, {"scenario": {"nu_max": sys.float_info.max}},
         0, None, HUGE_NU_MAX),
    Case("deep-stack", ["solve"], fc_stack(12, 128, 20), 0, None,
         "the best pair of a 12-layer stack prunes within 1e-6 of rho = 1, where u(rho)'s "
         "closed form cancels: u is summed from its series"),
    Case("stack-nu_max-1e155", ["solve"], fc_stack(2, 16, 0, nu_max=1e155), 0, None,
         "a 2-layer stack's on-device split, pruned to no FLOPs at the bottom of its rho "
         "range, neither uploads nor computes: its energy is 0, not nu_max^2 overflowing"),
    Case("stack-nu_max-1e155-on_device", ON_DEVICE, fc_stack(2, 16, 0, nu_max=1e155), 0,
         None, "as stack-nu_max-1e155, the one pair on_device tries"),
    Case("snr_db--165-on_device", ON_DEVICE, {"scenario": {"snr_db": -165}}, 0, None,
         "log2(1 + g*p_max) rounds to 0, but the inverse rate through log1p stays "
         "positive: the config is not refused, and the device answers"),
    Case("snr_db--300-on_device", ON_DEVICE, {"scenario": {"snr_db": -300}}, 0, None,
         "as at -165 dB, 135 dB further below the rounding of 1 + SNR"),
    Case("tiny_upload-solve", ["solve"],
         {"accuracy": {"s": 1e10}, "scenario": {"bandwidth": 1e115, "t_max": 1e300}}, 0,
         None, "the upload time t2/a1 overflows: the KKT search stops where the upload's "
         "power expm1(ln2/t)/g is still normal, not at t = inf and nu_e = 0"),
    Case("tiny_upload-no_prune", NO_PRUNE,
         {"accuracy": {"s": 1e10}, "scenario": {"bandwidth": 1e115, "t_max": 1e300}}, 0,
         None, "as tiny_upload-solve, on the unpruned pairs"),
    Case("snr_db-271.1", ON_SERVER, {"scenario": {"snr_db": 271.1, "t_max": 1e300}}, 0,
         None, NORMAL_UPLOAD),
    Case("snr_db-3031.5", ON_SERVER, {"scenario": {"snr_db": 3031.5, "bandwidth": 1.7e60}},
         0, None, NORMAL_UPLOAD),
    Case("bandwidth-4.4e11", ON_SERVER,
         {"scenario": {"bandwidth": 436098046991.4267, "t_max": 1e300}}, 0, None,
         NORMAL_UPLOAD),
    Case("null_rate-on_device", ON_DEVICE,
         {"scenario": {"bandwidth": 5.9e-187, "snr_db": -1523.0}}, 0, None, NULL_RATE),
    Case("null_rate-sweep", "sweep --axis t_max --values 0.55,0.8,1.0".split(),
         {"scenario": {"bandwidth": 5.9e-187, "snr_db": -1523.0}}, 0, None, NULL_RATE),
]
CASE = {case.name: case for case in CASES}


def answers_of(payload):
    """The solutions in a solve, baseline or sweep JSON payload; none in
    another command's."""
    if "rows" in payload:
        return [row["solution"] for row in payload["rows"]]
    return [payload["solution"]] if "solution" in payload else []


def _finite(sol):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in (*sol["allocation"].values(), *sol["cost"].values()))


def written_answers(command, rc, out):
    """The answers a run of `command` (solve, sweep, ...) that exited with
    `rc` wrote under `out`, and the ways they break the table's rules: on
    exit 0, solve, baseline and sweep write exactly one JSON, and no
    feasible answer holds a number that is not a finite float."""
    paths = sorted(path for path in Path(out).glob("*.json") if path.is_file())
    answers = [sol for path in paths for sol in answers_of(json.loads(path.read_text()))]
    problems = []
    if rc == 0 and command in ANSWERING and len(paths) != 1:
        problems.append(f"{len(paths)} answer files written, not one")
    if any(sol["feasible"] and not _finite(sol) for sol in answers):
        problems.append("an answer with a number that is not finite")
    return answers, problems


def _tree(root):
    """Every file under root with its bytes, and every directory (None)."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def config_args(case, root):
    """Write the row's config and files into `root`; return the arguments
    that name the config, if any."""
    for name, text in (case.files or {}).items():
        path = root / name
        if text is None:
            path.mkdir(parents=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    if case.overrides is None:
        return []
    (root / "config.json").write_text(json.dumps(case.overrides))
    return ["--config", "config.json"]


def run(case, root, call, command=None):
    """Run `command`, or else the row's own, on the config and files of
    `case` in the empty directory `root` by call(argv), which runs the CLI
    there and returns its exit code and stderr. Returns the exit code, the
    stderr, the answers written and the ways the run breaks the row."""
    command = command or case.argv
    argv = [*command, *config_args(case, root)]
    before = _tree(root)
    rc, err = call(argv)
    answers, problems = written_answers(command[0], rc, root / "out")
    if rc != case.exit:
        problems.append(f"exit {rc}, expected {case.exit}")
    if "Traceback" in err:
        problems.append("a traceback on stderr")
    if case.stderr is not None and case.stderr not in err:
        problems.append(f"no {case.stderr!r} on stderr")
    if rc in (3, 4) and _tree(root) != before:
        problems.append(f"exit {rc} wrote or changed a file or directory")
    return rc, err, answers, problems


def console(exe, cwd, argv):
    """Run the console script `exe` in `cwd`; return its exit code (None
    past TIMEOUT_S) and stderr."""
    try:
        proc = subprocess.run([exe, *argv], cwd=cwd, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no exit within {TIMEOUT_S} s\n"
    return proc.returncode, proc.stderr


def main():
    exe = shutil.which("isccopt")
    if exe is None:
        sys.exit("no isccopt console script on PATH: install the package "
                 "(pip install -e .) first")
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            rc, err, _, problems = run(case, Path(tmp),
                                       lambda argv: console(exe, tmp, argv))
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok'} {case.name}: exit {rc}"
              + "".join(f"; {p}" for p in problems))
        if problems:
            print(err, end="")
    print(f"{len(CASES) - failed} of {len(CASES)} edge cases pass")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
