"""Identity check of the solver's answers over a fixed set of 3788 solves.

Run from the repository root:

    python tests/identity.py

It prints `<solves> <sha256> <E(rho) evaluations>`: the number of solves,
the sha256 of their `repr(Solution)`s joined by newlines, and the number of
`PairEnergy._record` calls they made. Equal hashes mean bit-identical
answers, reasons and iteration counts. It exits 1, with "identity hash
moved", unless the solve count and the hash are `EXPECTED`, and with "too
many E(rho) evaluations" where the count is above `MAX_EVALUATIONS`. A
change that moves the answers on purpose updates `EXPECTED`; one that
saves evaluations lowers `MAX_EVALUATIONS`. The solves, in order:

1. the solve operations of the benchmark workloads (`benchmarks/workloads`)
   at seeds 301 and 9001, workloads in `workloads.NAMES` order, each
   operation solved by the four `optimizer.ORIGINS` in turn;
2. 400 `oracles.random_test_case` draws of `default_rng(7000)`, each by the
   four origins;
3. `optimizer.sweep` on the stock config over `util.SWEEPS`, in its order.

Not a pytest module: pytest collects only `test_*.py`.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

import workloads  # noqa: E402
from isccopt import optimizer, oracles  # noqa: E402
from util import SWEEPS, stock_config  # noqa: E402

EXPECTED = "3788 a96476b5f6e3ef044cd545229f5e60d5918aa803272e85c342046fe792b6d3ac"
# the E(rho) evaluations the solves make with tangent keys (31,045 with
# the chain bound alone)
MAX_EVALUATIONS = 29341


def cases():
    """(net, scenario, accuracy, origin) of each solve, in order."""
    stock = workloads.load_stock()
    for seed in (301, 9001):
        for name in workloads.NAMES:
            for op in workloads.build(name, seed, stock).solves:
                for origin in optimizer.ORIGINS:
                    yield op.net, op.scenario, op.accuracy, origin
    rng = np.random.default_rng(7000)
    for _ in range(400):
        net, sc, ap = oracles.random_test_case(rng)
        for origin in optimizer.ORIGINS:
            yield net, sc, ap, origin


def main():
    calls = [0]
    record = optimizer.PairEnergy._record

    def counted(self, *args):
        calls[0] += 1
        return record(self, *args)

    optimizer.PairEnergy._record = counted
    sols = [optimizer._enumerate(*case) for case in cases()]
    cfg = stock_config()
    for axis, values in SWEEPS.items():
        sols += [row.solution for row in optimizer.sweep(cfg.network, cfg.scenario,
                                                          cfg.accuracy, axis, values)]
    digest = hashlib.sha256("\n".join(map(repr, sols)).encode()).hexdigest()
    line = f"{len(sols)} {digest}"
    print(line, calls[0])
    if line != EXPECTED:
        sys.exit("identity hash moved")
    if calls[0] > MAX_EVALUATIONS:
        sys.exit(f"too many E(rho) evaluations: {calls[0]} > {MAX_EVALUATIONS}")


if __name__ == "__main__":
    main()
