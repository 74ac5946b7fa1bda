"""Outside-in span tracing of the isccopt layers.

The program carries no instrumentation of its own, so the tracer replaces
public functions with timing wrappers at every name a caller looks them up
by: the home module and every isccopt module that imported the function by
name (`optimizer` imports `solve_rho_ps`, `solve_pc_nue` and
`min_sensing_power`; `solvers` imports `min_sensing_power`). Functions
looked up through their module, such as `netmodel.cum_flops`, are wrapped
once. Spans (name, start, end, parent, raised) are kept in flat arrays in
memory and written out when the run ends. A function missing from the
program is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "isccopt"
TRACED = (
    ("netmodel", "cum_flops"),
    ("accuracy", "min_sensing_power"),
    ("solvers", "solve_rho_ps"),
    ("solvers", "golden_section"),
    ("solvers", "solve_pc_nue"),
    ("solvers", "lambert_w0"),
    ("cost", "total_cost"),
    ("optimizer", "alternate_inner"),
    ("optimizer", "penalty_terms"),
    ("optimizer", "solve_scenario"),
    ("optimizer", "solve_baseline"),
    ("sensing", "generate_echo"),
    ("sensing", "clutter_filter"),
    ("sensing", "spectrogram"),
    ("quant", "quantize_vector"),
    ("oracles", "mc_pruning_expectation"),
    ("oracles", "mc_quant_check"),
    ("oracles", "margin_experiment"),
)


class Tracer:
    """Records one span per call of every TRACED function while installed.

    `inner_calls` keeps (span, l, q, rounds) for each `alternate_inner` call
    that returns, so inner solves can be grouped by their (l, q) pair.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.inner_calls: list[tuple[int, int, int | None, int]] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, raised, stack = self.parent, self.raised, self._stack
        clock = time.perf_counter
        inner = self.inner_calls if label == "optimizer.alternate_inner" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if inner is not None:
                l, q = args[:2] if len(args) >= 2 else (kwargs["l"], kwargs["q"])
                inner.append((i, l, q, result.iterations))
            return result

        return traced

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name.startswith(PACKAGE + ".") and m is not None]
        for home, name in TRACED:
            mod = sys.modules.get(f"{PACKAGE}.{home}")
            original = getattr(mod, name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{home}.{name}", original)
            for m in modules:
                if getattr(m, name, None) is original:
                    self._patched.append((m, name, original))
                    setattr(m, name, wrapper)
        return self

    def __exit__(self, *exc):
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "raised": np.frombuffer(self.raised, dtype=np.int8).copy()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, raised calls, inclusive and self time (ms).
        Self time is a span's duration minus the time its child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            sel = a["name_id"] == nid
            out[label] = {"calls": int(sel.sum()), "raised": int(a["raised"][sel].sum()),
                          "ms": float(dur[sel].sum()) * 1e3,
                          "self_ms": float(self_time[sel].sum()) * 1e3}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
