"""Spans around the public functions of quditmask, recorded from outside
the package.

Many modules import functions by name (`partial_trace` is bound in
`verify`, `meb` and `cli`; `mask` in `verify`; `ghz_basis` and
`two_qudit_meb` in `masker`), so a wrapper must replace the name in every
namespace that holds it, or the inner calls go unseen. `Tracer.patched()`
does that and restores the originals on exit.

A span is (name, start_ns, end_ns, parent, job, work). `work` is a count
taken at the call (bytes computed, states generated, inputs checked); the
root span of each job is named "job". Calls made outside a job, such as
the benchmark's own output checks, are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import quditmask
from quditmask import cli

COMPLEX_BYTES = 16

# Counts recorded on a span, keyed by span name: f(args, result) -> int.
WORK = {
    "tensorcore.partial_trace": lambda args, res: COMPLEX_BYTES * args[0].amps.size,
    "masker.mask": lambda args, res: COMPLEX_BYTES * args[0].w * args[0].d ** args[0].m,
    "meb.ghz_basis": lambda args, res: len(res.states),
    "meb.two_qudit_meb": lambda args, res: len(res.states),
    "masker.build_scheme": lambda args, res: 2 * res.w,
    "verify.verify_scheme": lambda args, res: res.w + res.n_samples,
}


def public_functions() -> dict[str, object]:
    """Span name -> function, for every function in `quditmask.__all__`
    plus the CLI entry point `cli.main`."""
    found = {"cli.main": cli.main}
    for name in quditmask.__all__:
        fn = getattr(quditmask, name)
        if inspect.isfunction(fn):
            found[f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"] = fn
    return found


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._job = None

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:  # the benchmark's own checks are not traced
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, t0 = None, time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                count = work(args, result) if work is not None and result is not None else 0
                spans[idx] = (name, t0, t1, parent, self._job, count)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every binding of each public function inside the
        quditmask package by its traced wrapper."""
        by_id = {id(fn): (name, fn) for name, fn in public_functions().items()}
        wrappers = {i: self._wrap(name, fn) for i, (name, fn) in by_id.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "quditmask" or n.startswith("quditmask.")]
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    undo.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._job = job_id
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._job = None
            self.spans[idx] = ("job", t0, t1, -1, job_id, 0)


def self_times(spans) -> list[int]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals per round of the workload's job mix, plus each
    layer's share of total job time."""
    own = self_times(spans)
    total_job_ns = sum(s[2] - s[1] for s in spans if s[0] == "job")
    self_ns, calls, work = {}, {}, {}
    for s, t in zip(spans, own):
        self_ns[s[0]] = self_ns.get(s[0], 0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
        work[s[0]] = work.get(s[0], 0) + s[5]

    # Basis states generated inside build_scheme, against the 2*w it uses.
    generated = sum(s[5] for s in spans if s[0] in ("meb.ghz_basis", "meb.two_qudit_meb")
                    and s[3] >= 0 and spans[s[3]][0] == "masker.build_scheme")
    used = work.get("masker.build_scheme", 0)

    out = {}

    def timed(name):
        out[f"{name}.self_ms"] = (self_ns.get(name, 0) / 1e6 / rounds, "ms")
        out[f"{name}.share"] = (self_ns.get(name, 0) / total_job_ns, "fraction")

    for name in ("tensorcore.partial_trace", "masker.mask"):
        out[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
        timed(name)
        out[f"{name}.bytes_computed"] = (work.get(name, 0) / rounds, "B")
    for name in ("masker.build_scheme", "masker.scheme_to_json_dict"):
        timed(name)
    out["meb.ghz_basis.calls"] = (calls.get("meb.ghz_basis", 0) / rounds, "count")
    for name in ("meb.ghz_basis", "meb.two_qudit_meb", "meb.certify_meb"):
        timed(name)
    out["meb.useful_ratio"] = (used / generated if generated else 0.0, "ratio")
    timed("verify.verify_scheme")
    out["verify.inputs_checked"] = (work.get("verify.verify_scheme", 0) / rounds, "count")
    timed("verify.leakage_profile")
    out["gates.apply.calls"] = (calls.get("gates.apply", 0) / rounds, "count")
    timed("gates.apply")
    timed("gates.apply_gate")
    timed("gates.circuit_from_text")
    timed("cli.main")
    return out
