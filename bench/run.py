"""Closed-loop benchmark of quditmask: one client in one process per
workload, sending the next job only after the previous one finished and
was checked.

    python3 bench/run.py --workload certify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 1 --out results.jsonl

Run it from anywhere; it imports quditmask from the `src/` directory next
to `bench/` and exits 2 if there is none. With `--trace 0` it reports the
end-to-end metrics, with `--trace 1` the per-layer ones (see
WORKLOADS.md). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--out FILE` appends the
full record of the run (samples, output digest, environment) as one JSON
line, the input of `bench/compare.py`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify", "export", "bases")
# One BLAS thread: the client is single-threaded and the machines this
# runs on are small and shared, where BLAS threads add only noise.
BLAS_THREADS = 1
SETUP_REPEATS = 7


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def use_source_tree():
    """Import quditmask from ROOT/src, with the BLAS thread count fixed."""
    if not (SRC / "quditmask" / "__init__.py").is_file():
        fail(f"no quditmask sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import quditmask

    if Path(quditmask.__file__).resolve().parent != SRC / "quditmask":
        fail(f"imported quditmask from {quditmask.__file__}, not from {SRC}")


# --- environment -------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py"))),
    }


# --- set-up ------------------------------------------------------------------

def setup_probe(workload: str, seed: int):
    """What a run does before its first job: start, import, make inputs."""
    use_source_tree()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        workloads.make_jobs(workload, seed, tmp)
        print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its inputs being ready,
    once per repeat."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}")
    return times


# --- the closed loop ---------------------------------------------------------

class ClosedLoop:
    """Runs rounds of jobs one at a time, checks each output, and keeps the
    per-job wall times."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.job_ms = {False: [], True: []}  # by traced
        self.busy_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.verified: dict[str, str] = {}  # key -> sha256 of its checked output
        self.cli_output_bytes = 0
        self.per_kind_ms: dict[str, list[float]] = {}  # untraced, by job kind

    def run_round(self, order, tracer=None):
        from workloads import CheckFailed

        for job in order:
            self.attempted += 1
            if job.path is not None and os.path.exists(job.path):
                os.remove(job.path)
            t0 = time.perf_counter()
            dt = None
            try:
                if tracer is None:
                    value = job.call()
                else:
                    with tracer.job(job.key):
                        value = job.call()
                dt = time.perf_counter() - t0
                data = job.output(value)
                sha = hashlib.sha256(data).hexdigest()
                if job.key not in self.verified:
                    job.check(value, data)
                    self.verified[job.key] = sha
                elif sha != self.verified[job.key]:
                    raise CheckFailed("output differs from the first run of this job")
            except Exception:  # the loop goes on; the job counts as failed
                self.failures.append(f"{job.key}: {traceback.format_exc()}")
                continue
            finally:
                self.busy_s += dt if dt is not None else time.perf_counter() - t0
            self.job_ms[tracer is not None].append(dt * 1e3)
            if tracer is None:
                self.per_kind_ms.setdefault(job.key.split("#")[0], []).append(dt * 1e3)
            elif job.path is not None:
                self.cli_output_bytes += os.path.getsize(job.path)

    def digest(self) -> str:
        """sha256 over every job's checked output, in job-key order; the
        same for every run of one seed, however many rounds it made."""
        h = hashlib.sha256()
        for key in sorted(self.verified):
            h.update(f"{key} {self.verified[key]}\n".encode())
        return h.hexdigest()


def run_workload(args) -> dict:
    setup_s = None if args.trace else statistics.median(measure_setup(args.workload, args.seed))
    use_source_tree()
    import tracer as tracing
    import workloads

    env = environment()
    order_rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        loop = ClosedLoop(workloads.make_jobs(args.workload, args.seed, tmp))
        tracer = tracing.Tracer() if args.trace else None
        rounds = traced_rounds = 0
        start = time.perf_counter()
        # With --trace 1, untraced and traced rounds alternate, so both
        # see the same machine and their p50s give the tracing overhead.
        while rounds < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
            order = order_rng.sample(loop.jobs, len(loop.jobs))
            if args.trace and rounds % 2 == 1:
                with tracer.patched():
                    loop.run_round(order, tracer)
                traced_rounds += 1
            else:
                loop.run_round(order)
            rounds += 1
        window_s = time.perf_counter() - start

    if args.trace:
        traced_p50 = statistics.median(loop.job_ms[True])
        untraced_p50 = statistics.median(loop.job_ms[False])
        metrics = tracing.layer_metrics(tracer.spans, traced_rounds)
        metrics["cli.output_bytes"] = (loop.cli_output_bytes / traced_rounds, "B")
        metrics["trace.job_ms.p50"] = (traced_p50, "ms")
        metrics["trace.overhead_pct"] = (100 * (traced_p50 / untraced_p50 - 1), "%")
    else:
        deciles = statistics.quantiles(loop.job_ms[False], n=10, method="inclusive")
        metrics = {
            "job_ms.p50": (deciles[4], "ms"),
            "job_ms.p90": (deciles[8], "ms"),
            "jobs_per_s": (len(loop.job_ms[False]) / loop.busy_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "window_s": window_s,
        "jobs_per_round": len(loop.jobs),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "error_rate": len(loop.failures) / loop.attempted,
        "samples": {"untraced": len(loop.job_ms[False]), "traced": len(loop.job_ms[True])},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "job_sizes_ms": {k: statistics.median(v) for k, v in sorted(loop.per_kind_ms.items())},
        "digest": loop.digest(),
        "env": env,
        "failures": loop.failures[:5],
    }


def report(record: dict):
    """Human-readable summary; the machine-readable line follows it."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']} x {record['jobs_per_round']} jobs in {record['window_s']:.1f} s")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['error_rate']:.4g}  samples {record['samples']}")
    print(f"  output digest sha256:{record['digest']}")
    print(f"  env {json.dumps(record['env'])}")
    for key, ms in record["job_sizes_ms"].items():
        print(f"  job {key:<28} {ms:10.2f} ms (median)")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        line["correct"] = line["correct"] and one["correct"]
        line["attempted"] += one["attempted"]
        line["failed"] += one["failed"]
        line["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full run record to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    record = run_workload(args)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    report(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
