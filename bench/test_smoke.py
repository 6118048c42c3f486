"""Smoke test of the benchmark itself: a few jobs per workload, every named
metric present with its unit, and broken outputs counted as failures.

    python -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=None):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_round_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in line["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def test_broken_output_counts_as_failed():
    run.use_source_tree()
    import workloads

    tmp = BENCH.parent / ".bench_tmp_smoke"
    tmp.mkdir(exist_ok=True)
    try:
        job = next(j for j in workloads.make_jobs("export", 3, str(tmp)) if j.key == "circuit-3")

        def wrong_amplitude(rc):
            head, body = job.output(rc).split(b"\n", 1)
            doc = json.loads(body)
            doc["amplitudes"][0][0] += 0.5
            return head + b"\n" + json.dumps(doc).encode()

        broken = dataclasses.replace(job, output=wrong_amplitude)

        first_run = run.ClosedLoop([broken])
        first_run.run_round([broken])
        assert (first_run.attempted, len(first_run.failures)) == (1, 1)
        assert "circuit fidelity" in first_run.failures[0]

        repeat = run.ClosedLoop([job])
        repeat.run_round([job, broken, job])
        assert (repeat.attempted, len(repeat.failures)) == (3, 1)
        assert "differs from the first run" in repeat.failures[0]
    finally:
        shutil.rmtree(tmp)


def test_negative_controls_must_fail():
    run.use_source_tree()
    import numpy as np
    import workloads

    rng = np.random.default_rng(0)
    for scheme in (workloads.tilted_scheme(9, 3, 4), workloads.product_scheme(9, 3, 4, rng)):
        assert not workloads.qm.verify_scheme(scheme, n_samples=2).passed
    assert not workloads.qm.certify_meb(workloads.swapped_family(2, 3, rng)).passed


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "export", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(base, [x * 0.8 for x in base], True, 0.1) == "improved"
    assert compare.verdict(base, [x * 1.02 for x in base], True, 0.1) == "unchanged"
    assert compare.verdict(base, [x * 1.3 for x in base], True, 0.1) == "worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, [x * 1.01 for x in noisy], True, 0.1) == "unresolved"
    assert compare.verdict([7.0] * 4, [7.0] * 4, True, None) == "unchanged"


def test_tracer_sees_calls_through_names_imported_by_value():
    run.use_source_tree()
    import quditmask as qm
    from quditmask import tensorcore, verify

    import tracer as tracing

    t = tracing.Tracer()
    scheme = qm.build_scheme(9, 3, 4)
    with t.patched():
        with t.job("probe"):
            qm.verify_scheme(scheme, n_samples=2)
        qm.verify_scheme(scheme, n_samples=2)  # outside a job: not recorded
    assert verify.partial_trace is tensorcore.partial_trace and verify.mask is qm.masker.mask
    names = [s[0] for s in t.spans]
    parents = {t.spans[s[3]][0] for s in t.spans if s[0] == "tensorcore.partial_trace"}
    assert names.count("masker.mask") == 9 + 2 and parents == {"verify.verify_scheme"}
    assert sum(tracing.self_times(t.spans)) == t.spans[0][2] - t.spans[0][1]
    layers = tracing.layer_metrics(t.spans, rounds=1)
    assert layers["verify.inputs_checked"] == (11, "count")
    assert layers["tensorcore.partial_trace.bytes_computed"][0] == 16 * 81 * 11 * 4
