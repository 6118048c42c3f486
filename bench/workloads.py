"""The benchmark's three workloads and the checks on their outputs.

A workload is one fixed round of jobs, repeated until the run's time is
up. The seed chooses the random inputs and the order of the jobs in each
round; it never changes how many jobs of each size run. Every repeat of a
job has the same inputs, so its output must be byte-identical to the
first one, which was checked in full. See WORKLOADS.md for why each
workload was chosen.

Library calls go through `qm.<name>` and `cli.main` at call time, so the
tracer's patched bindings are the ones that run.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import quditmask as qm
from quditmask import cli, verify

VERIFY_SAMPLES = 50
TILT = 1e-6
MARGINAL_TOL = 1e-10
FIDELITY_TOL = 1e-12

# ((w, d, m), jobs per round). The counts put job_ms.p50 and job_ms.p90
# inside one job size each, away from the edge between two sizes.
CERTIFY_GRID = (((9, 3, 4), 3), ((16, 2, 8), 3), ((64, 2, 12), 5), ((81, 3, 8), 6), ((125, 5, 6), 1))
EXPORT_BUILDS = (((16, 2, 10), 2), ((25, 5, 4), 2), ((27, 3, 6), 2), ((32, 2, 10), 4))
EXPORT_MASKS = (((64, 2, 12), 1), ((81, 3, 8), 2))
EXPORT_CIRCUIT_DIMS = (3, 5, 7)
# ((d, n_parties), jobs per round) for certify_meb(ghz_basis(d, n)).
BASES_GHZ = (((5, 3), 2), ((3, 5), 1), ((2, 8), 4), ((2, 9), 5))
BASES_MASK_M = ((16, 1), (18, 3))
BASES_TWO_QUDIT_D = 7
# One small JSON export and one circuit job keep the serializer and gates
# measured in the benchmark; the export workload is too noisy to bound.
BASES_BUILD = (9, 3, 4)
BASES_CIRCUIT_D = 3


class CheckFailed(Exception):
    """A job's output is not what the program must produce."""


@dataclass(frozen=True)
class Job:
    key: str
    call: Callable[[], object]  # the timed work
    output: Callable[[object], bytes]  # canonical output bytes, untimed
    check: Callable[[object, bytes], None]  # full check, raises CheckFailed
    path: str | None = None  # the CLI's --output file, if a CLI job


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _write_amplitudes(path: str, state) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in state.amps)


def _cli_job(key: str, argv: list[str], tmp: str, check_doc: Callable[[int, bytes], None]) -> Job:
    path = os.path.join(tmp, key + ".out")
    argv = argv + ["--output", path]

    def output(rc) -> bytes:
        with open(path, "rb") as fh:
            return b"exit %d\n" % rc + fh.read()

    def check(rc, data: bytes):
        check_doc(rc, data.split(b"\n", 1)[1])

    return Job(key, lambda: cli.main(argv), output, check, path)


def _complex_pairs(amps: np.ndarray) -> np.ndarray:
    return np.stack([amps.real, amps.imag], axis=-1)


@functools.cache
def _reference_scheme(w: int, d: int, m: int):
    return qm.build_scheme(w, d, m)


# --- certify -----------------------------------------------------------------

def _verify_job(key, w, d, m, seed, tmp) -> Job:
    def check_doc(rc, body):
        doc = json.loads(body)
        expect(rc == (0 if doc["passed"] else 2), f"exit code {rc} does not match verdict {doc['passed']}")
        expect((doc["w"], doc["d"], doc["m"]) == (w, d, m), "wrong scheme in report")
        expect((doc["n_samples"], doc["seed"]) == (VERIFY_SAMPLES, seed), "wrong sampling in report")
        expect(doc["passed"] is True, f"scheme ({w},{d},{m}) did not verify")

    argv = ["verify", "--w", str(w), "--d", str(d), "--m", str(m),
            "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]
    return _cli_job(key, argv, tmp, check_doc)


def tilted_scheme(w: int, d: int, m: int):
    """A real scheme whose image 0 leans by TILT toward |0...0>, renormalised."""
    scheme = qm.build_scheme(w, d, m)
    amps = scheme.images[0].amps.copy()
    amps[0] += TILT
    images = (qm.StateVector(scheme.images[0].dims, amps / np.linalg.norm(amps)),) + scheme.images[1:]
    return qm.MaskingScheme(w, d, m, images, "tilted")


def product_scheme(w: int, d: int, m: int, rng: np.random.Generator):
    """An isometry made of w distinct computational basis states."""
    dims = (d,) * m
    images = tuple(
        qm.basis_state(dims, [int(x) for x in np.unravel_index(idx, dims)])
        for idx in sorted(rng.choice(d ** m, size=w, replace=False))
    )
    return qm.MaskingScheme(w, d, m, images, "product")


def _control_job(key, scheme, seed, failing_check: str) -> Job:
    """verify_scheme on a scheme that does not mask, plus the leakage
    profile of its image 0; the verdict must be FAIL."""
    def call():
        report = qm.verify_scheme(scheme, n_samples=VERIFY_SAMPLES, seed=seed)
        probe = qm.StateVector((scheme.w,), np.eye(scheme.w)[0])
        return report, qm.leakage_profile(qm.mask(scheme, probe))

    def output(result) -> bytes:
        report, profile = result
        doc = verify.masking_report_to_json_dict(report)
        doc["masked_parties"] = list(profile.masked_parties())
        return json.dumps(doc).encode()

    def check(result, data):
        report, profile = result
        expect(not report.passed, f"negative control {key} passed verification")
        expect(not report.checks[failing_check].passed, f"negative control {key}: {failing_check} passed")
        expect(len(profile.masked_parties()) < scheme.m, f"negative control {key}: every party masked")

    return Job(key, call, output, check)


def certify_jobs(rng: np.random.Generator, tmp: str) -> list[Job]:
    jobs = []
    for (w, d, m), count in CERTIFY_GRID:
        for i in range(count):
            jobs.append(_verify_job(f"verify-{w}-{d}-{m}#{i}", w, d, m, int(rng.integers(2**31)), tmp))
    jobs.append(_control_job("control-tilted-81-3-8", tilted_scheme(81, 3, 8),
                             int(rng.integers(2**31)), "isometry_gram"))
    jobs.append(_control_job("control-product-9-3-4", product_scheme(9, 3, 4, rng),
                             int(rng.integers(2**31)), "marginals_maximally_mixed"))
    return jobs


# --- export ------------------------------------------------------------------

def _build_job(key, w, d, m, tmp) -> Job:
    def check_doc(rc, body):
        expect(rc == 0, f"exit code {rc}")
        doc = json.loads(body)
        expect((doc["w"], doc["d"], doc["m"]) == (w, d, m), "wrong scheme in document")
        want = _complex_pairs(np.array([im.amps for im in _reference_scheme(w, d, m).images]))
        got = np.array(doc["images"], dtype=float)
        expect(got.shape == want.shape and got.tobytes() == want.tobytes(),
               "images differ from build_scheme amplitudes")

    argv = ["build", "--w", str(w), "--d", str(d), "--m", str(m)]
    return _cli_job(key, argv, tmp, check_doc)


def _mask_json_job(key, w, d, m, state, tmp) -> Job:
    amp_path = os.path.join(tmp, key + ".amps")
    _write_amplitudes(amp_path, state)

    def check_doc(rc, body):
        expect(rc == 0, f"exit code {rc}")
        doc = json.loads(body)
        want = _complex_pairs(qm.mask(_reference_scheme(w, d, m), state).amps)
        got = np.array(doc["amplitudes"], dtype=float)
        expect(got.shape == want.shape and got.tobytes() == want.tobytes(),
               "masked amplitudes differ from mask()")
        marginals = np.array(doc["marginals"], dtype=float)
        expect(marginals.shape == (m, d, d, 2), "wrong marginal shape")
        dev = np.abs(marginals[..., 0] + 1j * marginals[..., 1] - np.eye(d) / d)
        expect(float(dev.max()) <= MARGINAL_TOL, f"marginal deviation {dev.max():.3e}")

    argv = ["mask", "--w", str(w), "--d", str(d), "--m", str(m), "--input", amp_path]
    return _cli_job(key, argv, tmp, check_doc)


def _circuit_job(key, d, state, tmp) -> Job:
    circ_path = os.path.join(tmp, key + ".circ")
    amp_path = os.path.join(tmp, key + ".amps")
    with open(circ_path, "w") as fh:
        fh.write(qm.circuit_to_text(qm.qudit4_circuit(d)))
    _write_amplitudes(amp_path, state)

    def check_doc(rc, body):
        expect(rc == 0, f"exit code {rc}")
        pairs = np.array(json.loads(body)["amplitudes"], dtype=float)
        got = pairs[:, 0] + 1j * pairs[:, 1]
        want = qm.mask(_reference_scheme(d * d, d, 4), state).amps
        expect(got.shape == want.shape, "wrong output dimension")
        fidelity = abs(np.vdot(want, got)) ** 2
        expect(fidelity >= 1 - FIDELITY_TOL, f"circuit fidelity {fidelity!r} vs column map")

    argv = ["circuit", "--d", str(d), "--apply", circ_path, "--input", amp_path]
    return _cli_job(key, argv, tmp, check_doc)


def export_jobs(rng: np.random.Generator, tmp: str) -> list[Job]:
    jobs = []
    for (w, d, m), count in EXPORT_BUILDS:
        jobs += [_build_job(f"build-{w}-{d}-{m}#{i}", w, d, m, tmp) for i in range(count)]
    for (w, d, m), count in EXPORT_MASKS:
        for i in range(count):
            state = qm.haar_random_state(w, rng)
            jobs.append(_mask_json_job(f"mask-{w}-{d}-{m}#{i}", w, d, m, state, tmp))
    for d in EXPORT_CIRCUIT_DIMS:
        jobs.append(_circuit_job(f"circuit-{d}", d, qm.haar_random_state(d * d, rng), tmp))
    return jobs


# --- bases -------------------------------------------------------------------

def _meb_job(key, make_family, passes: bool) -> Job:
    def check(cert, data):
        expect(cert.passed is passes, f"{key}: certify_meb passed={cert.passed}, expected {passes}")

    return Job(key, lambda: qm.certify_meb(make_family()), lambda cert: repr(cert).encode(), check)


def swapped_family(d: int, n: int, rng: np.random.Generator):
    """A GHZ basis with one seed-chosen state swapped for a product state."""
    family = qm.ghz_basis(d, n)
    k = int(rng.integers(len(family.states)))
    dims = (d,) * n
    product = qm.basis_state(dims, [int(x) for x in np.unravel_index(k, dims)])
    states = family.states[:k] + (product,) + family.states[k + 1:]
    return qm.MebFamily(d, n, states, family.labels)


def _mask_text_job(key, m, state, tmp) -> Job:
    amp_path = os.path.join(tmp, key + ".amps")
    _write_amplitudes(amp_path, state)

    def check_doc(rc, body):
        expect(rc == 0, f"exit code {rc}")
        lines = body.decode().splitlines()
        expect(lines[0] == f"masked state on {m} parties of dimension 2", f"header {lines[0]!r}")
        expect(len(lines) == m + 1, f"{len(lines) - 1} party lines for m={m}")
        for p, line in enumerate(lines[1:]):
            prefix = f"party {p}: max deviation from I/d = "
            expect(line.startswith(prefix), f"line {line!r}")
            dev = float(line[len(prefix):])
            expect(dev <= MARGINAL_TOL, f"party {p} deviation {dev:.3e}")

    argv = ["mask", "--w", "4", "--d", "2", "--m", str(m), "--input", amp_path, "--format", "text"]
    return _cli_job(key, argv, tmp, check_doc)


def bases_jobs(rng: np.random.Generator, tmp: str) -> list[Job]:
    jobs = []
    for (d, n), count in BASES_GHZ:
        jobs += [_meb_job(f"ghz-{d}-{n}#{i}", lambda d=d, n=n: qm.ghz_basis(d, n), True) for i in range(count)]
    jobs.append(_meb_job(f"two-qudit-{BASES_TWO_QUDIT_D}", lambda: qm.two_qudit_meb(BASES_TWO_QUDIT_D), True))
    family = swapped_family(3, 5, rng)
    jobs.append(_meb_job("control-swapped-3-5", lambda: family, False))
    for m, count in BASES_MASK_M:
        for i in range(count):
            jobs.append(_mask_text_job(f"mask-4-2-{m}#{i}", m, qm.haar_random_state(4, rng), tmp))
    w, d, m = BASES_BUILD
    jobs.append(_build_job(f"build-{w}-{d}-{m}", w, d, m, tmp))
    d = BASES_CIRCUIT_D
    jobs.append(_circuit_job(f"circuit-{d}", d, qm.haar_random_state(d * d, rng), tmp))
    return jobs


WORKLOADS = {"certify": certify_jobs, "export": export_jobs, "bases": bases_jobs}


def make_jobs(workload: str, seed: int, tmp: str) -> list[Job]:
    """The workload's round of jobs for this seed, with input files in tmp."""
    return WORKLOADS[workload](np.random.default_rng(seed), tmp)
