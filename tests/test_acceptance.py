"""Acceptance suite: one test per top-level criterion, each printing a
single pass/fail line (run with `pytest -s tests/test_acceptance.py` to see
them)."""

import contextlib
import json

import numpy as np
import pytest

from quditmask import (
    Circuit,
    append_ancilla,
    apply,
    basis_state,
    bounds_report,
    build_scheme,
    certify_meb,
    circuit_mask,
    digit_encode,
    ghz_basis,
    haar_random_state,
    leakage_profile,
    mask,
    min_parties,
    partial_trace,
    qubit4_circuit,
    two_qudit_meb,
    verify_scheme,
    BoundViolationError,
    StateVector,
)
from quditmask.cli import main as cli_main
from oracles import (
    embed_cpow,
    embed_single,
    partial_trace_oracle,
    state_from_kets,
)

Q4 = (2, 2, 2, 2)
R2 = 1 / np.sqrt(2)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def bell_pair_images():
    kets = [
        {"0000": 0.5, "0011": 0.5, "1100": 0.5, "1111": 0.5},
        {"0000": 0.5, "0011": -0.5, "1100": -0.5, "1111": 0.5},
        {"0101": 0.5, "0110": 0.5, "1001": 0.5, "1010": 0.5},
        {"0101": 0.5, "0110": -0.5, "1001": -0.5, "1010": 0.5},
    ]
    return [state_from_kets(k, Q4) for k in kets]


def test_criterion_1_four_qubit_scheme_reproduction():
    with criterion(1, "4-qubit Bell-pair scheme"):
        scheme = build_scheme(4, 2, 4)
        for got, want in zip(scheme.images, bell_pair_images()):
            assert np.max(np.abs(got.amps - want)) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(100):
            masked = mask(scheme, haar_random_state(4, rng))
            for party in range(4):
                rho = partial_trace(masked, [party])
                assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-10


def test_criterion_2_circuit_walkthrough():
    with criterion(2, "4-qubit circuit walkthrough"):
        circuit = qubit4_circuit()
        inputs = [
            np.array([1.0, 0, 0, 0], dtype=complex),
            np.array([0, 1.0, 0, 0], dtype=complex),
            np.full(4, 0.5, dtype=complex),
        ]
        for a in inputs:
            start = append_ancilla(digit_encode(StateVector((4,), a), 2), 2, 2)
            step_states = {
                1: state_from_kets(
                    {"0000": a[0], "1010": a[1], "0100": a[2], "1110": a[3]}, Q4
                ),
                2: state_from_kets(
                    {"0000": a[0], "1010": a[1], "0101": a[2], "1111": a[3]}, Q4
                ),
                4: R2
                * (
                    a[0] * state_from_kets({"0000": 1, "1100": 1}, Q4)
                    + a[1] * state_from_kets({"0010": 1, "1110": -1}, Q4)
                    + a[2] * state_from_kets({"0101": 1, "1001": 1}, Q4)
                    + a[3] * state_from_kets({"0111": 1, "1011": -1}, Q4)
                ),
                6: 0.5
                * (
                    a[0] * state_from_kets({"0000": 1, "1111": 1, "0011": 1, "1100": 1}, Q4)
                    + a[1] * state_from_kets({"0000": 1, "1111": 1, "0011": -1, "1100": -1}, Q4)
                    + a[2] * state_from_kets({"0101": 1, "1010": 1, "0110": 1, "1001": 1}, Q4)
                    + a[3] * state_from_kets({"0101": 1, "1010": 1, "0110": -1, "1001": -1}, Q4)
                ),
            }
            profiles = {}
            for n_gates, expected in step_states.items():
                got = apply(Circuit(Q4, circuit.gates[:n_gates]), start)
                assert np.max(np.abs(got.amps - expected)) <= 1e-12
                profiles[n_gates] = leakage_profile(got)

            # qualitative leakage ledger
            p1 = profiles[1].parties
            assert p1[0].off_diagonal_leak <= 1e-12 and p1[2].off_diagonal_leak <= 1e-12
            leak1 = abs(a[0] * np.conj(a[2]) + a[1] * np.conj(a[3]))
            assert p1[1].off_diagonal_leak == pytest.approx(leak1, abs=1e-12)
            assert all(p.off_diagonal_leak <= 1e-12 for p in profiles[2].parties)
            p3 = profiles[4].parties
            assert p3[0].masked() and p3[1].masked()
            expected_diag3 = abs(abs(a[0]) ** 2 + abs(a[2]) ** 2 - 0.5)
            expected_diag4 = abs(abs(a[0]) ** 2 + abs(a[1]) ** 2 - 0.5)
            assert p3[2].diagonal_leak == pytest.approx(expected_diag3, abs=1e-12)
            assert p3[3].diagonal_leak == pytest.approx(expected_diag4, abs=1e-12)
            assert all(p.masked() for p in profiles[6].parties)
        # the basis inputs exhibit the step-3 diagonal leak concretely
        for a, leak in [(inputs[0], 0.5), (inputs[1], 0.5)]:
            start = append_ancilla(digit_encode(StateVector((4,), a), 2), 2, 2)
            got = apply(Circuit(Q4, circuit.gates[:4]), start)
            assert leakage_profile(got).parties[2].diagonal_leak == pytest.approx(leak)


def test_criterion_3_six_qubit_scheme():
    with criterion(3, "6-qubit GHZ-pair scheme"):
        scheme = build_scheme(8, 2, 6)
        rng = np.random.default_rng(1)
        for _ in range(50):
            masked = mask(scheme, haar_random_state(8, rng))
            for party in range(6):
                rho = partial_trace(masked, [party])
                assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-10


def test_criterion_4_four_qudit_schemes_and_circuits():
    with criterion(4, "4-qudit schemes with circuit agreement"):
        for d in (2, 3, 4, 5):
            scheme = build_scheme(d * d, d, 4)
            report = verify_scheme(scheme, n_samples=20, seed=d)
            assert report.passed
            assert max(report.per_party_max_deviation) <= 1e-10
            rng = np.random.default_rng(100 + d)
            for _ in range(50):
                x = haar_random_state(d * d, rng)
                via_circuit, direct = circuit_mask(d, x), mask(scheme, x)
                assert via_circuit.dims == direct.dims
                assert abs(np.vdot(via_circuit.amps, direct.amps)) >= 1 - 1e-10


def test_criterion_5_general_party_counts():
    with criterion(5, "general m-party schemes and bound rejection"):
        for d, m in [(2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]:
            w = d ** (m // 2)
            assert verify_scheme(build_scheme(w, d, m), n_samples=10, seed=0).passed
            with pytest.raises(BoundViolationError):
                build_scheme(w + 1, d, m)


def test_criterion_6_meb_certification():
    with criterion(6, "maximum entangled basis certification"):
        for d in range(2, 7):
            cert = certify_meb(two_qudit_meb(d))
            assert cert.passed
            assert cert.max_gram_deviation <= 1e-11
            assert cert.max_marginal_deviation <= 1e-11
        for d in range(2, 5):
            for n in (2, 3):
                cert = certify_meb(ghz_basis(d, n))
                assert cert.passed
                assert cert.max_gram_deviation <= 1e-11
                assert cert.max_marginal_deviation <= 1e-11
        bells = {
            tuple(np.round(s.amps, 12)) for s in two_qudit_meb(2).states
        }
        expected = {
            tuple(np.round(state_from_kets(k, (2, 2)), 12))
            for k in (
                {"00": R2, "11": R2},
                {"00": R2, "11": -R2},
                {"01": R2, "10": R2},
                {"01": R2, "10": -R2},
            )
        }
        assert bells == expected


def test_criterion_7_bound_arithmetic():
    with criterion(7, "bound arithmetic"):
        for d in range(2, 17):
            for m in range(4, 17):
                report = bounds_report(d, m)
                assert report.construction_capacity <= report.singleton_bound
                assert (report.construction_capacity == report.singleton_bound) == (m == 4)
        assert min_parties(4, 2) == 4
        assert min_parties(8, 2) == 6
        for d in range(2, 17):
            assert min_parties(d * d, d) == 4


def test_criterion_8_oracle_equivalence():
    with criterion(8, "oracle equivalence"):
        rng = np.random.default_rng(8)
        # partial trace vs block summation, total dimension <= 256
        for dims in [(2, 2), (2, 3), (4, 4), (2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4, 4)]:
            amps = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
            psi = StateVector(dims, amps / np.linalg.norm(amps))
            for keep in [[0], [len(dims) - 1], list(range(1, len(dims)))]:
                got = partial_trace(psi, keep)
                want = partial_trace_oracle(psi.amps, psi.dims, sorted(keep))
                assert np.max(np.abs(got - want)) <= 1e-13
        # gate index action vs dense matrices, d <= 5
        from quditmask import apply_gate, controlled_power_gate, fourier_gate, shift_gate

        for d in range(2, 6):
            dims = (d, d, d)
            amps = rng.standard_normal(d ** 3) + 1j * rng.standard_normal(d ** 3)
            psi = StateVector(dims, amps / np.linalg.norm(amps))
            for party in range(3):
                for gate in (shift_gate(d, 1, party), fourier_gate(d, party)):
                    got = apply_gate(gate, psi).amps
                    want = embed_single(gate.matrix(), party, dims) @ psi.amps
                    assert np.max(np.abs(got - want)) <= 1e-12
            for c, t in [(0, 1), (1, 0), (0, 2), (2, 0)]:
                got = apply_gate(controlled_power_gate(d, c, t), psi).amps
                want = embed_cpow(d, c, t, dims) @ psi.amps
                assert np.max(np.abs(got - want)) <= 1e-12
        # mask preserves the Gram matrix on random pairs
        for scheme in [build_scheme(4, 2, 4), build_scheme(8, 2, 6), build_scheme(16, 4, 4)]:
            for _ in range(10):
                x = haar_random_state(scheme.w, rng)
                y = haar_random_state(scheme.w, rng)
                assert abs(
                    np.vdot(mask(scheme, x).amps, mask(scheme, y).amps) - np.vdot(x.amps, y.amps)
                ) <= 1e-11


def test_criterion_9_deterministic_cli_output(capsys):
    with criterion(9, "deterministic verify output"):
        argv = ["verify", "--w", "9", "--d", "3", "--m", "4", "--samples", "25", "--seed", "5"]
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["passed"] is True
