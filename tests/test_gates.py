import numpy as np
import pytest

from quditmask import (
    Circuit,
    ShapeError,
    StateVector,
    append_ancilla,
    apply,
    apply_gate,
    basis_state,
    circuit_from_text,
    circuit_to_text,
    controlled_power_gate,
    fourier_gate,
    shift_gate,
)
from oracles import embed_cpow, embed_single, state_from_kets


def random_state(dims, rng):
    amps = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    return StateVector(tuple(dims), amps / np.linalg.norm(amps))


class TestGateMatrices:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_all_kinds_unitary(self, d):
        for gate in [shift_gate(d, 1, 0), shift_gate(d, d - 1, 0), fourier_gate(d, 0),
                     controlled_power_gate(d, 0, 1)]:
            u = gate.matrix()
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12

    def test_shift_d2_is_sigma_x(self):
        assert np.allclose(shift_gate(2, 1, 0).matrix(), [[0, 1], [1, 0]])

    def test_shift_full_cycle_is_identity(self):
        assert np.allclose(shift_gate(3, 3, 0).matrix(), np.eye(3))

    def test_shift_wraps(self):
        out = apply_gate(shift_gate(3, 1, 0), basis_state((3,), (2,)))
        assert np.allclose(out.amps, basis_state((3,), (0,)).amps)

    def test_fourier_d2_is_hadamard(self):
        out = apply_gate(fourier_gate(2, 0), basis_state((2,), (0,)))
        assert np.allclose(out.amps, np.array([1, 1]) / np.sqrt(2))

    def test_fourier_d3_uniform_superposition(self):
        out = apply_gate(fourier_gate(3, 0), basis_state((3,), (0,)))
        assert np.allclose(out.amps, np.ones(3) / np.sqrt(3))

    def test_cpow_d2_is_cnot(self):
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.allclose(controlled_power_gate(2, 0, 1).matrix(), expected)

    def test_cpow_zero_control_acts_trivially(self):
        gate = controlled_power_gate(3, 0, 1)
        for t in range(3):
            out = apply_gate(gate, basis_state((3, 3), (0, t)))
            assert np.allclose(out.amps, basis_state((3, 3), (0, t)).amps)

    def test_cpow_d3_addition(self):
        out = apply_gate(controlled_power_gate(3, 0, 1), basis_state((3, 3), (2, 2)))
        assert np.allclose(out.amps, basis_state((3, 3), (2, 1)).amps)

    def test_cpow_rejects_control_equals_target(self):
        with pytest.raises(ValueError):
            controlled_power_gate(2, 1, 1)


class TestApply:
    def test_empty_circuit_is_identity(self):
        rng = np.random.default_rng(0)
        psi = random_state((2, 3), rng)
        assert np.allclose(apply(Circuit((2, 3), ()), psi).amps, psi.amps)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            apply(Circuit((2, 2), ()), basis_state((3,), (0,)))

    def test_copying_cnot_on_encoded_input(self):
        # C on (0 -> 2) maps the 2-qubit-encoded input with ancillas to the
        # first intermediate state of the 4-qubit walkthrough
        a = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        start = StateVector(
            (2, 2, 2, 2),
            state_from_kets({"0000": a[0], "1000": a[1], "0100": a[2], "1100": a[3]}, (2, 2, 2, 2)),
        )
        out = apply_gate(controlled_power_gate(2, 0, 2), start)
        expected = state_from_kets(
            {"0000": a[0], "1010": a[1], "0100": a[2], "1110": a[3]}, (2, 2, 2, 2)
        )
        assert np.max(np.abs(out.amps - expected)) <= 1e-15

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        circuit = Circuit(
            (3, 3, 3),
            (fourier_gate(3, 0), controlled_power_gate(3, 0, 2), shift_gate(3, 2, 1)),
        )
        psi = random_state((3, 3, 3), rng)
        assert np.isclose(apply(circuit, psi).norm(), 1.0, atol=1e-12)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(4)
        circuit = Circuit(
            (2, 2, 2),
            (controlled_power_gate(2, 0, 1), fourier_gate(2, 2), controlled_power_gate(2, 2, 0)),
        )
        for _ in range(20):
            a, b = random_state((2, 2, 2), rng), random_state((2, 2, 2), rng)
            assert np.isclose(
                np.vdot(apply(circuit, a).amps, apply(circuit, b).amps),
                np.vdot(a.amps, b.amps),
                atol=1e-11,
            )

    @pytest.mark.parametrize("d", range(2, 6))
    def test_cpow_d_times_is_identity(self, d):
        gate = controlled_power_gate(d, 1, 0)
        for c in range(d):
            for t in range(d):
                psi = basis_state((d, d), (t, c))
                out = psi
                for _ in range(d):
                    out = apply_gate(gate, out)
                assert np.allclose(out.amps, psi.amps)


class TestIndexActionMatchesDenseMatrix:
    @pytest.mark.parametrize("d", range(2, 6))
    def test_single_party_gates(self, d):
        rng = np.random.default_rng(d)
        dims = (d, d, d)
        psi = random_state(dims, rng)
        for party in range(3):
            for gate in [shift_gate(d, 2, party), fourier_gate(d, party)]:
                got = apply_gate(gate, psi).amps
                want = embed_single(gate.matrix(), party, dims) @ psi.amps
                assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("control,target", [(0, 2), (2, 0), (1, 2), (2, 1)])
    def test_controlled_power(self, d, control, target):
        rng = np.random.default_rng(10 * d + control)
        dims = (d, d, d)
        psi = random_state(dims, rng)
        got = apply_gate(controlled_power_gate(d, control, target), psi).amps
        want = embed_cpow(d, control, target, dims) @ psi.amps
        assert np.max(np.abs(got - want)) <= 1e-12


class TestAppendAncilla:
    def test_extends_register_in_zero(self):
        psi = StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        out = append_ancilla(psi, 2, 2)
        assert out.dims == (2, 2, 2, 2)
        expected = state_from_kets({"0000": 1 / np.sqrt(2), "1100": 1 / np.sqrt(2)}, (2, 2, 2, 2))
        assert np.allclose(out.amps, expected)
        assert np.isclose(out.norm(), psi.norm(), atol=1e-14)

    def test_qudit_ancillas(self):
        out = append_ancilla(basis_state((3,), (1,)), 3, 1)
        assert out.dims == (3, 3)
        assert np.allclose(out.amps, basis_state((3, 3), (1, 0)).amps)


class TestTextFormat:
    def test_round_trip(self):
        circuit = Circuit(
            (3, 3, 3, 3),
            (
                controlled_power_gate(3, 1, 3),
                fourier_gate(3, 0),
                shift_gate(3, 1, 2),
            ),
        )
        text = circuit_to_text(circuit)
        assert text == "CPOW d=3 c=1 t=3\nF d=3 p=0\nX^k d=3 p=2 k=1\n"
        parsed = circuit_from_text(text, (3, 3, 3, 3))
        assert parsed == circuit

    def test_comments_and_blanks_ignored(self):
        parsed = circuit_from_text("# header\n\nF d=2 p=1\n", (2, 2))
        assert len(parsed.gates) == 1

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            circuit_from_text("SWAP d=2 p=0\n", (2, 2))

    def test_bad_party_rejected(self):
        with pytest.raises(ShapeError):
            circuit_from_text("F d=2 p=9\n", (2, 2))


class TestPermutationMatricesMatchLoops:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_shift_and_cpow(self, d):
        for power in range(d):
            want = np.zeros((d, d), dtype=complex)
            for j in range(d):
                want[(j + power) % d, j] = 1.0
            assert shift_gate(d, power, 0).matrix().tobytes() == want.tobytes()
        shift = shift_gate(d, 1, 0).matrix()
        want = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            want[j * d:(j + 1) * d, j * d:(j + 1) * d] = np.linalg.matrix_power(shift, j)
        assert controlled_power_gate(d, 0, 1).matrix().tobytes() == want.tobytes()
