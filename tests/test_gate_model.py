"""The gate model: shift, Fourier and controlled shift powers on named
parties, each checked once when the Gate is built; and the size budget
of the circuit route's ancilla extension."""

import itertools
import tracemalloc

import pytest

import quditmask
from quditmask import (
    Circuit,
    ShapeError,
    append_ancilla,
    apply_gate,
    basis_state,
    circuit_from_text,
    circuit_mask,
    circuit_to_text,
    controlled_power_gate,
    fourier_gate,
    qudit4_circuit,
    shift_gate,
)
from quditmask import tensorcore
from quditmask.cli import EXIT_USAGE, main
from quditmask.gates import Gate

CONSTRUCTORS = [
    lambda d: shift_gate(d, 1, 0),
    lambda d: fourier_gate(d, 0),
    lambda d: controlled_power_gate(d, 0, 1),
    lambda d: qudit4_circuit(d),
    lambda d: Gate("shift", d, (0,), 1),
    lambda d: Gate("fourier", d, (0,)),
    lambda d: Gate("cpow", d, (0, 1)),
]


class TestGateChecks:
    def test_fields(self):
        assert [f for f in Gate.__dataclass_fields__] == ["kind", "d", "parties", "power"]

    @pytest.mark.parametrize("d", [1, 0, -3])
    @pytest.mark.parametrize("make", CONSTRUCTORS, ids=["shift", "fourier", "cpow", "qudit4", "Gate-shift", "Gate-fourier", "Gate-cpow"])
    def test_dimension_below_two(self, make, d):
        with pytest.raises(ValueError, match=r"^d must be >= 2$"):
            make(d)

    @pytest.mark.parametrize("parties", [(1, 1), (0, 2, 0)])
    def test_repeated_parties(self, parties):
        with pytest.raises(ValueError, match=r"^control and target must differ$"):
            Gate("cpow", 3, parties)
        with pytest.raises(ValueError, match=r"^control and target must differ$"):
            controlled_power_gate(3, parties[0], parties[-1])

    def test_power_reduced_mod_d(self):
        assert shift_gate(3, 5, 0).power == 2
        assert shift_gate(3, -1, 0).power == 2
        assert Gate("shift", 4, (0,), 9).power == 1

    def test_unknown_kind_has_no_text_form(self):
        # Refused when built, so no circuit can hold a gate without a text form.
        with pytest.raises(ValueError, match="unknown gate kind 'swap'"):
            Gate("swap", 2, (0,))

    def test_gate_dimension_must_match_party(self):
        with pytest.raises(ShapeError, match=r"gate dimension 3 != party 1 dimension 2"):
            Circuit((3, 2), (fourier_gate(3, 1),))
        with pytest.raises(ShapeError, match=r"gate dimension 2 != party 0 dimension 3"):
            apply_gate(shift_gate(2, 1, 0), basis_state((3, 2), (0, 0)))


class TestClosedGateModel:
    """Kind, party count and power are checked once, when the Gate is built."""

    @pytest.mark.parametrize("kind", ["relabel", "SHIFT", ""])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match=f"^unknown gate kind {kind!r}$"):
            Gate(kind, 2, (0,))

    @pytest.mark.parametrize("kind", ["shift", "fourier"])
    @pytest.mark.parametrize("parties", [(), (0, 1), (0, 1, 2)])
    def test_single_party_kinds_take_one_party(self, kind, parties):
        with pytest.raises(ValueError, match=f"^{kind} gate party count must be 1"):
            Gate(kind, 3, parties)

    @pytest.mark.parametrize("parties", [(), (0,), (0, 1, 2)])
    def test_cpow_takes_two_parties(self, parties):
        with pytest.raises(ValueError, match="^cpow gate party count must be 2"):
            Gate("cpow", 3, parties)

    @pytest.mark.parametrize("kind,parties", [("fourier", (0,)), ("cpow", (0, 1))])
    @pytest.mark.parametrize("power", [1, 2, -1, 4])
    def test_only_a_shift_has_a_power(self, kind, parties, power):
        with pytest.raises(ValueError, match=f"^a {kind} gate has no power"):
            Gate(kind, 3, parties, power)

    @pytest.mark.parametrize("kind,parties", [("fourier", (0,)), ("cpow", (0, 1))])
    def test_power_that_reduces_to_zero_is_kept(self, kind, parties):
        assert Gate(kind, 3, parties, 6) == Gate(kind, 3, parties)

    def test_earlier_checks_report_first(self):
        with pytest.raises(ValueError, match=r"^d must be >= 2$"):
            Gate("swap", 1, (0, 1))
        with pytest.raises(ValueError, match=r"^control and target must differ$"):
            Gate("fourier", 2, (0, 0))

    @pytest.mark.parametrize("d", range(2, 8))
    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_valid_gate_round_trips_through_text(self, d, n):
        gates = [shift_gate(d, k, p) for p in range(n) for k in range(d)]
        gates += [fourier_gate(d, p) for p in range(n)]
        gates += [controlled_power_gate(d, c, t) for c, t in itertools.permutations(range(n), 2)]
        circuit = Circuit((d,) * n, tuple(gates))
        assert circuit_from_text(circuit_to_text(circuit), circuit.dims).gates == circuit.gates


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in quditmask.__all__:
            assert getattr(quditmask, name) is not None, name

    def test_relabel_is_gone(self):
        assert not any("relabel" in name.lower() for name in quditmask.__all__)
        assert not hasattr(quditmask, "relabel_gate")
        assert not hasattr(quditmask.gates, "RELABEL")


class TestAncillaSizeBudget:
    def test_over_budget_refused_before_allocating(self):
        state = basis_state((65, 65), (0, 0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the size budget"):
                append_ancilla(state, 65, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d,count", [(2, 0), (2, -1), (1, 2)])
    def test_ancilla_arguments_checked(self, d, count):
        with pytest.raises(ValueError, match=r"^need d >= 2 and count >= 1$"):
            append_ancilla(basis_state((2, 2), (0, 0)), d, count)

    def test_circuit_mask_refused(self):
        with pytest.raises(ValueError, match="over the size budget"):
            circuit_mask(65, basis_state((65 * 65,), (0,)))

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(tensorcore, "SIZE_BUDGET_BYTES", 16 * 3**4)
        out = append_ancilla(basis_state((3, 3), (1, 2)), 3, 2)
        assert out.amps.tobytes() == basis_state((3,) * 4, (1, 2, 0, 0)).amps.tobytes()
        with pytest.raises(ValueError, match="over the size budget"):
            append_ancilla(basis_state((3, 3, 3), (0, 0, 0)), 3, 2)
        with pytest.raises(ValueError, match="over the size budget"):
            append_ancilla(basis_state((4, 4), (0, 0)), 4, 2)

    def test_cli_input_over_budget_exits_64(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("1 0\n" + "0 0\n" * (65 * 65 - 1))
        tracemalloc.start()
        try:
            code = main(["circuit", "--d", "65", "--input", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "over the size budget" in captured.err
        assert peak < 4 << 20

    def test_cli_without_input_still_prints_the_circuit(self, capsys):
        assert main(["circuit", "--d", "65"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "CPOW d=65 c=0 t=2"
        assert len(out.splitlines()) == 6


class TestCircuitFileDimension:
    def test_zero_dimension_gate_exits_64(self, capsys, tmp_path):
        path = tmp_path / "zero_d.txt"
        path.write_text("X^k d=0 p=0 k=1\n")
        code = main(["circuit", "--d", "2", "--apply", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "d must be >= 2" in captured.err
        assert "ZeroDivisionError" not in captured.err

