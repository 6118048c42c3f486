"""Qudit gate constructors and circuit application.

One path applies every gate, and full register matrices are never
materialized: a transpose puts the gate's parties first; Fourier
contracts its matrix over them, and every other kind writes row k,
through the same transpose of one register-order output block, to
perm[k] of its basis permutation.
`Gate.matrix()` builds the dense local form from that permutation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .tensorcore import ShapeError, StateVector, check_size_budget

SHIFT = "shift"
FOURIER = "fourier"
CPOW = "cpow"
_ARITY = {SHIFT: 1, FOURIER: 1, CPOW: 2}  # the paper's three gates and their party counts


@dataclass(frozen=True)
class Gate:
    """One gate of a qudit circuit.

    kind: "shift" (cyclic X^power on one party), "fourier" (discrete
    Fourier transform on one party), or "cpow" (|j><j| (x) U^j on a
    control/target pair), each on parties of local dimension d >= 2.
    parties: target party index; (control, target) for cpow.
    power: reduced mod d; only a shift carries a nonzero one.
    d, parties and power are stored as Python ints (parties as a tuple);
    a non-integer such as 2.5 raises TypeError.
    Any other kind, party count or power is refused when the Gate is built.
    """

    kind: str
    d: int
    parties: tuple[int, ...]
    power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", operator.index(self.d))
        object.__setattr__(self, "parties", tuple(operator.index(p) for p in self.parties))
        object.__setattr__(self, "power", operator.index(self.power))
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("control and target must differ")
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.parties) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} gate party count must be {_ARITY[self.kind]}, got {self.parties!r}")
        if self.kind != SHIFT and self.power % self.d:
            raise ValueError(f"a {self.kind} gate has no power, got {self.power}")
        object.__setattr__(self, "power", self.power % self.d)

    def matrix(self) -> np.ndarray:
        """Dense unitary acting on the gate's own parties."""
        d = self.d
        if self.kind == FOURIER:
            j = np.arange(d)
            return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
        # The other kinds permute basis states: column k has its 1 in row perm[k].
        perm = self._permutation()
        out = np.zeros((len(perm), len(perm)), dtype=complex)
        out[perm, np.arange(len(perm))] = 1.0
        return out

    def _permutation(self) -> np.ndarray:
        """|k> -> |perm[k]> on the gate's parties."""
        d = self.d
        if self.kind == SHIFT:
            return (np.arange(d) + self.power) % d
        k = np.arange(d * d)  # cpow: k = control * d + target
        return k - k % d + (k % d + k // d) % d


def shift_gate(d: int, power: int, party: int) -> Gate:
    """Cyclic shift |j> -> |(j+power) mod d| on one party."""
    return Gate(SHIFT, d, (party,), power=power)


def fourier_gate(d: int, party: int) -> Gate:
    """Discrete Fourier gate F|j> = (1/sqrt d) sum_l w^{jl} |l>, the Hadamard at d=2."""
    return Gate(FOURIER, d, (party,))


def controlled_power_gate(d: int, control: int, target: int) -> Gate:
    """|j>|t> -> |j>|(t+j) mod d>; the C-NOT at d=2."""
    return Gate(CPOW, d, (control, target))


@dataclass(frozen=True)
class Circuit:
    dims: tuple[int, ...]
    gates: tuple[Gate, ...]

    def __post_init__(self):
        dims = tuple(operator.index(d) for d in self.dims)
        gates = tuple(self.gates)
        for g in gates:
            _check_gate(g, dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "gates", gates)


def _check_gate(gate: Gate, dims: tuple[int, ...]):
    for p in gate.parties:
        if not 0 <= p < len(dims):
            raise ShapeError(f"party {p} out of range for {len(dims)} parties")
        if dims[p] != gate.d:
            raise ShapeError(f"gate dimension {gate.d} != party {p} dimension {dims[p]}")


def apply_gate(gate: Gate, state: StateVector) -> StateVector:
    """Apply one gate by index arithmetic on the amplitude tensor."""
    _check_gate(gate, state.dims)
    n = len(state.dims)
    axes = gate.parties
    order = axes + tuple(p for p in range(n) if p not in axes)  # gate parties lead
    arr = state.tensor().transpose(order)
    if gate.kind == FOURIER:
        out = np.tensordot(gate.matrix(), arr, axes=([1], [0])).transpose(np.argsort(order))
    else:
        # Register order, so StateVector keeps this one block without a copy.
        out = np.empty(state.dims, dtype=complex)
        shape = arr.shape[: len(axes)]
        dest = np.unravel_index(gate._permutation().reshape(shape), shape)
        out.transpose(order)[dest] = arr
    out.flags.writeable = False  # ours, so StateVector holds it without a copy
    return StateVector(state.dims, out)


def apply(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit's gates in list order."""
    if state.dims != circuit.dims:
        raise ShapeError(f"state dims {state.dims} != circuit dims {circuit.dims}")
    for g in circuit.gates:
        state = apply_gate(g, state)
    return state


def append_ancilla(state: StateVector, d: int, count: int) -> StateVector:
    """Extend the register by `count` ancilla parties of dimension d in |0>."""
    if d < 2 or count < 1:
        raise ValueError("need d >= 2 and count >= 1")
    check_size_budget(state.dim, d, count)
    anc = np.zeros(d ** count, dtype=complex)
    anc[0] = 1.0
    out = np.kron(state.amps, anc)
    out.flags.writeable = False
    return StateVector(state.dims + (d,) * count, out)


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented serialization: one gate per line, 0-based parties."""
    lines = []
    for g in circuit.gates:
        if g.kind == CPOW:
            lines.append(f"CPOW d={g.d} c={g.parties[0]} t={g.parties[1]}")
        elif g.kind == FOURIER:
            lines.append(f"F d={g.d} p={g.parties[0]}")
        else:
            lines.append(f"X^k d={g.d} p={g.parties[0]} k={g.power}")
    return "\n".join(lines) + ("\n" if lines else "")


def circuit_from_text(text: str, dims: list[int] | tuple[int, ...]) -> Circuit:
    """Parse the text format produced by circuit_to_text."""
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            op, kv = fields[0], dict(f.split("=", 1) for f in fields[1:])
            if op == "CPOW":
                gates.append(controlled_power_gate(int(kv["d"]), int(kv["c"]), int(kv["t"])))
            elif op == "F":
                gates.append(fourier_gate(int(kv["d"]), int(kv["p"])))
            elif op == "X^k":
                gates.append(shift_gate(int(kv["d"]), int(kv["k"]), int(kv["p"])))
            else:
                raise ValueError(f"unknown gate {op!r}")
        except (KeyError, ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {line!r}: {exc}") from exc
    return Circuit(tuple(dims), tuple(gates))
