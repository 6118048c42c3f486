"""apply_gate's one application path.

Every kind is checked bit for bit against the per-kind code it replaced
(written out below: `np.roll` for a shift, one roll per control value
for cpow, a tensordot over the party for Fourier), and on
mixed-dimension registers against dense operators.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    StateVector,
    apply_gate,
    controlled_power_gate,
    fourier_gate,
    shift_gate,
)
from quditmask.gates import Gate
from oracles import embed_cpow, embed_single


def per_kind_apply(gate, state):
    """The per-kind application the single path replaced."""
    arr = state.tensor()
    if gate.kind == "shift":
        arr = np.roll(arr, gate.power, axis=gate.parties[0])
    elif gate.kind == "fourier":
        p = gate.parties[0]
        arr = np.moveaxis(np.tensordot(gate.matrix(), arr, axes=([1], [p])), 0, p)
    else:
        c, t = gate.parties
        arr = arr.copy()
        idx = [slice(None)] * len(state.dims)
        for j in range(1, gate.d):
            idx[c] = j
            arr[tuple(idx)] = np.roll(arr[tuple(idx)], j, axis=t if t < c else t - 1)
    return arr.reshape(-1)


def signed_zero_state(dims, seed):
    """A random state with some real or imaginary parts set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    for part in (re, im):
        part[rng.random(n) < 0.25] = 0.0
        part[rng.random(n) < 0.25] = -0.0
    return StateVector(tuple(dims), re + 1j * im)


def every_gate(dims, seed):
    """Each shift power and the Fourier gate on every party, cpow on every
    ordered pair of equal-dimension parties."""
    for p, d in enumerate(dims):
        for power in range(d):
            yield shift_gate(d, power, p)
        yield fourier_gate(d, p)
    for c, t in itertools.permutations(range(len(dims)), 2):
        if dims[c] == dims[t]:
            yield controlled_power_gate(dims[c], c, t)


HOMOGENEOUS = [(d,) * n for d in range(2, 8) for n in (2, 3, 4)]
MIXED = [(2, 3), (3, 2), (2, 3, 5), (3, 2, 3), (2, 2, 3), (5, 2, 5, 3), (3, 2, 2, 3), (2, 4, 2, 4)]


class TestMatchesPerKindCode:
    @pytest.mark.parametrize("dims", HOMOGENEOUS + MIXED, ids=str)
    def test_bit_identical(self, dims):
        psi = signed_zero_state(dims, seed=sum(dims) * len(dims))
        for gate in every_gate(dims, seed=len(dims)):
            got = apply_gate(gate, psi).amps
            assert got.tobytes() == per_kind_apply(gate, psi).tobytes(), gate

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_signed_zero_basis_inputs(self, d):
        dims = (d, d, d)
        for k in range(d**3):
            amps = np.full(d**3, complex(-0.0, -0.0))
            amps[k] = 1.0
            psi = StateVector(dims, amps)
            for gate in every_gate(dims, seed=k):
                assert apply_gate(gate, psi).amps.tobytes() == per_kind_apply(gate, psi).tobytes()


class TestMixedDimsMatchDenseOperators:
    @pytest.mark.parametrize("dims", MIXED, ids=str)
    def test_single_party_gates(self, dims):
        psi = signed_zero_state(dims, seed=7)
        for p, d in enumerate(dims):
            for gate in [shift_gate(d, 1, p), shift_gate(d, d - 1, p), fourier_gate(d, p)]:
                want = embed_single(gate.matrix(), p, dims) @ psi.amps
                assert np.max(np.abs(apply_gate(gate, psi).amps - want)) <= 1e-12

    @pytest.mark.parametrize("dims", [dims for dims in MIXED if len(set(dims)) < len(dims)], ids=str)
    def test_controlled_power(self, dims):
        psi = signed_zero_state(dims, seed=8)
        pairs = [(c, t) for c, t in itertools.permutations(range(len(dims)), 2) if dims[c] == dims[t]]
        assert pairs
        for c, t in pairs:
            want = embed_cpow(dims[c], c, t, dims) @ psi.amps
            got = apply_gate(controlled_power_gate(dims[c], c, t), psi).amps
            assert np.max(np.abs(got - want)) <= 1e-12


class TestOnePermutation:
    def test_matrix_and_apply_read_the_same_map(self, monkeypatch):
        reversed_map = lambda gate: np.arange(gate.d)[::-1].copy()
        monkeypatch.setattr(Gate, "_permutation", reversed_map)
        gate = shift_gate(3, 1, 1)
        want = np.zeros((3, 3), dtype=complex)
        want[[2, 1, 0], [0, 1, 2]] = 1.0
        assert gate.matrix().tobytes() == want.tobytes()
        psi = signed_zero_state((2, 3), seed=3)
        expected = psi.tensor()[:, ::-1].reshape(-1)
        assert apply_gate(gate, psi).amps.tobytes() == expected.tobytes()

    def test_unknown_kind_raises_in_both(self):
        # Refused when built, so neither matrix() nor apply_gate ever sees it.
        with pytest.raises(ValueError, match="unknown gate kind 'swap'"):
            Gate("swap", 2, (0,))


class TestOneOutputBlock:
    @pytest.mark.parametrize(
        "gate",
        [shift_gate(16, 3, 0), shift_gate(16, 3, 3),
         controlled_power_gate(16, 1, 3), controlled_power_gate(16, 3, 0)],
        ids=lambda g: f"{g.kind}{g.parties}",
    )
    def test_permutation_gate_allocates_one_block(self, gate):
        # The output is written in register order, so StateVector keeps it:
        # no moved copy of the input and no second copy of the output.
        psi = signed_zero_state((16,) * 4, seed=5)
        tracemalloc.start()
        try:
            out = apply_gate(gate, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.amps.flags.c_contiguous
        assert peak < 1.25 * psi.amps.nbytes
