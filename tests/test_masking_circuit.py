"""One masking circuit for every d: the gates are listed once, in the
paper's step order, and `qubit4_circuit()` is `qudit4_circuit(2)`."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    Circuit,
    MaskingScheme,
    StateVector,
    append_ancilla,
    apply,
    basis_state,
    build_scheme,
    circuit_mask,
    digit_encode,
    haar_random_state,
    mask,
    qubit4_circuit,
    qudit4_circuit,
    verify_scheme,
)
from quditmask.cli import EXIT_OK, main
from quditmask.gates import apply_gate, controlled_power_gate, fourier_gate


def _complex_amps(w):
    return ",".join(f"{k + 1}-{k % 3}j" for k in range(w))


def _fourier_first_circuit(d):
    """The gate order before the two lists became one: both Fourier gates
    before the phase-spreading shifts. F 2 and CPOW 0->1 act on disjoint
    parties, so this is the same unitary."""
    return Circuit(
        (d,) * 4,
        (
            controlled_power_gate(d, 0, 2),
            controlled_power_gate(d, 1, 3),
            fourier_gate(d, 0),
            fourier_gate(d, 2),
            controlled_power_gate(d, 0, 1),
            controlled_power_gate(d, 2, 3),
        ),
    )


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_qubit_circuit_is_the_qudit_circuit_at_d2():
    assert qubit4_circuit() == qudit4_circuit(2)


def test_circuit_text_lists_the_steps_in_order(capsys):
    code, out = _run(capsys, "circuit", "--d", "3")
    assert code == EXIT_OK
    assert out == (
        "CPOW d=3 c=0 t=2\n"
        "CPOW d=3 c=1 t=3\n"
        "F d=3 p=0\n"
        "CPOW d=3 c=0 t=1\n"
        "F d=3 p=2\n"
        "CPOW d=3 c=2 t=3\n"
    )


# sha256 of `circuit --d D --amps ... --renormalize` output, recorded with the
# Fourier-first gate order; at even D the reordering leaves every bit in place.
@pytest.mark.parametrize(
    "d,fmt,digest",
    [
        (2, "json", "8f14eb6698516a46d494e9b811d49cc1347e86ef191f83217f7cf37a313e0c82"),
        (2, "text", "2e38ae651625962825044c4871f184e5525a0e426dc6408ca8db998cce3d1de5"),
        (4, "json", "0649628242abeecc0105856141248eca65d7b89664a0a15618dcc3a7102e5158"),
        (4, "text", "7833bc9c32c2f315ada6b65819ef5638ee5ca7d5129bef3170043794c84314dc"),
        (6, "json", "37a97121044bae26d2e16bec97e203089e0a243cd092cb4da7a103155878ab29"),
        (6, "text", "95c403e3f17ab1d1b3f0d7add6eb605ae3f358b04b4281d0bd51a35dd4763f79"),
    ],
)
def test_even_d_output_bytes_unchanged(capsys, d, fmt, digest):
    code, out = _run(capsys, "circuit", "--d", str(d), "--amps", _complex_amps(d * d), "--renormalize", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_d_output_within_1e15_of_old_order_and_mask(capsys, d):
    code, out = _run(capsys, "circuit", "--d", str(d), "--amps", _complex_amps(d * d), "--renormalize")
    assert code == EXIT_OK
    got = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
    amps = np.array([complex(tok) for tok in _complex_amps(d * d).split(",")])
    x = StateVector((d * d,), amps / np.linalg.norm(amps))
    old = apply(_fourier_first_circuit(d), append_ancilla(digit_encode(x, d), d, 2))
    assert np.abs(got - old.amps).max() <= 1e-15
    assert np.abs(got - mask(build_scheme(d * d, d, 4), x).amps).max() <= 1e-15


@pytest.mark.parametrize("d", range(2, 10))
def test_circuit_route_within_1e15_of_mask(d):
    rng = np.random.default_rng(100 + d)
    scheme = build_scheme(d * d, d, 4)
    for _ in range(30):
        x = haar_random_state(d * d, rng)
        assert np.abs(circuit_mask(d, x).amps - mask(scheme, x).amps).max() <= 1e-15


@pytest.mark.parametrize("d", range(2, 10))
def test_circuit_images_verify_as_a_caller_scheme(d):
    # The circuit's outputs on the d^2 basis inputs are the columns of its
    # map; stacked as a caller's scheme, they are scanned, not built.
    images = [circuit_mask(d, basis_state((d * d,), (k,))) for k in range(d * d)]
    scheme = MaskingScheme(d * d, d, 4, images)
    report = verify_scheme(scheme, n_samples=2)
    assert report.passed, report.checks


@pytest.mark.parametrize("party", range(4))
def test_fourier_gate_holds_at_most_three_blocks(party):
    # Input, tensordot's result and StateVector's register-order copy: the
    # transposed copy tensordot makes is freed before StateVector copies.
    d = 16
    rng = np.random.default_rng(party)
    state = StateVector((d,) * 4, rng.standard_normal(d**4) + 1j * rng.standard_normal(d**4))
    gate = fourier_gate(d, party)
    tracemalloc.start()
    try:
        out = apply_gate(gate, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.dims == state.dims
    assert peak < 2.25 * 16 * d**4
