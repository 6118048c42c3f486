"""Compare the two routes to a masked state for qutrits (d = 3).

Route 1 applies the column map directly: |k> goes to the k-th entangled
pair of 2-qutrit basis elements. Route 2 runs the controlled-gate circuit
on the digit-encoded input. The outputs agree amplitude by amplitude to
within rounding (a few 1e-16), though not bit for bit.
"""

import numpy as np

from quditmask import (
    build_scheme,
    circuit_mask,
    circuit_to_text,
    haar_random_state,
    mask,
    partial_trace,
    qudit4_circuit,
)

d = 3
scheme = build_scheme(d * d, d, 4)
print(f"masking C^{d*d} into {scheme.m} qutrits; circuit:")
print(circuit_to_text(qudit4_circuit(d)))

rng = np.random.default_rng(0)
x = haar_random_state(d * d, rng)

direct = mask(scheme, x)
via_circuit = circuit_mask(d, x)
print(f"max amplitude difference: {np.max(np.abs(direct.amps - via_circuit.amps)):.2e}")
print(f"fidelity: {abs(np.vdot(direct.amps, via_circuit.amps)):.15f}")

for party in range(4):
    rho = partial_trace(direct, [party])
    dev = np.max(np.abs(rho - np.eye(d) / d))
    print(f"party {party}: deviation from I/{d} = {dev:.2e}")
