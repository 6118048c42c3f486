"""Masking schemes: isometric column maps k -> |Psi_k> onto multi-qudit
registers, and their realization as controlled-gate circuits for four
parties."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, apply, append_ancilla, controlled_power_gate, fourier_gate
from .meb import ghz_amplitudes, two_qudit_labels
from .tensorcore import Block, ShapeError, StateVector, _StateBlock, check_size_budget, complex_pairs, gram_deviation


class BoundViolationError(ValueError):
    """Requested input level count exceeds a bound: the construction capacity
    d^floor(m/2) for build_scheme, the quantum Singleton bound d^(m-2) for any
    MaskingScheme."""


@dataclass(frozen=True, eq=False)
class MaskingScheme(_StateBlock):
    """Ordered list of w orthonormal m-party image states over (C^d)^(x m).

    The images are stored once, as the read-only (w, d**m) block `amps`, with
    read-only StateVector views of its rows in `images`; pass either as `images`.
    A built scheme holds only its images' support until `amps` or `images`
    is read. Equality is identity; compare `amps` to compare schemes.
    """

    _ROWS = "images"

    w: int
    d: int
    m: int
    images: tuple[StateVector, ...] | np.ndarray
    provenance: str = "custom"

    def __post_init__(self):
        self._hold("w", "m", "image")
        # Images that mask every single party span a distance-2 code, so w
        # is bounded by the quantum Singleton bound, not by the capacity of
        # build_scheme's construction.
        if self.w > self.d ** (self.m - 2):
            raise BoundViolationError(
                f"w={self.w} exceeds the quantum Singleton bound d^(m-2) = {self.d ** (self.m - 2)}"
            )

    def gram_deviation(self) -> float:
        return gram_deviation(self._block)


def masking_capacity(d: int, m: int) -> int:
    """Largest level count build_scheme's construction masks into m qudits:
    d^floor(m/2). Other schemes can mask more, up to d^(m-2)."""
    return d ** (m // 2)


def build_scheme(w: int, d: int, m: int) -> MaskingScheme:
    """Mask a w-level system into m parties of dimension d.

    The register is split into halves of floor(m/2) and ceil(m/2) parties;
    image k is the tensor product of the k-th GHZ-type basis elements of
    the two halves (the 2-qudit family ordering for m = 4, which
    reproduces the Bell-pair scheme at d = 2).
    """
    w, d, m = map(operator.index, (w, d, m))
    if w < 2 or d < 2:
        raise ValueError("need w >= 2 and d >= 2")
    if m < 4:
        raise ValueError("only m >= 4 party registers are constructed")
    # d^floor(m/2) > w once the power passes w.bit_length(), so no larger power is formed.
    if w > d ** min(m // 2, w.bit_length()):
        raise BoundViolationError(
            f"w={w} exceeds the masking capacity d^floor(m/2) = {masking_capacity(d, m)} "
            f"for d={d}, m={m}"
        )
    check_size_budget(w, d, m)
    if m == 4:
        left = right = ghz_amplitudes(d, 2, two_qudit_labels(d, w))
    else:
        left = ghz_amplitudes(d, m // 2, np.arange(w))
        right = ghz_amplitudes(d, (m + 1) // 2, np.arange(w))
    # Row k's support is column i * width + j over the pairs of its factors'
    # supports (d entries each), ascending as i and j ascend; each value is
    # one product, as _kron_rows writes it when the block is made.
    width = right.shape[1]
    cols = left.support[1].reshape(w, -1, 1) * width + right.support[1].reshape(w, 1, -1)
    vals = left.support[2].reshape(w, -1, 1) * right.support[2].reshape(w, 1, -1)
    rows = np.repeat(np.arange(w), cols[0].size)
    provenance = {
        (4, 2, 4): "example1",
        (8, 2, 6): "example2",
    }.get((w, d, m), "theorem1" if m == 4 and w == d * d else "theorem2")
    make = functools.partial(_kron_rows, left.make, right.make)
    return MaskingScheme(w, d, m, Block.at((w, d**m), rows, cols.reshape(-1), vals.reshape(-1), make), provenance)


def _kron_rows(make_left, make_right) -> np.ndarray:
    """The row-wise kron of two factor blocks, made here and not kept, each
    entry one product, as np.kron of the rows gives it. Unlike a scatter
    into np.zeros, it writes -0.0 where a negative factor entry meets a zero."""
    a, b = make_left(), make_right()
    images = np.empty((len(a), a.shape[1] * b.shape[1]), dtype=complex)
    np.multiply(a[:, :, None], b[:, None, :], out=images.reshape(len(a), a.shape[1], b.shape[1]))
    return images


def example1_scheme() -> MaskingScheme:
    """C^4 into four qubits via Bell pairs."""
    return build_scheme(4, 2, 4)


def example2_scheme() -> MaskingScheme:
    """C^8 into six qubits via 3-qubit GHZ pairs."""
    return build_scheme(8, 2, 6)


def mask(scheme: MaskingScheme, state: StateVector) -> StateVector:
    """Apply the column map: sum_k a_k |k>  ->  sum_k a_k images[k]."""
    if state.dims != (scheme.w,):
        raise ShapeError(f"input must be a single party of dimension {scheme.w}, got dims {state.dims}")
    out = np.zeros(scheme.d ** scheme.m, dtype=complex)
    # Sum over the images' support only (d^2 entries per built image). add.at
    # accumulates unbuffered in index order, and the support is row-major, so
    # each amplitude gets its terms in image order, as one axpy per image
    # would; the skipped terms a*0 are +-0 and never change a sum from +0.
    rows, cols, vals = scheme._block.support
    np.add.at(out, cols, state.amps[rows] * vals)
    out.flags.writeable = False
    masked = StateVector((scheme.d,) * scheme.m, out)
    # Its nonzeros lie in the images' support columns, so no scan finds them.
    object.__setattr__(masked, "_block", Block.of(out[None], within=cols))
    return masked


def digit_encode(state: StateVector, d: int) -> StateVector:
    """Write a w-level input (w <= d^2) into two d-level parties:
    |k> -> |k mod d>|floor(k/d)>."""
    if len(state.dims) != 1:
        raise ShapeError(f"input must be a single party, got dims {state.dims}")
    (w,) = state.dims
    if w > d * d:
        raise ShapeError(f"cannot encode {w} levels into two parties of dimension {d}")
    out = np.zeros(d * d, dtype=complex)
    out[two_qudit_labels(d, w)] = state.amps
    return StateVector((d, d), out)


def qubit4_circuit() -> Circuit:
    """The four-step 4-qubit masking circuit: qudit4_circuit(2)."""
    return qudit4_circuit(2)


def qudit4_circuit(d: int) -> Circuit:
    """The four-step 4-party masking circuit on the digit-encoded input and two
    |0> ancillas: copy party 0 to 2, copy party 1 to 3, then on each half (0, 1)
    and (2, 3) a Fourier gate and a phase-spreading controlled shift."""
    return Circuit(
        (d, d, d, d),
        (
            controlled_power_gate(d, 0, 2),
            controlled_power_gate(d, 1, 3),
            fourier_gate(d, 0),
            controlled_power_gate(d, 0, 1),
            fourier_gate(d, 2),
            controlled_power_gate(d, 2, 3),
        ),
    )


def circuit_mask(d: int, state: StateVector) -> StateVector:
    """Run the 4-party circuit route: digit-encode, add two ancillas, apply."""
    encoded = append_ancilla(digit_encode(state, d), d, 2)
    return apply(qudit4_circuit(d), encoded)


def min_parties(w: int, d: int) -> int:
    """Smallest register size the constructions call for: 2*ceil(log_d w),
    computed in exact integer arithmetic."""
    if w < 2 or d < 2:
        raise ValueError("need w >= 2 and d >= 2")
    t, power = 0, 1
    while power < w:
        power *= d
        t += 1
    return 2 * t


def scheme_to_json_dict(scheme: MaskingScheme) -> dict:
    """JSON-ready document {w, d, m, provenance, images}."""
    doc = _scheme_document(scheme)
    doc["images"] = complex_pairs(doc["images"])
    return doc


def _scheme_document(scheme: MaskingScheme) -> dict:
    """The document of scheme_to_json_dict with the images as the block
    `amps`, as the CLI's JSON writer takes it."""
    return {
        "w": scheme.w,
        "d": scheme.d,
        "m": scheme.m,
        "provenance": scheme.provenance,
        "images": scheme.amps,
    }
