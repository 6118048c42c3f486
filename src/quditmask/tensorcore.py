"""Dense complex state-vector and density-matrix arithmetic over multi-qudit registers.

States live on registers with explicit per-party dimensions; the flat
amplitude index is big-endian in party order (party 0 is the most
significant digit), so a transcribed ket like |0110> lands at the index
you'd read off left to right.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# The package's one tolerance table.
HERMITICITY_TOL = 1e-12  # max |rho - rho^dagger| accepted by DensityMatrix
PSD_TOL = 1e-10  # most negative eigenvalue accepted by DensityMatrix
GRAM_TOL = 1e-11  # max |G - I| of a scheme's images or a basis
MARGINAL_TOL = 1e-10  # max-entry distance of a masked marginal from I/d
MEB_MARGINAL_TOL = 1e-11  # the same distance for a basis element in certify_meb
VARIATION_TOL = 1e-10  # max-entry spread of a marginal across verified inputs
INPUT_NORM_TOL = 1e-9  # | ||a|| - 1 | accepted for CLI input amplitudes
SIZE_BUDGET_BYTES = 2**28  # largest complex block (16 B per entry) build_scheme, ghz_amplitudes, append_ancilla or verify_scheme allocates


class ShapeError(ValueError):
    """Register dimensions of two operands are incompatible."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on a multi-qudit register.

    dims: per-party local dimensions, each an integer >= 2 (a float raises TypeError).
    amps: complex amplitudes of length prod(dims), big-endian party order.
    Equality is identity; compare `amps` to compare states.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(operator.index(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"every party dimension must be >= 2, got {dims}")
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ShapeError(f"amplitude length {amps.size} != prod{dims}")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amps.reshape(self.dims)


def basis_state(dims: list[int] | tuple[int, ...], digits: list[int] | tuple[int, ...]) -> StateVector:
    """Computational basis ket |digits> on the given register."""
    dims = tuple(dims)
    if len(digits) != len(dims):
        raise ShapeError("one digit per party required")
    idx = 0
    for d, k in zip(dims, digits):
        if not 0 <= k < d:
            raise ValueError(f"digit {k} out of range for dimension {d}")
        idx = idx * d + k
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[idx] = 1.0
    return StateVector(dims, amps)


@dataclass(frozen=True)
class FreshBlock:
    """A complex (N, dim) block the package has just allocated and holds no
    other reference to; stack_states keeps it without a copy."""

    block: np.ndarray


def stack_states(states, dims: tuple[int, ...], count: int | None, noun: str) -> tuple[np.ndarray, tuple[StateVector, ...]]:
    """States on `dims`, given as an (N, prod(dims)) block or a sequence of
    StateVectors (N = count unless count is None), as one read-only block
    plus read-only StateVector views of its rows; `noun` names a state in errors.
    A caller's block is copied, so no view of it made before or after can
    rewrite the states; only a FreshBlock is kept as it is."""
    dim = math.prod(dims)
    if isinstance(states, FreshBlock):
        amps = states.block
    elif isinstance(states, np.ndarray):
        amps = np.array(states, dtype=complex)
    else:
        states = tuple(states)
        if count is not None and len(states) != count:
            raise ValueError(f"expected {count} {noun}s, got {len(states)}")
        amps = np.empty((len(states), dim), dtype=complex)
        for row, s in zip(amps, states):
            if s.dims != dims:
                raise ValueError(f"{noun} dims {s.dims} != {dims}")
            row[:] = s.amps
    if amps.ndim != 2 or amps.shape[1] != dim or count not in (None, len(amps)):
        raise ValueError(f"{noun} block shape {amps.shape} != ({'N' if count is None else count}, {dim})")
    amps.flags.writeable = False
    return amps, tuple(StateVector(dims, row) for row in amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace (when from a normalized state), PSD-within-tolerance
    matrix. Equality is identity; compare `mat` to compare matrices."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ShapeError(f"matrix shape {mat.shape} != ({self.dim}, {self.dim})")
        _check_densities(mat[None])
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product a (x) b; parties of `a` come first."""
    return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dims != b.dims:
        raise ShapeError(f"dims mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def density_of(state: StateVector) -> DensityMatrix:
    """Rank-1 projector |state><state|."""
    return DensityMatrix(state.dim, np.outer(state.amps, state.amps.conj()))


def _check_densities(rho: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the (N, k, k) stack is
    Hermitian and positive semidefinite within tolerance."""
    # ndarray-method reductions: the np.max/np.min wrappers cost more than
    # the reductions themselves on these small stacks.
    rho_h = rho.conj().transpose(0, 2, 1)
    if np.abs(rho - rho_h).max(initial=0.0) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    herm = (rho + rho_h) / 2
    if not np.isfinite(herm).all():
        # LAPACK fails on a non-finite matrix, so those are left out; their
        # NaN entries fail every deviation check downstream.
        herm = herm[np.isfinite(herm).all(axis=(1, 2))]
    if np.linalg.eigvalsh(herm).min(initial=0.0) < -PSD_TOL:
        raise ValueError("matrix is not positive semidefinite within tolerance")


def check_size_budget(rows: int, base: int, power: int = 1) -> None:
    """Raise ValueError, before anything is allocated, if `rows` states of
    base**power complex amplitudes exceed SIZE_BUDGET_BYTES. A huge power is
    never formed: at base >= 2, base**b is over the budget already for b the
    budget's bit length, so the power is capped at b."""
    size = 16 * rows * base ** min(power, SIZE_BUDGET_BYTES.bit_length())
    if size > SIZE_BUDGET_BYTES:
        dim = base if power == 1 else f"{base}^{power}"
        raise ValueError(f"{rows} states of {dim} amplitudes are over the size budget of {SIZE_BUDGET_BYTES} bytes")


def _marginals(amps: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """The (N, dk, dk) marginals of reduced_densities, unchecked."""
    dims = tuple(dims)
    keep = sorted(set(map(int, keep)))
    if not keep:
        raise ValueError("keep-set must be non-empty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep-set {keep} out of range for {len(dims)} parties")
    drop = [i for i in range(len(dims)) if i not in keep]
    d_keep = math.prod(dims[i] for i in keep)
    psi = amps.reshape((len(amps),) + dims).transpose([0] + [i + 1 for i in keep + drop])
    psi = psi.reshape(len(amps), d_keep, math.prod(dims) // d_keep)
    return psi @ psi.conj().transpose(0, 2, 1)


def reduced_densities(amps: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Reduced density matrices on the `keep` parties of a stack of states.

    amps: (N, prod(dims)) amplitudes, one state per row. Returns the
    (N, dk, dk) marginals, dk the product of the kept dimensions, with the
    kept parties in their relative order. The whole stack is checked at
    once against the DensityMatrix tolerances, with the same messages.
    """
    rho = _marginals(amps, dims, keep)
    _check_densities(rho)
    return rho


def partial_trace(state: StateVector, keep: list[int] | tuple[int, ...] | set[int]) -> DensityMatrix:
    """Reduced density matrix on the `keep` parties, tracing out the rest.

    The kept parties retain their relative order. A batch of one for
    reduced_densities; DensityMatrix validates the result.
    """
    rho = _marginals(state.amps[None], state.dims, keep)[0]
    return DensityMatrix(len(rho), rho)


def max_distance_to_maximally_mixed(mats: np.ndarray) -> float:
    """Max-entry norm of mat - I/d over a (..., d, d) stack; 0.0 if empty,
    NaN if any entry is NaN."""
    d = mats.shape[-1]
    return float(np.abs(mats - np.eye(d) / d).max(initial=0.0))


def distance_to_maximally_mixed(rho: DensityMatrix) -> float:
    """Max-entry norm of rho - I/dim; zero iff maximally mixed."""
    return max_distance_to_maximally_mixed(rho.mat)


def gram_deviation(amps: np.ndarray) -> float:
    """Max-entry norm of G - I for the Gram matrix G of the rows of a
    (N, dim) amplitude block; 0.0 if N = 0."""
    return float(np.abs(amps.conj() @ amps.T - np.eye(len(amps))).max(initial=0.0))


def complex_pairs(a: np.ndarray) -> list:
    """A complex array of any shape as nested lists ending in [re, im] pairs."""
    return np.stack((a.real, a.imag), -1).tolist()
