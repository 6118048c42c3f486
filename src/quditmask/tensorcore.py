"""Dense complex state-vector and density-matrix arithmetic over multi-qudit registers.

States live on registers with explicit per-party dimensions; the flat
amplitude index is big-endian in party order (party 0 is the most
significant digit), so a transcribed ket like |0110> lands at the index
you'd read off left to right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The package's one tolerance table.
HERMITICITY_TOL = 1e-12  # max |rho - rho^dagger| accepted by DensityMatrix
PSD_TOL = 1e-10  # most negative eigenvalue accepted by DensityMatrix
NORM_TOL = 1e-12  # StateVector.is_normalized
GRAM_TOL = 1e-11  # max |G - I| of a scheme's images or a basis
MARGINAL_TOL = 1e-10  # max-entry distance of a masked marginal from I/d
MEB_MARGINAL_TOL = 1e-11  # the same distance for a basis element in certify_meb
VARIATION_TOL = 1e-10  # max-entry spread of a marginal across verified inputs
INPUT_NORM_TOL = 1e-9  # | ||a|| - 1 | accepted for CLI input amplitudes


class ShapeError(ValueError):
    """Register dimensions of two operands are incompatible."""


@dataclass(frozen=True)
class StateVector:
    """Pure state on a multi-qudit register.

    dims: per-party local dimensions, each >= 2.
    amps: complex amplitudes of length prod(dims), big-endian party order.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"every party dimension must be >= 2, got {dims}")
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != int(np.prod(dims)):
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

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(np.vdot(self.amps, self.amps).real - 1.0) <= tol

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
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[idx] = 1.0
    return StateVector(dims, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace (when from a normalized state), PSD-within-tolerance matrix."""

    dim: int
    mat: np.ndarray
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ShapeError(f"matrix shape {mat.shape} != ({self.dim}, {self.dim})")
        if self.check:
            if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
                raise ValueError("matrix is not Hermitian within tolerance")
            if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -PSD_TOL:
                raise ValueError("matrix is not positive semidefinite within tolerance")
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


def partial_trace(state: StateVector, keep: list[int] | tuple[int, ...] | set[int]) -> DensityMatrix:
    """Reduced density matrix on the `keep` parties, tracing out the rest.

    The kept parties retain their relative order.
    """
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep-set must be non-empty")
    if keep[0] < 0 or keep[-1] >= state.n_parties:
        raise ValueError(f"keep-set {keep} out of range for {state.n_parties} parties")
    drop = [i for i in range(state.n_parties) if i not in keep]
    psi = state.tensor().transpose(keep + drop)
    d_keep = int(np.prod([state.dims[i] for i in keep]))
    psi = psi.reshape(d_keep, -1)
    return DensityMatrix(d_keep, psi @ psi.conj().T)


def distance_to_maximally_mixed(rho: DensityMatrix) -> float:
    """Max-entry norm of rho - I/dim; zero iff maximally mixed."""
    diff = rho.mat.copy()
    diff.flat[:: rho.dim + 1] -= 1 / rho.dim  # the diagonal only: cheaper than building I/dim
    return float(np.max(np.abs(diff)))


def gram_deviation(states: tuple[StateVector, ...] | list[StateVector]) -> float:
    """Max-entry norm of G - I for the Gram matrix G of the states; 0.0 if none."""
    if not states:
        return 0.0
    mat = np.array([s.amps for s in states])
    return float(np.max(np.abs(mat.conj() @ mat.T - np.eye(len(states)))))


def complex_pairs(a: np.ndarray) -> list:
    """A complex array of any shape as nested lists ending in [re, im] pairs."""
    return np.stack((a.real, a.imag), -1).tolist()
