"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles (explicit index
loops, dense kron embeddings, direct formula evaluation) and deliberately
shares no code paths with the package internals it checks.
"""

from __future__ import annotations

import itertools

import numpy as np


def ket_index(digits: str | tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Flat big-endian index of a computational basis ket."""
    if isinstance(digits, str):
        digits = tuple(int(ch) for ch in digits)
    idx = 0
    for d, k in zip(dims, digits):
        assert 0 <= k < d
        idx = idx * d + k
    return idx


def state_from_kets(kets: dict[str, complex], dims: tuple[int, ...]) -> np.ndarray:
    """Assemble an amplitude vector from a {ket-string: coefficient} table."""
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    for ket, coeff in kets.items():
        amps[ket_index(ket, dims)] += coeff
    return amps


def partial_trace_oracle(amps: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    """Form the full |psi><psi| and sum explicit index blocks."""
    rho_full = np.outer(amps, amps.conj())
    keep = sorted(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    keep_dims = [dims[i] for i in keep]
    drop_dims = [dims[i] for i in drop]
    d_keep = int(np.prod(keep_dims))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(keep_digits, drop_digits):
        digits = [0] * len(dims)
        for pos, val in zip(keep, keep_digits):
            digits[pos] = val
        for pos, val in zip(drop, drop_digits):
            digits[pos] = val
        idx = 0
        for d, k in zip(dims, digits):
            idx = idx * d + k
        return idx

    keep_space = list(itertools.product(*[range(d) for d in keep_dims]))
    drop_space = list(itertools.product(*[range(d) for d in drop_dims])) or [()]
    for a, ka in enumerate(keep_space):
        for b, kb in enumerate(keep_space):
            for e in drop_space:
                out[a, b] += rho_full[flat(ka, e), flat(kb, e)]
    return out


def embed_single(matrix: np.ndarray, party: int, dims: tuple[int, ...]) -> np.ndarray:
    """Dense full-register operator for a one-party gate."""
    ops = [np.eye(d, dtype=complex) for d in dims]
    ops[party] = matrix
    full = ops[0]
    for op in ops[1:]:
        full = np.kron(full, op)
    return full


def embed_cpow(d: int, control: int, target: int, dims: tuple[int, ...]) -> np.ndarray:
    """Dense full-register operator for sum_j |j><j|_c (x) U^j_t."""
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    full = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for j in range(d):
        proj = np.zeros((d, d), dtype=complex)
        proj[j, j] = 1.0
        ops = [np.eye(dd, dtype=complex) for dd in dims]
        ops[control] = proj
        ops[target] = np.linalg.matrix_power(shift, j)
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        full += term
    return full


def two_qudit_meb_state_oracle(d: int, k: int) -> np.ndarray:
    """Direct evaluation of the 2-qudit family formula for label k."""
    omega = np.exp(2j * np.pi / d)
    amps = np.zeros(d * d, dtype=complex)
    for j in range(d):
        amps[j * d + (j + k // d) % d] += omega ** (j * (k % d)) / np.sqrt(d)
    return amps


def qudit_circuit_final_state_oracle(d: int, a: np.ndarray) -> np.ndarray:
    """Direct evaluation of the closed-form 4-qudit circuit output:
    (1/d) sum_{k,i,j} a_k w^{(i+j)(k mod d)} |j, j+k/d, i, i+k/d>."""
    omega = np.exp(2j * np.pi / d)
    amps = np.zeros(d ** 4, dtype=complex)
    for k in range(d * d):
        q = k // d
        for i in range(d):
            for j in range(d):
                idx = ket_index((j, (j + q) % d, i, (i + q) % d), (d, d, d, d))
                amps[idx] += a[k] * omega ** ((i + j) * (k % d)) / d
    return amps


def min_parties_oracle(w: int, d: int) -> int:
    """2 * ceil(log_d w) via exhaustive search over exponents."""
    t = 0
    while d ** t < w:
        t += 1
    return 2 * t


def even_parity_code_images(m: int) -> np.ndarray:
    """The [[m, m-2, 2]] qubit code for even m, stabilised by X^(x m) and
    Z^(x m): one image (|x> + |~x>)/sqrt 2 per even-parity m-bit string x
    with leading bit 0, in increasing order of x."""
    rows = []
    for bits in itertools.product((0, 1), repeat=m):
        if bits[0] == 0 and sum(bits) % 2 == 0:
            row = np.zeros(2 ** m, dtype=complex)
            row[ket_index(bits, (2,) * m)] = 1 / np.sqrt(2)
            row[ket_index(tuple(1 - b for b in bits), (2,) * m)] = 1 / np.sqrt(2)
            rows.append(row)
    return np.array(rows)


def qutrit_secret_sharing_images() -> np.ndarray:
    """The ((3,3,2))_3 code of Cleve, Gottesman and Lo: |k> -> the uniform
    superposition of |j, j+k, j+2k> (mod 3) over j."""
    rows = np.zeros((3, 27), dtype=complex)
    for k in range(3):
        for j in range(3):
            rows[k, ket_index((j, (j + k) % 3, (j + 2 * k) % 3), (3, 3, 3))] = 1 / np.sqrt(3)
    return rows
