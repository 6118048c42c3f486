"""Dense complex state-vector and density-matrix arithmetic over multi-qudit registers.

States live on registers with explicit per-party dimensions; the flat
amplitude index is big-endian in party order (party 0 is the most
significant digit), so a transcribed ket like |0110> lands at the index
you'd read off left to right.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# The package's one tolerance table.
HERMITICITY_TOL = 1e-12  # max |rho - rho^dagger| accepted in a marginal (_check_densities)
PSD_TOL = 1e-10  # most negative eigenvalue accepted in a marginal (_check_densities)
GRAM_TOL = 1e-11  # max |G - I| of a scheme's images or a basis
MARGINAL_TOL = 1e-10  # max-entry distance of a masked marginal from I/d
MEB_MARGINAL_TOL = 1e-11  # the same distance for a basis element in certify_meb
VARIATION_TOL = 1e-10  # max-entry spread of a marginal across verified inputs
INPUT_NORM_TOL = 1e-9  # | ||a|| - 1 | accepted for CLI input amplitudes
SIZE_BUDGET_BYTES = 2**28  # largest complex block (16 B per entry) build_scheme, ghz_amplitudes, append_ancilla or verify_scheme allocates


class ShapeError(ValueError):
    """Register dimensions of two operands are incompatible."""


def _capped_prod(dims, cap: int) -> int:
    """prod(dims) if it is at most cap, else cap + 1. No product past cap is
    formed, so a register of many parties is sized in linear time."""
    size = 1
    for d in dims:
        size *= d
        if size > cap:
            return cap + 1
    return size


def _size_name(dims) -> str:
    """prod(dims) for an error message, as a number if it fits in 63 bits,
    else without forming it, such as 3^200000."""
    size = _capped_prod(dims, 2**63)
    if size <= 2**63:
        return str(size)
    return f"{dims[0]}^{len(dims)}" if len(set(dims)) == 1 else f"a {len(dims)}-party product"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state on a multi-qudit register.

    dims: per-party local dimensions, each an integer >= 2 (a float raises TypeError).
    amps: complex amplitudes of length prod(dims), big-endian party order.
    A writeable array is copied, so writing it cannot rewrite the state; a
    read-only one is held. Equality is identity; compare `amps` to compare states.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = _register_dims(self.dims)
        copy = isinstance(self.amps, np.ndarray) and self.amps.flags.writeable
        amps = (np.array if copy else np.asarray)(self.amps, dtype=complex, order="C").reshape(-1)
        if _capped_prod(dims, amps.size) != amps.size:
            raise ShapeError(f"amplitude length {amps.size} != prod(dims) = {_size_name(dims)}")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amps.reshape(self.dims)

    @functools.cached_property
    def _block(self) -> Block:
        """The state as a one-row Block, which every marginal of it reads."""
        return Block.of(self.amps[None])


def _register_dims(dims) -> tuple[int, ...]:
    """dims as a tuple of Python ints, each >= 2; a float raises TypeError."""
    dims = tuple(operator.index(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError(f"every party dimension must be >= 2, got {dims}")
    return dims


def basis_state(dims: list[int] | tuple[int, ...], digits: list[int] | tuple[int, ...]) -> StateVector:
    """Computational basis ket |digits>; a float dim or digit raises TypeError."""
    dims = _register_dims(dims)
    if len(digits) != len(dims):
        raise ShapeError("one digit per party required")
    idx = 0
    for d, k in zip(dims, map(operator.index, digits)):
        if not 0 <= k < d:
            raise ValueError(f"digit {k} out of range for dimension {d}")
        idx = idx * d + k
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[idx] = 1.0
    amps.flags.writeable = False
    return StateVector(dims, amps)


class Block:
    """A complex (N, dim) block of amplitudes: its `shape`, `amps`, and
    `support`, equal to support(amps) entry for entry, and `sparse_support`,
    the kernels' kept verdict on it. A built block has the support its
    builder placed and `make`, which allocates the block and keeps no
    reference to it; its read-only `amps` is made on first read and kept,
    so readers of the shape and support alone never make it. A block
    of an existing array has no maker, and its support is taken on first
    read: among the flat indices `within`, if given, else by a scan."""

    within: np.ndarray | None = None

    def __init__(self, shape: tuple[int, int], make: Callable[[], np.ndarray] | None = None):
        self.shape = shape
        self.make = make

    @classmethod
    def at(cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
           make: Callable[[], np.ndarray] | None = None) -> Block:
        """The block whose builder placed `vals` at (rows, cols), in
        row-major order, and zeros elsewhere; `make` defaults to writing
        them into np.zeros. Zero values are left out of the support."""
        if make is None:
            make = functools.partial(_scatter, shape, rows, cols, vals)
        block = cls(shape, make)
        nonzero = vals != 0  # NaN stays in the support, as in support()
        block.support = (rows, cols, vals) if nonzero.all() else (rows[nonzero], cols[nonzero], vals[nonzero])
        return block

    @classmethod
    def of(cls, amps: np.ndarray, within: np.ndarray | None = None) -> Block:
        """The block of an existing (N, dim) array, held as it is. `within`,
        if given, holds the flat index of every nonzero entry, in any order
        and with repeats, and the support is found among them, not by a scan."""
        block = cls(amps.shape)
        block.amps, block.within = amps, within
        return block

    @functools.cached_property
    def amps(self) -> np.ndarray:
        amps = self.make()
        amps.flags.writeable = False
        return amps

    @functools.cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.within is None:
            return support(self.amps)
        flat = np.unique(self.within)
        rows, cols = np.divmod(flat[self.amps.reshape(-1)[flat] != 0], self.shape[1])
        return rows, cols, self.amps[rows, cols]

    @functools.cached_property
    def sparse_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The support if the pair kernel should read it, else None (the
        GEMM): the block has at least PAIR_MIN_ENTRIES entries, decided
        before any scan, and at most one in PAIR_MAX_FILL is nonzero. A block
        whose support is not yet taken, and whose indices `within` do not
        pass alone, has its nonzeros counted once, so a dense one never
        builds a support."""
        size = self.shape[0] * self.shape[1]
        if size < PAIR_MIN_ENTRIES:
            return None
        if "support" not in vars(self) and (self.within is None or PAIR_MAX_FILL * len(self.within) > size):
            nonzero = self.amps != 0
            if PAIR_MAX_FILL * np.count_nonzero(nonzero) > size:
                return None
            self.support = support(self.amps, nonzero)
        return self.support if PAIR_MAX_FILL * len(self.support[2]) <= size else None


def _scatter(shape, rows, cols, vals) -> np.ndarray:
    block = np.zeros(shape, dtype=complex)
    block[rows, cols] = vals
    return block


def _checked_dims(shape, dims, count: int | None, noun: str) -> tuple[int, ...]:
    """dims as _register_dims gives them, after checking that a block of
    `shape` is (N, prod(dims)) with N = count unless count is None."""
    if len(shape) != 2 or _capped_prod(dims, shape[1]) != shape[1] or count not in (None, shape[0]):
        raise ValueError(f"{noun} block shape {shape} != ({'N' if count is None else count}, {_size_name(dims)})")
    return _register_dims(dims)


def _row_views(amps: np.ndarray, dims: tuple[int, ...]) -> tuple[StateVector, ...]:
    """StateVector views of the rows of a read-only block on checked dims,
    made without a second check."""
    views = tuple(object.__new__(StateVector) for _ in range(len(amps)))
    for view, row in zip(views, amps):
        view.__dict__.update(dims=dims, amps=row)
    return views


class _StateBlock:
    """Base of the frozen dataclasses that hold N states on one register as
    one Block, `_block`. The states may be given as a Block, which is held
    as it is, or as an (N, prod(dims)) array or a sequence of StateVectors,
    which are copied into a new read-only block, so no view of the caller's
    array can rewrite them. The read-only block `amps` and StateVector views
    of its rows, in the field named by `_ROWS`, are made together on first
    read of either; readers of the block's shape and support never make
    them."""

    _ROWS: str

    def _hold(self, count: str | None, parties: str, noun: str) -> None:
        """Hold the N = count states (any N if None) on (d,) * parties; the
        fields d and those named are held as ints, and a float raises TypeError."""
        ints = {name: operator.index(getattr(self, name)) for name in ("d", parties, count) if name}
        self.__dict__.update(ints)
        dims, count = (ints["d"],) * ints[parties], ints.get(count)
        states = getattr(self, self._ROWS)
        if not isinstance(states, Block):
            if isinstance(states, np.ndarray):
                amps = np.array(states, dtype=complex)
            else:
                states = tuple(states)
                if count is not None and len(states) != count:
                    raise ValueError(f"expected {count} {noun}s, got {len(states)}")
                for s in states:
                    if s.dims != dims:
                        raise ValueError(f"{noun} dims {s.dims} != {dims}")
                width = states[0].dim if states else _capped_prod(dims, 2**62)
                if width > 2**62:
                    raise ValueError(f"a register of {_size_name(dims)} amplitudes is too large for an empty {noun} block")
                amps = np.empty((len(states), width), dtype=complex)
                for row, s in zip(amps, states):
                    row[:] = s.amps
            amps.flags.writeable = False
            states = Block.of(amps)
        # The dims are checked once for the block, with or without rows.
        dims = _checked_dims(states.shape, dims, count, noun)
        del self.__dict__[self._ROWS]  # made with `amps`, by __getattr__
        self.__dict__.update(_block=states, _dims=dims)

    def __getattr__(self, name):
        # Called only for names not set: `amps` and the row views.
        if name not in ("amps", self._ROWS):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        amps = self._block.amps
        self.__dict__.update({"amps": amps, self._ROWS: _row_views(amps, self._dims)})
        return self.__dict__[name]


def _check_densities(*stacks: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the (N, k, k) stacks is
    Hermitian and positive semidefinite within tolerance. Every stack is
    tested for Hermiticity before any is tested for PSD."""
    # ndarray-method reductions: the np.max/np.min wrappers cost more than
    # the reductions themselves on these small stacks.
    suspects = []
    for rho in stacks:
        rho_h = rho.conj().transpose(0, 2, 1)
        if np.abs(rho - rho_h).max(initial=0.0) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        herm = rho + rho_h
        herm *= 0.5  # in place; halving is exact, so the bits of (rho + rho_h) / 2
        # Gershgorin: no eigenvalue of a matrix lies below min_i (h_ii - the
        # sum of |h_ij| over j != i), and 2 h_ii - sum_j |h_ij| is that bound,
        # or lower where h_ii < 0. Matrices whose rows all clear the tolerance
        # need no eigvalsh; the rest, non-finite ones included, are kept for
        # it, which runs once every stack has passed the Hermiticity test.
        bound = 2 * herm.real.diagonal(0, 1, 2) - np.einsum("nij->ni", np.abs(herm))
        if not bound.min(initial=np.inf) >= -PSD_TOL:  # NaN fails it
            suspects.append(herm[~(bound >= -PSD_TOL).all(axis=1)])
    for herm in suspects:
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


def support(amps: np.ndarray, nonzero: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) of each nonzero entry of an (N, D) block, in
    row-major order; a NaN entry is in the support. `nonzero` is amps != 0,
    if the caller already has it."""
    rows, cols = np.divmod(np.flatnonzero(amps != 0 if nonzero is None else nonzero), amps.shape[1])
    return rows, cols, amps[rows, cols]


# The pair kernel reads a block's support only if the block has at least
# PAIR_MIN_ENTRIES entries, decided before any scan, and at most one entry in
# PAIR_MAX_FILL is nonzero; then there are at most 1/PAIR_MAX_FILL as many
# pairs as the GEMM has products. GEMM against pairs with the scan, on one
# core (numpy 2.4, OpenBLAS on 1 thread, best of 41):
# - partial_trace of a masked (4, 2, m) state, 16 nonzeros: 2^14 entries
#   69 vs 121 us, 2^15 116 vs 148 us, 2^16 334 vs 218 us, 2^18 973 vs 634 us;
# - gram_deviation of ghz_basis(2, 7), 2^14 entries: 306 vs 171 us; of
#   (2, 8): 2.2 vs 0.37 ms; of (7, 3), fill 1/49: 5.4 vs 1.1 ms; of the
#   4 rows of build_scheme(4, 2, 14), 2^16 entries: 161 vs 181 us;
# - a random support at fill 1/32, the worst admitted: partial_trace on 2^15
#   entries 185 vs 455 us and on 2^18 1.1 vs 1.6 ms, the Gram of 16 rows of
#   2^14 1.3 vs 2.4 ms, but party_marginals 2.9 vs 0.9 ms per party there
#   (re-measured with the parties batched under PAIR_CALL_ENTRIES).
PAIR_MIN_ENTRIES = 2**15
PAIR_MAX_FILL = 32
PAIR_BYTES = 96  # working bytes per ordered pair in _pair_sums (tracemalloc: 74 to 93)
# The most support entries, over all its keep-sets, that one _pair_sums call
# of the marginals reads. Fewer calls save per-call overhead, but past about
# 2^14 entries the call's arrays outgrow a 2 MB L2 cache. party_marginals of
# 16 random rows of 2^14 at fill 1/32 (8192 entries a party; same machine,
# best of 41): 0.75 ms a party with one party a call, 1.4 ms with all 14 in
# one call, and as fast as one party a call at 2^14 entries a call.
PAIR_CALL_ENTRIES = 2**14


def _pair_sums(keys, left, right, vals, out=None):
    """(bins, sums) over every ordered pair (i, j) of entries with equal
    keys: the bins left[i] + right[j] that some pair reaches, in ascending
    order, and each bin's sum of vals[i] * conj(vals[j]). With `out`, a flat
    complex array, the bins lie in [0, len(out)) and come back as None, with
    the sums over all of them written into `out`, 0 where no pair reaches.
    None if the pairs are over the size budget, with `out` unwritten.
    Entries come sorted by key.

    Each bin sums its pairs in entry order (np.bincount adds in input order),
    so the bins of one row get the same bits alone or in a stack, sorted or
    dense."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    # Where every entry is a group of its own, as on each one-party marginal
    # of a GHZ basis, its one pair is itself, so the pairs need no expansion.
    alone = bool(first.all())
    if alone:
        n_pairs = len(keys)
    else:
        group = np.cumsum(first) - 1
        per_entry = np.bincount(group)[group]  # the size of each entry's group
        n_pairs = int(per_entry.sum())  # the sum of the squared group sizes
    if PAIR_BYTES * n_pairs > SIZE_BUDGET_BYTES:
        return None
    if alone:
        bins = left + right
    else:
        i = np.repeat(np.arange(len(keys)), per_entry)
        # Entry i's pairs run from offset[i]; its partners from its group's start.
        offset = np.cumsum(per_entry) - per_entry
        j = np.arange(n_pairs) - np.repeat(offset - np.flatnonzero(first)[group], per_entry)
        bins = left[i] + right[j]
    if out is None:
        bins, inverse = np.unique(bins, return_inverse=True)
        out = np.empty(len(bins), dtype=complex)
    else:
        bins, inverse = None, bins
    # np.multiply, not *: numpy may write a large temporary right factor's
    # product into it with the factors swapped, which moves imaginary bits.
    prod = np.multiply(vals, vals.conj()) if alone else vals[i] * vals[j].conj()
    out.real = np.bincount(inverse, prod.real, len(out))
    out.imag = np.bincount(inverse, prod.imag, len(out))
    return bins, out


def _pair_marginals(block: Block, dims: tuple[int, ...], keeps, out: np.ndarray) -> bool:
    """Sum the (N, dk, dk) marginals of an (N, D) block on each keep-set of
    `keeps` into the flat array `out`, one keep-set after another, from one
    _pair_sums call over its support; False, with `out` unwritten, if the
    pairs are over the size budget. Raises ValueError unless every key, and
    K·N·D above them, fits in an int64.

    Each column splits into its kept index and its rest (the column with the
    kept digits zeroed); entries sharing (keep-set, row, rest) pair up, under
    the int64 key (keep-set·N + row)·D + rest. Every keep-set takes the same
    steps at once, one per kept position: a shorter keep-set is padded with a
    party of dimension 1 and stride 1, whose digit is 0 and leaves its kept
    index and key as they are. The stable sort keeps each keep-set's entries
    in the order they have alone, and each keep-set's bins lie past the
    previous one's, so every marginal gets the bits it gets with its
    keep-set alone."""
    rows, cols, vals = block.support
    n, width = block.shape
    if len(keeps) * n * width >= 2**63:
        raise ValueError(f"{len(keeps)} keep-sets of a {n} x {width} block overflow the 64-bit pair keys")
    m, kmax = len(dims), max(map(len, keeps))
    suffix = list(itertools.accumulate(reversed(dims), operator.mul, initial=1))[::-1]
    padded = np.array([keep + [m] * (kmax - len(keep)) for keep in keeps])
    radix = np.array(dims + (1,))[padded]  # (K, kmax): each kept position's dimension
    stride = np.array(suffix[1:] + [1])[padded]
    d_keeps = radix.prod(axis=1, keepdims=True)
    sizes = n * d_keeps * d_keeps
    kept = np.zeros((len(keeps), len(cols)), dtype=np.int64)
    key = (np.arange(len(keeps))[:, None] * n + rows) * width + cols
    for r, s in zip(radix.T[:, :, None], stride.T[:, :, None]):
        digit = cols // s % r
        kept = kept * r + digit
        key -= digit * s
    del digit  # freed before the pairs, which set the call's peak
    left = np.cumsum(sizes, axis=0) - sizes + (rows * d_keeps + kept) * d_keeps
    order = np.argsort(key.reshape(-1), kind="stable")
    pairs = _pair_sums(key.reshape(-1)[order], left.reshape(-1)[order], kept.reshape(-1)[order],
                       vals[order % len(vals)], out)
    return pairs is not None


def _kept_first(block: Block, dims: tuple[int, ...], keep) -> np.ndarray:
    """The (N, dk, D / dk) view of an (N, D) block, made if need be, with
    the kept parties' digits first, whose product with its conjugate
    transpose is the GEMM path's (N, dk, dk) marginals on `keep`."""
    n = block.shape[0]
    d_keep = math.prod(dims[i] for i in keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    psi = block.amps.reshape((n,) + dims).transpose([0] + [i + 1 for i in keep + drop])
    return psi.reshape(n, d_keep, block.shape[1] // d_keep)


def _marginal_stacks(block: Block, dims: tuple[int, ...], keeps):
    """The (N, dk, dk) reduced density matrices of the rows of an (N, D)
    block on each keep-set of `keeps`, dk the product of the kept
    dimensions, with the kept parties in their relative order: one
    (K, N, dk, dk) array when every keep-set has the same dk, else a list
    of the K stacks. The K stacks lie back to back in one buffer, in call
    order, and one _check_densities call checks them, the one check of
    every marginal the package returns: the buffer as one stack when every
    dk is the same, else one stack per keep-set. A sparse block
    (Block.sparse_support) takes the pairs of its support, runs of as many
    consecutive keep-sets to a _pair_sums call as the size budget and
    PAIR_CALL_ENTRIES admit; every keep-set they leave takes one GEMM into
    its part of the buffer, on the block made if need be. One keep-set of
    a block that is not sparse, partial_trace's call, is one GEMM with no
    buffer."""
    dims = tuple(dims)
    keeps = [sorted(set(map(operator.index, keep))) for keep in keeps]
    for keep in keeps:
        if not keep:
            raise ValueError("keep-set must be non-empty")
        if keep[0] < 0 or keep[-1] >= len(dims):
            raise ValueError(f"keep-set {keep} out of range for {len(dims)} parties")
    n = block.shape[0]
    sup = block.sparse_support
    if len(keeps) == 1 and sup is None:
        psi = _kept_first(block, dims, keeps[0])
        rho = psi @ psi.conj().transpose(0, 2, 1)
        _check_densities(rho)
        return rho[None]
    d_keeps = [math.prod(dims[p] for p in keep) for keep in keeps]
    bounds = list(itertools.accumulate((n * dk * dk for dk in d_keeps), initial=0))
    flat = np.empty(bounds[-1], dtype=complex)
    stacks = [flat[a:b].reshape(n, dk, dk) for a, b, dk in zip(bounds, bounds[1:], d_keeps)]
    per_call = len(keeps)
    if sup is not None:
        # A group's entries differ only in their kept digits, so an entry has
        # at most dk partners, and its keys cost about one more pair. One
        # keep-set a call is checked against the budget by _pair_sums alone.
        entries = min(PAIR_CALL_ENTRIES, SIZE_BUDGET_BYTES // (PAIR_BYTES * (max(d_keeps) + 1)))
        per_call = max(1, entries // max(len(sup[2]), 1))
    for start in range(0, len(keeps), per_call):
        stop = min(start + per_call, len(keeps))
        if sup is None or not _pair_marginals(block, dims, keeps[start:stop], flat[bounds[start]:bounds[stop]]):
            for keep, rho in zip(keeps[start:stop], stacks[start:stop]):
                psi = _kept_first(block, dims, keep)
                np.matmul(psi, psi.conj().transpose(0, 2, 1), out=rho)  # the bits of a new product
    if len(set(d_keeps)) > 1:
        _check_densities(*stacks)
        return stacks
    dk = d_keeps[0]
    _check_densities(flat.reshape(-1, dk, dk))
    return flat.reshape(len(keeps), n, dk, dk)


def party_marginals(block: Block, dims: tuple[int, ...]) -> np.ndarray | list[np.ndarray]:
    """The checked (N, d_p, d_p) one-party marginals of the rows of an
    (N, D) block for every party p: one (m, N, d, d) array on a register
    of one party dimension d, else a list of the m stacks."""
    return _marginal_stacks(block, dims, [[p] for p in range(len(dims))])


def partial_trace(state: StateVector, keep: list[int] | tuple[int, ...] | set[int]) -> np.ndarray:
    """The checked (dk, dk) reduced density matrix on the `keep` parties,
    tracing out the rest; the kept parties retain their relative order.
    The array is new on each call and shares memory with nothing."""
    return _marginal_stacks(state._block, state.dims, [keep])[0, 0]


def max_distance_to_maximally_mixed(mats: np.ndarray, axis=None):
    """Max-entry norm of mat - I/d over a (..., d, d) stack, as a float, or
    with `axis`, as the array of maxima over those axes; 0.0 where empty,
    NaN where any entry is NaN."""
    d = mats.shape[-1]
    dist = np.abs(mats - np.eye(d) / d).max(axis=axis, initial=0.0)
    return float(dist) if axis is None else dist


def gram_deviation(block: Block) -> float:
    """Max-entry norm of G - I for the Gram matrix G of the rows of an
    (N, dim) block; 0.0 if N = 0. A sparse block (Block.sparse_support)
    sums the pairs of entries sharing a column into the entries of conj(G)
    they reach, with no conjugated copy of the block and no N x N matrix;
    every other entry of G is 0, at distance 1 from I on the diagonal and
    0 off it. Any other block is made if need be for one GEMM."""
    n = block.shape[0]
    sup = block.sparse_support
    if sup is not None:
        order = np.argsort(sup[1], kind="stable")
        rows, cols, vals = (a[order] for a in sup)
        pairs = _pair_sums(cols, rows * n, rows, vals)
        if pairs is not None:
            bins, sums = pairs
            diagonal = bins % (n + 1) == 0
            unreached = 1.0 if np.count_nonzero(diagonal) < n else 0.0
            return float(np.abs(sums - diagonal).max(initial=unreached))
    amps = block.amps
    return float(np.abs(amps.conj() @ amps.T - np.eye(n)).max(initial=0.0))


def complex_pairs(a: np.ndarray) -> list:
    """A complex array of any shape as nested lists ending in [re, im] pairs."""
    return np.stack((a.real, a.imag), -1).tolist()


TEXT_CHUNK = 2**12  # amplitudes the CLI's writers format at once: under 1 MB of text and lists
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """A float as json writes it: float.__repr__, so an np.float64 reads
    as 0.1, and NaN, Infinity and -Infinity for the non-finite values."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _json_chunks(doc, level: int = 0):
    """Yield the text of json.dumps(doc, indent=2) in chunks, where `doc`
    may hold complex ndarrays, each written as complex_pairs(array) would
    be, a chunk of at most TEXT_CHUNK amplitudes at a time, so neither its
    nested lists nor the whole text is ever made. Bools are written before
    ints, None as null, strings escaped as json escapes them; dict keys
    must be strings. `level` is the indent level `doc` starts at."""
    if isinstance(doc, np.ndarray):
        yield from _array_chunks(doc, level)
    elif isinstance(doc, (dict, list, tuple)):
        brackets = "{}" if isinstance(doc, dict) else "[]"
        if not doc:
            yield brackets
            return
        inner = "\n" + "  " * (level + 1)
        sep = brackets[0] + inner
        for key in doc if isinstance(doc, dict) else range(len(doc)):
            # A key that is not a str raises TypeError here.
            yield sep + (json.encoder.encode_basestring_ascii(key) + ": " if brackets == "{}" else "")
            yield from _json_chunks(doc[key], level + 1)
            sep = "," + inner
        yield "\n" + "  " * level + brackets[1]
    elif isinstance(doc, str):
        yield json.encoder.encode_basestring_ascii(doc)
    elif doc is None or isinstance(doc, bool):
        yield {None: "null", True: "true", False: "false"}[doc]
    elif isinstance(doc, int):
        yield int.__repr__(doc)
    elif isinstance(doc, float):
        yield _float_text(doc)
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _array_chunks(a: np.ndarray, level: int):
    """The chunks of _json_chunks for one complex array. Each float is
    formatted once per distinct bit pattern in its chunk (a built block is
    mostly +0.0), and the chunk's text is one %-format of a template."""
    if len(a) == 0:
        yield "[]"
        return
    inner = "\n" + "  " * (level + 1)
    if a.ndim > 1:
        sep = "[" + inner
        for sub in a:
            yield sep
            yield from _array_chunks(sub, level + 1)
            sep = "," + inner
    else:
        pair = f"{inner}[{inner}  %s,{inner}  %s{inner}]"
        for start in range(0, len(a), TEXT_CHUNK):
            part = np.ascontiguousarray(a[start:start + TEXT_CHUNK], dtype=complex)
            distinct, index = np.unique(part.view(np.uint64), return_inverse=True)
            texts = np.array([_float_text(x) for x in distinct.view(np.float64).tolist()], dtype=object)
            template = ",".join([pair] * len(part))
            yield ("," if start else "[") + template % tuple(texts[index].tolist())
    yield "\n" + "  " * level + "]"
