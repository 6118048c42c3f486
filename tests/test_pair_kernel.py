"""The support-pair kernel of tensorcore: the Gram deviation and the marginals
of a large sparse block come from the pairs of its nonzero entries, and
agree with the GEMM path and with the brute-force oracle."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import partial_trace_oracle
from quditmask import (
    MaskingScheme,
    MebFamily,
    StateVector,
    basis_state,
    build_scheme,
    certify_meb,
    ghz_basis,
    mask,
    partial_trace,
    verify_scheme,
)
from quditmask import tensorcore
from quditmask.cli import main
from quditmask.tensorcore import (
    PAIR_BYTES,
    PAIR_CALL_ENTRIES,
    Block,
    _marginal_stacks,
    gram_deviation,
    party_marginals,
)


def _gemm_gram_deviation(amps):
    return float(np.abs(amps.conj() @ amps.T - np.eye(len(amps))).max(initial=0.0))


def _lift_thresholds(m):
    """Lift the size and fill thresholds under the MonkeyPatch m, so any block takes the pairs."""
    m.setattr(tensorcore, "PAIR_MIN_ENTRIES", 0)
    m.setattr(tensorcore, "PAIR_MAX_FILL", 1)


def _pair_gram_deviation(amps):
    with pytest.MonkeyPatch.context() as m:
        _lift_thresholds(m)
        return gram_deviation(Block.of(amps))


def _marginals(amps, dims, keep):
    """The checked marginals on `keep` of the rows of `amps`, on the path
    the thresholds choose."""
    return _marginal_stacks(Block.of(amps), dims, [keep])[0]


def _pair_marginals(amps, dims, keep):
    with pytest.MonkeyPatch.context() as m:
        _lift_thresholds(m)
        return _marginals(amps, dims, keep)


def _gemm_marginals(amps, dims, keep):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tensorcore, "PAIR_MIN_ENTRIES", 2**62)
        return _marginals(amps, dims, keep)


@st.composite
def sparse_stacks(draw):
    """(amps, dims, keep): 1-4 unit rows on (d,)*n, each with a random support."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, 6 if d <= 3 else 4))
    dim = d**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros((draw(st.integers(1, 4)), dim), dtype=complex)
    for row in amps:
        idx = rng.choice(dim, size=draw(st.integers(1, max(1, dim // 8))), replace=False)
        row[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        row /= np.linalg.norm(row)
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return amps, (d,) * n, keep


class TestAgreesWithGemm:
    @settings(max_examples=60, deadline=None)
    @given(sparse_stacks())
    def test_marginals(self, case):
        amps, dims, keep = case
        pairs = _pair_marginals(amps, dims, keep)
        gemm = _gemm_marginals(amps, dims, keep)
        assert np.abs(pairs - gemm).max() <= 1e-15
        if amps.shape[1] * len(pairs[0]) <= 4096:  # the oracle loops over D * dk entries
            for rho, row in zip(pairs, amps):
                assert np.abs(rho - partial_trace_oracle(row, dims, keep)).max() <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(sparse_stacks())
    def test_gram_deviation(self, case):
        amps = case[0]
        assert abs(_pair_gram_deviation(amps) - _gemm_gram_deviation(amps)) <= 1e-15

    @pytest.mark.parametrize("d,n", [(2, 8), (2, 9), (3, 5), (7, 3)])
    def test_ghz_bases(self, d, n):
        family = ghz_basis(d, n)
        assert Block.of(family.amps).sparse_support is not None
        assert abs(gram_deviation(Block.of(family.amps)) - _gemm_gram_deviation(family.amps)) <= 1e-15
        for p, rho in enumerate(party_marginals(Block.of(family.amps), (d,) * n)):
            assert np.abs(rho - _gemm_marginals(family.amps, (d,) * n, [p])).max() <= 1e-15


class TestPathChoice:
    def test_small_blocks_are_not_scanned(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("support scanned")

        monkeypatch.setattr(tensorcore, "support", no_scan)
        family = ghz_basis(2, 7)  # 2^14 entries, below PAIR_MIN_ENTRIES
        assert certify_meb(family).passed

    def test_dense_haar_block_takes_the_gemm(self, monkeypatch):
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((8, 2**13)) + 1j * rng.standard_normal((8, 2**13))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)

        def no_pairs(*args):
            raise AssertionError("pair kernel on a dense block")

        monkeypatch.setattr(tensorcore, "_pair_sums", no_pairs)
        assert gram_deviation(Block.of(amps)) == _gemm_gram_deviation(amps)
        _marginals(amps, (2,) * 13, [0, 5])

    def test_sparse_large_block_takes_the_pairs(self):
        amps = build_scheme(4, 2, 16).amps
        assert Block.of(amps).sparse_support is not None

    def test_pairs_over_the_budget_fall_back_to_the_gemm(self, monkeypatch):
        family = ghz_basis(2, 9)
        monkeypatch.setattr(tensorcore, "SIZE_BUDGET_BYTES", 1)
        assert gram_deviation(Block.of(family.amps)) == _gemm_gram_deviation(family.amps)
        for p, rho in enumerate(party_marginals(Block.of(family.amps), (2,) * 9)):
            assert rho.tobytes() == _gemm_marginals(family.amps, (2,) * 9, [p]).tobytes()


class TestBits:
    def test_a_row_gets_the_same_bits_alone_and_in_a_stack(self):
        scheme = build_scheme(4, 2, 16)
        rng = np.random.default_rng(11)
        inputs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)]
        stack = np.array([mask(scheme, StateVector((4,), a / np.linalg.norm(a))).amps for a in inputs])
        dims = (2,) * 16
        assert Block.of(stack).sparse_support is not None and Block.of(stack[:1]).sparse_support is not None
        for keep in ([0], [3], [15], [2, 9]):
            stacked = _marginals(stack, dims, keep)
            for row, rho in zip(stack, stacked):
                assert rho.tobytes() == _marginals(row[None], dims, keep)[0].tobytes()
                assert rho.tobytes() == partial_trace(StateVector(dims, row), keep).tobytes()
        for p, rhos in enumerate(party_marginals(Block.of(stack), dims)):
            assert rhos.tobytes() == _marginals(stack, dims, [p]).tobytes()


@st.composite
def mixed_stacks(draw):
    """(amps, dims): 1-4 unit rows with random supports on a register of 2-5
    parties, each of dimension 2-5, such as (2, 3, 2, 5)."""
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=2, max_size=5).filter(lambda ds: np.prod(ds) <= 600)))
    if draw(st.booleans()):
        dims = (dims[0],) * len(dims)
    dim = int(np.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros((draw(st.integers(1, 4)), dim), dtype=complex)
    for row in amps:
        idx = rng.choice(dim, size=draw(st.integers(1, max(1, dim // 4))), replace=False)
        row[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        row /= np.linalg.norm(row)
    return amps, dims


def _pair_calls(m):
    """Count the _pair_sums calls made under the MonkeyPatch m."""
    calls = []
    pair_sums = tensorcore._pair_sums
    m.setattr(tensorcore, "_pair_sums", lambda *args: calls.append(1) or pair_sums(*args))
    return calls


class TestOneCallForAllParties:
    """party_marginals takes every party's marginals from one _pair_sums call
    (or as few as the size budget admits), with the bits each party gets alone."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_stacks())
    def test_bits_match_one_party_at_a_time(self, case):
        amps, dims = case
        with pytest.MonkeyPatch.context() as m:
            _lift_thresholds(m)
            alone = [_marginals(amps, dims, [p]) for p in range(len(dims))]
            calls = _pair_calls(m)
            together = party_marginals(Block.of(amps), dims)
        assert len(calls) == 1
        assert [rho.tobytes() for rho in together] == [rho.tobytes() for rho in alone]

    @settings(max_examples=30, deadline=None)
    @given(mixed_stacks(), st.integers(1, 3))
    def test_bits_match_when_the_budget_splits_the_parties(self, case, per_call):
        amps, dims = case
        with pytest.MonkeyPatch.context() as m:
            _lift_thresholds(m)
            alone = [_marginals(amps, dims, [p]) for p in range(len(dims))]
            # The budget of per_call keep-sets at the worst case of (dk + 1)
            # pairs an entry.
            budget = per_call * PAIR_BYTES * (max(dims) + 1) * np.count_nonzero(amps)
            m.setattr(tensorcore, "SIZE_BUDGET_BYTES", budget)
            calls = _pair_calls(m)
            together = party_marginals(Block.of(amps), dims)
        assert len(calls) == -(-len(dims) // per_call)
        assert [rho.tobytes() for rho in together] == [rho.tobytes() for rho in alone]

    def test_ghz_basis_takes_one_call(self, monkeypatch):
        family = ghz_basis(2, 9)
        calls = _pair_calls(monkeypatch)
        party_marginals(Block.of(family.amps), (2,) * 9)
        assert len(calls) == 1

    def test_a_call_reads_at_most_pair_call_entries(self, monkeypatch):
        family = ghz_basis(2, 10)  # 2048 support entries a party
        dims = (2,) * 10
        alone = [_marginals(family.amps, dims, [p]) for p in range(10)]
        calls = _pair_calls(monkeypatch)
        together = party_marginals(Block.of(family.amps), dims)
        assert len(calls) == -(-10 // (PAIR_CALL_ENTRIES // 2048)) > 1
        assert [rho.tobytes() for rho in together] == [rho.tobytes() for rho in alone]


def _loop_pair_marginals(block, dims, keeps, out):
    """The per-keep-set key loop the batched keys replaced, kept as their
    reference: one pass over the support per keep-set and per kept party."""
    rows, cols, vals = block.support
    n, width = block.shape
    size = len(vals)
    d_keeps = [math.prod(dims[p] for p in keep) for keep in keeps]
    starts = np.cumsum([0] + [n * dk * dk for dk in d_keeps])
    group = np.empty(len(keeps) * size, dtype=np.int64)
    left, right = np.empty_like(group), np.empty_like(group)
    for b, (keep, dk) in enumerate(zip(keeps, d_keeps)):
        kept, key = np.zeros_like(cols), (b * n + rows) * width + cols
        for p in keep:
            stride = math.prod(dims[p + 1:])
            digit = cols // stride % dims[p]
            kept = kept * dims[p] + digit
            key -= digit * stride
        part = slice(b * size, (b + 1) * size)
        group[part], left[part], right[part] = key, starts[b] + (rows * dk + kept) * dk, kept
    order = np.argsort(group, kind="stable")
    return tensorcore._pair_sums(group[order], left[order], right[order], vals[order % size], out) is not None


@st.composite
def keyed_cases(draw):
    """(block, dims, keeps): 1-3 rows with random supports, one of them
    NaN at times, on a mixed or uniform register, and 1-5 keep-sets of
    mixed sizes in any order."""
    dims = draw(st.sampled_from([(2, 3, 5), (3, 3, 3, 3), (5, 2, 3, 2), (2, 2, 2, 2, 2), (4, 3)]))
    dim = math.prod(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros((draw(st.integers(1, 3)), dim), dtype=complex)
    for row in amps:
        idx = rng.choice(dim, size=draw(st.integers(1, max(1, dim // 3))), replace=False)
        row[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    if draw(st.booleans()):
        amps.reshape(-1)[rng.choice(np.flatnonzero(amps))] = np.nan
    parties = st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims), unique=True)
    keeps = [sorted(keep) for keep in draw(st.lists(parties, min_size=1, max_size=5))]
    return Block.of(amps), dims, keeps


class TestBatchedKeys:
    """_pair_marginals takes every keep-set's keys in one padded pass, with
    the bits of the per-keep-set loop; a key past int64 is refused."""

    @settings(max_examples=80, deadline=None)
    @given(keyed_cases())
    def test_bits_match_the_per_keep_set_loop(self, case):
        block, dims, keeps = case
        size = block.shape[0] * sum(math.prod(dims[p] for p in keep) ** 2 for keep in keeps)
        args = {}
        with pytest.MonkeyPatch.context() as m:
            pair_sums = tensorcore._pair_sums
            for side in ("loop", "batched"):
                m.setattr(tensorcore, "_pair_sums", lambda *a, side=side: args.setdefault(side, a) and pair_sums(*a))
                out = np.full(size, 7.0, dtype=complex)
                run = _loop_pair_marginals if side == "loop" else tensorcore._pair_marginals
                assert run(block, dims, keeps, out)
                args[side] = args[side][:4] + (out.tobytes(),)
        loop, batched = args["loop"], args["batched"]
        assert [a.tobytes() if isinstance(a, np.ndarray) else a for a in batched] == [
            a.tobytes() if isinstance(a, np.ndarray) else a for a in loop
        ]

    @pytest.mark.parametrize("dims,keeps", [
        ((2, 3, 5), [[0], [1], [2], [0, 2], [1, 2], [0, 1, 2]]),
        ((3, 3, 3, 3), [[3], [0], [2], [1]]),
        ((3, 3, 3, 3), [[0, 1], [2], [1, 3], [0]]),
    ])
    def test_gemm_stacks_have_the_bits_of_one_product_each(self, dims, keeps):
        rng = np.random.default_rng(len(keeps))
        amps = rng.standard_normal((4, math.prod(dims))) + 1j * rng.standard_normal((4, math.prod(dims)))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tensorcore, "PAIR_MIN_ENTRIES", 2**62)
            stacks = _marginal_stacks(Block.of(amps), dims, keeps)
        for keep, rho in zip(keeps, stacks):
            drop = [p for p in range(len(dims)) if p not in keep]
            psi = amps.reshape((4,) + dims).transpose([0] + [p + 1 for p in keep + drop])
            psi = psi.reshape(4, math.prod(dims[p] for p in keep), -1)
            assert rho.tobytes() == (psi @ psi.conj().transpose(0, 2, 1)).tobytes()

    def test_equal_dimension_stacks_come_as_one_table(self):
        family = ghz_basis(2, 9)
        table = party_marginals(family._block, (2,) * 9)
        assert type(table) is np.ndarray and table.shape == (9, 512, 2, 2)
        mixed = party_marginals(Block.of(np.eye(30, dtype=complex)), (2, 3, 5))
        assert type(mixed) is list and [rho.shape for rho in mixed] == [(30, 2, 2), (30, 3, 3), (30, 5, 5)]
        # One party is one keep-set, and its marginals are still a table.
        one = party_marginals(Block.of(np.eye(3, dtype=complex)), (3,))
        assert type(one) is np.ndarray and one.shape == (1, 3, 3, 3)
        assert certify_meb(MebFamily(3, 1, np.eye(3), range(3))).max_marginal_deviation == 1 - 1 / 3

    def test_a_key_past_int64_is_refused(self):
        # A GHZ state on 62 qubits, one row of 2^62 columns: K keep-sets have
        # keys below K * 2^62, which reaches 2^63 at K = 2. Before the guard,
        # the keys wrapped and the marginals came back wrong, not refused.
        dims = (2,) * 62
        block = Block.at((1, 2**62), np.zeros(2, dtype=np.int64), np.array([0, 2**62 - 1]),
                         np.full(2, 2**-0.5, dtype=complex))
        with pytest.raises(ValueError, match="64-bit pair keys"):
            party_marginals(block, dims)
        with pytest.raises(ValueError, match="64-bit pair keys"):
            _marginal_stacks(block, dims, [[0], [61]])
        for keeps in ([[61]], [[0, 61]]):
            for rho in _marginal_stacks(block, dims, keeps):
                dk = rho.shape[-1]
                want = np.eye(dk) / 2 if dk == 2 else np.diag([0.5, 0, 0, 0.5])
                assert np.abs(rho[0] - want).max() <= 1e-15
        assert "amps" not in vars(block)


def _expanded_pair_sums(keys, left, right, vals, out=None):
    """_pair_sums with the full pair expansion for every group, single
    entries included, as it ran before single-entry groups took a shortcut."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    group = np.cumsum(first) - 1
    per_entry = np.bincount(group)[group]
    n_pairs = int(per_entry.sum())
    i = np.repeat(np.arange(len(keys)), per_entry)
    offset = np.cumsum(per_entry) - per_entry
    j = np.arange(n_pairs) - np.repeat(offset - np.flatnonzero(first)[group], per_entry)
    bins = left[i] + right[j]
    if out is None:
        bins, inverse = np.unique(bins, return_inverse=True)
        out = np.empty(len(bins), dtype=complex)
    else:
        bins, inverse = None, bins
    prod = vals[i] * vals[j].conj()
    out.real = np.bincount(inverse, prod.real, len(out))
    out.imag = np.bincount(inverse, prod.imag, len(out))
    return bins, out


class TestSingleEntryGroups:
    """Where every key is unique, each entry's one pair is itself, and
    _pair_sums skips the expansion with the bits of the expanded path."""

    # Past 2^14 entries (256 KB of complex values) numpy may reuse a
    # temporary factor of * as its output, so both sides of that size are tried.
    @pytest.mark.parametrize("n", [1, 7, 2048, 16383, 16384, 40000])
    @pytest.mark.parametrize("dense", [False, True])
    def test_bits_match_the_expansion(self, n, dense):
        rng = np.random.default_rng(n)
        keys = np.sort(rng.choice(4 * n, size=n, replace=False))
        vals = np.exp(2j * np.pi * rng.random(n)) * rng.random(n)
        vals[::5] = -vals[::5].real  # -0.0 imaginary parts
        left, right = rng.integers(0, n, n), rng.integers(0, 3, n)
        if dense:
            out, ref = np.full(n + 3, 7.0 + 0j), np.full(n + 3, 7.0 + 0j)
            assert tensorcore._pair_sums(keys, left, right, vals, out)[0] is None
            _expanded_pair_sums(keys, left, right, vals, ref)
            assert out.tobytes() == ref.tobytes()
        else:
            bins, sums = tensorcore._pair_sums(keys, left, right, vals)
            ref_bins, ref_sums = _expanded_pair_sums(keys, left, right, vals)
            assert bins.tobytes() == ref_bins.tobytes() and sums.tobytes() == ref_sums.tobytes()

    def test_ghz_marginals_take_it_and_its_gram_does_not(self, monkeypatch):
        family = ghz_basis(2, 9)
        dims = (2,) * 9
        want = party_marginals(family._block, dims)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tensorcore, "_pair_sums", _expanded_pair_sums)
            expanded = party_marginals(Block.of(family.amps), dims)
        assert want.tobytes() == expanded.tobytes()

        def no_expansion(*args):
            raise AssertionError("pairs expanded")

        # np.repeat runs only in the expansion: the marginals' keys are all
        # unique, while the Gram's pair up the rows sharing a column.
        monkeypatch.setattr(np, "repeat", no_expansion)
        assert party_marginals(Block.of(family.amps), dims).tobytes() == want.tobytes()
        with pytest.raises(AssertionError, match="pairs expanded"):
            gram_deviation(Block.of(family.amps))


class TestRowViews:
    def test_ghz_basis_validates_its_dims_once_not_per_row(self, monkeypatch):
        calls = []
        post_init = StateVector.__post_init__
        monkeypatch.setattr(StateVector, "__post_init__", lambda self: calls.append(1) or post_init(self))
        family = ghz_basis(2, 9)
        assert len(calls) <= 1
        assert len(family.states) == 512 and not family.amps.flags.writeable
        for k, state in enumerate(family.states):
            assert np.shares_memory(state.amps, family.amps)
            assert not state.amps.flags.writeable
            assert state.dims == (2,) * 9 and all(type(d) is int for d in state.dims)
            assert state.amps.tobytes() == family.amps[k].tobytes()
        assert family.states[0] == family.states[0] and family.states[0] != family.states[1]
        with pytest.raises(ValueError):
            family.states[3].amps[0] = 1.0


class TestNonFinite:
    def test_nan_entry_fails_certify_meb_without_raising(self):
        amps = ghz_basis(2, 9).amps.copy()
        amps[7, np.flatnonzero(amps[7])[0]] = np.nan
        cert = certify_meb(MebFamily(2, 9, amps, range(512)))
        assert not cert.passed
        assert np.isnan(cert.max_gram_deviation) and np.isnan(cert.max_marginal_deviation)

    def test_nan_entry_fails_verify_scheme_without_raising(self):
        amps = build_scheme(4, 2, 16).amps.copy()
        amps[2, np.flatnonzero(amps[2])[1]] = np.nan
        report = verify_scheme(MaskingScheme(4, 2, 16, amps), n_samples=2, seed=1)
        assert not report.passed
        assert np.isnan(report.isometry_gram_deviation)
        assert not report.checks["isometry_gram"].passed

    def test_all_zero_row_has_gram_deviation_one(self):
        amps = ghz_basis(2, 9).amps.copy()
        amps[100] = 0
        assert Block.of(amps).sparse_support is not None
        assert gram_deviation(Block.of(amps)) == 1.0
        assert certify_meb(MebFamily(2, 9, amps, range(512))).max_gram_deviation == 1.0


class TestMemory:
    def test_sparse_gram_holds_no_conjugated_copy(self):
        amps = build_scheme(4, 2, 18).amps
        block = Block.of(amps)
        tracemalloc.start()
        try:
            gram_deviation(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * amps.nbytes


# The benchmark's certify grid, two seeds each, and its two negative controls.
CERTIFY_GRID = ((9, 3, 4), (16, 2, 8), (64, 2, 12), (81, 3, 8), (125, 5, 6))


def _certify_grid_schemes():
    schemes = [(build_scheme(*wdm), seed) for wdm in CERTIFY_GRID for seed in (1, 2)]
    amps = build_scheme(81, 3, 8).amps.copy()
    amps[0, 0] += 1e-6
    amps[0] /= np.linalg.norm(amps[0])
    schemes.append((MaskingScheme(81, 3, 8, amps, "tilted"), 3))
    dims = (3, 3, 3, 3)
    product = [basis_state(dims, np.unravel_index(idx, dims)) for idx in (2, 17, 30, 41, 44, 52, 60, 71, 80)]
    schemes.append((MaskingScheme(9, 3, 4, product, "product"), 4))
    return schemes


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_certify_grid_keeps_every_marginal_bit():
    """Every marginal key of the certify grid has the bits of the GEMM-only
    code (digests recorded from it). The isometry Gram keeps its bits too,
    except where the block takes the pairs and the sum order moved it:
    (125, 5, 6) and the tilted control, which stay within 1e-15 of the GEMM."""
    schemes = _certify_grid_schemes()
    reports = [verify_scheme(scheme, n_samples=50, seed=seed) for scheme, seed in schemes]
    marginal_keys = [
        [
            [x.hex() for x in r.per_party_max_deviation],
            [x.hex() for x in r.cross_input_max_variation],
            [r.checks[k].value.hex() for k in ("marginals_maximally_mixed", "marginals_input_independent")],
        ]
        for r in reports
    ]
    assert _sha256(marginal_keys) == "ca45a4aadfb445b756a55723b1c927ab25d494ee173bde835772864ab32fefdf"
    moved = {8, 9, 10}
    grams = [r.isometry_gram_deviation.hex() for i, r in enumerate(reports) if i not in moved]
    assert _sha256(grams) == "7d399ad9348ae606cffbfc0e1f69333ccb9cdf2d0f8df88b0622e95eb2ec9ac8"
    for i in moved:
        gram = reports[i].isometry_gram_deviation
        assert reports[i].checks["isometry_gram"].value == gram
        assert abs(gram - _gemm_gram_deviation(schemes[i][0].amps)) <= 1e-15


def _count_pair_marginals(m):
    """Count the keep-sets of each _pair_marginals call made under the MonkeyPatch m."""
    calls = []
    pair_marginals = tensorcore._pair_marginals
    m.setattr(tensorcore, "_pair_marginals", lambda block, dims, keeps, out: calls.append(len(keeps))
              or pair_marginals(block, dims, keeps, out))
    return calls


# sha256 digests recorded before the marginal kernel laid its stacks out in
# call order, of runs that take the pair path.
def test_pair_path_verify_keeps_every_marginal_bit(monkeypatch):
    calls = _count_pair_marginals(monkeypatch)
    r = verify_scheme(build_scheme(4, 2, 18), n_samples=2, seed=1)
    assert calls == [1] * (6 * 18)
    keys = [[x.hex() for x in r.per_party_max_deviation], [x.hex() for x in r.cross_input_max_variation]]
    assert _sha256(keys) == "eeda7a9b201a0e85deade01a054c751b216ef849826548578304a655436127ee"


def test_pair_path_mask_output_bytes_unchanged(monkeypatch, capsys):
    calls = _count_pair_marginals(monkeypatch)
    assert main(["mask", "--w", "4", "--d", "2", "--m", "16", "--amps", "0.5,0.5,0.5,0.5"]) == 0
    assert calls == [16]
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "40f0603dde48088656d305b75374cec93376f9fc601af166c06f1e1e6ea9df65"
