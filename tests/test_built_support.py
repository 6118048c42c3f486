"""Built blocks carry the support their builder placed: `mask`, the Gram and
the marginals read it instead of scanning the block, and get the bits a scan
gives. The dense block is made only when something reads it, with the bytes
the builders wrote when they made it up front."""

import pickle
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    MaskingScheme,
    MebFamily,
    StateVector,
    basis_state,
    build_scheme,
    certify_meb,
    ghz_basis,
    haar_random_state,
    leakage_profile,
    mask,
    partial_trace,
    two_qudit_meb,
    verify_scheme,
)
from quditmask import cli, masker, meb, tensorcore
from quditmask.meb import ghz_amplitudes, two_qudit_labels
from quditmask.tensorcore import (
    GRAM_TOL,
    PAIR_MAX_FILL,
    SIZE_BUDGET_BYTES,
    Block,
    _marginal_stacks,
    _pair_sums,
    gram_deviation,
    max_distance_to_maximally_mixed,
    party_marginals,
    support,
)


def assert_is_support(sup, amps):
    """sup equals support(amps) entry for entry: rows, columns and value bits."""
    rows, cols, vals = support(amps)
    assert sup[0].dtype == rows.dtype and np.array_equal(sup[0], rows)
    assert sup[1].dtype == cols.dtype and np.array_equal(sup[1], cols)
    assert sup[2].tobytes() == vals.tobytes()


GHZ_WITHIN_BUDGET = [(d, n) for d in range(2, 8) for n in range(2, 6) if 16 * d ** (2 * n) <= SIZE_BUDGET_BYTES]
SMALL = 2**20  # entries of the largest whole basis built here


class TestBuilderSupportIsTheScan:
    @pytest.mark.parametrize("d,n", GHZ_WITHIN_BUDGET)
    def test_ghz_amplitudes(self, d, n):
        # Bases over SMALL entries (up to 156 MB) are checked on 64 of their
        # labels, the first and the last among them; a row's support depends
        # only on its own label.
        count = d**n
        labels = np.arange(count)
        if count * count > SMALL:
            rng = np.random.default_rng(d * 10 + n)
            labels = np.unique(np.concatenate(([0, count - 1], rng.choice(count, 62, replace=False))))
        fresh = ghz_amplitudes(d, n, labels)
        assert_is_support(fresh.support, fresh.amps)

    @pytest.mark.parametrize("d,n", [(d, n) for d, n in GHZ_WITHIN_BUDGET if d ** (2 * n) <= SMALL])
    def test_ghz_basis(self, d, n):
        family = ghz_basis(d, n)
        assert_is_support(family._block.support, family.amps)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_two_qudit_meb(self, d):
        family = two_qudit_meb(d)
        assert_is_support(family._block.support, family.amps)

    # m = 4 in the two-qudit ordering, even and odd m, and w below capacity.
    @pytest.mark.parametrize(
        "w,d,m",
        [(4, 2, 4), (9, 3, 4), (5, 3, 4), (16, 4, 4), (8, 2, 6), (7, 2, 6), (13, 3, 6), (4, 2, 5),
         (27, 3, 7), (5, 2, 7), (3, 5, 5), (16, 2, 8), (64, 2, 12), (4, 2, 18)],
    )
    def test_build_scheme(self, w, d, m):
        scheme = build_scheme(w, d, m)
        assert_is_support(scheme._block.support, scheme.amps)

    def test_placed_drops_zeros_and_keeps_nan(self):
        block = np.zeros((2, 4), dtype=complex)
        block[0, [1, 3]] = [1j, np.nan]
        block[1, 0] = -0.5
        # (0, 0) and (1, 2) are placed but hold zeros.
        rows, cols = np.array([0, 0, 0, 1, 1]), np.array([0, 1, 3, 0, 2])
        fresh = Block.at(block.shape, rows, cols, block[rows, cols])
        assert_is_support(fresh.support, block)
        assert fresh.amps.tobytes() == block.tobytes()  # the default maker's scatter
        assert Block.at(block.shape, rows, cols, block[rows, cols], lambda: block).amps is block


@pytest.fixture
def scans(monkeypatch):
    """The shapes of the blocks tensorcore.support scans, through every
    module of the package that binds it."""
    seen = []

    def spy(amps, nonzero=None):
        seen.append(amps.shape)
        return support(amps, nonzero)

    for mod in (tensorcore, masker, meb):
        if getattr(mod, "support", None) is support:
            monkeypatch.setattr(mod, "support", spy)
    assert tensorcore.support is spy
    return seen


def swapped_family(d, n, k):
    """ghz_basis(d, n) with state k swapped for a product state, as a caller's states."""
    family = ghz_basis(d, n)
    dims = (d,) * n
    product = basis_state(dims, [int(x) for x in np.unravel_index(k, dims)])
    return MebFamily(d, n, family.states[:k] + (product,) + family.states[k + 1:], family.labels)


class TestNoRescan:
    def test_certify_meb_of_a_built_basis_scans_nothing(self, scans):
        assert certify_meb(ghz_basis(2, 9)).passed
        assert scans == []

    def test_mask_and_gram_of_a_built_scheme_scan_nothing(self, scans):
        scheme = build_scheme(4, 2, 18)
        mask(scheme, haar_random_state(4, np.random.default_rng(1)))
        assert scheme.gram_deviation() <= GRAM_TOL
        assert scans == []

    def test_a_custom_basis_is_scanned_once(self, scans):
        family = swapped_family(3, 5, 100)
        assert scans == []
        cert = certify_meb(family)
        assert not cert.passed
        assert scans == [(243, 243)]

    def test_a_custom_scheme_is_scanned_once(self, scans):
        scheme = MaskingScheme(4, 2, 18, build_scheme(4, 2, 18).amps)
        scheme.gram_deviation()
        mask(scheme, basis_state((4,), (0,)))
        mask(scheme, basis_state((4,), (3,)))
        assert scans == [(4, 2**18)]


class TestOnePathToTheMarginals:
    """Every marginal of a state reads the state's one Block, so a state is
    scanned at most once, and a masked state, whose support mask finds among
    the images' columns, not at all."""

    def test_verify_scheme_of_a_built_scheme_scans_nothing(self, scans):
        assert verify_scheme(build_scheme(4, 2, 18), 2).passed
        assert scans == []

    def test_a_callers_sparse_state_is_scanned_once(self, scans):
        masked = mask(build_scheme(4, 2, 18), haar_random_state(4, np.random.default_rng(3)))
        state = StateVector(masked.dims, np.array(masked.amps))
        assert np.count_nonzero(state.amps) == 16
        rhos = [partial_trace(state, [p]) for p in range(18)]
        profile = leakage_profile(state)
        assert scans == [(1, 2**18)]
        for p, rho in enumerate(rhos):
            (want,) = _marginal_stacks(Block.of(masked.amps[None]), masked.dims, [[p]])[0]
            assert rho.tobytes() == want.tobytes()
            assert profile.parties[p].marginal.tobytes() == want.tobytes()

    def test_a_masked_state_has_the_bits_of_the_scan(self):
        masked = mask(build_scheme(4, 2, 18), haar_random_state(4, np.random.default_rng(4)))
        profile = leakage_profile(masked)
        for p in range(18):
            (want,) = _marginal_stacks(Block.of(masked.amps[None]), masked.dims, [[p]])[0]
            assert partial_trace(masked, [p]).tobytes() == want.tobytes()
            assert profile.parties[p].marginal.tobytes() == want.tobytes()


def caller_family(family):
    """The same states as a caller's ndarray, which is copied and scanned."""
    return MebFamily(family.d, family.n_parties, family.amps, family.labels)


class TestSameBitsAsTheScan:
    # (2, 8), (2, 9) and (3, 5) take the pairs; (5, 3) and two_qudit_meb(7)
    # are below PAIR_MIN_ENTRIES and take the GEMM.
    @pytest.mark.parametrize(
        "make", [lambda: ghz_basis(2, 8), lambda: ghz_basis(2, 9), lambda: ghz_basis(3, 5),
                 lambda: ghz_basis(5, 3), lambda: two_qudit_meb(7)],
    )
    def test_certify_meb(self, make):
        built = make()
        caller = caller_family(built)
        assert "support" not in vars(caller._block)
        assert repr(certify_meb(built)) == repr(certify_meb(caller))
        dims = (built.d,) * built.n_parties
        ours = party_marginals(built._block, dims)
        scanned = party_marginals(Block.of(built.amps), dims)
        assert [rho.tobytes() for rho in ours] == [rho.tobytes() for rho in scanned]

    # The last three take the pairs.
    @pytest.mark.parametrize("w,d,m", [(9, 3, 4), (16, 2, 8), (64, 2, 12), (4, 2, 16), (4, 2, 18)])
    def test_gram_deviation_and_mask(self, w, d, m):
        built = build_scheme(w, d, m)
        caller = MaskingScheme(w, d, m, built.amps)
        gram = built.gram_deviation()
        assert gram.hex() == caller.gram_deviation().hex() == gram_deviation(Block.of(built.amps)).hex()
        state = haar_random_state(w, np.random.default_rng(w))
        assert mask(built, state).amps.tobytes() == mask(caller, state).amps.tobytes()


class TestKernelsTakeTheBlockAlone:
    """A built scheme's or basis's block goes to the kernels as it is, with
    the bits the scheme's own Gram, certify_meb and a scan of the made
    block give. (4, 2, 18) and (2, 9) take the pairs; (9, 3, 4) and
    two_qudit_meb(3) take the GEMM."""

    @pytest.mark.parametrize("w,d,m", [(4, 2, 18), (9, 3, 4)])
    def test_gram_deviation(self, w, d, m):
        scheme = build_scheme(w, d, m)
        gram = gram_deviation(scheme._block)
        assert gram.hex() == scheme.gram_deviation().hex()
        assert gram.hex() == gram_deviation(Block.of(build_scheme(w, d, m).amps)).hex()

    @pytest.mark.parametrize("make", [lambda: ghz_basis(2, 9), lambda: two_qudit_meb(3)])
    def test_party_marginals(self, make):
        family = make()
        dims = (family.d,) * family.n_parties
        ours = party_marginals(family._block, dims)
        deviation = float(np.max([max_distance_to_maximally_mixed(rho) for rho in ours]))
        assert deviation.hex() == certify_meb(family).max_marginal_deviation.hex()
        scanned = party_marginals(Block.of(make().amps), dims)
        assert [rho.tobytes() for rho in ours] == [rho.tobytes() for rho in scanned]

    def test_pair_path_makes_no_block(self):
        scheme, family = build_scheme(4, 2, 18), ghz_basis(2, 9)
        gram_deviation(scheme._block)
        party_marginals(family._block, (2,) * 9)
        assert not made(scheme) and not made(family)


def haar_scheme():
    """A caller's (4, 2, 18) scheme with Haar-orthonormal, dense images."""
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2**18, 4)) + 1j * rng.standard_normal((2**18, 4))
    return MaskingScheme(4, 2, 18, np.linalg.qr(z)[0].T)


class TestDenseCallerScheme:
    """A dense caller's scheme takes the GEMM for its Gram, and its nonzeros
    are counted before any support is taken, so the Gram builds none; mask
    still takes the support and keeps it. Its masked states are dense too,
    and their marginals build no support either."""

    def test_gram_builds_no_support(self):
        scheme = haar_scheme()
        image_bytes = scheme._block.amps.nbytes  # B, 16 MB
        tracemalloc.start()
        try:
            deviation = scheme.gram_deviation()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation <= GRAM_TOL
        assert peak <= 1.25 * image_bytes  # the GEMM's conjugated copy is 1.0 B
        assert "support" not in vars(scheme._block)
        mask(scheme, basis_state((4,), (0,)))
        sup = scheme._block.support
        assert len(sup[2]) == 4 * 2**18
        mask(scheme, basis_state((4,), (1,)))
        assert scheme._block.support is sup

    def test_masked_state_builds_no_support(self):
        masked = mask(haar_scheme(), basis_state((4,), (0,)))
        block = masked._block
        assert PAIR_MAX_FILL * len(block.within) > masked.dim
        for p in range(18):
            partial_trace(masked, [p])
        leakage_profile(masked)
        assert masked._block is block and "support" not in vars(block)

    def test_a_dense_block_is_counted_once(self, monkeypatch):
        # A block keeps its verdict: each masked state is counted once for its
        # 18 marginals, and the scheme's support, taken by mask, needs no
        # count for the Gram.
        counts, count_nonzero = [], np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: counts.append(a.size) or count_nonzero(a))
        verify_scheme(haar_scheme(), 2)
        assert counts == [2**18] * 6
        counts.clear()
        z = np.random.default_rng(3).standard_normal((512, 512, 2)) @ [1, 1j]
        family = MebFamily(2, 9, np.linalg.qr(z)[0].T, range(512))
        certify_meb(family)  # its Gram and its marginals read one verdict
        assert counts == [2**18]


class TestDenseMarginalBins:
    def test_dense_bins_have_the_bits_of_the_sorted_bins(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.integers(0, 40, 300))
        left, right = rng.integers(0, 30, 300) * 30, rng.integers(0, 30, 300)
        vals = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        bins, sums = _pair_sums(keys, left, right, vals)
        out = np.full(900, np.nan, dtype=complex)
        unsorted, dense = _pair_sums(keys, left, right, vals, out)
        expected = np.zeros(900, dtype=complex)
        expected[bins] = sums
        assert unsorted is None and dense is out
        assert dense.tobytes() == expected.tobytes()

    def test_marginals_sort_no_bins(self, monkeypatch):
        family = ghz_basis(2, 9)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique on the marginals' bins")

        monkeypatch.setattr(np, "unique", no_sort)
        party_marginals(family._block, (2,) * 9)


def made(obj):
    """Whether a scheme's or family's dense block has been made."""
    return "amps" in vars(obj) or "amps" in vars(obj._block)


class TestNoBlockMade:
    def test_mask_and_pair_gram_make_no_block(self):
        scheme = build_scheme(4, 2, 18)
        mask(scheme, haar_random_state(4, np.random.default_rng(1)))
        assert scheme.gram_deviation() <= GRAM_TOL
        assert not made(scheme)
        assert "amps" not in vars(scheme) and "images" not in vars(scheme)

    def test_verify_scheme_makes_no_block(self):
        scheme = build_scheme(64, 2, 12)
        assert verify_scheme(scheme, 2).passed
        assert not made(scheme)

    def test_certify_meb_makes_no_block(self):
        family = ghz_basis(2, 9)
        cert = certify_meb(family)
        assert cert.passed and cert.count == cert.expected_count == 512
        assert not made(family)
        assert "amps" not in vars(family) and "states" not in vars(family)

    def test_gemm_fallback_makes_the_block_once_for_its_owner(self):
        # 9 x 81 entries, below PAIR_MIN_ENTRIES: the Gram takes the GEMM.
        scheme = build_scheme(9, 3, 4)
        scheme.gram_deviation()
        assert "amps" in vars(scheme._block) and "amps" not in vars(scheme)
        assert scheme.amps is scheme._block.amps

    @pytest.mark.parametrize("first", ["amps", "images"])
    def test_block_and_views_are_made_together_on_first_read(self, first):
        scheme = build_scheme(8, 2, 6)
        getattr(scheme, first)
        amps, images = scheme.amps, scheme.images
        assert scheme.amps is amps and scheme.images is images
        assert amps.shape == (8, 64) and not amps.flags.writeable and amps.flags.owndata
        for k, image in enumerate(images):
            assert image.dims == (2,) * 6 and np.shares_memory(image.amps, amps)
            assert image.amps.tobytes() == amps[k].tobytes()

    @pytest.mark.parametrize("read", [False, True])
    def test_pickles_before_and_after_the_block_is_made(self, read):
        scheme = build_scheme(9, 3, 4)
        if read:
            scheme.images
        copy = pickle.loads(pickle.dumps(scheme))
        assert made(copy) is read
        assert copy.gram_deviation() == scheme.gram_deviation()
        assert copy.amps.tobytes() == scheme.amps.tobytes()

    def test_unknown_attribute_still_raises(self):
        scheme = build_scheme(4, 2, 4)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            scheme.nope
        assert not made(scheme)


MASK_ARGV = ["mask", "--w", "4", "--d", "2", "--amps", "0.5,0.5,0.5,0.5", "--format", "text"]


class TestCliMask:
    def test_peak_is_about_the_masked_state(self, capsys):
        # The masked (4, 2, 20) state is 16 MB; its image block, 64 MB, is never made.
        tracemalloc.start()
        try:
            code = cli.main(MASK_ARGV + ["--m", "20"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 21
        assert peak < 1.5 * 16 * 2**20

    def test_masked_state_is_not_scanned(self, scans, capsys):
        assert cli.main(MASK_ARGV + ["--m", "18"]) == 0
        assert scans == []
        assert len(capsys.readouterr().out.splitlines()) == 19


class TestMaskedSupport:
    """mask gives the masked state's Block, whose support is found among the
    images' columns, and it is the scan."""

    @pytest.mark.parametrize("w,d,m", [(4, 2, 4), (9, 3, 4), (8, 2, 6), (27, 3, 7), (4, 2, 16)])
    def test_is_the_scan_of_the_masked_state(self, w, d, m):
        scheme = build_scheme(w, d, m)
        masked = mask(scheme, haar_random_state(w, np.random.default_rng(m)))
        block = masked._block
        assert block.shape == (1, d**m) and np.shares_memory(block.amps, masked.amps)
        assert_is_support(block.support, masked.amps[None])

    def test_drops_cancellations_and_keeps_nan(self):
        scheme = build_scheme(4, 2, 4)
        # Images 0 and 1 cancel on half their support: exact zeros, dropped.
        masked = mask(scheme, StateVector((4,), np.array([1, -1, 0, 0]) / np.sqrt(2)))
        assert np.count_nonzero(masked.amps[np.unique(scheme._block.support[1])] == 0) > 0
        assert_is_support(masked._block.support, masked.amps[None])
        nan_in = StateVector((4,), np.array([np.nan, 0.5, 0.5, 0.5]))
        nan_out = mask(scheme, nan_in)
        assert np.isnan(nan_out._block.support[2]).any()
        assert_is_support(nan_out._block.support, nan_out.amps[None])


def factor_blocks(w, d, m):
    """The dense ghz_amplitudes blocks of build_scheme's two factors."""
    if m == 4:
        left = right = ghz_amplitudes(d, 2, two_qudit_labels(d, w)).amps
    else:
        left = ghz_amplitudes(d, m // 2, np.arange(w)).amps
        right = ghz_amplitudes(d, (m + 1) // 2, np.arange(w)).amps
    return left, right


def ghz_scatter(d, n):
    """ghz_basis(d, n) written eagerly into np.zeros, with indices from
    np.ravel_multi_index: digit i of term j of label (s, t) is (j + t_i) mod d."""
    count = d**n
    s, t = np.divmod(np.arange(count), d ** (n - 1))
    j = np.arange(d)
    shifts = np.zeros((count, n), dtype=np.int64)
    if n > 1:
        shifts[:, 1:] = np.array(np.unravel_index(t, (d,) * (n - 1))).T
    digits = (j[None, :, None] + shifts[:, None, :]) % d
    idx = np.ravel_multi_index(tuple(np.moveaxis(digits, -1, 0)), (d,) * n)
    amps = np.zeros((count, count), dtype=complex)
    amps[np.arange(count)[:, None], idx] = np.exp(2j * np.pi / d) ** np.outer(s, j) / np.sqrt(d)
    return amps


class TestMadeBlockBytes:
    # m = 4 in the two-qudit ordering, even and odd m, and w below capacity.
    @pytest.mark.parametrize(
        "w,d,m",
        [(4, 2, 4), (9, 3, 4), (5, 3, 4), (16, 4, 4), (25, 5, 4), (11, 4, 4), (8, 2, 6), (7, 2, 6),
         (13, 3, 6), (64, 4, 6), (4, 2, 5), (27, 3, 7), (5, 2, 7), (3, 5, 5), (25, 5, 5), (16, 2, 8),
         (64, 2, 12)],
    )
    def test_scheme_block_is_the_row_wise_kron(self, w, d, m):
        left, right = factor_blocks(w, d, m)
        eager = np.array([np.kron(a, b) for a, b in zip(left, right)])
        assert build_scheme(w, d, m).amps.tobytes() == eager.tobytes()

    def test_signed_zeros_are_covered(self):
        # The kron writes -0.0 where a negative factor entry meets a zero; a
        # scatter into np.zeros would not.
        amps = build_scheme(9, 3, 4).amps
        signed = (amps == 0) & (np.signbit(amps.real) | np.signbit(amps.imag))
        assert np.count_nonzero(signed) == 144

    @pytest.mark.parametrize("d,n", [(d, n) for d, n in GHZ_WITHIN_BUDGET if d ** (2 * n) <= 2**16])
    def test_ghz_basis_block_is_the_scatter(self, d, n):
        assert ghz_basis(d, n).amps.tobytes() == ghz_scatter(d, n).tobytes()


class TestLabelCount:
    def test_label_count_must_match_the_states(self):
        with pytest.raises(ValueError, match="2 labels for 4 states"):
            MebFamily(2, 2, ghz_basis(2, 2).states, (0, 1))

    def test_built_rows_are_counted_without_making_the_block(self):
        fresh = ghz_amplitudes(2, 3, np.arange(8))
        with pytest.raises(ValueError, match="7 labels for 8 states"):
            MebFamily(2, 3, fresh, range(7))
        assert "amps" not in vars(fresh)

    def test_block_shape_is_checked_first(self):
        with pytest.raises(ValueError, match="state block shape"):
            MebFamily(2, 2, np.zeros((3, 8), dtype=complex), range(2))
