"""Built blocks carry the support their builder placed: `mask`, the Gram and
the marginals read it instead of scanning the block, and get the bits a scan
gives."""

import numpy as np
import pytest

from quditmask import (
    MaskingScheme,
    MebFamily,
    basis_state,
    build_scheme,
    certify_meb,
    ghz_basis,
    haar_random_state,
    mask,
    two_qudit_meb,
)
from quditmask import masker, meb, tensorcore
from quditmask.meb import ghz_amplitudes
from quditmask.tensorcore import (
    GRAM_TOL,
    SIZE_BUDGET_BYTES,
    FreshBlock,
    _pair_sums,
    gram_deviation,
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
        assert_is_support(fresh.support, fresh.block)

    @pytest.mark.parametrize("d,n", [(d, n) for d, n in GHZ_WITHIN_BUDGET if d ** (2 * n) <= SMALL])
    def test_ghz_basis(self, d, n):
        family = ghz_basis(d, n)
        assert_is_support(family._support, family.amps)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_two_qudit_meb(self, d):
        family = two_qudit_meb(d)
        assert_is_support(family._support, family.amps)

    # m = 4 in the two-qudit ordering, even and odd m, and w below capacity.
    @pytest.mark.parametrize(
        "w,d,m",
        [(4, 2, 4), (9, 3, 4), (5, 3, 4), (16, 4, 4), (8, 2, 6), (7, 2, 6), (13, 3, 6), (4, 2, 5),
         (27, 3, 7), (5, 2, 7), (3, 5, 5), (16, 2, 8), (64, 2, 12), (4, 2, 18)],
    )
    def test_build_scheme(self, w, d, m):
        scheme = build_scheme(w, d, m)
        assert_is_support(scheme._support, scheme.amps)

    def test_placed_drops_zeros_and_keeps_nan(self):
        block = np.zeros((2, 4), dtype=complex)
        block[0, [1, 3]] = [1j, np.nan]
        block[1, 0] = -0.5
        # (0, 0) and (1, 2) are placed but hold zeros.
        fresh = FreshBlock.placed(block, np.array([0, 0, 0, 1, 1]), np.array([0, 1, 3, 0, 2]))
        assert fresh.block is block
        assert_is_support(fresh.support, block)


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
        assert "_support" not in vars(caller)
        assert repr(certify_meb(built)) == repr(certify_meb(caller))
        dims = (built.d,) * built.n_parties
        ours = party_marginals(built.amps, dims, built._support)
        assert [rho.tobytes() for rho in ours] == [rho.tobytes() for rho in party_marginals(built.amps, dims)]

    # The last three take the pairs.
    @pytest.mark.parametrize("w,d,m", [(9, 3, 4), (16, 2, 8), (64, 2, 12), (4, 2, 16), (4, 2, 18)])
    def test_gram_deviation_and_mask(self, w, d, m):
        built = build_scheme(w, d, m)
        caller = MaskingScheme(w, d, m, built.amps)
        gram = built.gram_deviation()
        assert gram.hex() == caller.gram_deviation().hex() == gram_deviation(built.amps).hex()
        state = haar_random_state(w, np.random.default_rng(w))
        assert mask(built, state).amps.tobytes() == mask(caller, state).amps.tobytes()


class TestDenseMarginalBins:
    def test_dense_bins_have_the_bits_of_the_sorted_bins(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.integers(0, 40, 300))
        left, right = rng.integers(0, 30, 300) * 30, rng.integers(0, 30, 300)
        vals = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        bins, sums = _pair_sums(keys, left, right, vals)
        unsorted, dense = _pair_sums(keys, left, right, vals, 900)
        expected = np.zeros(900, dtype=complex)
        expected[bins] = sums
        assert unsorted is None
        assert dense.tobytes() == expected.tobytes()

    def test_marginals_sort_no_bins(self, monkeypatch):
        family = ghz_basis(2, 9)

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique on the marginals' bins")

        monkeypatch.setattr(np, "unique", no_sort)
        party_marginals(family.amps, (2,) * 9, family._support)
