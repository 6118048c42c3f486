import inspect
import math
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    MaskingScheme,
    StateVector,
    basis_state,
    bounds_report,
    build_scheme,
    example1_scheme,
    haar_random_state,
    leakage_profile,
    mask,
    verify_scheme,
)
from quditmask import tensorcore
from quditmask.tensorcore import GRAM_TOL, MARGINAL_TOL, VARIATION_TOL, partial_trace
from quditmask.verify import (
    CheckResult,
    LeakageProfile,
    MaskingReport,
    PartyLeakage,
    bounds_report_to_json_dict,
    leakage_profile_to_json_dict,
    masking_report_to_json_dict,
)
from oracles import even_parity_code_images, min_parties_oracle, qutrit_secret_sharing_images, state_from_kets

Q4 = (2, 2, 2, 2)


def corrupted_scheme():
    """Example-1 scheme with image 0 replaced by the product state |0000>."""
    base = example1_scheme()
    images = (basis_state(Q4, (0, 0, 0, 0)),) + base.images[1:]
    return MaskingScheme(4, 2, 4, images, provenance="custom")


class TestVerifyScheme:
    def test_four_qubit_scheme_passes(self):
        report = verify_scheme(example1_scheme(), n_samples=20, seed=0)
        assert report.passed
        assert max(report.per_party_max_deviation) <= 1e-10
        assert max(report.cross_input_max_variation) <= 1e-10
        assert report.isometry_gram_deviation <= 1e-11

    def test_six_qubit_scheme_passes(self):
        assert verify_scheme(build_scheme(8, 2, 6), n_samples=10, seed=3).passed

    def test_corrupted_scheme_fails(self):
        report = verify_scheme(corrupted_scheme(), n_samples=5, seed=0)
        assert not report.passed
        assert report.per_party_max_deviation[0] >= 0.5 - 1e-12
        assert not report.checks["marginals_maximally_mixed"].passed
        # on the |0> basis input alone the party-0 deviation is exactly 0.5
        profile = leakage_profile(mask(corrupted_scheme(), basis_state((4,), (0,))))
        assert profile.parties[0].diagonal_leak == pytest.approx(0.5)

    def test_nonorthonormal_images_fail_gram_check(self):
        base = example1_scheme()
        tilted = StateVector(Q4, 0.9 * base.images[0].amps + 0.45 * base.images[1].amps)
        scheme = MaskingScheme(4, 2, 4, (tilted,) + base.images[1:], provenance="custom")
        report = verify_scheme(scheme, n_samples=5, seed=0)
        assert scheme.gram_deviation() > 1e-6
        assert not report.checks["isometry_gram"].passed

    def test_nan_image_fails_marginal_checks(self):
        base = example1_scheme()
        amps = base.images[1].amps.copy()
        amps[0] = np.nan
        images = (base.images[0], StateVector(Q4, amps)) + base.images[2:]
        report = verify_scheme(MaskingScheme(4, 2, 4, images), n_samples=5, seed=0)
        assert all(type(x) is float and np.isnan(x) for x in report.per_party_max_deviation)
        assert np.isnan(report.checks["marginals_maximally_mixed"].value)
        assert not report.checks["marginals_maximally_mixed"].passed
        assert not report.checks["marginals_input_independent"].passed
        assert not report.passed

    def test_nan_image_at_d3_fails_without_raising(self):
        # LAPACK cannot diagonalise a NaN qutrit marginal; it must still FAIL, not raise.
        base = build_scheme(9, 3, 4)
        amps = base.images[0].amps.copy()
        amps[0] = np.nan
        images = (StateVector((3,) * 4, amps),) + base.images[1:]
        report = verify_scheme(MaskingScheme(9, 3, 4, images), n_samples=2, seed=0)
        assert np.isnan(report.checks["marginals_maximally_mixed"].value)
        assert not report.passed

    def test_deterministic_given_seed(self):
        scheme = build_scheme(9, 3, 4)
        a = verify_scheme(scheme, n_samples=15, seed=42)
        b = verify_scheme(scheme, n_samples=15, seed=42)
        assert a == b

    def test_seed_changes_samples(self):
        scheme = example1_scheme()
        a = verify_scheme(scheme, n_samples=15, seed=1)
        b = verify_scheme(scheme, n_samples=15, seed=2)
        assert a.passed and b.passed
        assert a.seed != b.seed

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            verify_scheme(example1_scheme(), n_samples=1, seed=0)


class TestLeakageProfile:
    def test_post_copy_state(self):
        # after the first copying C-Not: parties 0 and 2 lose their
        # off-diagonals, party 1 still leaks |a0 a2* + a1 a3*|
        a = np.full(4, 0.5, dtype=complex)
        state = StateVector(
            Q4,
            state_from_kets({"0000": a[0], "1010": a[1], "0100": a[2], "1110": a[3]}, Q4),
        )
        profile = leakage_profile(state)
        assert profile.parties[0].off_diagonal_leak <= 1e-14
        assert profile.parties[2].off_diagonal_leak <= 1e-14
        assert profile.parties[1].off_diagonal_leak == pytest.approx(0.5)

    def test_half_masked_state(self):
        # after the third step on a basis input: parties 0,1 masked, 2,3
        # leak on the diagonal
        a = np.array([1.0, 0, 0, 0], dtype=complex)
        state = StateVector(
            Q4,
            (1 / np.sqrt(2))
            * (
                a[0] * state_from_kets({"0000": 1, "1100": 1}, Q4)
                + a[1] * state_from_kets({"0010": 1, "1110": -1}, Q4)
                + a[2] * state_from_kets({"0101": 1, "1001": 1}, Q4)
                + a[3] * state_from_kets({"0111": 1, "1011": -1}, Q4)
            ),
        )
        profile = leakage_profile(state)
        assert profile.parties[0].masked() and profile.parties[1].masked()
        assert profile.parties[2].diagonal_leak == pytest.approx(0.5)
        assert profile.parties[3].diagonal_leak == pytest.approx(0.5)

    def test_fully_masked_output(self):
        rng = np.random.default_rng(31)
        for scheme in [example1_scheme(), build_scheme(8, 2, 6), build_scheme(9, 3, 4)]:
            for _ in range(5):
                profile = leakage_profile(mask(scheme, haar_random_state(scheme.w, rng)))
                assert profile.masked_parties() == tuple(range(scheme.m))
                for p in profile.parties:
                    assert p.off_diagonal_leak <= 1e-10
                    assert p.diagonal_leak <= 1e-10

    @pytest.mark.parametrize("dims", [(2, 3, 5), (3,) + (2,) * 14], ids=["gemm", "pairs"])
    def test_mixed_register(self, dims):
        # (2, 3, 5) takes the GEMM; 200 nonzeros of the 49152 amplitudes of
        # (3,) + (2,) * 14 take the pairs. Each party's marginal has the bits
        # of partial_trace, and its diagonal leak is measured from its own 1/d_p.
        rng = np.random.default_rng(5)
        amps = np.zeros(math.prod(dims), dtype=complex)
        idx = rng.choice(amps.size, size=min(200, amps.size), replace=False)
        amps[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        state = StateVector(dims, amps / np.linalg.norm(amps))
        assert (state._block.sparse_support is None) == (dims == (2, 3, 5))
        profile = leakage_profile(state)
        assert [p.party for p in profile.parties] == list(range(len(dims)))
        for p, d in zip(profile.parties, dims):
            rho = partial_trace(state, [p.party])
            assert p.marginal.shape == (d, d) and p.marginal.tobytes() == rho.tobytes()
            assert p.diagonal_leak == float(np.abs(np.diag(rho).real - 1 / d).max())


class TestBoundsReport:
    def test_six_qubit_case(self):
        report = bounds_report(2, 6)
        assert report.construction_capacity == 8
        assert report.singleton_bound == 16

    def test_equality_at_four_parties(self):
        report = bounds_report(3, 4)
        assert report.construction_capacity == report.singleton_bound == 9

    def test_min_parties_table(self):
        report = bounds_report(2, 4, [2, 3, 4])
        assert report.min_parties_table == ((2, 2, True), (3, 4, False), (4, 4, False))
        for w, p, _ in report.min_parties_table:
            assert p == min_parties_oracle(w, 2)

    def test_construction_capacity_never_exceeds_singleton_bound(self):
        for d in range(2, 17):
            for m in range(4, 17):
                report = bounds_report(d, m)
                assert report.construction_capacity <= report.singleton_bound
                assert (report.construction_capacity == report.singleton_bound) == (m == 4)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bounds_report(2, 3)


class TestJsonDocuments:
    def test_masking_report(self):
        doc = masking_report_to_json_dict(verify_scheme(example1_scheme(), 5, 0))
        assert doc["passed"] is True
        assert set(doc["checks"]) == {
            "marginals_maximally_mixed",
            "marginals_input_independent",
            "isometry_gram",
        }
        assert len(doc["per_party_max_deviation"]) == 4

    def test_bounds_report(self):
        doc = bounds_report_to_json_dict(bounds_report(2, 6, [8]))
        assert doc["min_parties_table"] == [
            {"w": 8, "min_parties": 6, "below_constructed_m": False}
        ]

    def test_leakage_profile(self):
        doc = leakage_profile_to_json_dict(
            leakage_profile(mask(example1_scheme(), basis_state((4,), (0,))))
        )
        assert len(doc["parties"]) == 4
        assert all(p["masked"] for p in doc["parties"])


class TestMaskedUsesMarginalTolerance:
    def test_threshold_is_the_marginal_tolerance(self):
        mixed = np.eye(2, dtype=complex) / 2
        assert PartyLeakage(0, mixed, 0.0, MARGINAL_TOL).masked()
        assert not PartyLeakage(0, mixed, 0.0, 1.01 * MARGINAL_TOL).masked()
        assert not PartyLeakage(0, mixed, 1.01 * MARGINAL_TOL, 0.0).masked()
        profile = LeakageProfile((PartyLeakage(0, mixed, 0.0, 0.0), PartyLeakage(1, mixed, 0.5, 0.0)))
        assert profile.masked_parties() == (0,)

    def test_no_tolerance_parameter(self):
        assert list(inspect.signature(PartyLeakage.masked).parameters) == ["self"]
        assert list(inspect.signature(LeakageProfile.masked_parties).parameters) == ["self"]


def verify_scheme_per_marginal(scheme, n_samples, seed):
    """verify_scheme with each marginal reduced on its own, as it was before
    the marginal table: the reference its report must equal exactly."""
    rng = np.random.default_rng(seed)
    inputs = [basis_state((scheme.w,), (k,)) for k in range(scheme.w)]
    inputs += [haar_random_state(scheme.w, rng) for _ in range(n_samples)]
    deviation = np.zeros((len(inputs), scheme.m))
    variation = np.zeros((len(inputs), scheme.m))
    reference = [None] * scheme.m
    for i, state in enumerate(inputs):
        masked = mask(scheme, state)
        for party in range(scheme.m):
            rho = partial_trace(masked, [party])
            if i == 0:
                reference[party] = rho
            deviation[i, party] = np.max(np.abs(rho - np.eye(scheme.d) / scheme.d))
            variation[i, party] = np.max(np.abs(rho - reference[party]))
    gram_dev = scheme.gram_deviation()
    return MaskingReport(
        w=scheme.w,
        d=scheme.d,
        m=scheme.m,
        n_samples=n_samples,
        seed=seed,
        per_party_max_deviation=tuple(deviation.max(axis=0).tolist()),
        cross_input_max_variation=tuple(variation.max(axis=0).tolist()),
        isometry_gram_deviation=gram_dev,
        checks={
            "marginals_maximally_mixed": CheckResult(float(deviation.max()), MARGINAL_TOL),
            "marginals_input_independent": CheckResult(float(variation.max()), VARIATION_TOL),
            "isometry_gram": CheckResult(gram_dev, GRAM_TOL),
        },
    )


def tilted(scheme):
    """The scheme with image 0 leaned by 1e-6 toward |0...0>, renormalised."""
    amps = scheme.images[0].amps.copy()
    amps[0] += 1e-6
    images = (StateVector(scheme.images[0].dims, amps / np.linalg.norm(amps)),) + scheme.images[1:]
    return MaskingScheme(scheme.w, scheme.d, scheme.m, images, "tilted")


def product(w, d, m, rng):
    """w distinct computational basis states of m qudits."""
    dims = (d,) * m
    picks = sorted(rng.choice(d**m, size=w, replace=False))
    return MaskingScheme(w, d, m, tuple(basis_state(dims, np.unravel_index(i, dims)) for i in picks), "product")


def nan_image(scheme):
    amps = scheme.amps.copy()
    amps[0, 0] = np.nan
    return MaskingScheme(scheme.w, scheme.d, scheme.m, amps)


class TestMarginalTableMatchesPerMarginalReduction:
    @pytest.mark.parametrize(
        "w,d,m,n", [(9, 3, 4, 50), (16, 2, 8, 50), (64, 2, 12, 20), (81, 3, 8, 20), (125, 5, 6, 10)]
    )
    def test_built_schemes(self, w, d, m, n):
        scheme = build_scheme(w, d, m)
        for seed in (0, 1):
            assert repr(verify_scheme(scheme, n, seed)) == repr(verify_scheme_per_marginal(scheme, n, seed))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tilted(build_scheme(81, 3, 8)),
            lambda: product(9, 3, 4, np.random.default_rng(0)),
            lambda: nan_image(build_scheme(9, 3, 4)),
            lambda: nan_image(build_scheme(4, 2, 4)),
        ],
        ids=["tilted-81-3-8", "product-9-3-4", "nan-9-3-4", "nan-4-2-4"],
    )
    def test_failing_schemes(self, make):
        scheme = make()
        report = verify_scheme(scheme, 10, 2)
        assert not report.passed
        assert repr(report) == repr(verify_scheme_per_marginal(scheme, 10, 2))


class TestSingletonCodesMask:
    """Schemes outside the paper's construction: w up to d^(m-2) masks."""

    @pytest.mark.parametrize("m", [4, 6])
    def test_even_parity_qubit_codes(self, m):
        images = even_parity_code_images(m)
        assert len(images) == 2 ** (m - 2)
        report = verify_scheme(MaskingScheme(len(images), 2, m, images, "code"), n_samples=20, seed=0)
        assert report.passed

    def test_qutrit_secret_sharing_code_masks_into_three_parties(self):
        report = verify_scheme(MaskingScheme(3, 3, 3, qutrit_secret_sharing_images()), n_samples=20, seed=0)
        assert report.passed


class TestVerifySizeBudget:
    """The inputs and the marginal table are checked against the size budget
    before any input is drawn."""

    def test_budget_is_inclusive(self, monkeypatch):
        # (4,2,4) with 12 samples: 16 inputs; per input max(w, m*d*d) = 16 entries.
        monkeypatch.setattr(tensorcore, "SIZE_BUDGET_BYTES", 16 * 16 * 16)
        assert verify_scheme(example1_scheme(), n_samples=12, seed=1).passed
        with pytest.raises(ValueError, match="over the size budget"):
            verify_scheme(example1_scheme(), n_samples=13, seed=1)

    def test_input_block_counts_when_wider_than_the_table(self, monkeypatch):
        # (64,2,12): w = 64 amplitudes per input beat m*d*d = 48 table entries.
        scheme = build_scheme(64, 2, 12)
        monkeypatch.setattr(tensorcore, "SIZE_BUDGET_BYTES", 16 * 66 * 64)
        assert verify_scheme(scheme, n_samples=2, seed=1).passed
        monkeypatch.setattr(tensorcore, "SIZE_BUDGET_BYTES", 16 * 66 * 64 - 1)
        with pytest.raises(ValueError, match="over the size budget"):
            verify_scheme(scheme, n_samples=2, seed=1)

    def test_refused_before_allocating(self):
        scheme = example1_scheme()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the size budget"):
                verify_scheme(scheme, n_samples=10**9, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
