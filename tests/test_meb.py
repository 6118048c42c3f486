import json
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    MebFamily,
    StateVector,
    certify_meb,
    ghz_basis,
    meb_to_json_dict,
    partial_trace,
    two_qudit_meb,
)
from oracles import state_from_kets, two_qudit_meb_state_oracle

R2 = 1 / np.sqrt(2)


class TestTwoQuditMeb:
    def test_bell_states_at_d2(self):
        states = two_qudit_meb(2).states
        expected = [
            state_from_kets({"00": R2, "11": R2}, (2, 2)),
            state_from_kets({"00": R2, "11": -R2}, (2, 2)),
            state_from_kets({"01": R2, "10": R2}, (2, 2)),
            state_from_kets({"01": R2, "10": -R2}, (2, 2)),
        ]
        for got, want in zip(states, expected):
            assert np.max(np.abs(got.amps - want)) <= 1e-15

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_direct_formula(self, d):
        family = two_qudit_meb(d)
        for k, state in zip(family.labels, family.states):
            assert np.max(np.abs(state.amps - two_qudit_meb_state_oracle(d, k))) <= 1e-14

    @pytest.mark.parametrize("d", range(2, 7))
    def test_gram_is_identity(self, d):
        states = two_qudit_meb(d).states
        gram = np.array(
            [[np.vdot(a.amps, b.amps) for b in states] for a in states]
        )
        assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_marginals_maximally_mixed(self, d):
        for state in two_qudit_meb(d).states:
            for party in (0, 1):
                rho = partial_trace(state, [party]).mat
                assert np.max(np.abs(rho - np.eye(d) / d)) <= 1e-12

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match=r"^d must be >= 2$"):
            two_qudit_meb(1)

    def test_over_budget_refused_before_labels(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the size budget"):
                two_qudit_meb(2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGhzBasis:
    @pytest.mark.parametrize("d,n", [(2, 1), (1, 3)])
    def test_small_arguments_rejected(self, d, n):
        with pytest.raises(ValueError, match=r"^need d >= 2 and n_parties >= 2$"):
            ghz_basis(d, n)

    def test_three_qubit_ghz_element(self):
        family = ghz_basis(2, 3)
        expected = state_from_kets({"000": R2, "111": R2}, (2, 2, 2))
        assert np.max(np.abs(family.states[0].amps - expected)) <= 1e-15

    def test_signed_partner_element(self):
        # s=1, t=(0,0) sits at label d^(n-1) = 4 and carries the minus sign
        family = ghz_basis(2, 3)
        expected = state_from_kets({"000": R2, "111": -R2}, (2, 2, 2))
        assert np.max(np.abs(family.states[4].amps - expected)) <= 1e-15

    def test_n2_equals_two_qudit_family_as_set(self):
        for d in (2, 3):
            ghz = {tuple(np.round(s.amps, 12)) for s in ghz_basis(d, 2).states}
            meb = {tuple(np.round(s.amps, 12)) for s in two_qudit_meb(d).states}
            # canonical global phase: both families put a positive real
            # amplitude on the j=0 term, so plain set equality applies
            assert ghz == meb

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_two_qudit_family_is_relabelled_n2_family(self, d):
        ghz = ghz_basis(d, 2).states
        for k, state in enumerate(two_qudit_meb(d).states):
            assert state.amps.tobytes() == ghz[(k % d) * d + k // d].amps.tobytes()

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_certification_passes(self, d, n):
        cert = certify_meb(ghz_basis(d, n))
        assert cert.passed
        assert cert.max_gram_deviation <= 1e-11
        assert cert.max_marginal_deviation <= 1e-11


class TestCertifyMeb:
    def test_two_qudit_family_passes(self):
        cert = certify_meb(two_qudit_meb(3))
        assert cert.passed
        assert cert.max_gram_deviation <= 1e-12
        assert cert.max_marginal_deviation <= 1e-12

    def test_computational_basis_fails_mixedness(self):
        states = tuple(
            StateVector((2, 2), np.eye(4)[k]) for k in range(4)
        )
        cert = certify_meb(MebFamily(2, 2, states, tuple(range(4))))
        assert cert.orthonormal
        assert not cert.marginals_maximally_mixed
        assert cert.max_marginal_deviation == pytest.approx(0.5)
        assert not cert.passed

    def test_nan_state_fails_mixedness(self):
        family = ghz_basis(2, 3)
        amps = family.states[2].amps.copy()
        amps[0] = np.nan
        states = family.states[:2] + (StateVector((2, 2, 2), amps),) + family.states[3:]
        cert = certify_meb(MebFamily(2, 3, states, family.labels))
        assert type(cert.max_marginal_deviation) is float
        assert np.isnan(cert.max_marginal_deviation)
        assert not cert.marginals_maximally_mixed
        assert not cert.passed

    def test_empty_family_is_incomplete(self):
        cert = certify_meb(MebFamily(2, 3, (), ()))
        assert not cert.complete and cert.count == 0 and not cert.passed
        assert cert.max_gram_deviation == 0.0 and cert.max_marginal_deviation == 0.0

    def test_incomplete_family_flagged(self):
        family = ghz_basis(2, 3)
        truncated = MebFamily(2, 3, family.states[:7], family.labels[:7])
        cert = certify_meb(truncated)
        assert not cert.complete
        assert cert.count == 7
        assert cert.expected_count == 8

    def test_phase_covariance(self):
        family = two_qudit_meb(3)
        phase = np.exp(0.7j)
        rotated = MebFamily(
            3,
            2,
            (StateVector((3, 3), phase * family.states[0].amps),) + family.states[1:],
            family.labels,
        )
        a, b = certify_meb(family), certify_meb(rotated)
        assert (a.orthonormal, a.marginals_maximally_mixed, a.complete) == (
            b.orthonormal,
            b.marginals_maximally_mixed,
            b.complete,
        )


class TestExport:
    def test_json_document_shape(self):
        doc = meb_to_json_dict(two_qudit_meb(2))
        assert doc["d"] == 2
        assert doc["n_parties"] == 2
        assert doc["labels"] == [0, 1, 2, 3]
        assert len(doc["states"]) == 4
        assert doc["states"][0][0] == [pytest.approx(R2), 0.0]


def _swapped_family(d, n, k):
    """A GHZ basis with state k swapped for the product state of the same index."""
    family = ghz_basis(d, n)
    dims = (d,) * n
    product = StateVector(dims, np.eye(d**n)[k])
    return MebFamily(d, n, family.states[:k] + (product,) + family.states[k + 1:], family.labels)


FAMILIES = {
    "ghz_2_3": lambda: ghz_basis(2, 3),
    "ghz_3_3": lambda: ghz_basis(3, 3),
    "two_qudit_3": lambda: two_qudit_meb(3),
    "swapped_3_3": lambda: _swapped_family(3, 3, 5),
    "empty": lambda: MebFamily(2, 3, (), ()),
}


class TestFamilyBlock:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_block_is_read_only_and_shared_by_states(self, name):
        family = FAMILIES[name]()
        assert family.amps.shape == (len(family.states), family.d**family.n_parties)
        assert not family.amps.flags.writeable
        for k, state in enumerate(family.states):
            assert np.shares_memory(state.amps, family.amps)
            assert state.amps.tobytes() == family.amps[k].tobytes()
        if len(family.states):
            with pytest.raises(ValueError):
                family.amps[0, 0] = 1.0

    @pytest.mark.parametrize("name", FAMILIES)
    def test_block_and_tuple_construction_agree(self, name):
        family = FAMILIES[name]()
        dims = (family.d,) * family.n_parties
        rows = np.array([s.amps for s in family.states], dtype=complex).reshape(len(family.states), family.d**family.n_parties)
        from_block = MebFamily(family.d, family.n_parties, rows, family.labels)
        from_tuple = MebFamily(family.d, family.n_parties, tuple(StateVector(dims, r.copy()) for r in rows), family.labels)
        assert from_block.amps.tobytes() == from_tuple.amps.tobytes() == family.amps.tobytes()
        assert repr(certify_meb(from_block)) == repr(certify_meb(from_tuple)) == repr(certify_meb(family))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_json_equals_per_state_serialization(self, name):
        family = FAMILIES[name]()
        per_state = {
            "d": family.d,
            "n_parties": family.n_parties,
            "labels": list(family.labels),
            "states": [[[float(a.real), float(a.imag)] for a in s.amps] for s in family.states],
        }
        assert json.dumps(meb_to_json_dict(family), indent=2) == json.dumps(per_state, indent=2)

    def test_block_shape_and_state_dims_are_validated(self):
        with pytest.raises(ValueError, match="state block shape"):
            MebFamily(2, 2, np.zeros((3, 8), dtype=complex), range(3))
        with pytest.raises(ValueError, match="state dims"):
            MebFamily(2, 2, (StateVector((4,), np.eye(4)[0]),), (0,))
