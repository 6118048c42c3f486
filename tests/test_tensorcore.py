import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmask import (
    MaskingScheme,
    MebFamily,
    ShapeError,
    StateVector,
    append_ancilla,
    apply_gate,
    basis_state,
    build_scheme,
    certify_meb,
    fourier_gate,
    ghz_basis,
    haar_random_state,
    leakage_profile,
    mask,
    partial_trace,
    shift_gate,
    two_qudit_meb,
    verify_scheme,
)
from quditmask import tensorcore
from quditmask.tensorcore import (
    PSD_TOL,
    Block,
    _check_densities,
    _marginal_stacks,
    max_distance_to_maximally_mixed,
    party_marginals,
)
from oracles import partial_trace_oracle, state_from_kets, two_qudit_meb_state_oracle

BELL = StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def random_state(dims, rng):
    amps = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    return StateVector(tuple(dims), amps / np.linalg.norm(amps))


def joint(a, b):
    """a (x) b on a.dims + b.dims; parties of `a` come first."""
    return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))


def reduced_densities(amps, dims, keep):
    """The checked (N, dk, dk) marginals on `keep` of the rows of an
    (N, prod(dims)) array."""
    (rho,) = _marginal_stacks(Block.of(amps), dims, [keep])
    return rho


def projector(state):
    """|state><state|, checked as a marginal is."""
    rho = np.outer(state.amps, state.amps.conj())
    _check_densities(rho[None])
    return rho


class TestStateVector:
    def test_rejects_dimension_one_party(self):
        with pytest.raises(ValueError):
            StateVector((2, 1), np.zeros(2))

    def test_rejects_wrong_amplitude_length(self):
        with pytest.raises(ShapeError):
            StateVector((2, 2), np.zeros(3))

    def test_rejects_float_dims(self):
        with pytest.raises(TypeError):
            StateVector((2.7, 2), np.zeros(4))
        assert StateVector((np.int64(2), 2), np.zeros(4)).dims == (2, 2)

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            BELL.amps[0] = 2.0

    def test_basis_state(self):
        st_ = basis_state((2, 3), (1, 2))
        assert st_.amps[5] == 1.0
        assert np.count_nonzero(st_.amps) == 1


class TestTensorProduct:
    """np.kron of the parties' amplitudes is the joint state, big-endian."""

    def test_basis_kets(self):
        out = joint(basis_state((2,), (0,)), basis_state((3,), (2,)))
        assert out.dims == (2, 3)
        assert out.amps.tobytes() == basis_state((2, 3), (0, 2)).amps.tobytes()

    def test_bell_pair_of_bell_pairs(self):
        out = joint(BELL, BELL)
        expected = state_from_kets(
            {"0000": 0.5, "0011": 0.5, "1100": 0.5, "1111": 0.5}, (2, 2, 2, 2)
        )
        assert np.allclose(out.amps, expected, atol=1e-15)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_norm_multiplies(self, seed):
        rng = np.random.default_rng(seed)
        a = StateVector((3,), rng.standard_normal(3) + 1j * rng.standard_normal(3))
        b = StateVector((2, 2), rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert np.isclose(joint(a, b).norm(), a.norm() * b.norm(), atol=1e-12)


class TestInnerProduct:
    """Overlaps of the package's states, as np.vdot of their amplitudes."""

    def test_orthogonal_basis_states(self):
        zero, one = basis_state((2,), (0,)), basis_state((2,), (1,))
        assert np.vdot(zero.amps, one.amps) == 0

    def test_meb_elements_orthogonal_at_d3(self):
        family = two_qudit_meb(3)
        for k in (0, 1):
            assert np.allclose(family.states[k].amps, two_qudit_meb_state_oracle(3, k), atol=1e-15)
        assert abs(np.vdot(family.states[0].amps, family.states[1].amps)) <= 1e-13

    def test_normalized_self_product(self):
        psi = haar_random_state(6, np.random.default_rng(7))
        assert np.isclose(np.vdot(psi.amps, psi.amps), 1.0, atol=1e-12)


class TestDensityOf:
    """A pure state's marginals, against their projectors."""

    def test_basis_state_projector(self):
        rho = partial_trace(basis_state((2, 3), (0, 2)), [0])
        assert rho.tobytes() == projector(basis_state((2,), (0,))).tobytes()

    def test_plus_state(self):
        plus = StateVector((2,), np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(partial_trace(joint(plus, basis_state((3,), (1,))), [0]), np.full((2, 2), 0.5))

    def test_pure_state_purity(self):
        rng = np.random.default_rng(3)
        for dims in [(2,), (2, 3), (4, 2)]:
            psi = random_state(dims, rng)
            rho = partial_trace(psi, range(len(dims)))
            assert np.allclose(rho, projector(psi), atol=1e-15)
            assert np.isclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)
            assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)


class TestPartialTrace:
    def test_bell_pair_pair_marginal_is_maximally_mixed(self):
        psi = joint(BELL, BELL)
        rho = partial_trace(psi, [0])
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)

    def test_post_copy_state_marginal_diagonal(self):
        # party-0 marginal of a_0|0000> + a_1|1010> + a_2|0100> + a_3|1110>
        a = np.array([0.1, 0.5, 0.7, 0.3], dtype=complex)
        a /= np.linalg.norm(a)
        psi = StateVector(
            (2, 2, 2, 2),
            state_from_kets({"0000": a[0], "1010": a[1], "0100": a[2], "1110": a[3]}, (2, 2, 2, 2)),
        )
        rho = partial_trace(psi, [0])
        expected = np.diag([abs(a[0]) ** 2 + abs(a[2]) ** 2, abs(a[1]) ** 2 + abs(a[3]) ** 2])
        assert np.allclose(rho, expected, atol=1e-14)

    def test_two_party_encoded_state_off_diagonal(self):
        a = np.array([0.4 + 0.1j, 0.3, 0.6 - 0.2j, 0.2j])
        a /= np.linalg.norm(a)
        psi = StateVector(
            (2, 2), state_from_kets({"00": a[0], "10": a[1], "01": a[2], "11": a[3]}, (2, 2))
        )
        rho = partial_trace(psi, [1])
        off = a[0] * np.conj(a[2]) + a[1] * np.conj(a[3])
        expected = np.array(
            [
                [abs(a[0]) ** 2 + abs(a[1]) ** 2, off],
                [np.conj(off), abs(a[2]) ** 2 + abs(a[3]) ** 2],
            ]
        )
        assert np.allclose(rho, expected, atol=1e-14)

    def test_empty_keep_set_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(BELL, [])

    def test_out_of_range_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(BELL, [5])

    @pytest.mark.parametrize("keep", [[0.7], [np.float64(1.0)], [0, 1.0]])
    def test_non_integer_keep_rejected(self, keep):
        with pytest.raises(TypeError):
            partial_trace(BELL, keep)

    @pytest.mark.parametrize("keep,party", [([np.int64(1)], 1), ([True], 1), ([False], 0)])
    def test_integer_like_keep_accepted(self, keep, party):
        psi = random_state((2, 3), np.random.default_rng(7))
        assert partial_trace(psi, keep).tobytes() == partial_trace(psi, [party]).tobytes()

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2, 2), (4, 4, 4, 4)]
    )
    def test_matches_block_summation_oracle(self, dims):
        rng = np.random.default_rng(sum(dims))
        psi = random_state(dims, rng)
        for keep in [[0], [len(dims) - 1], list(range(len(dims) - 1)), [0, len(dims) - 1]]:
            keep = sorted(set(keep))
            got = partial_trace(psi, keep)
            want = partial_trace_oracle(psi.amps, psi.dims, keep)
            assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2, 2), (2, 3, 4)])
    def test_trace_preserved(self, dims):
        rng = np.random.default_rng(11)
        amps = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
        psi = StateVector(dims, amps)  # deliberately unnormalized
        for party in range(len(dims)):
            rho = partial_trace(psi, [party])
            assert np.isclose(np.trace(rho).real, psi.norm() ** 2, atol=1e-12 * psi.norm() ** 2)

    def test_product_state_marginal_factorizes(self):
        rng = np.random.default_rng(5)
        psi = random_state((2, 3), rng)
        phi = StateVector((2, 2), 0.5 * random_state((2, 2), rng).amps)
        both = joint(psi, phi)
        for party in range(2):
            lhs = partial_trace(both, [party])
            rhs = partial_trace(psi, [party]) * (phi.norm() ** 2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestReducedDensities:
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (5, 3)])
    @pytest.mark.parametrize("count", [1, 4])
    def test_matches_block_summation_oracle(self, d, n, count):
        rng = np.random.default_rng(d * n + count)
        dims = (d,) * n
        states = [random_state(dims, rng) for _ in range(count)]
        amps = np.array([s.amps for s in states])
        for keep in [[p] for p in range(n)] + [[0, n - 1]]:
            got = reduced_densities(amps, dims, keep)
            assert got.shape == (count, d ** len(keep), d ** len(keep))
            for rho, s in zip(got, states):
                assert np.max(np.abs(rho - partial_trace_oracle(s.amps, dims, keep))) <= 1e-13

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (5, 3)])
    def test_partial_trace_is_its_batch_of_one(self, d, n):
        rng = np.random.default_rng(7)
        states = [random_state((d,) * n, rng) for _ in range(3)]
        stacked = reduced_densities(np.array([s.amps for s in states]), (d,) * n, [1])
        for rho, s in zip(stacked, states):
            assert rho.tobytes() == partial_trace(s, [1]).tobytes()

    def test_nan_state_stays_in_its_own_rows(self):
        rng = np.random.default_rng(3)
        amps = np.array([random_state((3, 3, 3), rng).amps for _ in range(3)])
        amps[1, 5] = np.nan
        for party in range(3):
            rho = reduced_densities(amps, (3, 3, 3), [party])
            assert np.isnan(rho[1]).any()
            assert np.isfinite(rho[[0, 2]]).all()

    def test_empty_stack(self):
        assert reduced_densities(np.zeros((0, 8), dtype=complex), (2, 2, 2), [0]).shape == (0, 2, 2)

    def test_one_bad_matrix_fails_the_whole_stack(self):
        good = np.eye(2, dtype=complex) / 2
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        negative = np.diag([1.5, -0.5]).astype(complex)
        for bad, message in [(skew, "not Hermitian"), (negative, "not positive semidefinite")]:
            with pytest.raises(ValueError, match=message):
                _check_densities(np.array([good, bad, good]))
        _check_densities(np.array([good, good]))


class TestDistanceToMaximallyMixed:
    def test_maximally_mixed_is_zero(self):
        assert max_distance_to_maximally_mixed(partial_trace(BELL, [0])) == pytest.approx(0, abs=1e-15)

    def test_pure_marginal(self):
        rho = partial_trace(basis_state((2, 2), (0, 1)), [0])
        assert max_distance_to_maximally_mixed(rho) == pytest.approx(0.5)

    def test_meb_marginals_at_d4(self):
        # every element of the 2-qudit family at d=4 has I/4 marginals
        for k in range(16):
            psi = StateVector((4, 4), two_qudit_meb_state_oracle(4, k))
            for party in (0, 1):
                assert max_distance_to_maximally_mixed(partial_trace(psi, [party])) <= 1e-12


class TestStackStates:
    """A caller's states, as an array or a sequence, are copied into one
    read-only block, and the row views share it."""

    def test_block_gives_read_only_block_and_row_views(self):
        block = np.eye(4, dtype=complex)[:3]
        family = MebFamily(2, 2, block, range(3))
        amps, states = family.amps, family.states
        assert amps.shape == (3, 4) and not amps.flags.writeable
        assert not np.shares_memory(amps, block) and family._block.amps is amps
        for k, s in enumerate(states):
            assert s.dims == (2, 2) and np.shares_memory(s.amps, amps)
            assert s.amps.tobytes() == block[k].tobytes()

    def test_sequence_is_stacked_once(self):
        seq = [basis_state((2, 2), (k // 2, k % 2)) for k in range(4)]
        family = MebFamily(2, 2, iter(seq), range(4))
        amps, states = family.amps, family.states
        assert amps.tobytes() == np.eye(4, dtype=complex).tobytes()
        assert not any(np.shares_memory(amps, s.amps) for s in seq)
        assert all(np.shares_memory(s.amps, amps) for s in states)

    @pytest.mark.parametrize("empty", [(), np.zeros((0, 8), dtype=complex)])
    def test_no_states(self, empty):
        family = MebFamily(2, 3, empty, ())
        assert family.amps.shape == (0, 8) and family.states == ()

    def test_errors_name_the_noun(self):
        bell = (BELL, BELL)
        with pytest.raises(ValueError, match="expected 3 images, got 2"):
            MaskingScheme(3, 2, 2, bell)
        with pytest.raises(ValueError, match="state dims"):
            MebFamily(2, 2, bell + (basis_state((4,), (0,)),), range(3))
        for block in [np.zeros((2, 5)), np.zeros(4), np.zeros((2, 2, 2))]:
            with pytest.raises(ValueError, match="state block shape"):
                MebFamily(2, 2, block, range(2))
        with pytest.raises(ValueError, match=r"image block shape \(2, 4\) != \(3, 4\)"):
            MaskingScheme(3, 2, 2, np.zeros((2, 4)))


EQUALITY_CASES = {
    "StateVector": lambda: StateVector((2,), [1, 0]),
    "MaskingScheme": lambda: build_scheme(4, 2, 4),
    "MebFamily": lambda: two_qudit_meb(2),
    "ghz_basis": lambda: ghz_basis(2, 2),
    "PartyLeakage": lambda: leakage_profile(BELL).parties[0],
}


class TestEqualityIsIdentity:
    @pytest.mark.parametrize("name", EQUALITY_CASES)
    def test_compare_and_hash_without_raising(self, name):
        make = EQUALITY_CASES[name]
        a, b = make(), make()
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestValidatedOnce:
    """Every marginal the package hands out is checked exactly once, by the
    one _check_densities call of its _marginal_stacks call."""

    def _count_checks(self, monkeypatch):
        calls = []
        check = lambda *stacks: calls.append(sum(map(len, stacks))) or _check_densities(*stacks)  # noqa: E731
        monkeypatch.setattr("quditmask.tensorcore._check_densities", check)
        return calls

    def test_partial_trace_validates_its_marginal_once(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        rho = partial_trace(BELL, [1])
        assert calls == [1] and type(rho) is np.ndarray and rho.shape == (2, 2)

    def test_party_marginals_validates_each_stack_once(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        party_marginals(Block.of(np.eye(8, dtype=complex)), (2, 2, 2))
        assert calls == [24]

    def test_mixed_dimensions_take_one_call(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        stacks = party_marginals(Block.of(np.eye(30, dtype=complex)), (2, 3, 5))
        assert calls == [90] and [rho.shape for rho in stacks] == [(30, 2, 2), (30, 3, 3), (30, 5, 5)]

    def test_leakage_profile_validates_each_party_once(self, monkeypatch):
        masked = mask(build_scheme(4, 2, 6), haar_random_state(4, np.random.default_rng(2)))
        calls = self._count_checks(monkeypatch)
        leakage_profile(masked)
        assert calls == [6]

    @pytest.mark.parametrize("d,n", [(3, 3), (2, 9)])  # the GEMM, then the pairs
    def test_certify_meb_validates_each_party_once(self, monkeypatch, d, n):
        family = ghz_basis(d, n)
        calls = self._count_checks(monkeypatch)
        assert certify_meb(family).passed
        assert calls == [n * d**n]

    def test_verify_scheme_validates_each_marginal_once(self, monkeypatch):
        scheme = build_scheme(9, 3, 4)
        calls = self._count_checks(monkeypatch)
        verify_scheme(scheme, n_samples=3)
        assert calls == [1] * (scheme.m * (scheme.w + 3))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3)])  # one stack, then one per dk
    def test_hermiticity_anywhere_is_reported_before_psd_anywhere(self, dims):
        # Row 0 has a negative marginal on party 0; row 1 a non-Hermitian one
        # on the last party, which comes later in keep-set and in dk order.
        stacks = [np.stack([np.eye(d, dtype=complex) / d] * 2) for d in dims]
        stacks[0][0] = np.diag([1.5] + [-0.5 / (dims[0] - 1)] * (dims[0] - 1))
        stacks[-1][1, 0, 1] = 1e-9

        def pairs(block, dims, keeps, out):
            out[:] = np.concatenate([stacks[p].reshape(-1) for (p,) in keeps])
            return True

        with pytest.MonkeyPatch.context() as m:
            m.setattr(tensorcore, "PAIR_MIN_ENTRIES", 0)
            m.setattr(tensorcore, "PAIR_MAX_FILL", 1)
            m.setattr(tensorcore, "_pair_marginals", pairs)
            block = Block.of(np.ones((2, int(np.prod(dims))), dtype=complex))
            with pytest.raises(ValueError, match="Hermitian"):
                party_marginals(block, dims)
            stacks[-1][1, 0, 1] = 0
            with pytest.raises(ValueError, match="positive semidefinite"):
                party_marginals(block, dims)


class TestCheckDensitiesContract:
    GOOD = np.eye(3, dtype=complex) / 3

    def test_messages_and_order(self):
        skew = self.GOOD.copy()
        skew[0, 1] = 1e-11
        negative = np.diag([1.0, 0.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
            _check_densities(np.array([self.GOOD, skew, negative]))
        with pytest.raises(ValueError, match="^matrix is not positive semidefinite within tolerance$"):
            _check_densities(np.array([self.GOOD, negative]))

    def test_tolerances_are_inclusive(self):
        edge = self.GOOD.copy()
        edge[0, 1] = 1e-12
        _check_densities(edge[None])
        _check_densities(np.diag([1.0, 1e-10, -1e-10]).astype(complex)[None])

    def test_nan_matrix_is_skipped_not_raised(self):
        nan = self.GOOD.copy()
        nan[0, 0] = np.nan
        _check_densities(np.array([nan, self.GOOD]))
        _check_densities(np.array([nan, nan]))
        negative = np.diag([1.0, 0.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            _check_densities(np.array([nan, negative]))

    def test_empty_stack_passes(self):
        assert _check_densities(np.zeros((0, 3, 3), dtype=complex)) is None


def _psd_oracle_raises(rho):
    """Whether the eigvalsh check alone, on every finite matrix, raises."""
    herm = (rho + rho.conj().transpose(0, 2, 1)) / 2
    herm = herm[np.isfinite(herm).all(axis=(1, 2))]
    return bool(len(herm)) and np.linalg.eigvalsh(herm).min() < -PSD_TOL


def _raises(rho):
    try:
        _check_densities(rho)
    except ValueError as err:
        assert str(err) == "matrix is not positive semidefinite within tolerance"
        return True
    return False


class TestGershgorinBeforeEigvalsh:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 6), st.sampled_from([1 - 1e-3, 1 + 1e-3]), st.integers(0, 2**32 - 1))
    def test_raises_exactly_when_eigvalsh_does(self, k, n, scale, seed):
        """Hermitian stacks whose smallest eigenvalue sits just inside or just
        past -PSD_TOL, beside near-I/k matrices that Gershgorin clears."""
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(n):
            z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            if rng.integers(2):
                eigs = np.concatenate([[-PSD_TOL * scale], rng.uniform(0.1, 1, k - 1)])
                u = np.linalg.qr(z)[0]
                mats.append((u * eigs) @ u.conj().T)
            else:
                mats.append(np.eye(k) / k + 1e-3 / k * (z + z.conj().T))
        rho = np.array(mats)
        assert _raises(rho) == _psd_oracle_raises(rho)
        if scale > 1 and len(rho) > 1 and _psd_oracle_raises(rho):
            rho[0] = np.nan
            assert _raises(rho) == _psd_oracle_raises(rho)

    def test_nan_matrices_are_still_skipped(self):
        good, nan = np.eye(2, dtype=complex) / 2, np.full((2, 2), np.nan, dtype=complex)
        _check_densities(np.array([nan, good, nan]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            _check_densities(np.array([nan, np.diag([1.5, -0.5]).astype(complex)]))

    def test_maximally_mixed_stacks_need_no_eigvalsh(self, monkeypatch):
        def no_eigvalsh(*args):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert certify_meb(ghz_basis(2, 9)).passed
        partial_trace(BELL, [0])


class TestMaxDistanceToMaximallyMixed:
    def test_empty_stack_is_zero_and_nan_is_kept(self):
        assert max_distance_to_maximally_mixed(np.zeros((0, 2, 2), dtype=complex)) == 0.0
        mats = np.array([np.eye(2) / 2, [[np.nan, 0], [0, 0.5]]], dtype=complex)
        assert np.isnan(max_distance_to_maximally_mixed(mats))

    def test_equals_subtracting_identity_over_d(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            mats = rng.standard_normal((4, 3, d, d)) + 1j * rng.standard_normal((4, 3, d, d))
            expected = float(np.max(np.abs(mats - np.eye(d) / d)))
            assert max_distance_to_maximally_mixed(mats) == expected
            assert max_distance_to_maximally_mixed(mats[:, 1]) == float(np.max(np.abs(mats[:, 1] - np.eye(d) / d)))


class TestBasisStateErrors:
    def test_one_digit_per_party(self):
        with pytest.raises(ShapeError, match="one digit per party required"):
            basis_state((2, 3), (0,))

    @pytest.mark.parametrize("digits", [(0, 3), (-1, 0)])
    def test_digit_out_of_range(self, digits):
        with pytest.raises(ValueError, match="out of range for dimension"):
            basis_state((2, 3), digits)

    @pytest.mark.parametrize("digits", [(0.5,), (np.float64(1),)])
    def test_non_integer_digit_raises_type_error(self, digits):
        with pytest.raises(TypeError):
            basis_state((2,), digits)
        assert basis_state((2,), (np.int64(1),)).amps.tobytes() == basis_state((2,), (1,)).amps.tobytes()

    def test_dims_are_checked_before_digits(self):
        with pytest.raises(ValueError, match=r"every party dimension must be >= 2, got \(2, -3\)"):
            basis_state((2, -3), (0, 0))


class TestArrayOwnership:
    @pytest.mark.parametrize("m", [4, 16])  # the GEMM, then the pairs
    def test_a_marginal_is_the_callers_own(self, m):
        psi = mask(build_scheme(4, 2, m), haar_random_state(4, np.random.default_rng(m)))
        amps = psi.amps.tobytes()
        rho = partial_trace(psi, [0])
        want = rho.tobytes()
        rho[:] = 7.0
        assert psi.amps.tobytes() == amps
        assert partial_trace(psi, [0]).tobytes() == want

    def test_state_vector_copies_a_writeable_array(self):
        # 2^16 amplitudes, 16 nonzero: the marginals take the pairs of the
        # state's support, which is taken before the caller's array is written.
        amps = np.zeros(2**16, dtype=complex)
        amps[np.random.default_rng(0).choice(2**16, 16, replace=False)] = 0.25
        psi = StateVector((2,) * 16, amps)
        before = psi.amps.tobytes()
        marginals = [partial_trace(psi, [p]).tobytes() for p in range(16)]
        assert "support" in vars(psi._block)
        amps[:] = 1.0
        assert psi.amps.tobytes() == before and not psi.amps.flags.writeable
        assert [partial_trace(psi, [p]).tobytes() for p in range(16)] == marginals
        assert [p.marginal.tobytes() for p in leakage_profile(psi).parties] == marginals

    def test_state_vector_holds_a_read_only_array(self):
        amps = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        amps.flags.writeable = False
        psi = StateVector((2, 2), amps)
        assert psi.amps.base is amps and not psi.amps.flags.writeable


def traced_peak(f):
    """f() and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestProducersAreNotCopied:
    """The package's producers hand StateVector read-only arrays they made,
    so no output is copied: each peaks at its output (or, for a Fourier gate
    off party 0, at the one register-order copy of np.tensordot's result)."""

    def test_mask(self):
        scheme = build_scheme(4, 2, 20)
        state = haar_random_state(4, np.random.default_rng(1))
        masked, peak = traced_peak(lambda: mask(scheme, state))
        assert peak <= 1.1 * masked.amps.nbytes

    def test_append_ancilla(self):
        psi = random_state((16,) * 3, np.random.default_rng(2))
        out, peak = traced_peak(lambda: append_ancilla(psi, 16, 1))
        assert peak <= 1.35 * out.amps.nbytes  # np.kron's own working: 1.25

    @pytest.mark.parametrize(
        "gate,blocks",
        [(fourier_gate(16, 0), 1.1), (fourier_gate(16, 3), 2.1), (shift_gate(16, 3, 0), 1.1),
         (shift_gate(16, 3, 3), 1.1)],
        ids=["fourier0", "fourier3", "shift0", "shift3"],
    )
    def test_apply_gate(self, gate, blocks):
        psi = random_state((16,) * 4, np.random.default_rng(3))
        _, peak = traced_peak(lambda: apply_gate(gate, psi))
        assert peak <= blocks * psi.amps.nbytes


class TestReductionsWithoutSpecialCases:
    def test_gram_deviation_of_an_empty_family_is_zero(self):
        from quditmask.tensorcore import gram_deviation

        assert gram_deviation(Block.of(np.zeros((0, 8), dtype=complex))) == 0.0
        assert gram_deviation(Block.of(np.eye(3, dtype=complex))) == 0.0
        assert np.isnan(gram_deviation(Block.of(np.array([[np.nan, 0], [0, 1]], dtype=complex))))

    def test_signed_zero_and_exact_identity(self):
        for d in (2, 3, 7):
            mats = np.zeros((2, d, d), dtype=complex)
            mats[:] = np.eye(d) / d
            mats[1, 0, 1] = complex(-0.0, -0.0)
            assert max_distance_to_maximally_mixed(mats) == 0.0
            assert max_distance_to_maximally_mixed(mats[:0]) == 0.0
