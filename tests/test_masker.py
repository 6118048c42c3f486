import json
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    BoundViolationError,
    Circuit,
    MaskingScheme,
    ShapeError,
    StateVector,
    append_ancilla,
    apply,
    basis_state,
    build_scheme,
    circuit_mask,
    digit_encode,
    example1_scheme,
    example2_scheme,
    ghz_basis,
    haar_random_state,
    leakage_profile,
    mask,
    masking_capacity,
    min_parties,
    qubit4_circuit,
    qudit4_circuit,
    scheme_to_json_dict,
    two_qudit_meb,
    verify_scheme,
)
from oracles import (
    even_parity_code_images,
    min_parties_oracle,
    qudit_circuit_final_state_oracle,
    state_from_kets,
)

Q4 = (2, 2, 2, 2)
R2 = 1 / np.sqrt(2)


def bell_pair_images():
    """The four Bell-pair image states of the 4-qubit scheme, transcribed."""
    kets = [
        {"0000": 0.5, "0011": 0.5, "1100": 0.5, "1111": 0.5},
        {"0000": 0.5, "0011": -0.5, "1100": -0.5, "1111": 0.5},
        {"0101": 0.5, "0110": 0.5, "1001": 0.5, "1010": 0.5},
        {"0101": 0.5, "0110": -0.5, "1001": -0.5, "1010": 0.5},
    ]
    return [state_from_kets(k, Q4) for k in kets]


def ghz_pair_images():
    """The eight GHZ-pair image states of the 6-qubit scheme, transcribed."""
    patterns = [("000", "111"), ("001", "110"), ("010", "101"), ("100", "011")]
    images = []
    for sign in (1.0, -1.0):
        for a, b in patterns:
            images.append(
                state_from_kets(
                    {
                        a + a: 0.5,
                        a + b: 0.5 * sign,
                        b + a: 0.5 * sign,
                        b + b: 0.5,
                    },
                    (2,) * 6,
                )
            )
    # scheme label order interleaves sign and pattern: (s, t) with s slowest
    order = [0, 1, 2, 3, 4, 5, 6, 7]
    return [images[i] for i in order]


class TestBuildScheme:
    def test_example1_images_are_bell_pairs(self):
        scheme = build_scheme(4, 2, 4)
        assert scheme.provenance == "example1"
        for got, want in zip(scheme.images, bell_pair_images()):
            assert np.max(np.abs(got.amps - want)) <= 1e-12

    def test_example2_images_are_ghz_pairs(self):
        scheme = build_scheme(8, 2, 6)
        assert scheme.provenance == "example2"
        for got, want in zip(scheme.images, ghz_pair_images()):
            assert np.max(np.abs(got.amps - want)) <= 1e-12

    def test_bound_violation(self):
        with pytest.raises(BoundViolationError, match="capacity"):
            build_scheme(9, 2, 4)

    def test_small_party_count_rejected(self):
        with pytest.raises(ValueError):
            build_scheme(4, 2, 3)

    @pytest.mark.parametrize("w,d", [(1, 2), (2, 1)])
    def test_too_few_levels_rejected(self, w, d):
        with pytest.raises(ValueError, match=r"^need w >= 2 and d >= 2$"):
            build_scheme(w, d, 4)

    def test_named_constructors(self):
        assert example1_scheme().w == 4
        assert example2_scheme().m == 6

    @pytest.mark.parametrize("w,d,m", [(4, 2, 4), (8, 2, 6), (9, 3, 4), (4, 2, 5), (27, 3, 6)])
    def test_images_orthonormal(self, w, d, m):
        assert build_scheme(w, d, m).gram_deviation() <= 1e-11

    @pytest.mark.parametrize("w,d,m", [(8, 2, 6), (4, 2, 10), (27, 3, 6)])
    def test_images_are_kron_of_ghz_elements(self, w, d, m):
        left, right = ghz_basis(d, m // 2).states, ghz_basis(d, (m + 1) // 2).states
        for k, image in enumerate(build_scheme(w, d, m).images):
            assert image.amps.tobytes() == np.kron(left[k].amps, right[k].amps).tobytes()

    def test_capacity(self):
        assert masking_capacity(2, 4) == 4
        assert masking_capacity(3, 7) == 27


class TestMask:
    def test_basis_input_gives_bell_pair_of_bell_pairs(self):
        out = mask(example1_scheme(), basis_state((4,), (0,)))
        assert np.max(np.abs(out.amps - bell_pair_images()[0])) <= 1e-12

    def test_general_input_expansion(self):
        # re-derive the expansion by linearity from the transcribed columns
        a = np.array([0.6, 0.1j, -0.3, 0.2 + 0.1j])
        a /= np.linalg.norm(a)
        out = mask(example1_scheme(), StateVector((4,), a))
        expected = sum(ak * img for ak, img in zip(a, bell_pair_images()))
        assert np.max(np.abs(out.amps - expected)) <= 1e-12

    def test_orthogonal_inputs_give_orthogonal_outputs(self):
        scheme = build_scheme(9, 3, 4)
        x, y = basis_state((9,), (2,)), basis_state((9,), (7,))
        assert abs(np.vdot(mask(scheme, x).amps, mask(scheme, y).amps)) <= 1e-12

    def test_isometry_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for scheme in [example1_scheme(), build_scheme(8, 2, 6), build_scheme(16, 4, 4)]:
            for _ in range(10):
                x = haar_random_state(scheme.w, rng)
                y = haar_random_state(scheme.w, rng)
                assert np.isclose(
                    np.vdot(mask(scheme, x).amps, mask(scheme, y).amps),
                    np.vdot(x.amps, y.amps),
                    atol=1e-11,
                )

    def test_linearity(self):
        rng = np.random.default_rng(17)
        scheme = build_scheme(9, 3, 4)
        x, y = haar_random_state(9, rng), haar_random_state(9, rng)
        alpha, beta = 0.3 - 0.2j, 0.8 + 0.1j
        combo = StateVector((9,), alpha * x.amps + beta * y.amps)
        lhs = mask(scheme, combo).amps
        rhs = alpha * mask(scheme, x).amps + beta * mask(scheme, y).amps
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mask(example1_scheme(), basis_state((3,), (0,)))


class TestQubit4Circuit:
    @pytest.mark.parametrize(
        "a",
        [
            np.array([1.0, 0, 0, 0]),
            np.array([0, 1.0, 0, 0]),
            np.array([0.5, 0.5, 0.5, 0.5]),
        ],
    )
    def test_intermediate_states_match_walkthrough(self, a):
        a = a.astype(complex)
        circuit = qubit4_circuit()
        state = append_ancilla(digit_encode(StateVector((4,), a), 2), 2, 2)
        # the four steps end after gates 1, 2, 4, and 6
        expected_by_step = {
            1: state_from_kets(
                {"0000": a[0], "1010": a[1], "0100": a[2], "1110": a[3]}, Q4
            ),
            2: state_from_kets(
                {"0000": a[0], "1010": a[1], "0101": a[2], "1111": a[3]}, Q4
            ),
            4: R2
            * (
                a[0] * state_from_kets({"0000": 1, "1100": 1}, Q4)
                + a[1] * state_from_kets({"0010": 1, "1110": -1}, Q4)
                + a[2] * state_from_kets({"0101": 1, "1001": 1}, Q4)
                + a[3] * state_from_kets({"0111": 1, "1011": -1}, Q4)
            ),
            6: 0.5
            * (
                a[0] * state_from_kets({"0000": 1, "1111": 1, "0011": 1, "1100": 1}, Q4)
                + a[1] * state_from_kets({"0000": 1, "1111": 1, "0011": -1, "1100": -1}, Q4)
                + a[2] * state_from_kets({"0101": 1, "1010": 1, "0110": 1, "1001": 1}, Q4)
                + a[3] * state_from_kets({"0101": 1, "1010": 1, "0110": -1, "1001": -1}, Q4)
            ),
        }
        for n_gates, expected in expected_by_step.items():
            got = apply(Circuit(Q4, circuit.gates[:n_gates]), state)
            assert np.max(np.abs(got.amps - expected)) <= 1e-12

    def test_final_state_equals_direct_mask(self):
        rng = np.random.default_rng(23)
        scheme = example1_scheme()
        for _ in range(100):
            x = haar_random_state(4, rng)
            via_circuit = apply(
                qubit4_circuit(), append_ancilla(digit_encode(x, 2), 2, 2)
            )
            direct = mask(scheme, x)
            assert via_circuit.dims == direct.dims
            assert abs(abs(np.vdot(via_circuit.amps, direct.amps)) - 1.0) <= 1e-11


class TestQudit4Circuit:
    def test_d2_matches_qubit_circuit_on_basis_inputs(self):
        for k in range(4):
            x = basis_state((4,), (k,))
            a = apply(qubit4_circuit(), append_ancilla(digit_encode(x, 2), 2, 2))
            b = circuit_mask(2, x)
            assert np.max(np.abs(a.amps - b.amps)) <= 1e-12

    def test_d3_closed_form_on_basis_input(self):
        a = np.zeros(9, dtype=complex)
        a[4] = 1.0  # digits (1, 1)
        got = circuit_mask(3, StateVector((9,), a))
        want = qudit_circuit_final_state_oracle(3, a)
        assert np.max(np.abs(got.amps - want)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 6))
    def test_closed_form_on_random_inputs(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            x = haar_random_state(d * d, rng)
            got = circuit_mask(d, x)
            want = qudit_circuit_final_state_oracle(d, x.amps)
            assert np.max(np.abs(got.amps - want)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 6))
    def test_fidelity_with_direct_mask(self, d):
        rng = np.random.default_rng(100 + d)
        scheme = build_scheme(d * d, d, 4)
        for _ in range(20):
            x = haar_random_state(d * d, rng)
            via_circuit, direct = circuit_mask(d, x), mask(scheme, x)
            assert via_circuit.dims == direct.dims
            assert abs(abs(np.vdot(via_circuit.amps, direct.amps)) - 1.0) <= 1e-11


class TestDigitEncode:
    def test_four_level_encoding(self):
        # |1> -> |10>, |2> -> |01>
        assert np.allclose(
            digit_encode(basis_state((4,), (1,)), 2).amps, basis_state((2, 2), (1, 0)).amps
        )
        assert np.allclose(
            digit_encode(basis_state((4,), (2,)), 2).amps, basis_state((2, 2), (0, 1)).amps
        )

    def test_partial_fill_for_w_below_d_squared(self):
        out = digit_encode(basis_state((3,), (2,)), 2)
        assert np.allclose(out.amps, basis_state((2, 2), (0, 1)).amps)

    def test_too_many_levels_rejected(self):
        with pytest.raises(ShapeError):
            digit_encode(basis_state((5,), (0,)), 2)

    def test_more_than_one_input_party_rejected(self):
        with pytest.raises(ShapeError, match=r"input must be a single party, got dims \(2, 2\)"):
            digit_encode(basis_state((2, 2), (0, 1)), 2)


class TestMinParties:
    def test_reference_values(self):
        assert min_parties(4, 2) == 4
        assert min_parties(8, 2) == 6
        assert min_parties(2, 2) == 2

    @pytest.mark.parametrize("w,d", [(1, 2), (2, 1)])
    def test_too_few_levels_rejected(self, w, d):
        with pytest.raises(ValueError, match=r"^need w >= 2 and d >= 2$"):
            min_parties(w, d)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_square_capacity_needs_four(self, d):
        assert min_parties(d * d, d) == 4

    def test_matches_integer_oracle(self):
        for d in range(2, 8):
            for w in range(2, 200):
                assert min_parties(w, d) == min_parties_oracle(w, d)

    def test_no_floating_point_edge_failures(self):
        # d^t for large exact powers; float log would misround these
        assert min_parties(10 ** 15, 10) == 30
        assert min_parties(3 ** 20, 3) == 40
        assert min_parties(3 ** 20 + 1, 3) == 42


class TestSchemeExport:
    def test_json_document(self):
        doc = scheme_to_json_dict(example1_scheme())
        assert doc["w"] == 4 and doc["d"] == 2 and doc["m"] == 4
        assert doc["provenance"] == "example1"
        assert len(doc["images"]) == 4
        assert doc["images"][0][0] == [pytest.approx(0.5), 0.0]

    def test_scheme_invariant_rejects_overfull(self):
        images = tuple(example1_scheme().images) + (example1_scheme().images[0],)
        with pytest.raises(BoundViolationError):
            MaskingScheme(5, 2, 4, images)


class TestImageBlock:
    def test_images_are_read_only_views_of_one_block(self):
        scheme = build_scheme(8, 2, 6)
        assert scheme.amps.shape == (8, 64)
        for k, image in enumerate(scheme.images):
            assert np.shares_memory(image.amps, scheme.amps)
            assert image.amps.tobytes() == scheme.amps[k].tobytes()
        with pytest.raises(ValueError):
            scheme.amps[0, 0] = 1.0
        with pytest.raises(ValueError):
            scheme.images[1].amps[0] = 1.0

    def test_state_vector_images_are_stacked_once(self):
        base = example1_scheme()
        scheme = MaskingScheme(4, 2, 4, base.images)
        assert scheme.amps.tobytes() == base.amps.tobytes()
        assert not np.shares_memory(scheme.amps, base.amps)
        assert all(np.shares_memory(im.amps, scheme.amps) for im in scheme.images)

    def test_state_vector_images_are_validated(self):
        images = example1_scheme().images
        with pytest.raises(ValueError, match="expected 4 images"):
            MaskingScheme(4, 2, 4, images[:3])
        with pytest.raises(ValueError, match="image dims"):
            MaskingScheme(4, 2, 4, images[:3] + (StateVector((4, 4), np.eye(16)[0]),))
        with pytest.raises(BoundViolationError):
            MaskingScheme(5, 2, 4, images + images[:1])

    def test_block_shape_is_validated(self):
        with pytest.raises(ValueError, match="block shape"):
            MaskingScheme(4, 2, 4, np.zeros((3, 16), dtype=complex))

    @pytest.mark.parametrize("w,d,m", [(8, 2, 6), (27, 3, 6)])
    def test_gram_deviation_matches_stacked_formula(self, w, d, m):
        scheme = build_scheme(w, d, m)
        mat = np.array([im.amps for im in scheme.images])
        want = float(np.max(np.abs(mat.conj() @ mat.T - np.eye(w))))
        assert np.float64(scheme.gram_deviation()).tobytes() == np.float64(want).tobytes()


class TestSizeBudget:
    def test_oversize_scheme_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="size budget"):
                build_scheme(4, 2, 26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversize_basis_rejected(self):
        with pytest.raises(ValueError, match="size budget"):
            ghz_basis(2, 16)

    def test_largest_size_in_use_is_admitted(self):
        scheme = build_scheme(4, 2, 20)
        assert scheme.amps.shape == (4, 2**20)


class TestDigitEncodeIndexing:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bit_identical_to_per_level_loop(self, d):
        rng = np.random.default_rng(d)
        for w in range(2, d * d + 1):
            amps = rng.standard_normal(w) + 1j * rng.standard_normal(w)
            want = np.zeros(d * d, dtype=complex)
            for k, a in enumerate(amps):
                want[(k % d) * d + k // d] = a
            got = digit_encode(StateVector((w,), amps), d)
            assert got.dims == (d, d)
            assert got.amps.tobytes() == want.tobytes()



def axpy_mask(scheme, state):
    """The reference column map: one axpy per image, in image order."""
    out = np.zeros(scheme.d ** scheme.m, dtype=complex)
    for a, image in zip(state.amps, scheme.amps):
        out += a * image
    return out


def tilted_scheme(w, d, m):
    """Image 0 leans by 1e-6 toward |0...0>, renormalised."""
    scheme = build_scheme(w, d, m)
    amps = scheme.images[0].amps.copy()
    amps[0] += 1e-6
    images = (StateVector(scheme.images[0].dims, amps / np.linalg.norm(amps)),) + scheme.images[1:]
    return MaskingScheme(w, d, m, images, "tilted")


def product_scheme(w, d, m, rng):
    """An isometry made of w distinct computational basis states."""
    dims = (d,) * m
    images = tuple(
        basis_state(dims, [int(x) for x in np.unravel_index(idx, dims)])
        for idx in sorted(rng.choice(d**m, size=w, replace=False))
    )
    return MaskingScheme(w, d, m, images, "product")


class TestSupportMask:
    def assert_matches_axpy(self, scheme, inputs):
        for state in inputs:
            assert mask(scheme, state).amps.tobytes() == axpy_mask(scheme, state).tobytes()

    @pytest.mark.parametrize("w,d,m", [(9, 3, 4), (16, 2, 8), (64, 2, 12), (81, 3, 8), (125, 5, 6), (4, 2, 16)])
    def test_bit_identical_to_axpy_loop(self, w, d, m):
        scheme = build_scheme(w, d, m)
        rng = np.random.default_rng(w * d * m)
        basis = [basis_state((w,), (k,)) for k in range(w)]
        self.assert_matches_axpy(scheme, basis + [haar_random_state(w, rng) for _ in range(4)])

    def test_bit_identical_on_custom_schemes(self):
        rng = np.random.default_rng(7)
        for scheme in (tilted_scheme(81, 3, 8), tilted_scheme(9, 3, 4), product_scheme(9, 3, 4, rng)):
            w = scheme.w
            basis = [basis_state((w,), (k,)) for k in range(w)]
            self.assert_matches_axpy(scheme, basis + [haar_random_state(w, rng) for _ in range(4)])

    def test_bit_identical_on_signed_zeros_and_cancellations(self):
        scheme = example1_scheme()
        inputs = [
            StateVector((4,), np.array([1, -1, 0, -0.0]) * R2),
            StateVector((4,), np.array([1, 1, -0.0, 0]) * R2),
            StateVector((4,), np.array([1j, -1j, complex(-0.0, 0.0), complex(0.0, -0.0)]) * R2),
            StateVector((4,), np.array([-0.0, -0.0, -0.0, -1.0])),
        ]
        self.assert_matches_axpy(scheme, inputs)
        # An exact cancellation gives +0, as the loop does, never -0.
        out = mask(scheme, inputs[0]).amps
        assert not np.signbit(out.real[out.real == 0]).any()
        assert not np.signbit(out.imag[out.imag == 0]).any()

    def test_support_is_computed_once_per_scheme(self):
        built = build_scheme(16, 2, 8)
        scheme = MaskingScheme(16, 2, 8, built.amps)
        assert "support" not in vars(scheme._block)
        mask(scheme, basis_state((16,), (0,)))
        first = scheme._block.support
        mask(scheme, basis_state((16,), (1,)))
        assert scheme._block.support is first
        assert len(first[0]) == 16 * 2**2  # d^2 nonzeros per image
        assert "support" not in repr(scheme)
        assert set(scheme_to_json_dict(scheme)) == {"w", "d", "m", "provenance", "images"}
        # A built scheme's support is the one its builder placed, kept as it is.
        placed = built._block.support
        mask(built, basis_state((16,), (0,)))
        assert built._block.support is placed

    def test_nan_image_entry_is_in_the_support(self):
        base = example1_scheme()
        amps = base.amps.copy()
        (zero,) = np.flatnonzero(amps[1] == 0)[:1]
        amps[1, zero] = np.nan
        scheme = MaskingScheme(4, 2, 4, amps)
        rows, cols, _ = scheme._block.support
        assert (1, zero) in set(zip(rows.tolist(), cols.tolist()))
        out = mask(scheme, basis_state((4,), (1,))).amps
        assert np.isnan(out[zero])

    def test_nan_input_reaches_only_its_images_support_and_masks_no_party(self):
        scheme = build_scheme(9, 3, 4)
        amps = haar_random_state(9, np.random.default_rng(3)).amps.copy()
        amps[4] = np.nan
        out = mask(scheme, StateVector((9,), amps)).amps
        assert np.array_equal(np.isnan(out), scheme.amps[4] != 0)
        assert leakage_profile(StateVector((3,) * 4, out)).masked_parties() == ()


class TestOwnedImageBlock:
    def test_scheme_does_not_alias_a_view(self):
        b = example1_scheme().amps.copy()
        scheme = MaskingScheme(4, 2, 4, b[:])
        e0 = basis_state((4,), (0,))
        amps, masked = scheme.amps.tobytes(), mask(scheme, e0).amps.tobytes()
        b[0, 0] = 5
        assert scheme.amps.tobytes() == amps
        assert scheme.images[0].amps.tobytes() == amps[: 16 * 16]
        assert mask(scheme, e0).amps.tobytes() == masked

    def test_blocks_own_their_data(self):
        assert build_scheme(8, 2, 6).amps.flags.owndata
        assert build_scheme(9, 3, 4).amps.flags.owndata
        assert MaskingScheme(4, 2, 4, example1_scheme().images).amps.flags.owndata
        assert MaskingScheme(4, 2, 4, example1_scheme().amps[:]).amps.flags.owndata

    @pytest.mark.parametrize("w,d,m", [(4, 2, 4), (9, 3, 4), (4, 2, 5), (27, 3, 7)])
    def test_build_matches_kron_for_m4_and_odd_m(self, w, d, m):
        images = build_scheme(w, d, m).images
        left = ghz_basis(d, m // 2).states
        right = ghz_basis(d, (m + 1) // 2).states
        if m == 4:
            left = right = two_qudit_meb(d).states
        for k, image in enumerate(images):
            assert image.amps.tobytes() == np.kron(left[k].amps, right[k].amps).tobytes()


class TestCallerBlockIsCopied:
    def test_view_made_before_construction_cannot_stale_the_support(self):
        b = example1_scheme().amps.copy()
        v = b[:]
        scheme = MaskingScheme(4, 2, 4, b)
        e0 = basis_state((4,), (0,))
        amps, before = scheme.amps.tobytes(), mask(scheme, e0).amps.tobytes()
        v[0, 0] = 5
        assert scheme.amps.tobytes() == amps
        assert mask(scheme, e0).amps.tobytes() == before
        assert mask(scheme, e0).amps.tobytes() == scheme.amps[0].tobytes()

    def test_caller_keeps_a_writeable_block(self):
        b = example1_scheme().amps.copy()
        scheme = MaskingScheme(4, 2, 4, b)
        assert b.flags.writeable and not np.shares_memory(b, scheme.amps)
        assert scheme.amps.flags.owndata and not scheme.amps.flags.writeable

    def test_built_blocks_are_not_copied_again(self):
        # Peak traced memory of build_scheme stays near its one image block
        # (plus the two half-register factors), with no second copy of it.
        tracemalloc.start()
        try:
            scheme = build_scheme(4, 2, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * scheme.amps.nbytes


class TestMaskingInvariantIsSingleton:
    def test_six_qubit_code_holds_sixteen_levels(self):
        # [[6,4,2]]: w = 16 = 2^(6-2), twice the construction's capacity.
        scheme = MaskingScheme(16, 2, 6, even_parity_code_images(6), "code")
        assert scheme.w > masking_capacity(2, 6)

    @pytest.mark.parametrize("w,d,m", [(17, 2, 6), (5, 2, 4), (10, 3, 4), (28, 3, 5)])
    def test_above_singleton_bound_rejected(self, w, d, m):
        with pytest.raises(BoundViolationError, match=r"Singleton bound d\^\(m-2\)"):
            MaskingScheme(w, d, m, np.eye(d**m, dtype=complex)[:w])

    def test_construction_keeps_its_capacity(self):
        with pytest.raises(BoundViolationError, match=r"d\^floor\(m/2\) = 8"):
            build_scheme(16, 2, 6)


class TestBuildSchemeSignature:
    def test_takes_no_provenance(self):
        import inspect

        assert list(inspect.signature(build_scheme).parameters) == ["w", "d", "m"]
        with pytest.raises(TypeError):
            build_scheme(4, 2, 4, provenance="custom")

    @pytest.mark.parametrize("w,d,m,want", [
        (4, 2, 4, "example1"), (8, 2, 6, "example2"), (9, 3, 4, "theorem1"),
        (4, 3, 4, "theorem2"), (4, 2, 6, "theorem2"),
    ])
    def test_provenance_follows_from_parameters(self, w, d, m, want):
        assert build_scheme(w, d, m).provenance == want

    @pytest.mark.parametrize("w,d,m", [(4.0, 2, 4), (np.float64(4), 2, 4), (4, 2.0, 4), (4, 2, 4.0)])
    def test_non_integer_arguments_raise_type_error(self, w, d, m):
        with pytest.raises(TypeError):
            build_scheme(w, d, m)

    def test_numpy_integers_are_accepted(self):
        scheme = build_scheme(np.int64(4), np.int64(2), np.int64(6))
        assert (scheme.w, scheme.d, scheme.m) == (4, 2, 6) and type(scheme.w) is int
        assert scheme.amps.tobytes() == build_scheme(4, 2, 6).amps.tobytes()


class TestSchemeIntegerFields:
    """A caller's MaskingScheme holds w, d and m as Python ints."""

    @pytest.mark.parametrize("w,d,m", [(4.0, 2, 4), (np.float64(4), 2, 4), (4, 2.0, 4), (4, 2, 4.0)])
    def test_non_integer_fields_raise_type_error(self, w, d, m):
        with pytest.raises(TypeError):
            MaskingScheme(w, d, m, build_scheme(4, 2, 4).amps)

    def test_numpy_integers_are_held_as_ints_and_serialize(self):
        amps = build_scheme(4, 2, 4).amps
        scheme = MaskingScheme(np.int64(4), np.int64(2), np.int64(4), amps)
        assert [type(v) for v in (scheme.w, scheme.d, scheme.m)] == [int] * 3
        doc = scheme_to_json_dict(scheme)
        assert json.dumps(doc) == json.dumps(scheme_to_json_dict(MaskingScheme(4, 2, 4, amps)))
        assert verify_scheme(scheme, 2).passed
