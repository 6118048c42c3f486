"""The CLI's one JSON writer: the bytes of json.dumps(doc, indent=2) with
each complex array leaf written as complex_pairs would write it, streamed
in chunks, so that an export holds about its block and no nested lists."""

import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quditmask import tensorcore
from quditmask.cli import EXIT_OK, main
from quditmask.tensorcore import _json_chunks, complex_pairs


def _as_lists(doc):
    """The document json.dumps takes: every array leaf as complex_pairs."""
    if isinstance(doc, np.ndarray):
        return complex_pairs(doc)
    if isinstance(doc, dict):
        return {key: _as_lists(item) for key, item in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(item) for item in doc]
    return doc


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e300, -1e300, 0.1, 1 / 3]
floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)

complex_arrays = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4).flatmap(
    lambda shape: hnp.arrays(np.float64, shape + (2,), elements=floats)
).map(lambda pairs: np.ascontiguousarray(pairs).view(np.complex128)[..., 0])

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**63, 2**200)
    | floats
    | floats.map(np.float64)
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é ü", " ", "\U0001f600"])
)
documents = st.recursive(
    scalars | complex_arrays,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


class TestBytesOfJsonDumps:
    @settings(max_examples=300, deadline=None)
    @given(documents, st.integers(1, 5))
    def test_any_document(self, doc, chunk):
        # A chunk of a few amplitudes splits rows, so every seam is written.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tensorcore, "TEXT_CHUNK", chunk)
            got = "".join(_json_chunks(doc))
        assert got == json.dumps(_as_lists(doc), indent=2)

    @settings(max_examples=100, deadline=None)
    @given(complex_arrays)
    def test_array_leaves_at_the_default_chunk(self, a):
        doc = {"a": a, "nested": [a, {"b": a}]}
        assert "".join(_json_chunks(doc)) == json.dumps(_as_lists(doc), indent=2)

    def test_rows_longer_than_a_chunk(self):
        rng = np.random.default_rng(0)
        shape = (2, 3 * tensorcore.TEXT_CHUNK + 5)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a[0, ::7] = 0
        a[1, ::11] = -0.0
        assert "".join(_json_chunks(a)) == json.dumps(complex_pairs(a), indent=2)

    def test_views(self):
        a = (np.arange(24) * (1 - 2j)).reshape(2, 3, 4)
        for leaf in (a[:, ::2, 1:], a.transpose(2, 0, 1)):
            assert "".join(_json_chunks([leaf])) == json.dumps([complex_pairs(leaf)], indent=2)

    def test_containers_the_strategy_does_not_make(self):
        class Dict(dict):
            pass

        class List(list):
            pass

        a = (np.arange(6) * (1 + 0.5j)).reshape(2, 3)
        docs = [
            (a, [a[0], "x"]),
            Dict(a=a, b=List([a[1], a, 2])),
            List([Dict(c=a)]),
            np.zeros((2, 0), dtype=complex),
            np.zeros((0, 3), dtype=complex),
            {"e": [np.zeros((2, 0), dtype=complex), np.zeros((0, 3), dtype=complex)]},
        ]
        for doc in docs:
            # json hands each array to `default`, and writes a subclass as its base.
            assert "".join(_json_chunks(doc)) == json.dumps(doc, default=complex_pairs, indent=2)

    @pytest.mark.parametrize("doc", [np.int64(3), [np.bool_(True)], {"a": {1, 2}}, {1: 2}])
    def test_what_json_refuses_is_refused(self, doc):
        with pytest.raises(TypeError):
            "".join(_json_chunks(doc))


def _complex_amps(w):
    return ",".join(f"{k + 1}-{k % 3}j" for k in range(w))


# sha256 of the --output file, recorded before the CLI wrote through the chunked writer.
PINNED = [
    (("build", "--w", "4", "--d", "2", "--m", "4"),
     "be125a2dd476ef1b3a401c2d5cdacf6f53745e3bc1a0404c1875ffaa53551ebd"),
    (("build", "--w", "9", "--d", "3", "--m", "4"),
     "f760b999918a08e4b4e720f59f7880f2ab584a9bacb8d7eda1b84b9c484b2d4c"),
    (("build", "--w", "8", "--d", "2", "--m", "6"),
     "c9367325f3cf93c6dc72e03616159073e73382e5c028de9dd4a38b97aab8b841"),
    (("build", "--w", "16", "--d", "2", "--m", "8"),
     "45cdd5253b29108483df86f186db57f194198f262941a852b4e7b534fed63d5d"),
    (("build", "--w", "25", "--d", "5", "--m", "4"),
     "6ee3a9cc587d8469585f0b9c8f935355e20ea3f975dec06717090813a5ebd9b4"),
    (("circuit", "--d", "3", "--amps", _complex_amps(9), "--renormalize"),
     "01d37e3373e6b566ce88d66320ecb10d3748dd3917f0a0434d67e673716857e5"),
    (("circuit", "--d", "4", "--amps", _complex_amps(16), "--renormalize"),
     "0649628242abeecc0105856141248eca65d7b89664a0a15618dcc3a7102e5158"),
    (("circuit", "--d", "9", "--amps", _complex_amps(81), "--renormalize"),
     "554742544152f8954c7f51e326703f692fed3ce273c98ec9063198508508ea5e"),
    (("circuit", "--d", "3", "--amps", _complex_amps(9), "--renormalize", "--format", "text"),
     "055fd5bbaf492d6cdec0a84b0f1286691aee220d853d0bcffec19c89dd6f32c5"),
    (("circuit", "--d", "5", "--amps", _complex_amps(25), "--renormalize", "--format", "text"),
     "9d288b9edb1f7a4d6f604477fd408f275e49a892a357bb2e4b3b89fd0e1250e3"),
    (("circuit", "--d", "9", "--amps", _complex_amps(81), "--renormalize", "--format", "text"),
     "7f369ad1b4df99c502008b3589e018916243e31367348726635a3450b3a1e37c"),
    (("verify", "--w", "4", "--d", "2", "--m", "4", "--samples", "3", "--seed", "1"),
     "5e6786bd573ed6e255fbded781a5e417eedd505b1092755ac517be3bba110b81"),
    (("verify", "--w", "9", "--d", "3", "--m", "4", "--samples", "5", "--seed", "2"),
     "8c5eb23aa6a09c64e492589fb16196e09e74805a1af1ee30a4633929ab09aded"),
    (("bounds", "--d", "2", "--m", "6", "--w", "2", "4", "8"),
     "1f3cff296395574c0819a907adff33d59ff048a2280bb3655d742993ecb3579a"),
    (("bounds", "--d", "3", "--m", "60"),
     "ccad027df5e799e59150821e734acd96744304fa677b9d4f93404ecbe9b7f0ee"),
    # Recorded later than the others, before multi-axis arrays were written
    # row by row through the container branch: (4, 3, 3) qutrit marginals.
    # test_cli's TestMaskFreesImageBlock pins the same file; this entry keeps
    # every subcommand's writer pin in this one list.
    (("mask", "--w", "9", "--d", "3", "--m", "4", "--amps", _complex_amps(9), "--renormalize"),
     "056e51cdf4b6d15b69cd902a6d67b0493d42cf6252974e0bb4883da99beeaaff"),
]


@pytest.mark.parametrize("argv,digest", PINNED, ids=lambda v: "-".join(v[:5]) if isinstance(v, tuple) else None)
def test_output_bytes_unchanged(tmp_path, capsys, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _peak(argv, path, to_stdout, monkeypatch):
    """main(argv)'s tracemalloc peak, its output written to `path` through
    --output or through sys.stdout."""
    with open(path, "w") as fh:
        if to_stdout:
            monkeypatch.setattr(sys, "stdout", fh)
        else:
            argv = [*argv, "--output", str(path)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
    assert code == EXIT_OK
    return peak


class TestExportPeaks:
    """The export of build, mask and circuit holds about its block:
    before the writer streamed, these read 25.5 B, 6.4 B and 25.1
    registers, almost all of it nested lists and the indented text."""

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["output", "stdout"])
    @pytest.mark.parametrize("argv,block,bound,digest", [
        # B is the (w, d^m) image block; build makes it, and mask never does.
        (("build", "--w", "16", "--d", "2", "--m", "14"), 16 * 16 * 2**14, 3.0,
         "a109f3bd96b819068041067329ce757ce42d2cb7b21353cff3cec2d491983e90"),
        (("mask", "--w", "4", "--d", "2", "--m", "16", "--amps", "0.5,0.5,0.5,0.5"), 16 * 4 * 2**16, 3.0,
         "40f0603dde48088656d305b75374cec93376f9fc601af166c06f1e1e6ea9df65"),
        # One (16,)^4 register; applying the circuit alone peaks at 3.0 of them.
        (("circuit", "--d", "16", "--amps", _complex_amps(256), "--renormalize"), 16 * 16**4, 3.25,
         "57e2df3e22bba643dfd5a123ab1758bbab6a1f8b8b12044d3d49bf5b0b152f53"),
        # Its text lines stream in the same chunks (16.5 registers before).
        (("circuit", "--d", "16", "--amps", _complex_amps(256), "--renormalize", "--format", "text"),
         16 * 16**4, 3.25, "604ae3e593ba146504c2485d0b256eba3f9617c9677246c77c1b1da7d7e1fb94"),
    ], ids=["build", "mask", "circuit", "circuit-text"])
    def test_peak_and_bytes(self, tmp_path, capsys, monkeypatch, argv, block, bound, digest, to_stdout):
        path = tmp_path / "out"
        peak = _peak(list(argv), path, to_stdout, monkeypatch)
        assert peak <= bound * block
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
