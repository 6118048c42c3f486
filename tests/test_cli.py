import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from quditmask import (
    StateVector,
    basis_state,
    build_scheme,
    circuit_mask,
    example1_scheme,
    haar_random_state,
    mask,
    partial_trace,
)
from quditmask import cli
from quditmask.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_MASKING_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_json_scheme(self, capsys):
        code, out, _ = run(capsys, "build", "--w", "4", "--d", "2", "--m", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["provenance"] == "example1"
        assert len(doc["images"]) == 4
        amps = np.array([complex(re, im) for re, im in doc["images"][0]])
        expected = mask(example1_scheme(), basis_state((4,), (0,))).amps
        assert np.max(np.abs(amps - expected)) <= 1e-15

    def test_bound_violation_exit_code(self, capsys):
        code, out, err = run(capsys, "build", "--w", "9", "--d", "2", "--m", "4")
        assert code == EXIT_BOUND_VIOLATION
        assert out == ""
        assert err.count("\n") == 1 and "bound violation" in err

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "build", "--w", "8", "--d", "2", "--m", "6", "--format", "text")
        assert code == EXIT_OK
        assert "w=8 d=2 m=6" in out


class TestMask:
    def test_inline_amplitudes(self, capsys):
        code, out, _ = run(
            capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--amps", "0.5,0.5,0.5,0.5"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        for rho in doc["marginals"]:
            mat = np.array([[complex(*cell) for cell in row] for row in rho])
            assert np.max(np.abs(mat - np.eye(2) / 2)) <= 1e-10

    def test_amplitude_file(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("0.5 0\n0.5 0\n0.5 0\n0.5 0\n")
        code, out, _ = run(
            capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--input", str(path)
        )
        assert code == EXIT_OK
        assert len(json.loads(out)["amplitudes"]) == 16

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nnot a number pair\n")
        code, out, err = run(
            capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--input", str(path)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "usage error" in err

    def test_unnormalized_rejected_then_renormalized(self, capsys, tmp_path):
        path = tmp_path / "unnorm.txt"
        path.write_text("1 0\n1 0\n1 0\n1 0\n")
        code, out, err = run(
            capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--input", str(path)
        )
        assert code == EXIT_USAGE and out == ""
        code, out, err = run(
            capsys,
            "mask", "--w", "4", "--d", "2", "--m", "4", "--input", str(path), "--renormalize",
        )
        assert code == EXIT_OK
        assert "renormalizing" in err
        assert json.loads(out)

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mask", "--w", "4", "--d", "2", "--m", "4")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("extra", [(), ("--renormalize",)])
    def test_nan_amplitude_is_usage_error(self, capsys, extra):
        code, out, err = run(
            capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--amps", "nan,0.5,0.5,0.5", *extra
        )
        assert code == EXIT_USAGE and out == ""
        assert "finite" in err


CLI_INPUTS = {
    "mask": ("mask", "--w", "4", "--d", "2", "--m", "4"),
    "circuit": ("circuit", "--d", "2"),
}


@pytest.mark.filterwarnings("error")
class TestRenormalizeGuard:
    """--renormalize yields a finite unit-norm state or exits 64, with no numpy warning."""

    @pytest.mark.parametrize("command", CLI_INPUTS)
    @pytest.mark.parametrize(
        "amps,extra",
        [
            ("0,0,0,0", ("--renormalize",)),
            ("1e-200,0,0,0", ("--renormalize",)),
            ("1e308,1e308,0,0", ("--renormalize",)),
            ("1e308,1e308,0,0", ()),
        ],
        ids=["zero", "underflow", "overflow", "overflow-unrenormalized"],
    )
    def test_unrenormalizable_input_exits_64(self, capsys, command, amps, extra):
        code, out, err = run(capsys, *CLI_INPUTS[command], "--amps", amps, *extra)
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and "usage error" in err

    @pytest.mark.parametrize("command", CLI_INPUTS)
    def test_ordinary_input_is_divided_by_its_norm(self, capsys, command):
        amps = np.array([1, 2j, -3, 4], dtype=complex)
        code, out, err = run(capsys, *CLI_INPUTS[command], "--amps", "1,2j,-3,4", "--renormalize")
        assert code == EXIT_OK
        assert err.count("\n") == 1 and "renormalizing" in err
        state = StateVector((4,), amps / np.linalg.norm(amps))
        want = mask(build_scheme(4, 2, 4), state) if command == "mask" else circuit_mask(2, state)
        got = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
        assert got.tobytes() == want.amps.tobytes()


def test_build_below_two_levels_is_usage_error(capsys):
    code, out, err = run(capsys, "build", "--w", "1", "--d", "2", "--m", "4")
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and "need w >= 2 and d >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("build",),
        ("mask", "--amps", "0.5,0.5,0.5,0.5"),
        ("verify", "--samples", "2"),
    ],
)
def test_oversize_register_is_usage_error(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--w", "4", "--d", "2", "--m", "26")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1 and "size budget" in err
    assert peak < 2**20


class TestCircuit:
    def test_emits_text_format(self, capsys):
        code, out, _ = run(capsys, "circuit", "--d", "3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "CPOW d=3 c=0 t=2"
        assert len(out.splitlines()) == 6

    def test_apply_round_trip(self, capsys, tmp_path):
        code, text, _ = run(capsys, "circuit", "--d", "2")
        circ_path = tmp_path / "circ.txt"
        circ_path.write_text(text)
        code, out, _ = run(
            capsys,
            "circuit", "--d", "2", "--apply", str(circ_path), "--amps", "1,0,0,0",
        )
        assert code == EXIT_OK
        amps = np.array([complex(re, im) for re, im in json.loads(out)["amplitudes"]])
        expected = mask(example1_scheme(), basis_state((4,), (0,))).amps
        assert np.max(np.abs(amps - expected)) <= 1e-12

    def test_missing_circuit_file_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "circuit", "--d", "2", "--apply", "/nonexistent.txt", "--amps", "1,0,0,0"
        )
        assert code == EXIT_USAGE

    def test_inf_amplitude_is_usage_error(self, capsys):
        code, out, err = run(capsys, "circuit", "--d", "2", "--amps", "inf,0,0,0")
        assert code == EXIT_USAGE and out == ""
        assert "finite" in err


def pairs(a):
    """[re, im] pairs as a float array, the layout of the JSON documents."""
    return np.stack((a.real, a.imag), -1)


class TestJsonRoundTrip:
    """The JSON documents parse back to exactly the library's amplitudes."""

    def inline(self, state):
        return ",".join(repr(complex(a)) for a in state.amps)

    def test_build(self, capsys):
        code, out, _ = run(capsys, "build", "--w", "9", "--d", "3", "--m", "4")
        assert code == EXIT_OK
        want = np.array([im.amps for im in build_scheme(9, 3, 4).images])
        assert np.array(json.loads(out)["images"]).tobytes() == pairs(want).tobytes()

    def test_mask(self, capsys):
        state = haar_random_state(8, np.random.default_rng(7))
        code, out, _ = run(capsys, "mask", "--w", "8", "--d", "2", "--m", "6", "--amps", self.inline(state))
        assert code == EXIT_OK
        doc = json.loads(out)
        masked = mask(build_scheme(8, 2, 6), state)
        marginals = np.array([partial_trace(masked, [p]) for p in range(6)])
        assert np.array(doc["amplitudes"]).tobytes() == pairs(masked.amps).tobytes()
        assert np.array(doc["marginals"]).tobytes() == pairs(marginals).tobytes()

    def test_circuit(self, capsys):
        state = haar_random_state(9, np.random.default_rng(8))
        code, out, _ = run(capsys, "circuit", "--d", "3", "--amps", self.inline(state))
        assert code == EXIT_OK
        want = circuit_mask(3, StateVector((9,), state.amps)).amps
        assert np.array(json.loads(out)["amplitudes"]).tobytes() == pairs(want).tobytes()


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--w", "9", "--d", "3", "--m", "4", "--samples", "50", "--seed", "1",
        )
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_byte_identical_given_seed(self, capsys):
        argv = ["verify", "--w", "4", "--d", "2", "--m", "4", "--samples", "20", "--seed", "7"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_verify_bound_violation(self, capsys):
        code, _, err = run(capsys, "verify", "--w", "5", "--d", "2", "--m", "4")
        assert code == EXIT_BOUND_VIOLATION


class TestBounds:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--d", "2", "--m", "6")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {
            "d": 2,
            "m": 6,
            "construction_capacity": 8,
            "singleton_bound": 16,
            "min_parties_table": [],
        }

    def test_min_parties_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--d", "2", "--m", "4", "--w", "2", "3", "4")
        table = json.loads(out)["min_parties_table"]
        assert [row["min_parties"] for row in table] == [2, 4, 4]
        assert table[0]["below_constructed_m"] is True


class TestUsage:
    def test_bad_flag_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--nope"])
        assert exc.value.code == EXIT_USAGE

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QUDITMASK_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run(capsys, "bounds", "--d", "2", "--m", "6", "--output", "b.json")
        assert code == EXIT_OK
        assert out == ""
        assert json.loads((tmp_path / "b.json").read_text())["construction_capacity"] == 8


class TestMaskingFailureExit:
    def test_verify_reports_failure_with_exit_two(self, capsys, monkeypatch):
        # force a failing report through the real code path
        import quditmask.cli as cli_mod

        class FakeCheck:
            value, threshold, passed = 1.0, 1e-10, False

        class FakeReport:
            w = d = 2
            m = 4
            n_samples = 5
            seed = 0
            checks = {"marginals_maximally_mixed": FakeCheck()}
            passed = False

        monkeypatch.setattr(cli_mod.verify, "verify_scheme", lambda *a, **k: FakeReport())
        monkeypatch.setattr(
            cli_mod.verify, "masking_report_to_json_dict", lambda r: {"passed": False}
        )
        code, out, _ = run(capsys, "verify", "--w", "4", "--d", "2", "--m", "4")
        assert code == EXIT_MASKING_FAILURE
        assert json.loads(out) == {"passed": False}


class TestUnwritableOutput:
    COMMANDS = [
        ["build", "--w", "4", "--d", "2", "--m", "4"],
        ["mask", "--w", "4", "--d", "2", "--m", "4", "--amps", "0.5,0.5,0.5,0.5"],
        ["circuit", "--d", "2"],
        ["verify", "--w", "4", "--d", "2", "--m", "4", "--samples", "2"],
        ["bounds", "--d", "2", "--m", "6"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_missing_directory_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"quditmask: usage error: cannot write {target}")
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_directory_path_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1
        assert "cannot write" in err
        assert list(tmp_path.iterdir()) == []

    def test_relative_path_under_missing_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QUDITMASK_OUTPUT_DIR", str(tmp_path / "missing"))
        code, out, err = run(capsys, "bounds", "--d", "2", "--m", "6", "--output", "b.json")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"cannot write {tmp_path / 'missing' / 'b.json'}" in err


class TestTextFormatGoldens:
    def test_mask_text(self, capsys):
        code, out, _ = run(capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--amps", "0.5,0.5,0.5,0.5", "--format", "text")
        masked = mask(build_scheme(4, 2, 4), StateVector((4,), np.full(4, 0.5)))
        devs = [np.max(np.abs(partial_trace(masked, [p]) - np.eye(2) / 2)) for p in range(4)]
        assert code == EXIT_OK
        assert out == "masked state on 4 parties of dimension 2\n" + "".join(
            f"party {p}: max deviation from I/d = {dev:.3e}\n" for p, dev in enumerate(devs)
        )

    def test_verify_text(self, capsys):
        from quditmask import verify_scheme

        code, out, _ = run(capsys, "verify", "--w", "4", "--d", "2", "--m", "4", "--samples", "3", "--seed", "1", "--format", "text")
        checks = verify_scheme(build_scheme(4, 2, 4), n_samples=3, seed=1).checks
        assert code == EXIT_OK
        assert out == (
            "verify w=4 d=2 m=4 samples=3 seed=1\n"
            f"marginals_maximally_mixed: {checks['marginals_maximally_mixed'].value:.3e} <= 1e-10 [pass]\n"
            f"marginals_input_independent: {checks['marginals_input_independent'].value:.3e} <= 1e-10 [pass]\n"
            f"isometry_gram: {checks['isometry_gram'].value:.3e} <= 1e-11 [pass]\n"
            "verdict: pass\n"
        )

    def test_bounds_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--d", "2", "--m", "4", "--w", "4", "17", "--format", "text")
        assert code == EXIT_OK
        assert out == (
            "d=2 m=4\n"
            "construction capacity d^floor(m/2) = 4\n"
            "singleton bound d^(m-2) = 4\n"
            "w=4: min parties 4\n"
            "w=17: min parties 10\n"
        )

    def test_bounds_text_flags_small_registers(self, capsys):
        code, out, _ = run(capsys, "bounds", "--d", "3", "--m", "4", "--w", "2", "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "w=2: min parties 2  (constructions require m >= 4)"


class TestInlineAmplitudeErrors:
    @pytest.mark.parametrize("amps,message", [
        ("0.5,x,0.5,0.5", "cannot parse inline amplitudes"),
        ("0.5,0.5,0.5", "expected 4 amplitudes, got 3"),
        ("0.5,0.5,0.5,0.5,0", "expected 4 amplitudes, got 5"),
    ])
    def test_usage_error(self, capsys, amps, message):
        code, out, err = run(capsys, "mask", "--w", "4", "--d", "2", "--m", "4", "--amps", amps)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and message in err


class TestAmplitudeSource:
    @pytest.mark.parametrize("command", CLI_INPUTS)
    def test_amps_and_input_are_exclusive(self, capsys, tmp_path, command):
        path = tmp_path / "input.txt"
        path.write_text("1 0\n0 0\n0 0\n0 0\n")
        with pytest.raises(SystemExit) as exc:
            main([*CLI_INPUTS[command], "--amps", "1,0,0,0", "--input", str(path)])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "not allowed with argument" in err

    @pytest.mark.parametrize("command", CLI_INPUTS)
    def test_indented_comment_lines_are_skipped(self, capsys, tmp_path, command):
        path = tmp_path / "input.txt"
        path.write_text("  # note\n0.5 0\n\t# tab\n0.5 0\n 0.5 0\n0.5 0  \n")
        code, out, err = run(capsys, *CLI_INPUTS[command], "--input", str(path))
        assert code == EXIT_OK and err == ""
        assert out == run(capsys, *CLI_INPUTS[command], "--amps", "0.5,0.5,0.5,0.5")[1]


def _complex_amps(w):
    return ",".join(f"{k + 1}-{k % 3}j" for k in range(w))


class TestMaskFreesImageBlock:
    """`mask` keeps no reference to the scheme, so the (w, d^m) image block
    is freed before the m marginal reductions run."""

    def test_peak_below_one_and_a_half_blocks(self, tmp_path):
        argv = ["mask", "--w", "4", "--d", "2", "--m", "16", "--amps", "0.5,0.5,0.5,0.5",
                "--format", "text", "--output", str(tmp_path / "out.txt")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # The block alone is 16 B * w * d^m; holding it beside the masked
        # state and the marginal kernel's two working copies reads 1.76.
        assert peak < 1.5 * 16 * 4 * 2**16

    # sha256 of the output file, recorded before the scheme was freed early.
    @pytest.mark.parametrize(
        "wdm,extra,fmt,digest",
        [
            ((4, 2, 4), ("--amps", "0.5,0.5,0.5,0.5"), "json",
             "10b4886856653e8d369c6326d5bbf92dc07ee3e86ead4da9e91441419344097e"),
            ((4, 2, 4), ("--amps", "0.5,0.5,0.5,0.5"), "text",
             "34836914d01ba54a98e97cc04f760bc4699c8ae4712a46acf7733d3f59509701"),
            ((9, 3, 4), ("--amps", _complex_amps(9), "--renormalize"), "json",
             "056e51cdf4b6d15b69cd902a6d67b0493d42cf6252974e0bb4883da99beeaaff"),
            ((9, 3, 4), ("--amps", _complex_amps(9), "--renormalize"), "text",
             "e5935c2a17d445d901b1d78725293792ad76b274b3f6965166074bd85f64f828"),
            ((16, 2, 8), ("--amps", _complex_amps(16), "--renormalize"), "json",
             "e67159646856e9f36646ab30081ae88f2590490163419200cfe71de6f3755926"),
            ((16, 2, 8), ("--amps", _complex_amps(16), "--renormalize"), "text",
             "76dffb7e8028b564c30890059250cee259a7a460216d9c0f500a891406dcf123"),
            ((4, 2, 16), ("--amps", "0.5,0.5,0.5,0.5"), "json",
             "40f0603dde48088656d305b75374cec93376f9fc601af166c06f1e1e6ea9df65"),
            ((4, 2, 16), ("--amps", "0.5,0.5,0.5,0.5"), "text",
             "479ab4a83d57ef1883c21d41fa822b658d810c84d80d5894467995ef3fbeb3ef"),
        ],
    )
    def test_output_bytes_unchanged(self, capsys, tmp_path, wdm, extra, fmt, digest):
        w, d, m = wdm
        out = tmp_path / "out"
        code, _, _ = run(capsys, "mask", "--w", str(w), "--d", str(d), "--m", str(m), *extra,
                         "--format", fmt, "--output", str(out))
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_bound_violation_still_reported_before_bad_input(self, capsys):
        code, out, err = run(capsys, "mask", "--w", "32", "--d", "2", "--m", "4", "--amps", "bad")
        assert code == EXIT_BOUND_VIOLATION and out == ""
        assert err.count("\n") == 1 and "bound violation" in err


def test_verify_samples_over_budget_exits_64(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--w", "4", "--d", "2", "--m", "4", "--samples", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and "over the size budget" in err
    assert peak < 2**20


class TestOneParserPerProcess:
    """main() parses with one parser per process; no parsed value or mutable
    default carries over from one command to the next."""

    SEQUENCE = (
        ("verify", "--w", "4", "--d", "2", "--m", "4", "--samples", "3", "--seed", "1"),
        ("bounds", "--d", "2", "--m", "6", "--w", "2", "4"),
        ("bounds", "--d", "2", "--m", "6"),
        ("mask", "--w", "4", "--d", "2", "--m", "6", "--amps", "0.5,0.5,0.5,0.5"),
        ("build", "--w", "4", "--d", "2", "--m", "4", "--format", "text"),
        ("verify", "--w", "32", "--d", "2", "--m", "4"),
    )

    def test_shared_parser_gives_what_fresh_parsers_give(self, capsys, monkeypatch):
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        # Twice over, so each command also runs after every other one.
        shared = [run(capsys, *argv) for argv in self.SEQUENCE + self.SEQUENCE]
        assert len(builds) == 1
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [EXIT_OK] * 5 + [EXIT_BOUND_VIOLATION]
