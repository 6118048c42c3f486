"""A huge party count is refused at once: no d^m, d^floor(m/2) or d^(m-2)
is formed before the size budget or the printable-digit limit refuses it.
Each case runs in a subprocess with a timeout, so a regression fails
instead of hanging the suite."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quditmask import bounds_report, tensorcore
from quditmask.cli import EXIT_BOUND_VIOLATION, EXIT_OK, EXIT_USAGE, main
from quditmask.tensorcore import check_size_budget

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize(
    "argv,reason",
    [
        ("build --w 4 --d 3 --m 100000000", "4 states of 3^100000000 amplitudes are over the size budget"),
        ("bounds --d 3 --m 100000000", "d^(m-2) = 3^99999998 has more than 4300 digits"),
        ("build --w 4 --d 2 --m 1000000", "4 states of 2^1000000 amplitudes are over the size budget"),
        ("bounds --d 2 --m 14300", "d^(m-2) = 2^14298 has more than 4300 digits"),
        ("mask --w 4 --d 3 --m 100000000 --amps 1,0,0,0", "over the size budget"),
        ("verify --w 4 --d 3 --m 100000000", "over the size budget"),
    ],
)
def test_huge_m_exits_64_with_one_line(argv, reason):
    result = _python("-m", "quditmask.cli", *argv.split())
    assert result.returncode == EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("quditmask: usage error: ")
    assert reason in result.stderr


def test_capacity_violation_still_wins_over_the_budget():
    result = _python("-m", "quditmask.cli", "build", "--w", "1000000000", "--d", "2", "--m", "30")
    assert result.returncode == EXIT_BOUND_VIOLATION
    assert "d^floor(m/2) = 32768" in result.stderr


@pytest.mark.parametrize("call", ["build_scheme(4, 3, 10**8)", "ghz_basis(2, 10**8)", "ghz_basis(3, 10**8)"])
def test_library_refuses_huge_m(call):
    probe = (
        "import quditmask\n"
        "try:\n"
        f"    quditmask.{call}\n"
        "except ValueError as exc:\n"
        "    print('ValueError', exc)\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ValueError") and "over the size budget" in result.stdout


@pytest.mark.parametrize(
    "call,message",
    [
        ("MaskingScheme(4, 3, 200000, np.zeros((4, 9)))", "ValueError image block shape (4, 9) != (4, 3^200000)"),
        ("MebFamily(3, 200000, np.zeros((9, 9)), range(9))", "ValueError state block shape (9, 9) != (N, 3^200000)"),
        ("MebFamily(3, 200000, (), ())", "ValueError a register of 3^200000 amplitudes is too large"),
        ("StateVector((3,) * 200000, np.zeros(9))", "ShapeError amplitude length 9 != prod(dims) = 3^200000"),
        ("StateVector((2, 3) * 100000, np.zeros(9))", "ShapeError amplitude length 9 != prod(dims) = a 200000-party product\n"),
    ],
)
def test_many_parties_are_sized_without_forming_the_product(call, message):
    probe = (
        "import numpy as np\n"
        "from quditmask import MaskingScheme, MebFamily, StateVector\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(message)
    assert result.stdout.count("\n") == 1


class TestBudgetPowers:
    def test_power_is_capped_relative_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(tensorcore, "SIZE_BUDGET_BYTES", 2**40)
        check_size_budget(1, 2, 36)  # exactly 2^40 bytes
        with pytest.raises(ValueError, match=r"^1 states of 2\^37 amplitudes are over the size budget"):
            check_size_budget(1, 2, 37)


class TestBoundsDigits:
    def test_largest_printable_bound(self):
        assert bounds_report(10, 4301).singleton_bound == 10**4299
        with pytest.raises(ValueError, match=r"^d\^\(m-2\) = 10\^4300 has more than 4300 digits"):
            bounds_report(10, 4302)
        assert len(str(bounds_report(2, 14286).singleton_bound)) == 4300
        with pytest.raises(ValueError, match="too many to print"):
            bounds_report(2, 14287)

    def test_printable_output_unchanged(self):
        # sha256 of the JSON then text output for every (d, m), recorded
        # before the digit limit was added, then re-recorded once when the
        # always-true comparison flag was dropped and d^floor(m/2) was renamed
        # the construction capacity; nothing else in these outputs moved.
        digest = hashlib.sha256()
        for d in range(2, 11):
            for m in range(4, 61):
                for fmt in ("json", "text"):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = main(["bounds", "--d", str(d), "--m", str(m), "--w", "2", "3", "1000", "--format", fmt])
                    assert code == EXIT_OK
                    digest.update(buf.getvalue().encode())
        assert digest.hexdigest() == "4d12cd35b58a24ee0d67c75a9b684c1e91d621a6a08737548f55ce67d109e127"
