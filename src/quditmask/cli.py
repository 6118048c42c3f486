"""Command-line front end: scheme construction, masking, circuit emission,
verification, and bound arithmetic with JSON or text output.

Exit codes: 0 success/pass, 2 masking failure, 3 bound violation,
64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import gates, masker, verify
from .masker import BoundViolationError
from .tensorcore import (
    INPUT_NORM_TOL,
    TEXT_CHUNK,
    StateVector,
    _json_chunks,
    max_distance_to_maximally_mixed,
    party_marginals,
)

EXIT_OK = 0
EXIT_MASKING_FAILURE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_USAGE = 64

OUTPUT_DIR_ENV = "QUDITMASK_OUTPUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for masking failures.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(chunks: Iterable[str], output: str | None):
    """Write the chunks of a command's output one at a time. The file is
    opened first, so an unwritable one fails before any byte is written."""
    if output is None:
        sys.stdout.writelines(chunks)
        return
    if not os.path.isabs(output):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            output = os.path.join(base, output)
    try:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _json(doc: dict) -> Iterator[str]:
    """The text of json.dumps(doc, indent=2) and a newline, in chunks; the
    complex arrays in `doc` are written as [re, im] pairs. Each float is its
    repr, which round-trips doubles exactly."""
    yield from _json_chunks(doc)
    yield "\n"


def _text_amplitudes(amps: np.ndarray) -> Iterator[str]:
    """One '+re +im' line per amplitude, with 12 decimals, in chunks."""
    for start in range(0, len(amps), TEXT_CHUNK):
        part = amps[start:start + TEXT_CHUNK]
        yield ("%+.12f %+.12f\n" * len(part)) % tuple(part.view(np.float64).tolist())


def _read_amplitudes(args, w: int) -> StateVector:
    if args.amps is not None:
        try:
            values = [complex(tok) for tok in args.amps.replace(",", " ").split()]
        except ValueError as exc:
            raise UsageError(f"cannot parse inline amplitudes: {exc}") from exc
    elif args.input is not None:
        try:
            with open(args.input) as fh:
                lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
            values = []
            for ln in lines:
                parts = ln.split()
                if len(parts) != 2:
                    raise ValueError(f"expected 're im' on each line, got {ln!r}")
                values.append(complex(float(parts[0]), float(parts[1])))
        except (OSError, ValueError) as exc:
            raise UsageError(f"malformed amplitude file {args.input}: {exc}") from exc
    else:
        raise UsageError("provide --input FILE or --amps LIST")
    if len(values) != w:
        raise UsageError(f"expected {w} amplitudes, got {len(values)}")
    amps = np.array(values, dtype=complex)
    if not np.all(np.isfinite(amps)):
        raise UsageError("input amplitudes must be finite")
    # A norm that overflows to inf or underflows to 0 is refused below, not warned about.
    with np.errstate(all="ignore"):
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > INPUT_NORM_TOL:
            if not args.renormalize:
                raise UsageError(f"input state norm {norm:.6g} != 1 (pass --renormalize to fix it up)")
            amps = amps / norm
            if not (np.all(np.isfinite(amps)) and abs(np.linalg.norm(amps) - 1.0) <= INPUT_NORM_TOL):
                raise UsageError(f"input state norm {norm:.6g} cannot be renormalized to 1")
            print(f"warning: input norm {norm:.6g} != 1, renormalizing", file=sys.stderr)
    return StateVector((w,), amps)


def _cmd_build(args) -> tuple[Iterable[str], int]:
    scheme = masker.build_scheme(args.w, args.d, args.m)
    if args.format == "json":
        payload = _json(masker._scheme_document(scheme))
    else:
        lines = [f"masking scheme {scheme.provenance}: w={scheme.w} d={scheme.d} m={scheme.m}"]
        lines.append(f"gram deviation: {scheme.gram_deviation():.3e}")
        payload = ["\n".join(lines) + "\n"]
    return payload, EXIT_OK


def _cmd_mask(args) -> tuple[Iterable[str], int]:
    # A built scheme holds its images' support, not their block, so keeping it costs no block;
    # it is built first, so a bound violation (exit 3) is still reported before a malformed
    # input (exit 64). mask finds the state's support among the scheme's columns, with no scan.
    scheme = masker.build_scheme(args.w, args.d, args.m)
    masked = masker.mask(scheme, _read_amplitudes(args, args.w))
    marginals = party_marginals(masked._block, masked.dims)[:, 0]  # (m, d, d)
    if args.format == "json":
        payload = _json({"w": args.w, "d": args.d, "m": args.m, "amplitudes": masked.amps, "marginals": marginals})
    else:
        lines = [f"masked state on {args.m} parties of dimension {args.d}"]
        for p, dev in enumerate(max_distance_to_maximally_mixed(marginals, axis=(1, 2))):
            lines.append(f"party {p}: max deviation from I/d = {dev:.3e}")
        payload = ["\n".join(lines) + "\n"]
    return payload, EXIT_OK


def _cmd_circuit(args) -> tuple[Iterable[str], int]:
    circuit = masker.qudit4_circuit(args.d)
    if args.apply is not None:
        try:
            with open(args.apply) as fh:
                circuit = gates.circuit_from_text(fh.read(), (args.d,) * 4)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load circuit {args.apply}: {exc}") from exc
    if args.amps is not None or args.input is not None:
        state = _read_amplitudes(args, args.d * args.d)
        out = gates.apply(circuit, gates.append_ancilla(masker.digit_encode(state, args.d), args.d, 2))
        if args.format == "json":
            payload = _json({"d": args.d, "amplitudes": out.amps})
        else:
            payload = _text_amplitudes(out.amps)
    else:
        payload = [gates.circuit_to_text(circuit)]
    return payload, EXIT_OK


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    scheme = masker.build_scheme(args.w, args.d, args.m)
    report = verify.verify_scheme(scheme, n_samples=args.samples, seed=args.seed)
    if args.format == "json":
        payload = _json(verify.masking_report_to_json_dict(report))
    else:
        lines = [f"verify w={report.w} d={report.d} m={report.m} samples={report.n_samples} seed={report.seed}"]
        for name, check in report.checks.items():
            status = "pass" if check.passed else "FAIL"
            lines.append(f"{name}: {check.value:.3e} <= {check.threshold:.0e} [{status}]")
        lines.append("verdict: " + ("pass" if report.passed else "FAIL"))
        payload = ["\n".join(lines) + "\n"]
    return payload, EXIT_OK if report.passed else EXIT_MASKING_FAILURE


def _cmd_bounds(args) -> tuple[Iterable[str], int]:
    report = verify.bounds_report(args.d, args.m, args.w or ())
    if args.format == "json":
        payload = _json(verify.bounds_report_to_json_dict(report))
    else:
        lines = [
            f"d={report.d} m={report.m}",
            f"construction capacity d^floor(m/2) = {report.construction_capacity}",
            f"singleton bound d^(m-2) = {report.singleton_bound}",
        ]
        for w, p, flag in report.min_parties_table:
            note = "  (constructions require m >= 4)" if flag else ""
            lines.append(f"w={w}: min parties {p}{note}")
        payload = ["\n".join(lines) + "\n"]
    return payload, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quditmask", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_scheme=True):
        if with_scheme:
            p.add_argument("--w", type=int, required=True, help="input level count")
            p.add_argument("--m", type=int, required=True, help="party count")
        p.add_argument("--d", type=int, required=True, help="local dimension")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--output", default=None, help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")

    p = sub.add_parser("build", help="construct a masking scheme")
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("mask", help="mask an input state and report marginals")
    common(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", default=None, help="amplitude file, one 're im' pair per line")
    source.add_argument("--amps", default=None, help="inline amplitudes, e.g. '0.5,0.5,0.5,0.5'")
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("circuit", help="emit (or apply) the 4-party masking circuit")
    common(p, with_scheme=False)
    p.add_argument("--apply", default=None, help="circuit text file to apply instead of the built-in one")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", default=None, help="amplitude file for the d^2-level input")
    source.add_argument("--amps", default=None, help="inline input amplitudes")
    p.add_argument("--renormalize", action="store_true")
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("verify", help="certify a scheme against the masking condition")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="construction capacity d^floor(m/2) vs the quantum Singleton bound d^(m-2)")
    common(p, with_scheme=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w", type=int, nargs="*", default=[])
    p.set_defaults(func=_cmd_bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args leaves no state in it, and no
    command mutates a parsed default."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _emit(payload, args.output)
        return code
    except BoundViolationError as exc:
        print(f"quditmask: bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    except (UsageError, ValueError) as exc:
        print(f"quditmask: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
