"""Certification of masking schemes: marginal checks against the
maximally mixed state, input-independence across sampled inputs, leakage
profiles for intermediate circuit states, and bound arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masker import MaskingScheme, mask, masking_capacity, min_parties
from .tensorcore import (
    GRAM_TOL,
    MARGINAL_TOL,
    VARIATION_TOL,
    StateVector,
    basis_state,
    check_size_budget,
    complex_pairs,
    max_distance_to_maximally_mixed,
    partial_trace,
    party_marginals,
)

PRINT_DIGITS = 4300  # Python's default limit on the decimal digits of a printed int


@dataclass(frozen=True)
class CheckResult:
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


@dataclass(frozen=True)
class MaskingReport:
    """Outcome of verifying one scheme on basis inputs plus random samples."""

    w: int
    d: int
    m: int
    n_samples: int
    seed: int
    per_party_max_deviation: tuple[float, ...]
    cross_input_max_variation: tuple[float, ...]
    isometry_gram_deviation: float
    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


@dataclass(frozen=True, eq=False)
class PartyLeakage:
    """One party's marginal and its leakage; equality is identity."""

    party: int
    marginal: np.ndarray
    off_diagonal_leak: float
    diagonal_leak: float

    def masked(self) -> bool:
        return self.off_diagonal_leak <= MARGINAL_TOL and self.diagonal_leak <= MARGINAL_TOL


@dataclass(frozen=True)
class LeakageProfile:
    parties: tuple[PartyLeakage, ...]

    def masked_parties(self) -> tuple[int, ...]:
        return tuple(p.party for p in self.parties if p.masked())


@dataclass(frozen=True)
class BoundsReport:
    """The constructions' capacity d^floor(m/2) and the quantum Singleton
    bound d^(m-2), which bounds every masking scheme."""

    d: int
    m: int
    construction_capacity: int
    singleton_bound: int
    min_parties_table: tuple[tuple[int, int, bool], ...]


def haar_random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-distributed pure state: normalized complex standard-normal vector."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector((dim,), amps / np.linalg.norm(amps))


def verify_scheme(scheme: MaskingScheme, n_samples: int = 100, seed: int = 0) -> MaskingReport:
    """Check the masking condition on all w basis inputs plus n_samples
    seeded Haar-random inputs; deterministic given (scheme, n_samples, seed).
    Raises ValueError before drawing any input if the inputs or the marginal
    table would exceed the size budget."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    # Per input: w amplitudes, and m marginals of d*d entries in the table.
    check_size_budget(scheme.w + n_samples, max(scheme.w, scheme.m * scheme.d**2))
    rng = np.random.default_rng(seed)
    inputs = [basis_state((scheme.w,), (k,)) for k in range(scheme.w)]
    inputs += [haar_random_state(scheme.w, rng) for _ in range(n_samples)]

    # One validated one-party marginal per input and party, reduced once
    # after the loop; a max is exact, so this equals per-marginal maxima.
    table = np.empty((len(inputs), scheme.m, scheme.d, scheme.d), dtype=complex)
    for i, state in enumerate(inputs):
        masked = mask(scheme, state)
        for party in range(scheme.m):
            table[i, party] = partial_trace(masked, [party])
    deviation = max_distance_to_maximally_mixed(table, axis=(0, 2, 3))
    variation = np.abs(table - table[0]).max(axis=(0, 2, 3))
    # ndarray.max, unlike the builtin max, keeps NaN, so a NaN marginal fails its check.
    per_party_dev = tuple(deviation.tolist())
    per_party_var = tuple(variation.tolist())
    gram_dev = scheme.gram_deviation()
    checks = {
        "marginals_maximally_mixed": CheckResult(float(deviation.max()), MARGINAL_TOL),
        "marginals_input_independent": CheckResult(float(variation.max()), VARIATION_TOL),
        "isometry_gram": CheckResult(gram_dev, GRAM_TOL),
    }
    return MaskingReport(
        w=scheme.w,
        d=scheme.d,
        m=scheme.m,
        n_samples=n_samples,
        seed=seed,
        per_party_max_deviation=per_party_dev,
        cross_input_max_variation=per_party_var,
        isometry_gram_deviation=gram_dev,
        checks=checks,
    )


def leakage_profile(state: StateVector) -> LeakageProfile:
    """Per-party marginals split into off-diagonal (coherence) and diagonal
    (population) leakage relative to the maximally mixed state."""
    parties = []
    for party, (rho,) in enumerate(party_marginals(state._block, state.dims)):
        d = rho.shape[0]
        off = rho - np.diag(np.diag(rho))
        parties.append(
            PartyLeakage(
                party=party,
                marginal=rho,
                off_diagonal_leak=float(np.max(np.abs(off))),
                diagonal_leak=float(np.max(np.abs(np.diag(rho).real - 1.0 / d))),
            )
        )
    return LeakageProfile(tuple(parties))


def bounds_report(d: int, m: int, w_list: list[int] | tuple[int, ...] = ()) -> BoundsReport:
    """Exact integer arithmetic for build_scheme's capacity d^floor(m/2)
    versus the quantum Singleton bound d^(m-2), which bounds every masking
    scheme, and a min-parties table. Raises ValueError if d^(m-2) has more
    than PRINT_DIGITS decimal digits."""
    if d < 2 or m < 4:
        raise ValueError("need d >= 2 and m >= 4")
    # 2^(4*PRINT_DIGITS) is already too long, so capping m-2 there keeps the float finite.
    if min(m - 2, 4 * PRINT_DIGITS) * math.log10(d) >= PRINT_DIGITS:
        raise ValueError(f"d^(m-2) = {d}^{m - 2} has more than {PRINT_DIGITS} digits, too many to print")
    table = tuple((w, min_parties(w, d), min_parties(w, d) < 4) for w in w_list)
    return BoundsReport(
        d=d,
        m=m,
        construction_capacity=masking_capacity(d, m),
        singleton_bound=d ** (m - 2),
        min_parties_table=table,
    )


def masking_report_to_json_dict(report: MaskingReport) -> dict:
    return {
        "w": report.w,
        "d": report.d,
        "m": report.m,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "per_party_max_deviation": list(report.per_party_max_deviation),
        "cross_input_max_variation": list(report.cross_input_max_variation),
        "isometry_gram_deviation": report.isometry_gram_deviation,
        "checks": {
            name: {"value": c.value, "threshold": c.threshold, "passed": c.passed}
            for name, c in report.checks.items()
        },
        "passed": report.passed,
    }


def bounds_report_to_json_dict(report: BoundsReport) -> dict:
    return {
        "d": report.d,
        "m": report.m,
        "construction_capacity": report.construction_capacity,
        "singleton_bound": report.singleton_bound,
        "min_parties_table": [
            {"w": w, "min_parties": p, "below_constructed_m": flag}
            for w, p, flag in report.min_parties_table
        ],
    }


def leakage_profile_to_json_dict(profile: LeakageProfile) -> dict:
    return {
        "parties": [
            {
                "party": p.party,
                "marginal": complex_pairs(p.marginal),
                "off_diagonal_leak": p.off_diagonal_leak,
                "diagonal_leak": p.diagonal_leak,
                "masked": p.masked(),
            }
            for p in profile.parties
        ]
    }
