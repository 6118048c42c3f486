"""Maximum entangled bases: orthonormal multi-qudit bases whose every
single-party reduction is maximally mixed."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensorcore import (
    GRAM_TOL,
    MEB_MARGINAL_TOL,
    FreshBlock,
    StateVector,
    check_size_budget,
    complex_pairs,
    gram_deviation,
    max_distance_to_maximally_mixed,
    reduced_densities,
    stack_states,
)


@dataclass(frozen=True, eq=False)
class MebFamily:
    """An ordered family of n-qudit states intended as a maximum entangled basis,
    stored as MaskingScheme stores its images: `amps` is the read-only (N, d**n)
    block and `states` its row views. Equality is identity; compare `amps`."""

    d: int
    n_parties: int
    states: tuple[StateVector, ...] | np.ndarray
    labels: tuple[int, ...]
    amps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        amps, states = stack_states(self.states, (self.d,) * self.n_parties, None, "state")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class MebCertification:
    orthonormal: bool
    marginals_maximally_mixed: bool
    complete: bool
    max_gram_deviation: float
    max_marginal_deviation: float
    count: int
    expected_count: int

    @property
    def passed(self) -> bool:
        return self.orthonormal and self.marginals_maximally_mixed and self.complete


def ghz_amplitudes(d: int, n_parties: int, labels) -> np.ndarray:
    """Amplitudes of the ghz_basis(d, n_parties) elements with the given
    labels, one row per label."""
    check_size_budget(len(labels), d**n_parties)
    labels = np.asarray(labels, dtype=np.int64)
    s, t = np.divmod(labels, d ** (n_parties - 1))
    j = np.arange(d)
    # idx[r, j]: flat index of term j of row r. Digit t_i is (t // d^place)
    # mod d; the higher digits of t vanish in the (j + ...) mod d below.
    idx = j
    for place in range(n_parties - 2, -1, -1):
        idx = idx * d + (j + t[:, None] // d**place) % d
    amps = np.zeros((labels.size, d**n_parties), dtype=complex)
    amps[np.arange(labels.size)[:, None], idx] = np.exp(2j * np.pi / d) ** np.outer(s, j) / np.sqrt(d)
    return amps


def two_qudit_labels(d: int, count: int) -> np.ndarray:
    """GHZ labels of the first `count` elements of the two_qudit_meb ordering."""
    k = np.arange(count)
    return (k % d) * d + k // d


def two_qudit_meb(d: int) -> MebFamily:
    """The d^2-element 2-qudit family
    |psi_k> = (1/sqrt d) sum_j w^{j(k mod d)} |j>|(j + floor(k/d)) mod d>,
    the four Bell states at d=2.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    check_size_budget(d * d, d * d)  # before the d^2 labels are built
    return MebFamily(d, 2, FreshBlock(ghz_amplitudes(d, 2, two_qudit_labels(d, d * d))), range(d * d))


def ghz_basis(d: int, n_parties: int) -> MebFamily:
    """GHZ-type basis of (C^d)^(x n): states labeled by (s, t_1..t_{n-1}),
    |g> = (1/sqrt d) sum_j w^{js} |j, (j+t_1) mod d, ..., (j+t_{n-1}) mod d>.

    Labels are lexicographic with s slowest: k = s*d^(n-1) + (t as a
    big-endian base-d number). Coincides with two_qudit_meb(d) as a set at
    n = 2.
    """
    if d < 2 or n_parties < 2:
        raise ValueError("need d >= 2 and n_parties >= 2")
    block = FreshBlock(ghz_amplitudes(d, n_parties, range(d**n_parties)))
    return MebFamily(d, n_parties, block, range(d**n_parties))


def certify_meb(family: MebFamily) -> MebCertification:
    """Check orthonormality, single-party maximal mixedness, and completeness."""
    dims = (family.d,) * family.n_parties
    expected = family.d**family.n_parties
    gram_dev = gram_deviation(family.amps)
    marg_devs = [max_distance_to_maximally_mixed(reduced_densities(family.amps, dims, [p])) for p in range(len(dims))]
    # np.max, unlike the builtin max, keeps NaN, so a NaN state fails the check.
    marg_dev = float(np.max(marg_devs, initial=0.0))
    return MebCertification(
        orthonormal=gram_dev <= GRAM_TOL,
        marginals_maximally_mixed=marg_dev <= MEB_MARGINAL_TOL,
        complete=len(family.states) == expected,
        max_gram_deviation=gram_dev,
        max_marginal_deviation=marg_dev,
        count=len(family.states),
        expected_count=expected,
    )


def meb_to_json_dict(family: MebFamily) -> dict:
    """JSON-ready document {d, n_parties, labels, states: [[re, im], ...]}."""
    return {
        "d": family.d,
        "n_parties": family.n_parties,
        "labels": list(family.labels),
        "states": complex_pairs(family.amps),
    }
