"""Maximum entangled bases: orthonormal multi-qudit bases whose every
single-party reduction is maximally mixed."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .tensorcore import (
    GRAM_TOL,
    MEB_MARGINAL_TOL,
    Block,
    StateVector,
    _StateBlock,
    check_size_budget,
    complex_pairs,
    gram_deviation,
    max_distance_to_maximally_mixed,
    party_marginals,
)


@dataclass(frozen=True, eq=False)
class MebFamily(_StateBlock):
    """An ordered family of n-qudit states intended as a maximum entangled basis,
    stored as MaskingScheme stores its images: `amps` is the read-only (N, d**n)
    block and `states` its row views, one label per state. A built family
    holds only its support until `amps` or `states` is read. Equality is
    identity; compare `amps`."""

    _ROWS = "states"

    d: int
    n_parties: int
    states: tuple[StateVector, ...] | np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        self._hold(None, "n_parties", "state")
        labels = tuple(map(operator.index, self.labels))
        if len(labels) != self._block.shape[0]:
            raise ValueError(f"{len(labels)} labels for {self._block.shape[0]} states")
        object.__setattr__(self, "labels", labels)


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


def ghz_amplitudes(d: int, n_parties: int, labels) -> Block:
    """The block of the ghz_basis(d, n_parties) elements with the given
    labels, one row per label, as its support, computed directly, and a
    maker that scatters it into np.zeros: the d entries of a row ascend, as
    its leading digit is j."""
    check_size_budget(len(labels), d, n_parties)
    labels = np.asarray(labels, dtype=np.int64)
    s, t = np.divmod(labels, d ** (n_parties - 1))
    j = np.arange(d)
    # idx[r, j]: flat index of term j of row r. Digit t_i is (t // d^place)
    # mod d; the higher digits of t vanish in the (j + ...) mod d below.
    idx = j
    for place in range(n_parties - 2, -1, -1):
        idx = idx * d + (j + t[:, None] // d**place) % d
    vals = np.exp(2j * np.pi / d) ** np.outer(s, j) / np.sqrt(d)
    rows = np.repeat(np.arange(labels.size), d)
    return Block.at((labels.size, d**n_parties), rows, idx.reshape(-1), vals.reshape(-1))


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
    check_size_budget(d * d, d, 2)  # before the d^2 labels are built
    return MebFamily(d, 2, ghz_amplitudes(d, 2, two_qudit_labels(d, d * d)), range(d * d))


def ghz_basis(d: int, n_parties: int) -> MebFamily:
    """GHZ-type basis of (C^d)^(x n): states labeled by (s, t_1..t_{n-1}),
    |g> = (1/sqrt d) sum_j w^{js} |j, (j+t_1) mod d, ..., (j+t_{n-1}) mod d>.

    Labels are lexicographic with s slowest: k = s*d^(n-1) + (t as a
    big-endian base-d number). Coincides with two_qudit_meb(d) as a set at
    n = 2.
    """
    if d < 2 or n_parties < 2:
        raise ValueError("need d >= 2 and n_parties >= 2")
    check_size_budget(1, d, n_parties)  # before the d^n labels are built
    labels = range(d**n_parties)
    return MebFamily(d, n_parties, ghz_amplitudes(d, n_parties, labels), labels)


def certify_meb(family: MebFamily) -> MebCertification:
    """Check orthonormality, single-party maximal mixedness, and completeness."""
    expected = family.d**family.n_parties
    count = family._block.shape[0]
    gram_dev = gram_deviation(family._block)
    # One reduction over the (n, N, d, d) table of every party's marginals;
    # it keeps NaN, so a NaN state fails the check.
    marg_dev = max_distance_to_maximally_mixed(party_marginals(family._block, (family.d,) * family.n_parties))
    return MebCertification(
        orthonormal=gram_dev <= GRAM_TOL,
        marginals_maximally_mixed=marg_dev <= MEB_MARGINAL_TOL,
        complete=count == expected,
        max_gram_deviation=gram_dev,
        max_marginal_deviation=marg_dev,
        count=count,
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
