"""The package's public surface is exactly the names its workloads use.

Each check is an allowlist, so a removed name that comes back, or a new
public name, fails here until this file lists it.
"""

import dataclasses
import inspect
import types

import quditmask
from quditmask import BoundsReport, StateVector
from quditmask import tensorcore

PUBLIC = [
    "BoundViolationError",
    "BoundsReport",
    "Circuit",
    "Gate",
    "LeakageProfile",
    "MaskingReport",
    "MaskingScheme",
    "MebCertification",
    "MebFamily",
    "ShapeError",
    "StateVector",
    "append_ancilla",
    "apply",
    "apply_gate",
    "basis_state",
    "bounds_report",
    "build_scheme",
    "certify_meb",
    "circuit_from_text",
    "circuit_mask",
    "circuit_to_text",
    "controlled_power_gate",
    "digit_encode",
    "example1_scheme",
    "example2_scheme",
    "fourier_gate",
    "ghz_basis",
    "haar_random_state",
    "leakage_profile",
    "mask",
    "masking_capacity",
    "meb_to_json_dict",
    "min_parties",
    "partial_trace",
    "qubit4_circuit",
    "qudit4_circuit",
    "scheme_to_json_dict",
    "shift_gate",
    "two_qudit_meb",
    "verify_scheme",
]

# Public functions and classes that tensorcore defines; the rest of the
# package and the benchmark import these from it.
TENSORCORE = [
    "Block",
    "ShapeError",
    "StateVector",
    "basis_state",
    "check_size_budget",
    "complex_pairs",
    "gram_deviation",
    "max_distance_to_maximally_mixed",
    "partial_trace",
    "party_marginals",
    "support",
]


def public_members(cls):
    return sorted(n for n in dir(cls) if not n.startswith("_"))


def test_all_is_the_public_list_and_resolves():
    assert len(quditmask.__all__) == len(set(quditmask.__all__)) == 40
    assert sorted(quditmask.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(quditmask, name) is not None


def test_package_exports_nothing_outside_all():
    exported = {
        name
        for name, value in vars(quditmask).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == PUBLIC


def test_tensorcore_defines_only_the_listed_public_names():
    defined = {
        name
        for name, value in vars(tensorcore).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == tensorcore.__name__
    }
    assert sorted(defined) == TENSORCORE


def test_state_and_density_members():
    assert [f.name for f in dataclasses.fields(StateVector)] == ["dims", "amps"]
    assert public_members(StateVector) == ["dim", "norm", "tensor"]
    # A marginal is a checked ndarray; there is no density-matrix type.
    assert not hasattr(quditmask, "DensityMatrix") and not hasattr(tensorcore, "DensityMatrix")


def test_bounds_report_fields():
    fields = [f.name for f in dataclasses.fields(BoundsReport)]
    assert fields == ["d", "m", "construction_capacity", "singleton_bound", "min_parties_table"]
    assert public_members(BoundsReport) == []
