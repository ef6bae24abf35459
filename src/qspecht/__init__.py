"""Exact combinatorics of graded Specht modules in quantum characteristic 2.

Each exported name is imported from its module on first access (PEP 562),
so ``import qspecht`` loads no submodule and a CLI command loads only the
modules it runs.
"""

import importlib

_EXPORTS = {
    "core": (
        "Multicharge",
        "Multipartition",
        "Node",
        "Partition",
        "as_multicharge",
        "as_partition",
        "degree_contribution",
        "degree_parity",
        "format_multipartition",
        "is_2_restricted",
        "multipartition_size",
        "multipartitions",
        "parse_multipartition",
        "parse_residues",
        "partitions",
    ),
    "laurent": ("LaurentPoly", "ONE", "Q", "ZERO", "q_power"),
    "tableaux": (
        "StandardTableau",
        "degree",
        "residue_sequence",
        "row_filled_tableau",
        "standard_tableaux_with_degrees",
    ),
    "specht": (
        "SweepReport",
        "qdim_hecke",
        "qdim_specht",
        "qdim_truncation",
        "verify_hecke_even",
        "verify_row_degree_parity",
        "verify_specht_parity",
    ),
    "crystal": ("add_good_node", "restricted_multipartitions"),
    "fock": (
        "FockVector",
        "GradedDecompositionMatrix",
        "InternalConsistencyError",
        "canonical_basis",
        "decomposition_matrix",
        "induct",
        "simple_qdims",
    ),
    "adjustment": (
        "AdjustmentEvidence",
        "adjusted_entry",
        "candidate_entries",
        "evidence_report",
        "published_evidence",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value
