"""Exact combinatorics of graded Specht modules in quantum characteristic 2."""

from .core import (
    Multicharge,
    Multipartition,
    Node,
    Partition,
    addable_nodes,
    as_multicharge,
    as_partition,
    degree_contribution,
    degree_parity,
    format_multipartition,
    is_2_restricted,
    multipartition_size,
    multipartitions,
    parse_multipartition,
    parse_residues,
    partition_parity,
    partitions,
    removable_nodes,
    residue_of,
)
from .laurent import LaurentPoly, ONE, ParityElem, Q, ZERO, q_power
from .tableaux import (
    StandardTableau,
    degree,
    residue_sequence,
    row_filled_tableau,
    standard_tableaux,
    standard_tableaux_with_degrees,
    tableaux_with_residue_sequence,
)
from .specht import (
    SweepReport,
    qdim_hecke,
    qdim_specht,
    qdim_truncation,
    verify_hecke_even,
    verify_row_degree_parity,
    verify_specht_parity,
)
from .crystal import (
    add_good_node,
    restricted_multipartitions,
)
from .fock import (
    FockVector,
    GradedDecompositionMatrix,
    InternalConsistencyError,
    canonical_basis,
    decomposition_matrix,
    induct,
    simple_qdims,
)
from .adjustment import (
    AdjustmentEvidence,
    UndeterminedEntryError,
    adjusted_entry,
    candidate_entries,
    evidence_report,
    pin_via_truncation,
    published_evidence,
)

__version__ = "0.1.0"
