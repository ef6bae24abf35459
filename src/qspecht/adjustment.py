"""Parity-driven pinning of graded adjustment-matrix entries.

Graded adjustment entries are bar-symmetric, have nonnegative coefficients,
and are pure of the combined parity of their two indexing shapes.  Together
with a published ungraded value and the negative-degree support of a residue
truncation of the relevant Specht module, those constraints can pin an entry
exactly.  Characteristic-2 adjustment matrices themselves are out of scope:
only the published ungraded values below are embedded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Multicharge, Partition, as_partition, multipartition_parity
from .laurent import LaurentPoly, ZERO, q_power
from .specht import qdim_specht, qdim_truncation
from .tableaux import residue_sequence, row_filled_tableau


@dataclass(frozen=True)
class AdjustmentEvidence:
    """One published ungraded adjustment value a_{lam,mu}(1) in characteristic p."""

    lam: Partition
    mu: Partition
    ungraded_value: int
    p: int

    def __post_init__(self):
        as_partition(self.lam)
        as_partition(self.mu)
        if sum(self.lam) != sum(self.mu):
            raise ValueError("both shapes must have the same size")
        if self.ungraded_value < 0:
            raise ValueError("ungraded values are nonnegative")


# Ungraded adjustment-matrix values for symmetric groups in characteristic 2,
# from the published decomposition-matrix tables in the appendix of Mathas,
# "Iwahori-Hecke algebras and Schur algebras of the symmetric group" (1999).
_PUBLISHED = (
    AdjustmentEvidence(lam=(3, 2, 2, 1), mu=(1,) * 8, ungraded_value=2, p=2),
    AdjustmentEvidence(lam=(3, 2, 2, 1, 1), mu=(1,) * 9, ungraded_value=2, p=2),
    AdjustmentEvidence(lam=(3, 3, 2, 1, 1), mu=(1,) * 10, ungraded_value=2, p=2),
    AdjustmentEvidence(lam=(5, 2, 2, 1), mu=(3,) + (1,) * 7, ungraded_value=2, p=2),
)


def published_evidence() -> tuple[AdjustmentEvidence, ...]:
    return _PUBLISHED


def _poly_sort_key(f: LaurentPoly):
    breadth = f.max_exponent() if f else 0
    return (breadth, tuple(tuple(pair) for pair in f.to_pairs()))


def default_bound(ev: AdjustmentEvidence, kappa: Multicharge) -> int:
    """Largest |degree| in the Specht graded dimension of ``ev.lam``; no valid
    entry can reach beyond it, by the truncation argument."""
    qdim = qdim_specht((ev.lam,), kappa)
    if not qdim:
        return 0
    return max(abs(qdim.min_exponent()), abs(qdim.max_exponent()))


def candidate_entries(ev: AdjustmentEvidence, kappa: Multicharge) -> list[LaurentPoly]:
    """All bar-symmetric polynomials with nonnegative coefficients, pure of
    the combined parity of the two shapes, evaluating at 1 to the published
    value, with exponents bounded in absolute value by :func:`default_bound`.

    Returned sorted by exponent profile for determinism.
    """
    bound = default_bound(ev, kappa)  # checks the charge against the shape (ev.lam,)
    parity = (multipartition_parity((ev.lam,), kappa) + multipartition_parity((ev.mu,), kappa)) % 2
    exponents = [m for m in range(1, bound + 1) if m % 2 == parity]
    found: list[LaurentPoly] = []

    def assign(idx: int, remaining: int, acc: LaurentPoly) -> None:
        if idx == len(exponents):
            if parity == 1:
                if remaining == 0:
                    found.append(acc)
            else:
                # the constant term soaks up whatever is left
                found.append(acc + remaining)
            return
        m = exponents[idx]
        c = 0
        while 2 * c <= remaining:
            assign(idx + 1, remaining - 2 * c, acc + c * (q_power(m) + q_power(-m)))
            c += 1

    assign(0, ev.ungraded_value, ZERO)
    return sorted(set(found), key=_poly_sort_key)


def adjusted_entry(
    d0_row: list[LaurentPoly], adjustment_col: list[LaurentPoly]
) -> LaurentPoly:
    """One entry of the product of a characteristic-0 decomposition row with
    an adjustment column."""
    if len(d0_row) != len(adjustment_col):
        raise ValueError(
            f"row length {len(d0_row)} does not match column length {len(adjustment_col)}"
        )
    total: LaurentPoly = ZERO
    for a, b in zip(d0_row, adjustment_col):
        total = total + a * b
    return total


@dataclass(frozen=True)
class EvidenceReport:
    """Everything the pipeline derives from one published value."""

    evidence: AdjustmentEvidence
    tableau_count: int | None
    degrees: tuple[int, ...]
    candidates: tuple[LaurentPoly, ...]
    pinned: LaurentPoly | None
    note: str

    def to_json(self) -> dict:
        return {
            "lambda": ",".join(map(str, self.evidence.lam)),
            "mu": ",".join(map(str, self.evidence.mu)),
            "ungraded_value": self.evidence.ungraded_value,
            "p": self.evidence.p,
            "tableau_count": self.tableau_count,
            "degrees": list(self.degrees),
            "candidates": [f.to_pairs() for f in self.candidates],
            "pinned": self.pinned.to_pairs() if self.pinned is not None else None,
            "note": self.note,
        }


def evidence_report(ev: AdjustmentEvidence, kappa: Multicharge) -> EvidenceReport:
    """Run the pinning pipeline for one evidence pair, never raising: an
    undetermined entry is reported as such.

    The candidates keep those whose every degree <= 0 (a constant's degree 0
    included) actually occurs in the residue truncation of the Specht module
    of ``ev.lam``, and the entry is pinned if one survives.  ``ev.mu`` must
    be a single column, whose simple module is fixed by the idempotent of
    the row-filled residue sequence; that sequence is computed, not
    hard-coded.  The candidates and the truncation are computed once each."""
    candidates = tuple(candidate_entries(ev, kappa))
    degrees, count, pinned = (), None, None
    if ev.mu != (1,) * sum(ev.mu):
        note = f"undetermined: no distinguished residue sequence: {ev.mu!r} is not a column"
    else:
        residues = residue_sequence(row_filled_tableau((ev.mu,)), kappa)
        truncation = qdim_truncation((ev.lam,), kappa, residues)
        degrees = tuple(e for e, x in sorted(truncation.terms()) for _ in range(x))
        count = len(degrees)
        present = set(truncation.support())
        survivors = [f for f in candidates if all(e in present for e in f.support() if e <= 0)]
        if len(survivors) == 1:
            pinned, note = survivors[0], "pinned"
        else:
            note = (
                f"undetermined: {len(survivors)} candidates survive the truncation filter: "
                f"{[str(f) for f in survivors]}"
            )
    return EvidenceReport(
        evidence=ev,
        tableau_count=count,
        degrees=degrees,
        candidates=candidates,
        pinned=pinned,
        note=note,
    )
