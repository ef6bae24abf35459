"""Graded dimensions of Specht modules and their parity verification sweeps.

Graded dimensions are computed by the branching recursion: the largest entry
of a standard tableau of shape lam sits at a removable node A, and contributes
the signed node count d_A(lam) to the tableau's degree, so

    qdim S(lam) = sum over removable A of q^{d_A(lam)} * qdim S(lam - A),

with qdim S(empty) = 1.  This is the degree of Brundan-Kleshchev-Wang,
"Graded Specht modules", read off one entry at a time; the recursion reads
each removable A with d_A(lam) from :func:`core.steps`, builds lam - A, and
visits each subdiagram once instead of each tableau.  It runs on an explicit
stack, so a shape of any size is in reach.

The counts are memoized by (charge, subdiagram) in ``qdim_memo``, a
:class:`core.CallMemo` that the sweeps and :func:`fock.simple_qdims` hold.

The sweeps also read the degree of each shape's row-filled tableau from
:func:`core.degree_contribution`, the literal per-node count.  The last entry
of that tableau sits at the last node A of the last nonempty row, and the
entries before it form the row-filled tableau of lam - A, so a sweep reads
one count per distinct prefix and keeps the degrees in a dict of its own.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    REMOVABLE,
    RESIDUES,
    CallMemo,
    Multicharge,
    Multipartition,
    check_residues,
    check_shape,
    degree_contribution,
    degree_parity,
    format_multipartition,
    multipartitions,
    steps,
)
from .laurent import LaurentPoly

# Degree counts {degree: number of tableaux}; state[kappa] maps shapes to them.
Counts = dict[int, int]
qdim_memo: CallMemo[dict[Multicharge, dict]] = CallMemo("qspecht_qdim_memo", dict)


def _removals(
    lam: Multipartition, kappa: Multicharge, residues: tuple[int, ...] | None
) -> list[tuple[Multipartition, int]]:
    """``(lam - A, d_A(lam))`` for each removable node A that the recursion
    reads: every one, or with ``residues`` set those of residue
    ``residues[-1]``."""
    out = []
    wanted = RESIDUES if residues is None else residues[-1:]
    both = steps(lam, kappa, wanted)
    for i in wanted:
        for (a, b, m), mark, shift in both[i]:
            if mark == REMOVABLE:
                comp = lam[m - 1]
                comp = comp[: a - 1] + (b - 1,) + comp[a:] if b > 1 else comp[: a - 1]
                out.append((lam[: m - 1] + (comp,) + lam[m:], shift))
    return out


def _branch(
    lam: Multipartition,
    kappa: Multicharge,
    memo: dict[Multipartition, Counts],
    residues: tuple[int, ...] | None = None,
) -> Counts:
    """Degree counts of the standard tableaux of ``lam``, by the branching
    recursion over its subdiagrams.  With ``residues`` set, only nodes of
    residue ``residues[-1]`` are removed at each step, which keeps the
    tableaux with that residue sequence; ``memo`` then holds one residue
    prefix per size.

    Each stack frame holds a shape, the residue prefix of its subdiagrams,
    its removals and the iterator that walks them; a shape is counted once
    all its subdiagrams are, so ``memo`` fills in the order of a recursion.
    """
    stack: list = []

    def push(mu: Multipartition, seq: tuple[int, ...] | None) -> None:
        subs = _removals(mu, kappa, seq)
        stack.append((mu, None if seq is None else seq[:-1], subs, iter(subs)))

    if lam not in memo:
        push(lam, residues)
    while stack:
        mu, rest, subs, pending = stack[-1]
        for sub, _ in pending:
            if sub not in memo:
                push(sub, rest)
                break
        else:
            stack.pop()
            counts: Counts = {} if any(mu) else {0: 1}
            for sub, shift in subs:
                for deg, count in memo[sub].items():
                    counts[deg + shift] = counts.get(deg + shift, 0) + count
            memo[mu] = counts
    return memo[lam]


def qdim_specht(lam: Multipartition, kappa: Multicharge) -> LaurentPoly:
    """Graded dimension of the Specht module: the degree-generating function
    q^deg(t) summed over all standard tableaux of the shape."""
    check_shape(lam, kappa)
    return LaurentPoly(_branch(lam, kappa, qdim_memo.get().setdefault(tuple(kappa), {})))


def qdim_truncation(
    lam: Multipartition, kappa: Multicharge, residues: tuple[int, ...]
) -> LaurentPoly:
    """Graded dimension of the residue-idempotent truncation: q^deg(t) summed
    over the standard tableaux with the given residue sequence."""
    check_shape(lam, kappa)
    check_residues(lam, residues)
    return LaurentPoly(_branch(lam, kappa, {}, tuple(residues)))


def qdim_hecke(d: int, kappa: Multicharge) -> LaurentPoly:
    """Graded dimension of the whole cyclotomic algebra in rank d, computed
    as the sum of the squared cell-module graded dimensions over all shapes.

    At q = 1 this is l^d * d! (checked by :func:`verify_hecke_even`).  The
    shapes share one memo.
    """
    total: LaurentPoly = LaurentPoly()
    with qdim_memo.held():
        for lam in multipartitions(d, len(kappa)):
            s = qdim_specht(lam, kappa)
            total = total + s * s
    return total


class SweepReport(NamedTuple):
    """Outcome of an exhaustive check; directly assertable in tests."""

    check: str
    parameters: dict[str, object]
    checked: int
    violations: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "checked": self.checked,
            "violations": list(self.violations),
            "notes": list(self.notes),
            "ok": self.ok,
        }


def _row_filled_degree(
    lam: Multipartition, kappa: Multicharge, memo: dict[Multipartition, int]
) -> int:
    """Degree of the row-filled tableau of ``lam``: the count of its last
    node A in lam, plus the degree of the row-filled tableau of lam - A.
    The walk steps down this prefix chain to a shape in ``memo`` (or the
    empty shape, of degree 0), then stores each degree on the way back up,
    so each prefix is read once per memo."""
    chain = []
    while lam not in memo and any(lam):
        m = len(lam)
        while not lam[m - 1]:
            m -= 1
        comp = lam[m - 1]
        chain.append((lam, (len(comp), comp[-1], m)))
        comp = comp[:-1] + (comp[-1] - 1,) if comp[-1] > 1 else comp[:-1]
        lam = lam[: m - 1] + (comp,) + lam[m:]
    deg = memo.get(lam, 0)
    for mu, node in reversed(chain):
        deg += degree_contribution(mu, kappa, node)
        memo[mu] = deg
    return deg


def _parity_violation(
    lam: Multipartition, kappa: Multicharge, row_degrees: dict[Multipartition, int]
) -> str | None:
    """The qdim must be pure of the shape's parity and count the row-filled
    tableau at its degree, which ties :func:`core.steps` to the per-node degree."""
    qdim = qdim_specht(lam, kappa)
    parity = degree_parity(lam, kappa)
    if not qdim.is_pure_parity(parity):
        return f"{format_multipartition(lam)}: qdim {qdim} not pure of parity {parity}"
    deg = _row_filled_degree(lam, kappa, row_degrees)
    if qdim.coefficient(deg) <= 0:
        return f"{format_multipartition(lam)}: qdim {qdim} misses row-filled degree {deg}"
    return None


def _row_degree_violation(
    lam: Multipartition, kappa: Multicharge, row_degrees: dict[Multipartition, int]
) -> str | None:
    deg = _row_filled_degree(lam, kappa, row_degrees)
    parity = degree_parity(lam, kappa)
    if deg % 2 != parity:
        return f"{format_multipartition(lam)}: row-filled degree {deg} vs parity {parity}"
    return None


def _sweep(check: str, checker, d: int, kappa: Multicharge) -> SweepReport:
    """Run ``checker`` on every shape of size d; the shapes share one
    graded-dimension memo and one dict of row-filled degrees."""
    shapes = list(multipartitions(d, len(kappa)))
    row_degrees: dict[Multipartition, int] = {}
    with qdim_memo.held():
        results = [checker(lam, kappa, row_degrees) for lam in shapes]
    return SweepReport(
        check=check,
        parameters={"d": d, "charge": list(kappa)},
        checked=len(shapes),
        violations=tuple(r for r in results if r is not None),
    )


def verify_specht_parity(d: int, kappa: Multicharge) -> SweepReport:
    """Check every shape of size d: its Specht graded dimension must be pure
    of the shape's combinatorial parity and count the row-filled tableau at
    its degree.  The shapes share one memo, so each subdiagram is evaluated
    once."""
    return _sweep("specht-parity", _parity_violation, d, kappa)


def verify_row_degree_parity(d: int, kappa: Multicharge) -> SweepReport:
    """Check every shape of size d: the degree of its row-filled tableau must
    agree mod 2 with the shape's combinatorial parity."""
    return _sweep("row-degree-parity", _row_degree_violation, d, kappa)


def verify_hecke_even(max_d: int, kappa: Multicharge) -> SweepReport:
    """Check for every rank up to max_d that the algebra's graded dimension
    has no odd-degree part and evaluates at 1 to l^d * d!."""
    if max_d < 0:
        raise ValueError("size must be nonnegative")
    violations = []
    level = len(kappa)
    factorial = 1
    for d in range(max_d + 1):
        if d:
            factorial *= d
        qdim = qdim_hecke(d, kappa)
        odd = sum(x for e, x in qdim.terms() if e % 2)
        if odd != 0:
            violations.append(f"d={d}: odd part {odd} is nonzero")
        expected = level**d * factorial
        if qdim.eval_at_one() != expected:
            violations.append(
                f"d={d}: total dimension {qdim.eval_at_one()} != {expected}"
            )
    return SweepReport(
        check="hecke-even",
        parameters={"max_d": max_d, "charge": list(kappa)},
        checked=max_d + 1,
        violations=tuple(violations),
        notes=(
            "graded dimension computed from the sum of squared cell-module dimensions",
        ),
    )
