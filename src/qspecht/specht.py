"""Graded dimensions of Specht modules and their parity verification sweeps.

A standard tableau of shape lam is a path of added nodes from the empty
shape, and adding the node A to mu adds the signed node count d_A(mu+A) to
its degree (Brundan-Kleshchev-Wang, "Graded Specht modules").  So graded
dimensions grow layer by layer from qdim S(empty) = 1: :func:`layer_counts`
passes the degree counts of each shape mu of size s to mu+A for every
addable A that :func:`core.steps` lists, shifted by A's count, and drains
the layer of size s as it fills the next.  It holds two layers, visits each
subdiagram once instead of each tableau, and reaches a shape of any size.
Kept inside one diagram it visits that diagram's subdiagrams; kept to the
residue ``residues[s]`` at size s it counts the tableaux with that residue
sequence.

``qdim_memo``, a :class:`core.CallMemo`, maps a charge to one layer of exact
unrestricted counts, written only by the block that holds it:
:func:`verify_specht_parity` fills it with every shape of its size and
:func:`fock.simple_qdims` with the shapes inside the envelope of its
columns.  :func:`qdim_specht` reads a shape there or else runs the pass
inside the shape; :func:`qdim_truncation` never writes it.

The exported functions check their arguments once, through
:func:`core.check_shape` and its siblings, before :func:`layer_counts`,
which trusts them; its counts are positive integers by construction, so a
graded dimension adopts them with :meth:`LaurentPoly.from_clean`.  The
parity sweep reads each shape's parity from
:func:`core.multipartition_parity`, since :func:`core.multipartitions` made
the shape, and still reads each graded dimension through
:func:`qdim_specht`, which checks the shape again.  The row-degree sweep
reads no graded dimension.

The sweeps also read the degree of each shape's row-filled tableau from
:func:`core.degree_contribution`, the literal per-node count, which checks
each prefix it is given.  The last entry of that tableau sits at the last
node A of the last nonempty row, and the entries before it form the
row-filled tableau of lam - A, so a sweep reads one count per distinct
prefix and keeps the degrees in a dict of its own.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .core import (
    ADDABLE,
    RESIDUES,
    CallMemo,
    Multicharge,
    Multipartition,
    check_charge,
    check_residues,
    check_shape,
    check_size,
    degree_contribution,
    empty_multipartition,
    format_multipartition,
    multipartition_parity,
    multipartition_size,
    multipartitions,
    steps,
)
from .laurent import ZERO, LaurentPoly

# Degree counts {degree: number of tableaux}; state[kappa] maps shapes to them.
Counts = dict[int, int]
qdim_memo: CallMemo[dict[Multicharge, dict]] = CallMemo("qspecht_qdim_memo", dict)


def layer_counts(
    kappa: Multicharge,
    d: int,
    inside: Multipartition | None = None,
    residues: tuple[int, ...] | None = None,
) -> dict[Multipartition, Counts]:
    """{shape: degree counts} for the shapes of size d, grown from the
    empty shape one node at a time: each shape's counts pass to mu+A for
    every addable A, shifted by A's signed count in mu+A.  With ``inside``
    set only nodes of that diagram are added, and with ``residues`` set
    only nodes of residue ``residues[s]`` at size s, which keeps the
    tableaux with that residue sequence.  The arguments are trusted."""
    layer = {empty_multipartition(len(kappa)): {0: 1}}
    for s in range(d):
        wanted = RESIDUES if residues is None else (residues[s],)
        grown: dict[Multipartition, Counts] = {}
        while layer:  # drained as the next layer fills
            mu, counts = layer.popitem()
            both = steps(mu, kappa)
            for i in wanted:
                for (a, b, m), mark, shift in both[i]:
                    if mark != ADDABLE or inside is not None and (
                        a > len(inside[m - 1]) or b > inside[m - 1][a - 1]
                    ):
                        continue
                    comp = mu[m - 1]
                    comp = comp + (1,) if b == 1 else comp[: a - 1] + (b,) + comp[a:]
                    nu = mu[: m - 1] + (comp,) + mu[m:]
                    into = grown.get(nu)
                    if into is None:
                        grown[nu] = {deg + shift: count for deg, count in counts.items()}
                    else:
                        for deg, count in counts.items():
                            into[deg + shift] = into.get(deg + shift, 0) + count
        layer = grown
    return layer


def qdim_specht(lam: Multipartition, kappa: Multicharge) -> LaurentPoly:
    """Graded dimension of the Specht module: the degree-generating function
    q^deg(t) summed over all standard tableaux of the shape."""
    check_shape(lam, kappa)
    counts = qdim_memo.get().get(tuple(kappa), {}).get(lam)
    if counts is None:
        counts = layer_counts(kappa, multipartition_size(lam), inside=lam)[lam]
    return LaurentPoly.from_clean(dict(counts))


def qdim_truncation(
    lam: Multipartition, kappa: Multicharge, residues: tuple[int, ...]
) -> LaurentPoly:
    """Graded dimension of the residue-idempotent truncation: q^deg(t) summed
    over the standard tableaux with the given residue sequence."""
    check_shape(lam, kappa)
    check_residues(lam, residues)
    layer = layer_counts(kappa, len(residues), inside=lam, residues=tuple(residues))
    return LaurentPoly.from_clean(layer.get(lam, {}))


def qdim_hecke(d: int, kappa: Multicharge) -> LaurentPoly:
    """Graded dimension of the whole cyclotomic algebra in rank d, computed
    as the sum of the squared cell-module graded dimensions over all shapes,
    which one layer of :func:`layer_counts` holds.

    At q = 1 this is l^d * d! (checked by :func:`verify_hecke_even`).
    """
    check_size(d)
    check_charge(kappa)
    qdims = map(LaurentPoly.from_clean, layer_counts(kappa, d).values())
    return sum((s * s for s in qdims), ZERO)


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
    parity = multipartition_parity(lam, kappa)
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
    parity = multipartition_parity(lam, kappa)
    if deg % 2 != parity:
        return f"{format_multipartition(lam)}: row-filled degree {deg} vs parity {parity}"
    return None


def _sweep(check: str, checker, d: int, kappa: Multicharge) -> SweepReport:
    """Run ``checker`` on every shape of size d, whose size and charge the
    caller has checked; the shapes share one dict of row-filled degrees."""
    shapes = list(multipartitions(d, len(kappa)))
    row_degrees: dict[Multipartition, int] = {}
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
    its degree.  One layer of :func:`layer_counts` fills the memo with every
    shape of size d."""
    check_size(d)
    check_charge(kappa)
    with qdim_memo.held() as memo:
        memo[tuple(kappa)] = layer_counts(kappa, d)
        return _sweep("specht-parity", _parity_violation, d, kappa)


def verify_row_degree_parity(d: int, kappa: Multicharge) -> SweepReport:
    """Check every shape of size d: the degree of its row-filled tableau must
    agree mod 2 with the shape's combinatorial parity."""
    check_charge(kappa)
    return _sweep("row-degree-parity", _row_degree_violation, d, kappa)


def verify_hecke_even(max_d: int, kappa: Multicharge) -> SweepReport:
    """Check for every rank up to max_d that the algebra's graded dimension
    has no odd-degree part and evaluates at 1 to l^d * d!."""
    check_size(max_d)
    check_charge(kappa)
    violations = []
    level = len(kappa)
    for d in range(max_d + 1):
        qdim = qdim_hecke(d, kappa)
        odd = sum(x for e, x in qdim.terms() if e % 2)
        if odd != 0:
            violations.append(f"d={d}: odd part {odd} is nonzero")
        expected = level**d * factorial(d)
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
