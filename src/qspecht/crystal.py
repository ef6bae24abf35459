"""Good-node operators and the recursive generation of restricted multipartitions.

Convention, fixed here and used everywhere: for a residue i, list all addable
('+') and removable ('-') i-nodes in below-order (first component's top row
first).  Scan the list downwards, cancelling each removable node against the
nearest surviving addable node *below* it.  The good addable node is the
lowest surviving '+'.

This is the reading direction under which, at level 1, the multipartitions
reachable from the empty one are exactly the 2-restricted partitions; the
test suite pins the convention against that characterisation for d <= 14.

The cancellation is associative, and what survives of any stretch of the
signature has the form +^A -^B.  So each component is summarised, once per
residue, by its A, its B and its lowest surviving '+', and the good node of a
multipartition comes from one pass over its components' summaries.  The
summaries are memoized by (charge mod 2, component) in ``summary_memo``, a
:class:`core.CallMemo` that :func:`restricted_multipartitions` holds.
"""

from __future__ import annotations

from .core import (
    ADDABLE,
    RESIDUES,
    CallMemo,
    Multicharge,
    Multipartition,
    Partition,
    as_partition,
    check_component_count,
    empty_multipartition,
    signature,
)

# (A, B, grown) for one residue: the component's surviving word is +^A -^B,
# and grown is the component with its lowest surviving '+' added, or None
# when A = 0.
Summary = tuple[int, int, Partition | None]
# state[k] maps each component of charge k (mod 2) to its summaries for
# residues 0 and 1.
summary_memo: CallMemo[tuple] = CallMemo("qspecht_crystal_summaries", lambda: ({}, {}))


def _summary(comp: Partition, k: int, i: int) -> Summary:
    """Reduce the i-signature of one component of charge k."""
    A = B = 0
    grown = None
    for (a, b, _), mark in signature((comp,), (k,), i):
        if mark != ADDABLE:
            B += 1
        elif B:
            B -= 1
        else:
            # an addable node (a, b) ends row a, or opens row len(comp) + 1
            A, grown = A + 1, comp[: a - 1] + (b,) + comp[a:]
    return A, B, grown


def add_good_node(
    lam: Multipartition, kappa: Multicharge, i: int
) -> Multipartition | None:
    """Add the good addable i-node, or return None if there is none."""
    if i not in RESIDUES:
        raise ValueError(f"residues must be 0 or 1, got {i!r}")
    check_component_count(lam, kappa)
    memo = summary_memo.get()
    pending = 0
    good = None
    for m, comp in enumerate(lam):
        k = kappa[m] % 2
        pair = memo[k].get(comp)
        if pair is None:
            as_partition(comp)  # once per component the memo holds
            pair = memo[k][comp] = tuple(_summary(comp, k, r) for r in RESIDUES)
        A, B, grown = pair[i]
        if A > pending:
            good, at = grown, m
            pending = B
        else:
            pending += B - A
    if good is None:
        return None
    return lam[:at] + (good,) + lam[at + 1 :]


def restricted_multipartitions(d: int, kappa: Multicharge) -> set[Multipartition]:
    """The size-d layer of the closure of the empty multipartition under the
    good-node adding operators, one breadth-first layer per size."""
    if d < 0:
        raise ValueError("size must be nonnegative")
    if not kappa:
        raise ValueError("a multicharge needs at least one component")
    layer: set[Multipartition] = {empty_multipartition(len(kappa))}
    with summary_memo.held():
        for _ in range(d):
            grown = set()
            for lam in layer:
                for i in RESIDUES:
                    bigger = add_good_node(lam, kappa, i)
                    if bigger is not None:
                        grown.add(bigger)
            layer = grown
    return layer
