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
    check_component_count,
    empty_multipartition,
    signature,
    with_node_added,
)

# (A, B, row, column) for one residue: the component's surviving word is
# +^A -^B, and (row, column) is its lowest surviving '+' when A > 0.
Summary = tuple[int, int, int, int]
# state[k] maps each component of charge k (mod 2) to its summaries for
# residues 0 and 1; state[2] interns equal pairs, so each is stored once.
summary_memo: CallMemo[tuple] = CallMemo("qspecht_crystal_summaries", lambda: ({}, {}, {}))


def _summary(comp: Partition, k: int, i: int) -> Summary:
    """Reduce the i-signature of one component of charge k."""
    A = B = row = column = 0
    for (a, b, _), mark in signature((comp,), (k,), i):
        if mark != ADDABLE:
            B += 1
        elif B:
            B -= 1
        else:
            A, row, column = A + 1, a, b
    return A, B, row, column


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
    for m, comp in enumerate(lam, start=1):
        k = kappa[m - 1] % 2
        pair = memo[k].get(comp)
        if pair is None:
            pair = tuple(_summary(comp, k, r) for r in RESIDUES)
            pair = memo[k][comp] = memo[2].setdefault(pair, pair)
        A, B, row, column = pair[i]
        if A > pending:
            good = (row, column, m)
            pending = B
        else:
            pending += B - A
    if good is None:
        return None
    return with_node_added(lam, good)


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
