"""Good-node operators and the recursive generation of restricted multipartitions.

Convention, fixed here and used everywhere: for a residue i, list all addable
('+') and removable ('-') i-nodes in below-order (first component's top row
first).  Scan the list downwards, cancelling each removable node against the
nearest surviving addable node *below* it.  The good addable node is the
lowest surviving '+'; the good removable node is the highest surviving '-'.

This is the reading direction under which, at level 1, the multipartitions
reachable from the empty one are exactly the 2-restricted partitions; the
test suite pins the convention against that characterisation for d <= 14.
"""

from __future__ import annotations

from .core import (
    ADDABLE,
    REMOVABLE,
    RESIDUES,
    Multicharge,
    Multipartition,
    Node,
    empty_multipartition,
    signature as node_signature,
    with_node_added,
    with_node_removed,
)


def _reduced_signature(
    lam: Multipartition, kappa: Multicharge, i: int
) -> list[tuple[Node, str]]:
    stack: list[tuple[Node, str]] = []
    for node, mark in node_signature(lam, kappa, i):
        if mark == ADDABLE and stack and stack[-1][1] == REMOVABLE:
            stack.pop()
        else:
            stack.append((node, mark))
    return stack


def add_good_node(
    lam: Multipartition, kappa: Multicharge, i: int
) -> Multipartition | None:
    """Add the good addable i-node, or return None if there is none."""
    survivors = [node for node, mark in _reduced_signature(lam, kappa, i) if mark == ADDABLE]
    if not survivors:
        return None
    return with_node_added(lam, survivors[-1])


def remove_good_node(
    lam: Multipartition, kappa: Multicharge, i: int
) -> Multipartition | None:
    """Remove the good removable i-node, or return None if there is none.

    Inverse to :func:`add_good_node` wherever the latter is defined.
    """
    survivors = [node for node, mark in _reduced_signature(lam, kappa, i) if mark == REMOVABLE]
    if not survivors:
        return None
    return with_node_removed(lam, survivors[0])


def restricted_multipartitions(d: int, kappa: Multicharge) -> set[Multipartition]:
    """The size-d layer of the closure of the empty multipartition under the
    good-node adding operators, one breadth-first layer per size."""
    if d < 0:
        raise ValueError("size must be nonnegative")
    layer: set[Multipartition] = {empty_multipartition(len(kappa))}
    for _ in range(d):
        grown = set()
        for lam in layer:
            for i in RESIDUES:
                bigger = add_good_node(lam, kappa, i)
                if bigger is not None:
                    grown.add(bigger)
        layer = grown
    return layer
