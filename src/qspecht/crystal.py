"""Good-node operators and the recursive generation of restricted multipartitions.

Convention, fixed here and used everywhere: for a residue i, list all addable
('+') and removable ('-') i-nodes in below-order (first component's top row
first).  Scan the list downwards, cancelling each removable node against the
nearest surviving addable node *below* it.  The good addable node is the
lowest surviving '+'.

This is the reading direction under which, at level 1, the multipartitions
reachable from the empty one are exactly the 2-restricted partitions; the
test suite pins the convention against that characterisation for d <= 10.

The cancellation is associative, and what survives of any stretch of the
signature has the form +^A -^B.  So each component is summarised, once per
residue, by its A, its B and its lowest surviving '+'.  The summaries are
memoized by (charge mod 2, component) in ``summary_memo``, a
:class:`core.CallMemo` that :func:`restricted_multipartitions` holds.  One
rule, :func:`_pending`, reads them: the good node lies in the last component
whose A exceeds the B that the components before it leave pending.

The closure moves groups, not multipartitions.  A layer maps each prefix
(every component but the last) to the set of last components that follow it.
For each group and residue the prefix's pending B is folded once: a member
whose last component's A exceeds it gains that component's good node, and
every other member gains the same node of the prefix, which
:func:`add_good_node` reads from one of them, or none.
"""

from __future__ import annotations

from collections import defaultdict

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


def _summaries(memo: tuple, comp: Partition, k: int) -> tuple[Summary, Summary]:
    """The summaries of comp at charge k for residues 0 and 1, from the memo."""
    pair = memo[k].get(comp)
    if pair is None:
        pair = memo[k][comp] = tuple(_summary(comp, k, r) for r in RESIDUES)
    return pair


def _pending(memo: tuple, lam: Multipartition, kappa: Multicharge, i: int) -> tuple:
    """The B that the components of lam leave pending for residue i, and the
    index and grown component of its good i-node (None when there is none)."""
    pending = 0
    good = None
    for m, comp in enumerate(lam):
        A, B, grown = _summaries(memo, comp, kappa[m] % 2)[i]
        if A > pending:
            good = m, grown
            pending = B
        else:
            pending += B - A
    return pending, good


def add_good_node(
    lam: Multipartition, kappa: Multicharge, i: int
) -> Multipartition | None:
    """Add the good addable i-node, or return None if there is none."""
    if i not in RESIDUES:
        raise ValueError(f"residues must be 0 or 1, got {i!r}")
    check_component_count(lam, kappa)
    memo = summary_memo.get()
    for m, comp in enumerate(lam):
        if comp not in memo[kappa[m] % 2]:
            as_partition(comp)  # once per component the memo holds
    _, good = _pending(memo, lam, kappa, i)
    if good is None:
        return None
    at, grown = good
    return lam[:at] + (grown,) + lam[at + 1 :]


def restricted_multipartitions(d: int, kappa: Multicharge) -> set[Multipartition]:
    """The size-d layer of the closure of the empty multipartition under the
    good-node adding operators, one breadth-first layer per size."""
    if d < 0:
        raise ValueError("size must be nonnegative")
    if not kappa:
        raise ValueError("a multicharge needs at least one component")
    empty = empty_multipartition(len(kappa))
    # prefix (every component but the last) -> the last components after it
    layer: dict[Multipartition, set[Partition]] = {empty[:-1]: {empty[-1]}}
    k = kappa[-1] % 2
    with summary_memo.held() as memo:
        table = memo[k]
        for _ in range(d):
            grown = defaultdict(set)
            for prefix, lasts in layer.items():
                p0, p1 = (_pending(memo, prefix, kappa, i)[0] for i in RESIDUES)
                same, rest0, rest1 = grown[prefix], [], []
                for comp in lasts:  # residues 0 and 1 unrolled: this loop is the hot one
                    (a0, _, g0), (a1, _, g1) = table.get(comp) or _summaries(memo, comp, k)
                    if a0 > p0:
                        same.add(g0)
                    else:
                        rest0.append(comp)
                    if a1 > p1:
                        same.add(g1)
                    else:
                        rest1.append(comp)
                for i, rest in zip(RESIDUES, (rest0, rest1)):
                    # the good node of every other member lies in the prefix
                    moved = rest and add_good_node(prefix + (rest[0],), kappa, i)
                    if moved:
                        grown[moved[:-1]].update(rest)
            layer = grown
    return {prefix + (comp,) for prefix, lasts in layer.items() for comp in lasts}
