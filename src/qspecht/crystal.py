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
signature has the form +^A -^B.  So each component is summarised by its A,
its B and its lowest surviving '+' for both residues, from one call of the
node kernel :func:`core.signatures`.  The components are interned per charge
parity as small ints in ``summary_memo``, a :class:`core.CallMemo` that
:func:`restricted_multipartitions` holds, one summary per index, made on
first read.  One rule, :func:`_pending`, reads them, for both residues in one
walk: the good node lies in the last component whose A exceeds the B that the
components before it leave pending.

The closure moves groups, not multipartitions.  A layer maps each prefix
(every component but the last) to the set of indices of the last components
that follow it.  For each group the prefix's pending B of both residues is
read once: a member whose last component's A exceeds it gains that
component's good node, and every other member gains the same node of the
prefix, which :func:`add_good_node` reads from one of them, or none.
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
    signatures,
)


class _Interned:
    """The components of one charge parity that a call has met, each
    interned as an index: ``ids`` maps a component to its index, ``comps``
    lists the components by index, and ``summaries`` their summaries, each
    made on first read (None until then).

    A summary is (A0, B0, grown0, A1, B1, grown1): for residue i the
    component's surviving word is +^Ai -^Bi, and growni is the index of the
    component with its lowest surviving '+' added, or None when Ai = 0.
    """

    __slots__ = ("ids", "comps", "summaries", "k")

    def __init__(self, k: int):
        self.ids: dict[Partition, int] = {}
        self.comps: list[Partition] = []
        self.summaries: list[tuple | None] = []
        self.k = k

    def index(self, comp: Partition) -> int:
        at = self.ids.get(comp)
        if at is None:
            at = self.ids[comp] = len(self.comps)
            self.comps.append(comp)
            self.summaries.append(None)
        return at

    def summary(self, at: int) -> tuple:
        """The summary of the component at index ``at``, from one kernel
        call for both residues."""
        got = self.summaries[at]
        if got is None:
            comp = self.comps[at]
            got = ()
            for sig in signatures((comp,), (self.k,)):
                A = B = 0
                good = None
                for node, mark in sig:
                    if mark != ADDABLE:
                        B += 1
                    elif B:
                        B -= 1
                    else:
                        A, good = A + 1, node
                if good is not None:
                    # an addable node (a, b) ends row a, or opens row len(comp) + 1
                    a, b, _ = good
                    good = self.index(comp[: a - 1] + (b,) + comp[a:])
                got += (A, B, good)
            self.summaries[at] = got
        return got


# state[k] interns the components of charge k (mod 2).
summary_memo: CallMemo[tuple[_Interned, _Interned]] = CallMemo(
    "qspecht_crystal_summaries", lambda: (_Interned(0), _Interned(1))
)


def _pending(memo: tuple, lam: Multipartition, kappa: Multicharge) -> tuple:
    """For residues 0 and 1, in one walk: the B that the components of lam
    leave pending, and the index and grown component of the good node (None
    when there is none)."""
    p0 = p1 = 0
    good0 = good1 = None
    for m, comp in enumerate(lam):
        table = memo[kappa[m] % 2]
        A0, B0, g0, A1, B1, g1 = table.summary(table.index(comp))
        if A0 > p0:
            good0, p0 = (m, table.comps[g0]), B0
        else:
            p0 += B0 - A0
        if A1 > p1:
            good1, p1 = (m, table.comps[g1]), B1
        else:
            p1 += B1 - A1
    return (p0, good0), (p1, good1)


def add_good_node(
    lam: Multipartition, kappa: Multicharge, i: int
) -> Multipartition | None:
    """Add the good addable i-node, or return None if there is none."""
    if i not in RESIDUES:
        raise ValueError(f"residues must be 0 or 1, got {i!r}")
    check_component_count(lam, kappa)
    memo = summary_memo.get()
    for m, comp in enumerate(lam):
        if comp not in memo[kappa[m] % 2].ids:
            as_partition(comp)  # once per component the memo holds
    _, good = _pending(memo, lam, kappa)[i]
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
    with summary_memo.held() as memo:
        table = memo[kappa[-1] % 2]
        comps, summaries = table.comps, table.summaries
        # prefix (every component but the last) -> the indices of the last
        # components after it
        layer: dict[Multipartition, set[int]] = {empty[:-1]: {table.index(empty[-1])}}
        for _ in range(d):
            grown = defaultdict(set)
            for prefix, lasts in layer.items():
                (p0, _), (p1, _) = _pending(memo, prefix, kappa)
                same, rest0, rest1 = grown[prefix], [], []
                for c in lasts:  # residues 0 and 1 unrolled: this loop is the hot one
                    a0, _, g0, a1, _, g1 = summaries[c] or table.summary(c)
                    if a0 > p0:
                        same.add(g0)
                    else:
                        rest0.append(c)
                    if a1 > p1:
                        same.add(g1)
                    else:
                        rest1.append(c)
                for i, rest in zip(RESIDUES, (rest0, rest1)):
                    # the good node of every other member lies in the prefix; the
                    # call goes through the public add_good_node, whose calls the
                    # benchmark's traced replay counts (crystal.add_good_calls)
                    moved = rest and add_good_node(prefix + (comps[rest[0]],), kappa, i)
                    if moved:
                        grown[moved[:-1]].update(rest)
            layer = grown
        return {prefix + (comps[c],) for prefix, lasts in layer.items() for c in lasts}
