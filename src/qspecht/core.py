"""Partitions, multipartitions, nodes and residues in quantum characteristic 2.

Conventions used throughout the package:

* residues live in {0, 1} (integers mod 2);
* nodes are 1-based triples ``(row, column, component)``;
* a node is *below* another if its component is larger, or the components
  agree and its row is larger;
* the i-signature lists the addable and removable i-nodes in below-order
  (first component's top row first), so signed counts are reproducible;
* :func:`signatures` is the one node kernel on tuple shapes: it alone
  decides which cells of a tuple are addable or removable i-nodes, for
  both residues in one pass over the runs of equal parts.  :func:`steps`
  gives each node of both signatures, or of the residues its caller names,
  with its signed count and builds no shape: its callers (the tableau
  search and the branching recursion) add or remove the nodes.  The
  crystal reduces both signatures of one component from one call.
  :func:`degree_contribution` reads the count of one node of the diagram
  from the signature of its residue, for the literal prefix recursion of a
  tableau's degree and the sweeps' row-filled degrees.  The Fock space
  reads the same rule from bead masks (``fock._moves``), and its tests
  check it against the tuple form read from :func:`steps`;
* :func:`check_component_count` is the one shape/charge length check, and
  :func:`check_residues` the one check of a residue sequence against a
  shape;
* :class:`CallMemo` is the one per-call memo: its state is keyed by all it
  depends on, the calls inside a held block share it, a nested block shares
  the enclosing block's, and none outlives the outermost block.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Generic, TypeVar

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
Multicharge = tuple[int, ...]
Node = tuple[int, int, int]

RESIDUES = (0, 1)
ADDABLE = "+"
REMOVABLE = "-"

State = TypeVar("State")


class CallMemo(Generic[State]):
    """A memo state made by ``new()`` and shared by the calls inside a
    :meth:`held` block; outside any block, :meth:`get` makes a fresh one."""

    def __init__(self, name: str, new: Callable[[], State]):
        self._state: ContextVar[State | None] = ContextVar(name, default=None)
        self._new = new

    def get(self) -> State:
        """The state of the enclosing block, or a fresh one outside any."""
        state = self._state.get()
        return self._new() if state is None else state

    @contextmanager
    def held(self) -> Iterator[State]:
        """Share one state across the block and the blocks nested in it."""
        token = self._state.set(state := self.get())
        try:
            yield state
        finally:
            self._state.reset(token)


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalise a weakly decreasing tuple of positive parts."""
    p = tuple(parts)
    for k, part in enumerate(p):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if k > 0 and p[k - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {p!r}")
    return p


def as_multicharge(charges: Iterable[int]) -> Multicharge:
    kappa = tuple(charges)
    if not kappa:
        raise ValueError("a multicharge needs at least one component")
    if any(k not in RESIDUES for k in kappa):
        raise ValueError(f"charges must lie in {{0, 1}}, got {kappa!r}")
    return kappa


def check_component_count(lam: Multipartition, kappa: Multicharge) -> None:
    """Reject a shape whose component count differs from the charge's."""
    if len(lam) != len(kappa):
        raise ValueError(f"shape has {len(lam)} components but charge has {len(kappa)}")


def check_shape(lam: Multipartition, kappa: Multicharge) -> None:
    """Reject a shape that is not one partition per charge."""
    check_component_count(lam, kappa)
    for comp in lam:
        as_partition(comp)


def multipartition_size(lam: Multipartition) -> int:
    return sum(map(sum, lam))


def check_residues(lam: Multipartition, residues: tuple[int, ...]) -> None:
    """Reject a residue sequence that is not one entry per node of ``lam``,
    each entry a residue."""
    if len(residues) != multipartition_size(lam):
        raise ValueError("residue sequence length does not match the shape size")
    if any(i not in RESIDUES for i in residues):
        raise ValueError(f"residues must be 0 or 1, got {residues!r}")


def empty_multipartition(level: int) -> Multipartition:
    return ((),) * level


def young_nodes(lam: Multipartition) -> Iterator[Node]:
    """All nodes of the Young diagram, component by component, row by row."""
    for m, comp in enumerate(lam, start=1):
        for a, part in enumerate(comp, start=1):
            for b in range(1, part + 1):
                yield (a, b, m)


def signatures(lam: Multipartition, kappa: Multicharge) -> tuple[list, list]:
    """The 0- and 1-signatures: addable ('+') and removable ('-') nodes of
    each residue, in below-order, from one pass over the runs of equal parts.

    A run of part p in rows a..z can only add (a, p+1) and remove (z, p), and
    the last row of a component adds (len + 1, 1).  Two cells of one row
    have different residues, so no row holds two nodes of one signature.
    A component is read once, row by row, for both residues.  The charges
    may be any integers; only their parity counts.
    """
    check_component_count(lam, kappa)
    out: tuple[list, list] = ([], [])
    for m, comp in enumerate(lam, start=1):
        k = kappa[m - 1]
        last = len(comp)
        a = 0  # the rows above the run
        while a < last:
            p = comp[a]
            z = a + 1  # the run's last row
            while z < last and comp[z] == p:
                z += 1
            out[(k + p - a) % 2].append(((a + 1, p + 1, m), ADDABLE))
            out[(k + p - z) % 2].append(((z, p, m), REMOVABLE))
            a = z
        out[(k - last) % 2].append(((last + 1, 1, m), ADDABLE))
    return out


def with_node_added(lam: Multipartition, node: Node) -> Multipartition:
    a, b, m = node
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(m, int)):
        raise ValueError(f"node coordinates must be integers, got {node!r}")
    if not 1 <= m <= len(lam):
        raise ValueError(f"component {m} out of range for {lam!r}")
    comp = list(lam[m - 1])
    if a == len(comp) + 1 and b == 1:
        comp.append(1)
    elif 1 <= a <= len(comp) and b == comp[a - 1] + 1 and (a == 1 or comp[a - 2] >= b):
        comp[a - 1] = b
    else:
        raise ValueError(f"node {node!r} is not addable for {lam!r}")
    return lam[: m - 1] + (tuple(comp),) + lam[m:]


def degree_contribution(lam: Multipartition, kappa: Multicharge, node: Node) -> int:
    """Signed count for a node of the diagram: addable nodes of the node's
    residue strictly below it, minus removable ones strictly below it.

    Summing these contributions over the growth of a standard tableau gives
    the tableau's degree.  The count is read from the signature of the
    node's residue over its component and the components after it.
    """
    check_shape(lam, kappa)
    a0, b0, m0 = node
    comp = lam[m0 - 1] if 1 <= m0 <= len(lam) else ()
    if not (1 <= a0 <= len(comp) and 1 <= b0 <= comp[a0 - 1]):
        raise ValueError(f"node {node!r} is not in the diagram of {lam!r}")
    i = (kappa[m0 - 1] + b0 - a0) % 2
    count = 0
    for (a, _, m), mark in signatures(lam[m0 - 1 :], kappa[m0 - 1 :])[i]:
        if m > 1 or a > a0:
            count += 1 if mark == ADDABLE else -1
    return count


def steps(
    lam: Multipartition, kappa: Multicharge, residues: Iterable[int] = RESIDUES
) -> tuple[list, list]:
    """For residues 0 and 1, ``(node, mark, count)`` for each node of the
    signature, lowest first: for an addable node A the signed count of A in
    lam+A, for a removable one the count of A in lam.  No row holds two
    signature nodes, and adding A changes only nodes of the other residue,
    so either count is the '+' minus the '-' strictly after A in the
    signature of lam.  Only the residues in ``residues`` are listed; the
    list of any other is left empty.
    """
    sigs = signatures(lam, kappa)
    out: tuple[list, list] = ([], [])
    for i in residues:
        into = out[i]
        count = 0
        for node, mark in reversed(sigs[i]):
            into.append((node, mark, count))
            count += 1 if mark == ADDABLE else -1
    return out


def partition_parity(p: Partition) -> int:
    """Sum of the half-parts (rounded down), mod 2."""
    return sum(part // 2 for part in p) % 2


def residue_node_count(p: Partition, charge: int, i: int) -> int:
    """Number of i-nodes of a single partition whose component carries ``charge``."""
    count = 0
    for a, part in enumerate(p, start=1):
        # residues along a row alternate, starting at charge + 1 - a
        start = (charge + 1 - a) % 2
        count += (part + 1) // 2 if start == i else part // 2
    return count


def degree_parity(lam: Multipartition, kappa: Multicharge) -> int:
    """Combinatorial parity of a multipartition: the common value, mod 2, of
    the degrees of its standard tableaux.

    Computed as the sum of the component parities plus, for each pair of
    components j < m, the number of nodes in component j whose residue equals
    the charge of component m.
    """
    check_shape(lam, kappa)
    total = sum(partition_parity(comp) for comp in lam)
    for j in range(len(lam)):
        for m in range(j + 1, len(lam)):
            total += residue_node_count(lam[j], kappa[j], kappa[m] % 2)
    return total % 2


def is_2_restricted(p: Partition) -> bool:
    """True if successive part differences (with a trailing zero) are at most 1."""
    for a, part in enumerate(p):
        below = p[a + 1] if a + 1 < len(p) else 0
        if part - below > 1:
            return False
    return True


def partitions(d: int) -> Iterator[Partition]:
    """Partitions of ``d`` in reverse-lexicographic order: (d) first, (1^d) last.

    Each partition comes from the one before it by the successor rule ZS1 of
    Zoghbi and Stojmenovic, "Fast algorithms for generating integer
    partitions": the last part above 1 drops by one, and the 1s after it
    are regrouped greedily into parts of its new size, the remainder last.
    """
    if d < 0:
        raise ValueError("size must be nonnegative")
    if d == 0:
        yield ()
        return
    x = [1] * d
    x[0] = d
    m, h = 1, 0  # number of parts; index of the last part above 1
    yield (d,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the 1 dropped from x[h] and the 1s after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def _compositions(d: int, length: int) -> Iterator[tuple[int, ...]]:
    if length == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _compositions(d - first, length - 1):
            yield (first,) + rest


def multipartitions(d: int, level: int) -> Iterator[Multipartition]:
    """All ``level``-multipartitions of ``d``, each exactly once.

    Order: size compositions (|lam^(1)|, ..., |lam^(l)|) in descending
    lexicographic order; within a composition, the Cartesian product of the
    per-component reverse-lexicographic lists, rightmost component fastest.
    Downstream matrices index by this order, so it is stable by contract.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if d < 0:
        raise ValueError("size must be nonnegative")
    for sizes in _compositions(d, level):
        pools = [list(partitions(k)) for k in sizes]
        for combo in itertools.product(*pools):
            yield combo


def format_multipartition(lam: Multipartition) -> str:
    """Textual form: parts comma-separated, components '|'-separated, '-' if empty."""
    return "|".join(",".join(map(str, comp)) if comp else "-" for comp in lam)


def parse_multipartition(text: str) -> Multipartition:
    """Inverse of :func:`format_multipartition`; also accepts surrounding blanks."""
    components = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if chunk in ("", "-"):
            components.append(())
            continue
        try:
            parts = tuple(int(s) for s in chunk.split(","))
        except ValueError:
            raise ValueError(f"malformed partition {chunk!r} in {text!r}") from None
        components.append(as_partition(parts))
    return tuple(components)


def parse_residues(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        seq = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"malformed residue sequence {text!r}") from None
    if any(i not in RESIDUES for i in seq):
        raise ValueError(f"residues must be 0 or 1, got {text!r}")
    return seq
