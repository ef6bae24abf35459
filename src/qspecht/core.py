"""Partitions, multipartitions, nodes and residues in quantum characteristic 2.

Conventions used throughout the package:

* residues live in {0, 1} (integers mod 2);
* nodes are 1-based triples ``(row, column, component)``;
* a node is *below* another if its component is larger, or the components
  agree and its row is larger;
* the i-signature lists the addable and removable i-nodes in below-order
  (first component's top row first), so signed counts are reproducible;
* :func:`steps` is the one node kernel on tuple shapes: it alone decides
  which cells are addable or removable i-nodes, and with what signed count,
  for both residues in one upward pass.  The tableau search and the
  graded-dimension pass (``specht.layer_counts``) read it;
  :func:`degree_contribution` recounts its nodes literally, for a tableau's
  degree and the sweeps' row-filled degrees.  The crystal folds the same
  run rule into its component summaries (``crystal._Interned.summary``),
  which its tests check against the literal stack reduction; the Fock space
  reads the rule from bead masks (``fock._moves``), and its tests check it
  against :func:`steps`;
* validation happens once, at the boundary: the CLI parsers and the
  exported entry points check their own arguments, through
  :func:`check_shape` (one partition tuple per integer charge, built from
  :func:`check_multipartition`, :func:`check_charge` and
  :func:`check_component_count`), :func:`check_residues`,
  :func:`check_size` and :func:`check_node`.  The kernels they hand the
  checked data to (:func:`steps`, :func:`multipartition_parity`, the
  graded-dimension pass, the tableau search, the crystal's summaries and the
  Fock moves) trust it and check nothing;
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
_INTS = (int, int, int)  # the coordinate types of a node
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
    above = p[0] if p else 0
    for part in p:
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if part > above:
            raise ValueError(f"partition parts must be weakly decreasing, got {p!r}")
        above = part
    return p


def as_multicharge(charges: Iterable[int]) -> Multicharge:
    """The CLI's charge: a nonempty tuple of residues 0 and 1."""
    kappa = tuple(charges)
    check_charge(kappa)
    if any(k not in RESIDUES for k in kappa):
        raise ValueError(f"charges must lie in {{0, 1}}, got {kappa!r}")
    return kappa


def check_charge(kappa: Multicharge) -> None:
    """Reject a charge that is not a nonempty sequence of integers; the
    library reads each entry mod 2."""
    if not kappa:
        raise ValueError("a multicharge needs at least one component")
    for k in kappa:
        if not isinstance(k, int):
            raise ValueError(f"charges must be integers, got {kappa!r}")


def check_multipartition(lam: Multipartition) -> None:
    """Reject anything but a nonempty tuple of partitions, each a tuple."""
    if not (isinstance(lam, tuple) and lam):
        raise ValueError(f"{lam!r} is not a multipartition; a level-1 shape p is (p,)")
    for comp in lam:
        if not isinstance(comp, tuple):
            raise ValueError(f"{lam!r} is not a multipartition; a level-1 shape p is (p,)")
        as_partition(comp)


def check_component_count(lam: Multipartition, kappa: Multicharge) -> None:
    """Reject a shape whose component count differs from the charge's."""
    if len(lam) != len(kappa):
        raise ValueError(f"shape has {len(lam)} components but charge has {len(kappa)}")


def check_shape(lam: Multipartition, kappa: Multicharge) -> None:
    """Reject a shape that is not one partition per integer charge."""
    check_charge(kappa)
    check_multipartition(lam)
    check_component_count(lam, kappa)


def check_size(d: int) -> None:
    """Reject a size that is not a nonnegative integer."""
    if not isinstance(d, int):
        raise ValueError(f"size must be an integer, got {d!r}")
    if d < 0:
        raise ValueError("size must be nonnegative")


def check_node(node: Node) -> None:
    """Reject a node that is not a tuple of three integer coordinates."""
    if not (isinstance(node, tuple) and len(node) == 3 and all(map(isinstance, node, _INTS))):
        raise ValueError(f"a node is a triple of integers, got {node!r}")


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


def with_node_added(lam: Multipartition, node: Node) -> Multipartition:
    check_node(node)
    a, b, m = node
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
    Summing these over the growth of a standard tableau gives its degree.
    The nodes come from :func:`steps`, whose own counts are not read, so the
    sweeps' row-filled check stays independent of them."""
    check_shape(lam, kappa)
    check_node(node)
    a0, b0, m0 = node
    comp = lam[m0 - 1] if 1 <= m0 <= len(lam) else ()
    if not (1 <= a0 <= len(comp) and 1 <= b0 <= comp[a0 - 1]):
        raise ValueError(f"node {node!r} is not in the diagram of {lam!r}")
    i = (kappa[m0 - 1] + b0 - a0) % 2
    count = 0
    for (a, _, m), mark, _ in steps(lam[m0 - 1 :], kappa[m0 - 1 :])[i]:
        if m > 1 or a > a0:
            count += 1 if mark == ADDABLE else -1
    return count


def steps(lam: Multipartition, kappa: Multicharge) -> tuple[list, list]:
    """For residues 0 and 1, ``(node, mark, count)`` for each addable ('+')
    and removable ('-') node of that residue, lowest first: for an addable
    node A the signed count of A in lam+A, for a removable one of A in lam.
    No row holds two nodes of one residue, and adding A changes only nodes
    of the other, so either count is the '+' minus the '-' strictly below A.

    One upward pass reads each row at most twice: a run of part p in rows
    a..z can only add (a, p+1) and remove (z, p), and the last row of a
    component adds (len + 1, 1).  Only the parity of a charge counts.  The
    arguments are trusted: one partition tuple per integer charge.
    """
    out: tuple[list, list] = ([], [])
    counts = [0, 0]
    for m in range(len(lam), 0, -1):
        comp, k = lam[m - 1], kappa[m - 1]
        z = len(comp)  # the last row of the run, or of the component
        i = (k - z) % 2
        out[i].append(((z + 1, 1, m), ADDABLE, counts[i]))
        counts[i] += 1
        while z:
            p = comp[z - 1]
            a = z - 1  # the rows above the run
            while a and comp[a - 1] == p:
                a -= 1
            i = (k + p - z) % 2
            out[i].append(((z, p, m), REMOVABLE, counts[i]))
            counts[i] -= 1
            i = (k + p - a) % 2
            out[i].append(((a + 1, p + 1, m), ADDABLE, counts[i]))
            counts[i] += 1
            z = a
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
    the degrees of its standard tableaux (:func:`multipartition_parity` of
    a checked shape)."""
    check_shape(lam, kappa)
    return multipartition_parity(lam, kappa)


def multipartition_parity(lam: Multipartition, kappa: Multicharge) -> int:
    """:func:`degree_parity` of a shape the caller has checked.

    Computed as the sum of the component parities plus, for each pair of
    components j < m, the number of nodes in component j whose residue equals
    the charge of component m.  Folded from the last component, so each pair
    is not recounted: ``later[i]`` is the parity of the number of components
    after j whose charge is i, and component j adds ``later[0]`` times its
    0-nodes plus ``later[1]`` times its 1-nodes, one residue count each.
    """
    total = 0
    later = [0, 0]
    for comp, k in zip(reversed(lam), reversed(kappa)):
        total += partition_parity(comp)
        if later[0] or later[1]:
            zeros = residue_node_count(comp, k, 0)
            total += later[0] * zeros + later[1] * (sum(comp) - zeros)
        later[k % 2] ^= 1
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
    check_size(d)
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
    """The ways to write d as ``length`` nonnegative parts, in descending
    lexicographic order, without recursion: the last positive part before
    the final one gives one to the next part, which also takes the final part."""
    parts = [d] + [0] * (length - 1)
    while True:
        yield tuple(parts)
        j = length - 2
        while j >= 0 and not parts[j]:
            j -= 1
        if j < 0:
            return
        parts[j] -= 1
        parts[-1], parts[j + 1] = 0, parts[-1] + 1  # j + 1 may be the last index


def multipartitions(d: int, level: int) -> Iterator[Multipartition]:
    """All ``level``-multipartitions of ``d``, each exactly once.

    Order: size compositions (|lam^(1)|, ..., |lam^(l)|) in descending
    lexicographic order; within a composition, the Cartesian product of the
    per-component reverse-lexicographic lists, rightmost component fastest.
    Downstream matrices index by this order, so it is stable by contract.
    The partitions of each size are listed once, when a composition first
    needs them.
    """
    if not isinstance(level, int) or level < 1:
        raise ValueError("level must be an integer of at least 1")
    check_size(d)
    pools: dict[int, list[Partition]] = {}
    for sizes in _compositions(d, level):
        for k in sizes:
            if k not in pools:
                pools[k] = list(partitions(k))
        yield from itertools.product(*[pools[k] for k in sizes])


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
