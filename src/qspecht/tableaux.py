"""Standard tableaux of multipartitions: enumeration, residue sequences, degrees.

A standard tableau is stored through its placement sequence: entry r sits in
``places[r-1]``, and every prefix of the placements is the Young diagram of a
multipartition.  Enumeration grows tableaux one entry at a time from the
addable nodes that :func:`core.steps` lists, tried in below-order, which fixes
a stable deterministic order, and adds each node's signed count in the grown
shape to the degree; it runs on an explicit stack, one frame per entry, so a
tableau of any size is in reach.  :func:`degree` keeps the literal prefix
recursion through :func:`core.degree_contribution`, the definition the
search and the sweeps' row-filled walk are tested against.  The module
serves the ``tableaux`` listings and :mod:`qspecht.adjustment`; no graded
dimension or sweep loads it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import (
    ADDABLE,
    RESIDUES,
    Multicharge,
    Multipartition,
    Node,
    check_component_count,
    check_residues,
    check_shape,
    degree_contribution,
    empty_multipartition,
    format_multipartition,
    multipartition_size,
    steps,
    with_node_added,
    young_nodes,
)


@dataclass(frozen=True)
class StandardTableau:
    shape: Multipartition
    places: tuple[Node, ...]

    def entry_rows(self) -> list[list[list[int]]]:
        """Entries arranged per component and row, as displayed on the diagram."""
        grid: list[list[list[int]]] = [
            [[0] * part for part in comp] for comp in self.shape
        ]
        for entry, (a, b, m) in enumerate(self.places, start=1):
            grid[m - 1][a - 1][b - 1] = entry
        return grid

    def compact(self) -> str:
        """One-line form: rows '/'-joined, components '|'-joined, '-' if empty."""
        comps = []
        for rows in self.entry_rows():
            comps.append(
                "/".join(",".join(str(e) for e in row) for row in rows) if rows else "-"
            )
        return "|".join(comps)

    def to_json(self) -> dict:
        return {
            "shape": format_multipartition(self.shape),
            "places": [list(node) for node in self.places],
        }

    def check(self) -> None:
        """Validate standardness: every placement prefix must be a diagram."""
        for _ in self._walk():
            pass

    def _walk(self) -> Iterator[tuple[Multipartition, Node]]:
        """Yield each placement with the diagram its prefix fills, then raise
        ``ValueError`` unless the last diagram is the shape.  Each diagram
        holds one node per placement, so the lengths then agree too."""
        partial = empty_multipartition(len(self.shape))
        for node in self.places:
            partial = with_node_added(partial, node)
            yield partial, node
        if partial != self.shape:
            raise ValueError("placements do not fill the shape")


def row_filled_tableau(lam: Multipartition) -> StandardTableau:
    """The tableau filling 1..d along successive rows, first component first."""
    return StandardTableau(lam, tuple(young_nodes(lam)))


def _search(
    lam: Multipartition,
    kappa: Multicharge,
    target: tuple[int, ...] | None,
) -> Iterator[tuple[tuple[Node, ...], int]]:
    """Yield (places, degree) for the standard tableaux of ``lam``.

    Each tableau grows from the addable nodes of :func:`core.steps` that lie
    inside ``lam``, and each adds its signed count in the grown shape to the
    degree; the nodes of each subdiagram are read once per search.  With
    ``target`` set, only nodes of the next residue are tried, so only
    tableaux with that residue sequence are produced.  This is for listings;
    graded dimensions come from the branching recursion in
    :mod:`qspecht.specht`, which never visits individual tableaux.
    """
    d = multipartition_size(lam)
    if d == 0:
        yield (), 0
        return
    moves_of: dict[Multipartition, list[tuple[int, int, int, int]]] = {}

    def moves(mu: Multipartition, r: int) -> Iterator[tuple[int, int, int, int]]:
        """The moves from ``mu``, a diagram of ``r`` nodes."""
        found = moves_of.get(mu)
        if found is None:
            wanted = RESIDUES if target is None else target[r : r + 1]
            both = steps(mu, kappa, wanted)
            found = moves_of[mu] = sorted(
                (m, a, b, count)
                for i in wanted
                for (a, b, m), mark, count in both[i]
                if mark == ADDABLE and a <= len(lam[m - 1]) and b <= lam[m - 1][a - 1]
            )
        return iter(found)

    # places[r] is the node of entry r + 1; stack[r] holds the diagram of the
    # first r entries, their degree and the moves from it still to try
    places: list[Node] = []
    root = empty_multipartition(len(lam))
    stack = [(root, 0, moves(root, 0))]
    while stack:
        mu, degree, pending = stack[-1]
        step = next(pending, None)
        if step is None:
            stack.pop()
            if places:
                places.pop()
            continue
        m, a, b, count = step
        places.append((a, b, m))
        if len(places) == d:
            yield tuple(places), degree + count
            places.pop()
            continue
        comp = mu[m - 1][: a - 1] + (b,) + mu[m - 1][a:]
        grown = mu[: m - 1] + (comp,) + mu[m:]
        stack.append((grown, degree + count, moves(grown, len(places))))


def standard_tableaux_with_degrees(
    lam: Multipartition, kappa: Multicharge, residues: tuple[int, ...] | None = None
) -> Iterator[tuple[StandardTableau, int]]:
    """Standard tableaux of ``lam`` with their degrees; with ``residues`` set,
    only those with that residue sequence, found by the pruned search.  The
    arguments are checked by the call, the tableaux found as they are read."""
    check_shape(lam, kappa)
    if residues is not None:
        check_residues(lam, residues)
    found = _search(lam, kappa, residues)
    return ((StandardTableau(lam, places), deg) for places, deg in found)


def residue_sequence(t: StandardTableau, kappa: Multicharge) -> tuple[int, ...]:
    """Entrywise residues of the occupied nodes.  The walk checks the
    tableau as it goes."""
    check_component_count(t.shape, kappa)
    return tuple((kappa[m - 1] + b - a) % 2 for _, (a, b, m) in t._walk())


def degree(t: StandardTableau, kappa: Multicharge) -> int:
    """Degree of a standard tableau, by the literal recursion over prefixes:
    the signed node count of the last-placed entry in the grown shape, plus
    the degree of the rest.  The walk checks the tableau as it goes."""
    check_component_count(t.shape, kappa)
    return sum(degree_contribution(partial, kappa, node) for partial, node in t._walk())
