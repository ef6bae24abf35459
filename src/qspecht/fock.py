"""The q-deformed Fock space at every level, and the level-1 canonical-basis
computation of the characteristic-0 graded decomposition matrix.

Conventions, all pinned operationally by the reconstruction identity
(column-combination of simple graded dimensions recovers every Specht graded
dimension, exactly):

* vectors are keyed by multipartitions at every level, a level-1 shape being
  ``(mu,)``;
* the divided power F_i^(k) of the i-node-adding operator (:func:`induct`)
  takes mu to one term q^e mu+S per set S of k addable i-nodes, by the
  closed formula of Lascoux-Leclerc-Thibon ("Hecke algebras at roots of
  unity and crystal bases of quantum affine algebras"): e is the sum over A
  in S of the signed count of A in mu+A, less k(k-1)/2, so no coefficient is
  divided, and at k = 1 the exponents match tableau-degree increments.  The
  count of A is the '+' minus the '-' strictly after A in the i-signature of
  mu, read off one reversed scan (:func:`core.steps`), at every level
  (Brundan-Kleshchev, "Graded decomposition numbers for cyclotomic Hecke
  algebras");
* ladders for quantum characteristic 2 are the diagonals row+column-1; each
  carries a single residue, and the top ladder of a partition is its largest
  diagonal.  Top ladders, and so :func:`canonical_basis`, are level-1 only;
* canonical-basis elements are computed size by size, per 2-restricted
  shape in descending reverse-lexicographic order (a linear extension of
  dominance).  The vector of mu starts as the divided power F_i^(k) of the
  finished vector of mu with its top ladder of k nodes of residue i removed
  (the recursive form of Lascoux-Leclerc-Thibon), then bar-symmetric
  multiples of earlier elements of the same size are subtracted until every
  off-leading coefficient has positive exponents only;
* the moves of mu under F_i^(k), its (mu+S, e) pairs, depend on mu, the
  charge, i and k only.  They are memoized by (charge, i) and then
  (shape, k) in ``move_memo``, a :class:`core.CallMemo` that
  :func:`canonical_basis` holds; before each size is built, the shapes
  smaller than the smallest start vector of that size are dropped.

Any convention mismatch surfaces as :class:`InternalConsistencyError`, never
as silently wrong numbers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .core import (
    ADDABLE,
    CallMemo,
    Multicharge,
    Multipartition,
    as_partition,
    format_multipartition,
    is_2_restricted,
    multipartition_size,
    multipartitions,
    steps,
)
from .laurent import LaurentPoly, ONE, ZERO


class InternalConsistencyError(Exception):
    """A structural assumption failed; indicates a convention bug upstream."""


def _key(mu: Multipartition) -> Multipartition:
    """``mu``, which must be a tuple of partitions: a bare partition, or a
    component that is not a partition, is refused."""
    if not mu or not all(isinstance(comp, tuple) for comp in mu):
        raise ValueError(f"{mu!r} is not a multipartition; a level-1 shape p is (p,)")
    for comp in mu:
        as_partition(comp)
    return mu


class FockVector:
    """Finitely supported map from multipartitions to Laurent polynomials."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Multipartition, LaurentPoly]
        | Iterable[tuple[Multipartition, LaurentPoly]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Multipartition, LaurentPoly] = {}
        for mu, coeff in items:
            if coeff:
                acc = clean.get(_key(mu))
                total = coeff if acc is None else acc + coeff
                if total:
                    clean[mu] = total
                elif mu in clean:
                    del clean[mu]
        self._terms = clean

    @classmethod
    def _adopt(cls, terms: dict[Multipartition, LaurentPoly]) -> "FockVector":
        """Take ``terms``, which has no zero coefficient, without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def basis(cls, mu: Multipartition) -> "FockVector":
        return cls({mu: ONE})

    def coefficient(self, mu: Multipartition) -> LaurentPoly:
        return self._terms.get(_key(mu), ZERO)

    def support(self) -> tuple[Multipartition, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def items(self) -> Iterator[tuple[Multipartition, LaurentPoly]]:
        for mu in self.support():
            yield mu, self._terms[mu]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._terms == other._terms

    def sub_scaled(self, gamma: LaurentPoly, other: "FockVector") -> "FockVector":
        """``self - gamma * other`` in one pass over the terms of ``other``,
        each coefficient built once, with no intermediate product."""
        scale = [(e, -x) for e, x in gamma.terms()]
        terms = dict(self._terms)
        for mu, c in other._terms.items():
            old = terms.get(mu)
            acc = dict(old.terms()) if old is not None else {}
            product = c.terms()
            for e1, x1 in scale:
                for e2, x2 in product:
                    e = e1 + e2
                    total = acc.get(e, 0) + x1 * x2
                    if total:
                        acc[e] = total
                    else:
                        del acc[e]
            if acc:
                terms[mu] = LaurentPoly.from_clean(acc)
            elif old is not None:
                del terms[mu]
        return FockVector._adopt(terms)

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})|{format_multipartition(mu)}>" for mu, c in self.items())
        return f"FockVector<{inner or '0'}>"


Moves = list[tuple[Multipartition, int]]
# state[kappa, i] maps each (shape, k) to its moves under F_i^(k).
move_memo: CallMemo[dict[tuple[Multicharge, int], dict]] = CallMemo("qspecht_fock_moves", dict)


def _moves(mu: Multipartition, kappa: Multicharge, i: int, k: int) -> Moves:
    """``(mu+S, exponent)`` for each set S of k addable i-nodes of ``mu``,
    the exponent being the sum of the signed counts of the nodes of S less
    k(k-1)/2."""
    plus = [(node, count) for node, mark, count in steps(mu, kappa, i) if mark == ADDABLE]
    overlap = k * (k - 1) // 2
    out = []
    for chosen in combinations(plus, k):
        grown = mu
        for (a, b, m), _ in chosen:
            comp = grown[m - 1]
            comp = comp + (1,) if b == 1 else comp[: a - 1] + (b,) + comp[a:]
            grown = grown[: m - 1] + (comp,) + grown[m:]
        out.append((grown, sum(count for _, count in chosen) - overlap))
    return out


def induct(v: FockVector, kappa: Multicharge, i: int, k: int = 1) -> FockVector:
    """Apply the divided power F_i^(k) to every term, by the closed formula
    of the module docstring; k = 1 is the i-node-adding operator and k = 0
    the identity.  Each coefficient's exponents are shifted, not multiplied.
    The moves are read from ``move_memo``.
    """
    if k < 0:
        raise ValueError("the power must be nonnegative")
    if k == 0:
        return v
    shapes = move_memo.get().setdefault((tuple(kappa), i), {})
    acc: dict[Multipartition, dict[int, int]] = {}
    for mu, c in v._terms.items():
        moves = shapes.get((mu, k))
        if moves is None:
            moves = shapes[mu, k] = _moves(mu, kappa, i, k)
        terms = c.terms()
        for grown, count in moves:
            target = acc.get(grown)
            if target is None:
                acc[grown] = {e + count: x for e, x in terms}
            else:
                for e, x in terms:
                    e += count
                    total = target.get(e, 0) + x
                    if total:
                        target[e] = total
                    else:
                        del target[e]
    return FockVector._adopt(
        {mu: LaurentPoly.from_clean(poly) for mu, poly in acc.items() if poly}
    )


def _top_ladder(mu: Multipartition, charge: int) -> tuple[Multipartition, int, int]:
    """``(mu_minus, i, k)``: the level-1 shape ``mu`` with its top ladder
    removed, the residue of that ladder and its length.

    The top ladder is the k nodes on the largest diagonal a+b-1 of ``mu``.
    Each ends its row, since the next node of the row would lie on a larger
    diagonal, and all of them have residue i.  Removing them from a
    2-restricted partition leaves a 2-restricted one.
    """
    (lam,) = mu
    top = max(a + part - 1 for a, part in enumerate(lam, start=1))
    minus: list[int] = []
    k = 0
    for a, part in enumerate(lam, start=1):
        if a + part - 1 == top:
            k += 1
            part -= 1
        if part:
            minus.append(part)
    return (tuple(minus),), (charge + top + 1) % 2, k


def _bar_symmetric_low_part(c: LaurentPoly) -> LaurentPoly:
    """The unique bar-symmetric polynomial matching ``c`` in degrees <= 0."""
    low: dict[int, int] = {}
    for e, x in c.terms():
        if e <= 0:
            low[e] = low[-e] = x
    return LaurentPoly.from_clean(low)


def _reduce(
    mu: Multipartition, v: FockVector, earlier: list[tuple[Multipartition, FockVector]]
) -> FockVector:
    """The canonical vector of ``mu``, from a bar-invariant ``v`` with
    coefficient 1 at ``mu``: subtract bar-symmetric multiples of the
    ``earlier`` canonical vectors of the same size until no coefficient at
    their indices has a nonpositive exponent, then check the result."""
    rounds = 0
    while True:
        offender = None
        for nu, g in reversed(earlier):  # least dominant candidates first
            c = v._terms.get(nu)
            if c is not None and c.min_exponent() <= 0:
                offender = g
                break
        if offender is None:
            break
        v = v.sub_scaled(_bar_symmetric_low_part(c), offender)
        rounds += 1
        if rounds > 2 * len(earlier) + 2:
            raise InternalConsistencyError(f"elimination for {mu} did not terminate")
    lead = v._terms.get(mu, ZERO)
    if lead != ONE:
        raise InternalConsistencyError(f"leading coefficient at {mu} is {lead}, expected 1")
    for nu, c in v._terms.items():
        if nu != mu and (c.min_exponent() < 1 or any(x < 0 for _, x in c.terms())):
            raise InternalConsistencyError(
                f"coefficient {c} at {nu} in the vector for {mu} "
                "is outside q-positive range"
            )
    return v


def canonical_basis(
    d: int, kappa: Multicharge = (0,)
) -> list[tuple[Multipartition, FockVector]]:
    """Canonical-basis vectors indexed by the shapes ``(mu,)`` with mu a
    2-restricted partition of d, in descending reverse-lexicographic order.

    Each returned vector has coefficient exactly 1 at its index, all other
    coefficients with positive exponents and nonnegative integer terms.
    The columns of every size up to d are built in turn.  Column mu starts
    from F_i^(k) applied to the finished vector of mu with its top ladder
    removed, which is held only until the last column that starts from it.
    The moves of each shape are computed once for the call, in ``move_memo``.
    """
    if len(kappa) != 1:
        raise ValueError("the canonical-basis computation is level-1 only")
    if d < 0:
        raise ValueError("size must be nonnegative")
    sizes = [
        [(mu, _top_ladder(mu, kappa[0])) for mu in multipartitions(s, 1) if is_2_restricted(*mu)]
        for s in range(1, d + 1)
    ]
    uses = Counter(minus for size in sizes for _, (minus, _, _) in size)
    empty = ((),)
    held = {empty: FockVector.basis(empty)}  # finished vectors
    columns = [(empty, held[empty])]  # the one column of size 0
    with move_memo.held() as table:
        for size in sizes:
            # the columns of this size induct no shape smaller than low
            low = min(multipartition_size(minus) for _, (minus, _, _) in size)
            for shapes in table.values():
                for key in [key for key in shapes if multipartition_size(key[0]) < low]:
                    del shapes[key]
            columns = []
            for mu, (minus, i, k) in size:
                if minus not in held:
                    raise InternalConsistencyError(
                        f"the vector of {minus}, which the column {mu} starts from, is not held"
                    )
                v = induct(held[minus], kappa, i, k)
                uses[minus] -= 1
                if not uses[minus]:
                    del held[minus]
                columns.append((mu, _reduce(mu, v, columns)))
            held.update((mu, v) for mu, v in columns if uses[mu])
    return columns


@dataclass(frozen=True)
class GradedDecompositionMatrix:
    """Sparse matrix of graded decomposition numbers, with fixed index orders:
    rows are all shapes ``(lam,)`` with lam a partition of d and columns the
    2-restricted ones, both in descending reverse-lexicographic order."""

    rows: tuple[Multipartition, ...]
    cols: tuple[Multipartition, ...]
    entries: dict[tuple[Multipartition, Multipartition], LaurentPoly]

    @cached_property
    def _row_of(self) -> dict[Multipartition, int]:
        return {lam: r for r, lam in enumerate(self.rows)}

    @cached_property
    def _col_of(self) -> dict[Multipartition, int]:
        return {mu: c for c, mu in enumerate(self.cols)}

    def entry(self, lam: Multipartition, mu: Multipartition) -> LaurentPoly:
        """The entry at (lam, mu); ``KeyError`` if lam is no row or mu no column."""
        if lam not in self._row_of or mu not in self._col_of:
            raise KeyError(f"({lam!r}, {mu!r}) is not a cell of this matrix")
        return self.entries.get((lam, mu), ZERO)

    def row(self, lam: Multipartition) -> list[LaurentPoly]:
        return [self.entry(lam, mu) for mu in self.cols]

    def nonzero_cells(self) -> list[tuple[int, int, LaurentPoly]]:
        """(row index, column index, entry) of every nonzero entry, in
        row-major order."""
        row_of, col_of = self._row_of, self._col_of
        return sorted(
            (row_of[lam], col_of[mu], entry) for (lam, mu), entry in self.entries.items() if entry
        )

    def to_json(self) -> dict:
        cells: list[list[list]] = [[[] for _ in self.cols] for _ in self.rows]
        for r, c, entry in self.nonzero_cells():
            cells[r][c] = entry.to_pairs()
        return {
            "rows": [format_multipartition(lam) for lam in self.rows],
            "cols": [format_multipartition(mu) for mu in self.cols],
            "entries": cells,
        }


def decomposition_matrix(d: int, kappa: Multicharge = (0,)) -> GradedDecompositionMatrix:
    """Characteristic-0 graded decomposition matrix from the canonical basis."""
    basis = canonical_basis(d, kappa)
    rows = tuple(multipartitions(d, 1))
    cols = tuple(mu for mu, _ in basis)
    entries = {(lam, mu): c for mu, vector in basis for lam, c in vector._terms.items()}
    return GradedDecompositionMatrix(rows=rows, cols=cols, entries=entries)


def simple_qdims(
    matrix: GradedDecompositionMatrix, kappa: Multicharge = (0,)
) -> dict[Multipartition, LaurentPoly]:
    """Graded dimensions of the simple modules in characteristic 0, solved by
    back-substitution through the unitriangular decomposition system of
    ``matrix``, which fixes the size.  The Specht graded dimensions of the
    columns share one memo."""
    from .specht import qdim_memo, qdim_specht

    with qdim_memo.held():
        spechts = {mu: qdim_specht(mu, kappa) for mu in matrix.cols}
    simples: dict[Multipartition, LaurentPoly] = {}
    for mu in reversed(matrix.cols):  # ascending dominance
        total = spechts[mu]
        for nu in matrix.cols:
            if nu != mu and (mu, nu) in matrix.entries:
                if nu not in simples:
                    raise InternalConsistencyError(
                        f"entry ({mu}, {nu}) breaks unitriangularity"
                    )
                total = total - matrix.entries[(mu, nu)] * simples[nu]
        if any(c < 0 for _, c in total.to_pairs()):
            raise InternalConsistencyError(
                f"solved graded dimension for {mu} has negative coefficients: {total}"
            )
        simples[mu] = total
    return simples
