"""Level-1 q-deformed Fock space and the canonical-basis computation of the
characteristic-0 graded decomposition matrix.

Conventions, all pinned operationally by the reconstruction identity
(column-combination of simple graded dimensions recovers every Specht graded
dimension, exactly):

* the node-adding operator contributes q^(signed node count of the added node
  in the grown shape), so monomial exponents match tableau-degree increments;
* ladders for quantum characteristic 2 are the diagonals row+column-1, read
  in increasing order; each carries a single residue;
* canonical-basis elements are computed per 2-restricted shape in descending
  reverse-lexicographic order (a linear extension of dominance), subtracting
  bar-symmetric multiples of earlier elements until every off-leading
  coefficient has positive exponents only.

Any convention mismatch surfaces as :class:`InternalConsistencyError`, never
as silently wrong numbers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .core import (
    Multicharge,
    Partition,
    addable_nodes,
    degree_contribution,
    is_2_restricted,
    partitions,
    with_node_added,
)
from .laurent import LaurentPoly, ONE, ZERO, q_factorial, q_power


class InternalConsistencyError(Exception):
    """A structural assumption failed; indicates a convention bug upstream."""


def _require_level_one(kappa: Multicharge) -> None:
    if len(kappa) != 1:
        raise ValueError("Fock-space operations are implemented for level 1 only")


class FockVector:
    """Finitely supported map from partitions to Laurent polynomials."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Partition, LaurentPoly] | Iterable[tuple[Partition, LaurentPoly]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Partition, LaurentPoly] = {}
        for mu, coeff in items:
            if coeff:
                acc = clean.get(mu)
                total = coeff if acc is None else acc + coeff
                if total:
                    clean[mu] = total
                elif mu in clean:
                    del clean[mu]
        self._terms = clean

    @classmethod
    def basis(cls, mu: Partition) -> "FockVector":
        return cls({mu: ONE})

    def coefficient(self, mu: Partition) -> LaurentPoly:
        return self._terms.get(mu, ZERO)

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self._terms, reverse=True))

    def items(self) -> Iterator[tuple[Partition, LaurentPoly]]:
        for mu in self.support():
            yield mu, self._terms[mu]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "FockVector") -> "FockVector":
        terms = dict(self._terms)
        for mu, c in other._terms.items():
            total = terms.get(mu, ZERO) + c
            if total:
                terms[mu] = total
            elif mu in terms:
                del terms[mu]
        out = FockVector.__new__(FockVector)
        out._terms = terms
        return out

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1) * other

    def __mul__(self, scalar: LaurentPoly | int) -> "FockVector":
        if isinstance(scalar, int):
            scalar = LaurentPoly({0: scalar})
        if not isinstance(scalar, LaurentPoly):
            return NotImplemented
        return FockVector({mu: c * scalar for mu, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})|{list(mu)}>" for mu, c in self.items())
        return f"FockVector<{inner or '0'}>"


def induct(v: FockVector, kappa: Multicharge, i: int) -> FockVector:
    """Apply the q-deformed i-node-adding operator to every term."""
    _require_level_one(kappa)
    acc: dict[Partition, LaurentPoly] = {}
    for mu, c in v.items():
        for node in addable_nodes((mu,), kappa, i):
            grown = with_node_added((mu,), node)
            weight = c * q_power(degree_contribution(grown, kappa, node))
            target = grown[0]
            total = acc.get(target, ZERO) + weight
            if total:
                acc[target] = total
            elif target in acc:
                del acc[target]
    return FockVector(acc)


def divided_induct(v: FockVector, kappa: Multicharge, i: int, k: int) -> FockVector:
    """k-fold node adding divided by the balanced q-factorial [k]!.

    Every coefficient must divide exactly; failure means the operator
    convention is broken somewhere.
    """
    if k < 0:
        raise ValueError("the power must be nonnegative")
    _require_level_one(kappa)
    out = v
    for _ in range(k):
        out = induct(out, kappa, i)
    if k < 2:
        return out
    divisor = q_factorial(k)
    divided: dict[Partition, LaurentPoly] = {}
    for mu, c in out.items():
        try:
            divided[mu] = c.exact_div(divisor)
        except ValueError as exc:
            raise InternalConsistencyError(
                f"coefficient {c} of {mu} is not divisible by [{k}]!"
            ) from exc
    return FockVector(divided)


def ladder_word(mu: Partition, charge: int = 0) -> list[tuple[int, int]]:
    """(residue, multiplicity) pairs describing the diagram ladder by ladder.

    Nodes (a, b) with equal a+b-1 form one ladder; ladders are read in
    increasing order and each carries a constant residue.  Feeding the word to
    :func:`divided_induct` from the empty vector produces a vector with
    leading coefficient 1 at ``mu``.
    """
    if not is_2_restricted(mu):
        raise ValueError(f"{mu!r} is not 2-restricted")
    counts: dict[int, int] = {}
    for a, part in enumerate(mu, start=1):
        for b in range(1, part + 1):
            ladder = a + b - 1
            counts[ladder] = counts.get(ladder, 0) + 1
    return [((charge + ladder + 1) % 2, counts[ladder]) for ladder in sorted(counts)]


def ladder_vector(mu: Partition, kappa: Multicharge = (0,)) -> FockVector:
    """Divided-power induction along the ladder word, from the empty diagram."""
    _require_level_one(kappa)
    v = FockVector.basis(())
    for i, k in ladder_word(mu, kappa[0]):
        v = divided_induct(v, kappa, i, k)
    return v


def _bar_symmetric_low_part(c: LaurentPoly) -> LaurentPoly:
    """The unique bar-symmetric polynomial matching ``c`` in degrees <= 0."""
    gamma = LaurentPoly({0: c.coefficient(0)})
    for e in c.support():
        if e < 0:
            gamma = gamma + LaurentPoly({e: c.coefficient(e), -e: c.coefficient(e)})
    return gamma


def canonical_basis(
    d: int, kappa: Multicharge = (0,)
) -> list[tuple[Partition, FockVector]]:
    """Canonical-basis vectors indexed by the 2-restricted partitions of d,
    in descending reverse-lexicographic order.

    Each returned vector has coefficient exactly 1 at its index, all other
    coefficients with positive exponents and nonnegative integer terms.
    """
    _require_level_one(kappa)
    restricted = [p for p in partitions(d) if is_2_restricted(p)]
    built: dict[Partition, FockVector] = {}
    order: list[Partition] = []
    out: list[tuple[Partition, FockVector]] = []
    for mu in restricted:
        v = ladder_vector(mu, kappa)
        steps = 0
        while True:
            offender = None
            for nu in reversed(order):  # least dominant candidates first
                c = v.coefficient(nu)
                if c and c.min_exponent() <= 0:
                    offender = nu
                    break
            if offender is None:
                break
            v = v - _bar_symmetric_low_part(v.coefficient(offender)) * built[offender]
            steps += 1
            if steps > 2 * len(order) + 2:
                raise InternalConsistencyError(
                    f"elimination for {mu} did not terminate"
                )
        if v.coefficient(mu) != ONE:
            raise InternalConsistencyError(
                f"leading coefficient at {mu} is {v.coefficient(mu)}, expected 1"
            )
        for nu, c in v.items():
            if nu != mu and (c.min_exponent() < 1 or any(x < 0 for _, x in c.to_pairs())):
                raise InternalConsistencyError(
                    f"coefficient {c} at {nu} in the vector for {mu} "
                    "is outside q-positive range"
                )
        built[mu] = v
        order.append(mu)
        out.append((mu, v))
    return out


@dataclass(frozen=True)
class GradedDecompositionMatrix:
    """Sparse matrix of graded decomposition numbers, with fixed index orders:
    rows are all partitions of d and columns the 2-restricted ones, both in
    descending reverse-lexicographic order."""

    rows: tuple[Partition, ...]
    cols: tuple[Partition, ...]
    entries: dict[tuple[Partition, Partition], LaurentPoly]

    def entry(self, lam: Partition, mu: Partition) -> LaurentPoly:
        return self.entries.get((lam, mu), ZERO)

    def row(self, lam: Partition) -> list[LaurentPoly]:
        return [self.entry(lam, mu) for mu in self.cols]

    def to_json(self) -> dict:
        return {
            "rows": [",".join(map(str, lam)) if lam else "-" for lam in self.rows],
            "cols": [",".join(map(str, mu)) if mu else "-" for mu in self.cols],
            "entries": [
                [self.entry(lam, mu).to_pairs() for mu in self.cols]
                for lam in self.rows
            ],
        }


def decomposition_matrix(d: int, kappa: Multicharge = (0,)) -> GradedDecompositionMatrix:
    """Characteristic-0 graded decomposition matrix from the canonical basis."""
    rows = tuple(partitions(d))
    basis = canonical_basis(d, kappa)
    cols = tuple(mu for mu, _ in basis)
    entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
    for mu, vector in basis:
        for lam, c in vector.items():
            entries[(lam, mu)] = c
    return GradedDecompositionMatrix(rows=rows, cols=cols, entries=entries)


def simple_qdims(
    d: int, kappa: Multicharge = (0,), matrix: GradedDecompositionMatrix | None = None
) -> dict[Partition, LaurentPoly]:
    """Graded dimensions of the simple modules in characteristic 0, solved by
    back-substitution through the unitriangular decomposition system.  The
    Specht graded dimensions of the columns share one memo."""
    from .specht import _shared_memo, qdim_specht

    _require_level_one(kappa)
    if matrix is None:
        matrix = decomposition_matrix(d, kappa)
    with _shared_memo():
        spechts = {mu: qdim_specht((mu,), kappa) for mu in matrix.cols}
    simples: dict[Partition, LaurentPoly] = {}
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
