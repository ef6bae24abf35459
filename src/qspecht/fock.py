"""Level-1 q-deformed Fock space and the canonical-basis computation of the
characteristic-0 graded decomposition matrix.

Conventions, all pinned operationally by the reconstruction identity
(column-combination of simple graded dimensions recovers every Specht graded
dimension, exactly):

* the node-adding operator contributes q^(signed node count of the added node
  in the grown shape), so monomial exponents match tableau-degree increments;
  every such count is read off one reversed scan of the i-signature of the
  shape before the node is added (see :func:`induct`);
* ladders for quantum characteristic 2 are the diagonals row+column-1, read
  in increasing order; each carries a single residue;
* canonical-basis elements are computed per 2-restricted shape in descending
  reverse-lexicographic order (a linear extension of dominance), subtracting
  bar-symmetric multiples of earlier elements until every off-leading
  coefficient has positive exponents only.  Each column continues the
  previous column's ladder path from the longest common prefix of the two
  ladder words, so no prefix is induced twice.

Any convention mismatch surfaces as :class:`InternalConsistencyError`, never
as silently wrong numbers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .core import REMOVABLE, Multicharge, Partition, is_2_restricted, partitions, signature
from .laurent import LaurentPoly, ONE, ZERO, q_factorial


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
    def _adopt(cls, terms: dict[Partition, LaurentPoly]) -> "FockVector":
        """Take ``terms``, which has no zero coefficient, without copying it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

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
        return FockVector._adopt(terms)

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

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self.sub_scaled(ONE, other)

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
    """Apply the q-deformed i-node-adding operator to every term.

    Adding the i-node A to mu contributes q^(signed count of A in mu+A).  An
    addable and a removable i-node never share a row, and adding A changes
    only nodes of the other residue, so that count is the number of '+'
    minus the number of '-' strictly after A in the i-signature of mu.  One
    reversed scan of the signature gives every shift, and each coefficient's
    exponents are shifted, not multiplied.
    """
    _require_level_one(kappa)
    acc: dict[Partition, dict[int, int]] = {}
    for mu, c in v._terms.items():
        terms = c.terms()
        count = 0
        for (a, b, _), mark in reversed(signature((mu,), kappa, i)):
            if mark == REMOVABLE:
                count -= 1
                continue
            grown = mu + (1,) if b == 1 else mu[: a - 1] + (b,) + mu[a:]
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
            count += 1
    return FockVector._adopt(
        {mu: LaurentPoly.from_clean(poly) for mu, poly in acc.items() if poly}
    )


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
    for mu, c in out._terms.items():
        try:
            divided[mu] = c.exact_div(divisor)
        except ValueError as exc:
            raise InternalConsistencyError(
                f"coefficient {c} of {mu} is not divisible by [{k}]!"
            ) from exc
    return FockVector._adopt(divided)


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


def _ladder_vectors(
    columns: list[Partition], kappa: Multicharge
) -> Iterator[tuple[Partition, FockVector]]:
    """``(mu, v)`` for each column, in order, where ``v`` is the divided-power
    induction along the ladder word of ``mu`` from the empty diagram.

    Each column continues from the vectors of the ladder-word prefix it
    shares with the previous column, and keeps only those of the prefix it
    shares with the next one.  In reverse-lexicographic order the columns
    through any prefix are consecutive, so no prefix is induced twice, and
    at most one word's vectors are held.
    """
    words = [ladder_word(mu, kappa[0]) for mu in columns]
    path: list[FockVector] = []  # the vectors of the prefix shared with this word
    for j, (mu, word) in enumerate(zip(columns, words)):
        following = words[j + 1] if j + 1 < len(words) else []
        shared = 0
        while shared < min(len(word), len(following)) and word[shared] == following[shared]:
            shared += 1
        v = path[-1] if path else FockVector.basis(())
        for n in range(len(path), len(word)):
            i, k = word[n]
            v = divided_induct(v, kappa, i, k)
            if n < shared:
                path.append(v)
        del path[shared:]
        yield mu, v


def _bar_symmetric_low_part(c: LaurentPoly) -> LaurentPoly:
    """The unique bar-symmetric polynomial matching ``c`` in degrees <= 0."""
    low: dict[int, int] = {}
    for e, x in c.terms():
        if e <= 0:
            low[e] = low[-e] = x
    return LaurentPoly.from_clean(low)


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
    for mu, v in _ladder_vectors(restricted, kappa):
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
            v = v.sub_scaled(_bar_symmetric_low_part(v.coefficient(offender)), built[offender])
            steps += 1
            if steps > 2 * len(order) + 2:
                raise InternalConsistencyError(
                    f"elimination for {mu} did not terminate"
                )
        if v.coefficient(mu) != ONE:
            raise InternalConsistencyError(
                f"leading coefficient at {mu} is {v.coefficient(mu)}, expected 1"
            )
        for nu, c in v._terms.items():
            if nu != mu and (c.min_exponent() < 1 or any(x < 0 for _, x in c.terms())):
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
