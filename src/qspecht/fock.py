"""The q-deformed Fock space at every level, and the level-1 canonical-basis
computation of the characteristic-0 graded decomposition matrix.

Conventions, all pinned operationally by the reconstruction identity
(column-combination of simple graded dimensions recovers every Specht graded
dimension, exactly):

* vectors are keyed by multipartitions at every level, a level-1 shape being
  ``(mu,)``; the public methods take and return these tuples and
  :class:`LaurentPoly` coefficients;
* inside, a shape is a bead mask, one Python ``int``.  A layout holds the
  shapes of one level and of size at most D (a power of two, at least 8):
  component m keeps N = D+1 beads in a window of M = N+D+1 bits at offset
  (level-m)*M, its bead j at lam_j - j + N.  The window's top bit is always
  empty and its bit 0 always holds a bead.  Moving a bead from p to p+1
  (``x ^ 3 << p``) adds a node of residue charge+p+1-N; the beads with an
  empty bit above are the addable nodes, those with an empty bit below the
  removable ones, and a lower bit is a node below, so "below" needs no
  comparison of coordinates;
* inside, a coefficient sum c_e q^e is the Kronecker code
  sum c_e 2^(32(e+off)), the digit offset off of a vector being at least 8
  and at least minus its lowest exponent: one 32-bit digit per exponent,
  read balanced (a digit of 2^31 or more borrows one from the next).
  Multiplying by q^s is a shift by 32s bits, a bar-symmetric multiple is
  one multiplication, and "some exponent <= 0" is ``x & low`` with
  low = 2^(32(off+1)) - 1.  Two guards keep the codes exact.  The shift
  guard: before a shift or product could drop a nonzero digit below
  q^-off, a mask test sees it, and the vector is recoded at a larger offset
  first.  The digit guard: each vector carries a bound below 2^30 on the
  magnitude of its digits, exact when it is built from coefficients or
  checked as a canonical vector.  Before :func:`induct` or
  :meth:`FockVector.sub_scaled` sums codes, it bounds the digits of the
  sum from those of its inputs; a bound of 2^30 or more is first replaced
  by the exact one, read from the decoded digits, and raises if it still
  reaches 2^30.  So no digit ever reaches 2^31, where it would carry into
  the next exponent unseen, and a decoded digit of magnitude 2^30 or more
  raises too;
* the divided power F_i^(k) of the i-node-adding operator (:func:`induct`)
  takes mu to one term q^e mu+S per set S of k addable i-nodes, by the
  closed formula of Lascoux-Leclerc-Thibon ("Hecke algebras at roots of
  unity and crystal bases of quantum affine algebras"): e is the sum over A
  in S of the signed count of A in mu+A, less k(k-1)/2, so no coefficient is
  divided, and at k = 1 the exponents match tableau-degree increments.  The
  count of A is the '+' minus the '-' strictly after A in the i-signature of
  mu (Brundan-Kleshchev, "Graded decomposition numbers for cyclotomic Hecke
  algebras"): the addable i-beads on the bits below A's, which is A's index
  among them, less the removable ones, an ``int.bit_count()``.  The tuple
  form of this rule, read from :func:`core.steps`, is the test oracle of the
  bead kernel;
* ladders for quantum characteristic 2 are the diagonals row+column-1; each
  carries a single residue, and the top ladder of a partition is its largest
  diagonal.  Top ladders, and so :func:`canonical_basis`, are level-1 only;
* canonical-basis elements are computed size by size, per 2-restricted
  shape in descending reverse-lexicographic order (a linear extension of
  dominance), as :func:`core.partitions` lists them and
  :func:`core.is_2_restricted` keeps them.  The vector of mu starts as the
  divided power F_i^(k) of the finished vector of mu with its top ladder of
  k nodes of residue i removed (the recursive form of Lascoux-Leclerc-Thibon),
  then one pass over the earlier elements of the same size, least dominant
  first, subtracts a bar-symmetric multiple of each whose index still has a
  coefficient with an exponent <= 0, which on the codes is
  ``x & low != 0``.  One pass suffices: each element is supported on its
  index and on shapes after it in tuple order, so no subtraction reopens an
  index already passed;
* the moves of a bead mask under F_i^(k) depend on the layout, the charge,
  i and k only.  They are memoized by (layout, charge, i, k) in one dict of
  ``move_memo``, a :class:`core.CallMemo` that :func:`canonical_basis`
  holds, and cleared before each size of columns: the moves of a mask of
  size m under F_i^(k) are read only by the columns of size m+k.

Any convention mismatch surfaces as :class:`InternalConsistencyError`, never
as silently wrong numbers.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping
from functools import reduce
from itertools import combinations, zip_longest
from operator import or_

from .core import (
    RESIDUES,
    CallMemo,
    Multicharge,
    Multipartition,
    check_charge,
    check_component_count,
    check_multipartition,
    check_shape,
    check_size,
    empty_multipartition,
    format_multipartition,
    is_2_restricted,
    multipartition_size,
    multipartitions,
    partitions,
)
from .laurent import LaurentPoly, ONE, ZERO


class InternalConsistencyError(Exception):
    """A structural assumption failed; indicates a convention bug upstream."""


_DIGIT = 32  # bits per Kronecker digit
_OFF = 8  # the least digit offset: q^e is the digit e + offset
_GUARD = 1 << 30  # every digit is smaller in magnitude


def _code(poly: LaurentPoly, off: int) -> int:
    """The Kronecker code of ``poly`` at the digit offset ``off``, which must
    be at least minus its lowest exponent; each coefficient must be smaller
    than 2^30 in magnitude."""
    x = 0
    for e, c in poly.terms():
        if not -_GUARD < c < _GUARD:
            raise ValueError(f"a coefficient of {poly} is 2^30 or more in magnitude")
        x += c << _DIGIT * (e + off)
    return x


def _poly(x: int, off: int) -> LaurentPoly:
    """The Laurent polynomial of the code ``x`` at the digit offset ``off``,
    read digit by digit from the lowest nonzero one; a digit of magnitude
    2^30 or more raises."""
    if not x:
        return ZERO
    digit = ((x & -x).bit_length() - 1) // _DIGIT
    x >>= _DIGIT * digit
    terms = {}
    e = digit - off
    while x:
        c = x & 0xFFFFFFFF
        if c >> 31:
            c -= 1 << 32
        if c:
            if not -_GUARD < c < _GUARD:
                raise InternalConsistencyError(
                    f"the digit of q^{e} is {c}, past the guard of 2^30"
                )
            terms[e] = c
            x -= c
        x >>= _DIGIT
        e += 1
    return LaurentPoly.from_clean(terms)


def _top_word(x: int) -> int:
    """The largest unsigned 32-bit word of the nonnegative ``x``."""
    words = x.to_bytes(-(-x.bit_length() // _DIGIT) * 4, sys.byteorder)
    return max(memoryview(words).cast("I"), default=0)


class _Beads:
    """The bead masks of the level-``level`` multipartitions of size at most
    ``cap``, as laid out in the module docstring.  A layout is a value: it
    holds its geometry and nothing else, two layouts of one level and
    capacity are equal, and ``move_memo`` keys its tables by (level, cap)."""

    __slots__ = ("level", "cap", "beads", "width", "empty")

    def __init__(self, level: int, cap: int):
        self.level, self.cap = level, cap
        self.beads = n = cap + 1
        self.width = w = n + cap + 1
        self.empty = sum(((1 << n) - 1) << m * w for m in range(level))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Beads):
            return NotImplemented
        return self.level == other.level and self.cap == other.cap

    def code(self, mu: Multipartition) -> int:
        """The mask of ``mu``, which must have this level and size at most
        ``cap``: bead j of each component moved up by its part."""
        x = self.empty
        for m, comp in enumerate(reversed(mu)):
            top = m * self.width + self.beads
            x -= (1 << top) - (1 << top - len(comp))  # lift the first len(comp) beads
            for j, part in enumerate(comp, 1):
                x |= 1 << top + part - j
        return x

    def shape(self, x: int) -> Multipartition:
        """The multipartition of the mask ``x``."""
        window = (1 << self.width) - 1
        comps = []
        for m in range(self.level - 1, -1, -1):
            beads = x >> m * self.width & window
            parts: list[int] = []
            while (part := beads.bit_length() - self.beads + len(parts)) > 0:
                parts.append(part)
                beads ^= 1 << beads.bit_length() - 1
            comps.append(tuple(parts))
        return tuple(comps)

    def masks(self, kappa: Multicharge, i: int) -> tuple[int, int]:
        """``(add, rem)``: the bead positions whose move up adds an i-node,
        the p of parity (charge+1-N-i) mod 2 below the window's top bit, and
        those whose move down removes one, the others above bit 0.  The
        width is even, so ``(2^width - 1) // 3`` is a window's even bits."""
        w = self.width
        even = ((1 << w) - 1) // 3
        add = rem = 0
        for m, charge in enumerate(reversed(kappa)):
            parity = (charge + 1 - self.beads - i) % 2
            add |= ((even << parity) & ((1 << w - 1) - 1)) << m * w
            rem |= ((even << 1 - parity) & ~1) << m * w
        return add, rem


def _moves(x: int, add: int, rem: int, k: int) -> list[tuple[int, int]]:
    """``(mask of x+S, exponent)`` for each set S of k addable i-nodes of
    the shape ``x``, where ``(add, rem)`` are the i-masks of its layout: the
    exponent is the sum of the signed counts of the nodes of S, each the
    addable less the removable i-beads below it, less k(k-1)/2."""
    a = x & ~(x >> 1) & add
    r = x & ~(x << 1) & rem
    plus = []
    below = 0  # the addable i-beads below the next one
    while a:
        bead = a & -a
        plus.append((x ^ 3 * bead, below - (r & bead - 1).bit_count()))
        a ^= bead
        below += 1
    if k == 1:
        return plus
    out = []
    for chosen in combinations(plus, k):
        y, e = x, -k * (k - 1) // 2
        for grown, count in chosen:
            y ^= x ^ grown
            e += count
        out.append((y, e))
    return out


def _layout(level: int, size: int) -> _Beads:
    """The layout of ``level`` whose capacity is the least power of two that
    is at least ``size`` and 8."""
    return _Beads(level, max(8, 1 << (size - 1).bit_length()))


class FockVector:
    """Finitely supported map from multipartitions of one level to Laurent
    polynomials, held as bead masks and Kronecker codes at one digit offset,
    with a bound on the magnitude of their digits."""

    __slots__ = ("_beads", "_terms", "_top", "_off", "_bound")

    def __init__(
        self,
        terms: Mapping[Multipartition, LaurentPoly]
        | Iterable[tuple[Multipartition, LaurentPoly]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        sums: dict[Multipartition, LaurentPoly] = {}
        for mu, coeff in items:
            if coeff:
                check_multipartition(mu)
                sums[mu] = sums[mu] + coeff if mu in sums else coeff
        pairs = [(mu, coeff) for mu, coeff in sums.items() if coeff]
        self._beads, self._terms, self._top, self._off, self._bound = None, {}, 0, _OFF, 0
        if not pairs:
            return
        level = len(pairs[0][0])
        if any(len(mu) != level for mu, _ in pairs):
            raise ValueError("the shapes of a Fock vector must have one level")
        self._top = max(multipartition_size(mu) for mu, _ in pairs)
        self._off = off = max([_OFF] + [-coeff.min_exponent() for _, coeff in pairs])
        self._beads = beads = _layout(level, self._top)
        self._terms = {beads.code(mu): _code(coeff, off) for mu, coeff in pairs}
        self._bound = max(abs(c) for _, coeff in pairs for _, c in coeff.terms())

    @classmethod
    def _adopt(
        cls, beads: _Beads | None, terms: dict[int, int], top: int, off: int, bound: int
    ) -> "FockVector":
        """Take ``terms``, codes at the offset ``off`` keyed by masks of
        ``beads``, with no zero code, no shape larger than ``top`` and no
        digit larger than ``bound`` in magnitude, without copying it."""
        out = cls.__new__(cls)
        out._beads, out._terms, out._top, out._off, out._bound = beads, terms, top, off, bound
        return out

    def _recoded(self, beads: _Beads, off: int) -> "FockVector":
        """This vector in the layout ``beads`` of its level, at an offset
        ``off`` no smaller than its own."""
        old, up = self._beads, _DIGIT * (off - self._off)
        if old is None or old == beads:
            terms = {y: x << up for y, x in self._terms.items()}
        else:
            terms = {beads.code(old.shape(y)): x << up for y, x in self._terms.items()}
        return FockVector._adopt(beads, terms, self._top, off, self._bound)

    def _tightened(self) -> "FockVector":
        """This vector with the largest magnitude of its digits as its bound."""
        bound = max(
            (abs(c) for x in self._terms.values() for _, c in _poly(x, self._off).terms()),
            default=0,
        )
        return FockVector._adopt(self._beads, self._terms, self._top, self._off, bound)

    def _by_shape(self) -> dict[Multipartition, int]:
        beads = self._beads
        return {beads.shape(y): x for y, x in self._terms.items()}

    @classmethod
    def basis(cls, mu: Multipartition) -> "FockVector":
        return cls({mu: ONE})

    def coefficient(self, mu: Multipartition) -> LaurentPoly:
        check_multipartition(mu)
        beads = self._beads
        if beads is None or len(mu) != beads.level or multipartition_size(mu) > beads.cap:
            return ZERO
        return _poly(self._terms.get(beads.code(mu), 0), self._off)

    def support(self) -> tuple[Multipartition, ...]:
        return tuple(sorted(self._by_shape(), reverse=True))

    def items(self) -> Iterator[tuple[Multipartition, LaurentPoly]]:
        for mu, x in sorted(self._by_shape().items(), reverse=True):
            yield mu, _poly(x, self._off)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        if self._beads == other._beads and self._off == other._off:
            return self._terms == other._terms
        return dict(self.items()) == dict(other.items())

    def sub_scaled(self, gamma: LaurentPoly, other: "FockVector") -> "FockVector":
        """``self - gamma * other``, one multiply-subtract per term of
        ``other``: gamma is coded from its lowest exponent -m, and each
        product is shifted down by m digits.  A product reaching below
        q^-offset recodes both vectors at a larger offset first.  A digit
        of the result is at most the bound of ``self`` plus the sum of the
        magnitudes of gamma's coefficients times the bound of ``other``;
        if that reaches 2^30 even with exact bounds, it raises."""
        if not gamma or not other._terms:
            return self
        low = min(0, gamma.min_exponent())
        scale = _code(gamma, -low)
        norm = sum(abs(c) for _, c in gamma.terms())
        this = self
        if this._bound + norm * other._bound >= _GUARD:
            this, other = this._tightened(), other._tightened()
            if this._bound + norm * other._bound >= _GUARD:
                raise InternalConsistencyError(
                    f"subtracting ({gamma}) times a vector could take a digit past the guard of 2^30"
                )
        if this._beads != other._beads or this._off != other._off:
            if this._beads is not None and this._beads.level != other._beads.level:
                raise ValueError("the two vectors have different levels")
            beads = other._beads if this._beads is None else max(
                this._beads, other._beads, key=lambda b: b.cap
            )
            off = max(this._off, other._off)
            this, other = this._recoded(beads, off), other._recoded(beads, off)
        bound = this._bound + norm * other._bound
        shift = -low * _DIGIT
        guard = (1 << shift) - 1
        while True:
            terms = dict(this._terms)
            for y, x in other._terms.items():
                product = scale * x
                if product & guard:
                    break
                total = terms.get(y, 0) - (product >> shift)
                if total:
                    terms[y] = total
                else:
                    del terms[y]
            else:
                top = max(this._top, other._top)
                return FockVector._adopt(this._beads, terms, top, this._off, bound)
            # a product reaches below q^-offset: make room for gamma's lowest exponent
            this = this._recoded(this._beads, this._off - low)
            other = other._recoded(other._beads, other._off - low)

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})|{format_multipartition(mu)}>" for mu, c in self.items())
        return f"FockVector<{inner or '0'}>"


# moves[level, cap, kappa, i, k] maps each mask to its induct entry
move_memo: CallMemo[dict] = CallMemo("qspecht_fock_moves", dict)


def _entry(x: int, add: int, rem: int, k: int):
    """``(guard, down, moves)`` of the mask ``x`` under F_i^(k), where
    ``(add, rem)`` are the i-masks: a coefficient is shifted down by
    ``down`` bits, which ``guard`` must not meet, and then up by ``s`` bits
    for each ``(mask, s)`` of ``moves``."""
    moves = _moves(x, add, rem, k)
    low = 0
    for _, count in moves:
        if count < low:
            low = count
    down = -low * _DIGIT
    return (1 << down) - 1, down, [(y, _DIGIT * count + down) for y, count in moves]


def induct(v: FockVector, kappa: Multicharge, i: int, k: int = 1) -> FockVector:
    """Apply the divided power F_i^(k) to every term, by the closed formula
    of the module docstring; k = 1 is the i-node-adding operator and k = 0
    the identity.  Each coefficient code is shifted, not multiplied, once
    per move; the moves are read from ``move_memo``.  A vector whose
    shapes could outgrow its layout is recoded into a larger one first, and
    one whose move would shift a digit below q^-offset at a larger offset.
    Each shape of the result gains at most one term from each term of
    ``v``, so its digits are at most the bound of ``v`` times the number of
    its terms; if that reaches 2^30 even with the exact bound, it raises.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("the power must be a nonnegative integer")
    if i not in RESIDUES:
        raise ValueError(f"residues must be 0 or 1, got {i!r}")
    kappa = tuple(kappa)
    check_charge(kappa)
    beads = v._beads
    if k == 0 or beads is None:
        return v
    check_component_count(empty_multipartition(beads.level), kappa)
    if v._bound * len(v._terms) >= _GUARD:
        v = v._tightened()
        if v._bound * len(v._terms) >= _GUARD:
            raise InternalConsistencyError(
                f"F_{i}^({k}) of a vector could take a digit past the guard of 2^30"
            )
    if v._top + k > beads.cap:
        beads = _layout(beads.level, v._top + k)
        v = v._recoded(beads, v._off)
    table = move_memo.get().setdefault((beads.level, beads.cap, kappa, i, k), {})
    add, rem = beads.masks(kappa, i)
    for x in [x for x in v._terms if x not in table]:
        table[x] = _entry(x, add, rem, k)
    while True:
        acc: defaultdict[int, int] = defaultdict(int)
        for x, c in v._terms.items():
            guard, down, moves = table[x]
            if c & guard:
                break
            c >>= down
            for y, s in moves:
                acc[y] += c << s
        else:
            terms = dict(acc)
            if 0 in terms.values():
                terms = {y: c for y, c in terms.items() if c}
            return FockVector._adopt(beads, terms, v._top + k, v._off, v._bound * len(v._terms))
        # a move shifts a digit below q^-offset: make room for its count
        v = v._recoded(beads, v._off + down // _DIGIT)


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
    mu: Multipartition, v: FockVector, earlier: list[tuple[int, FockVector]]
) -> FockVector:
    """The canonical vector of ``mu``, from a bar-invariant ``v`` with
    coefficient 1 at ``mu``: one pass over the ``earlier`` canonical vectors
    of the same size, given as (mask, vector) in the layout of ``v`` and in
    descending reverse-lexicographic order, least dominant first, subtracts
    each whose index still has a coefficient with a nonpositive exponent,
    times the bar-symmetric low part of that coefficient.  No subtraction
    reopens an index already passed, since each canonical vector is
    supported on its index and shapes after it in tuple order.  The result
    is then checked, and its digit bound is exact."""
    if not v:
        raise InternalConsistencyError(f"the start vector of {mu} is zero")
    low = (1 << _DIGIT * (v._off + 1)) - 1  # the digits of the exponents <= 0
    for y, g in reversed(earlier):
        x = v._terms.get(y)
        if x is not None and x & low:
            # the balanced low digits of x are those of x & low, up to a carry into q^1
            v = v.sub_scaled(_bar_symmetric_low_part(_poly(x & low, v._off)), g)
            low = (1 << _DIGIT * (v._off + 1)) - 1
    beads = v._beads
    lead = beads.code(mu)
    if v._terms.get(lead) != 1 << _DIGIT * v._off:
        raise InternalConsistencyError(
            f"leading coefficient at {mu} is {_poly(v._terms.get(lead, 0), v._off)}, expected 1"
        )
    # The other digits all lie in [0, 2^30) at exponents >= 1 iff the union
    # of the other codes is nonnegative, has no digit at q^<=0 and no 32-bit
    # word of 2^30 or more; its largest word then bounds them.  Otherwise
    # each code is decoded, to name the term that fails.
    union = reduce(or_, [x for y, x in v._terms.items() if y != lead], 0)
    if union >= 0 and not union & low and (bound := _top_word(union)) < _GUARD:
        return FockVector._adopt(beads, v._terms, v._top, v._off, max(bound, 1))
    for y, x in v._terms.items():
        c = _poly(x, v._off)  # a digit past the guard raises here
        if y != lead and (c.min_exponent() < 1 or any(a < 0 for _, a in c.terms())):
            raise InternalConsistencyError(
                f"coefficient {c} at {beads.shape(y)} in the vector for {mu} "
                "is outside q-positive range"
            )
    raise InternalConsistencyError(f"the vector for {mu} fails its check, but no term of it does")


def canonical_basis(
    d: int, kappa: Multicharge = (0,)
) -> list[tuple[Multipartition, FockVector]]:
    """Canonical-basis vectors indexed by the shapes ``(mu,)`` with mu a
    2-restricted partition of d, in descending reverse-lexicographic order.

    Each returned vector has coefficient exactly 1 at its index, all other
    coefficients with positive exponents and nonnegative integer terms.
    The columns of every size up to d are built in turn, in one layout:
    the partitions that :func:`core.partitions` lists and
    :func:`core.is_2_restricted` keeps, in the order listed.  Column mu
    starts from F_i^(k) applied to the finished vector of mu with its top
    ladder removed, which is held only until the last column that starts
    from it.  The moves of each shape are computed once per size of
    the columns, in ``move_memo``, and the mask of each column once, to
    hand the columns of its size to :func:`_reduce`.
    """
    check_charge(kappa)
    if len(kappa) != 1:
        raise ValueError("the canonical-basis computation is level-1 only")
    check_size(d)
    sizes = [
        [((mu,), _top_ladder((mu,), kappa[0])) for mu in partitions(s) if is_2_restricted(mu)]
        for s in range(1, d + 1)
    ]
    uses = Counter(minus for size in sizes for _, (minus, _, _) in size)
    empty = ((),)
    beads = _layout(1, d)
    held = {empty: FockVector.basis(empty)._recoded(beads, _OFF)}  # finished vectors
    columns = [(empty, held[empty])]  # the one column of size 0
    with move_memo.held() as moves:
        for size in sizes:
            moves.clear()  # no column of this size reads the moves of a smaller one
            columns, earlier = [], []
            for mu, (minus, i, k) in size:
                if minus not in held:
                    raise InternalConsistencyError(
                        f"the vector of {minus}, which the column {mu} starts from, is not held"
                    )
                v = induct(held[minus], kappa, i, k)
                uses[minus] -= 1
                if not uses[minus]:
                    del held[minus]
                g = _reduce(mu, v, earlier)
                columns.append((mu, g))
                earlier.append((beads.code(mu), g))
            held.update((mu, v) for mu, v in columns if uses[mu])
    return columns


class GradedDecompositionMatrix:
    """Sparse matrix of graded decomposition numbers, with fixed index orders:
    rows are all shapes ``(lam,)`` with lam a partition of d and columns the
    2-restricted ones, both in descending reverse-lexicographic order.  Its
    fields cannot be reassigned, so the row and column indexes stay theirs."""

    __slots__ = ("rows", "cols", "entries", "_row_of", "_col_of")

    def __init__(
        self,
        rows: tuple[Multipartition, ...],
        cols: tuple[Multipartition, ...],
        entries: dict[tuple[Multipartition, Multipartition], LaurentPoly],
    ):
        init = object.__setattr__
        init(self, "rows", rows)
        init(self, "cols", cols)
        init(self, "entries", entries)
        init(self, "_row_of", {lam: r for r, lam in enumerate(rows)})
        init(self, "_col_of", {mu: c for c, mu in enumerate(cols)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a GradedDecompositionMatrix")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a GradedDecompositionMatrix")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedDecompositionMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return (
            f"GradedDecompositionMatrix(rows={self.rows!r}, cols={self.cols!r}, "
            f"entries={self.entries!r})"
        )

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
    """Characteristic-0 graded decomposition matrix from the canonical basis,
    whose vectors all lie in one layout: each row is encoded once in the
    layout of the first vector, and each distinct coefficient code decoded
    once."""
    basis = canonical_basis(d, kappa)
    rows = tuple(multipartitions(d, 1))
    beads = basis[0][1]._beads
    row_of = {beads.code(lam): lam for lam in rows}
    decoded: dict[int, dict[int, LaurentPoly]] = {}
    entries = {}
    for mu, vector in basis:
        off = vector._off
        polys = decoded.setdefault(off, {})
        for y, x in vector._terms.items():
            poly = polys.get(x)
            if poly is None:
                poly = polys[x] = _poly(x, off)
            entries[row_of[y], mu] = poly
    return GradedDecompositionMatrix(rows, tuple(mu for mu, _ in basis), entries)


def simple_qdims(
    matrix: GradedDecompositionMatrix, kappa: Multicharge = (0,)
) -> dict[Multipartition, LaurentPoly]:
    """Graded dimensions of the simple modules in characteristic 0, solved by
    back-substitution through the unitriangular decomposition system of
    ``matrix``, which fixes the size.  The Specht graded dimensions of the
    columns come from one layer of :func:`specht.layer_counts`, inside the
    envelope of the columns: in each component, its j-th part is the largest
    j-th part of a column.  A solved dimension with a negative coefficient,
    or one that is not bar-symmetric, raises."""
    from .specht import layer_counts, qdim_memo, qdim_specht

    cols = matrix.cols
    for mu in cols:
        check_shape(mu, kappa)
    envelope = tuple(tuple(map(max, zip_longest(*comps, fillvalue=0))) for comps in zip(*cols))
    with qdim_memo.held() as memo:
        if cols:
            memo[tuple(kappa)] = layer_counts(kappa, multipartition_size(cols[0]), inside=envelope)
        spechts = {mu: qdim_specht(mu, kappa) for mu in cols}
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
        if not total.is_bar_symmetric():
            raise InternalConsistencyError(
                f"solved graded dimension for {mu} is not bar-symmetric: {total}"
            )
        simples[mu] = total
    return simples
