"""Exact integer Laurent polynomials in one variable q.

Values are immutable and kept in canonical form (no zero coefficients), so
structural equality is mathematical equality and instances can be dict keys.
The package needs the ring operations only: divided powers come from a
closed formula, so nothing here divides.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Mapping


class LaurentPoly:
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, int] = {}
        for exponent, coefficient in items:
            if not isinstance(exponent, int) or not isinstance(coefficient, int):
                raise ValueError("exponents and coefficients must be integers")
            if coefficient:
                clean[exponent] = clean.get(exponent, 0) + coefficient
                if not clean[exponent]:
                    del clean[exponent]
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def from_clean(cls, terms: dict[int, int]) -> "LaurentPoly":
        """Adopt ``terms`` without copying or checking: integer exponents and
        coefficients, no zero coefficient.  The caller gives up the dict."""
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs, ascending by exponent."""
        return [[e, self._terms[e]] for e in sorted(self._terms)]

    def terms(self) -> ItemsView[int, int]:
        """(exponent, coefficient) pairs in no particular order."""
        return self._terms.items()

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def min_exponent(self) -> int:
        return min(self._terms)

    def max_exponent(self) -> int:
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            terms = self._terms
            # a constant equals its integer, so it hashes like it too
            constant = terms.keys() <= {0}
            self._hash = hash(terms.get(0, 0) if constant else tuple(sorted(terms.items())))
        return self._hash

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            new = terms.get(e, 0) + c
            if new:
                terms[e] = new
            elif e in terms:
                del terms[e]
        return LaurentPoly.from_clean(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                new = terms.get(e, 0) + c1 * c2
                if new:
                    terms[e] = new
                elif e in terms:
                    del terms[e]
        return LaurentPoly.from_clean(terms)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1 (negate all exponents)."""
        return LaurentPoly.from_clean({-e: c for e, c in self._terms.items()})

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def is_pure_parity(self, parity: int) -> bool:
        """True if every exponent is congruent to ``parity`` mod 2 and every
        coefficient is nonnegative."""
        return all(e % 2 == parity % 2 and c > 0 for e, c in self._terms.items())

    def is_bar_symmetric(self) -> bool:
        return all(self._terms.get(-e, 0) == c for e, c in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                body = str(c)
            else:
                var = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{c}{var}"
            chunks.append(body)
        return "+".join(chunks).replace("+-", "-")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_pairs()!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})


def q_power(exponent: int) -> LaurentPoly:
    return LaurentPoly({exponent: 1})

