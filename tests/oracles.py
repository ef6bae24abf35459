"""Independent oracles used by the tests; these deliberately avoid the code
paths they are checking."""

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import factorial

from qspecht.core import (
    ADDABLE,
    empty_multipartition,
    is_2_restricted,
    steps,
    with_node_added,
)
from qspecht.fock import FockVector, induct
from qspecht.laurent import ONE, ZERO, LaurentPoly, q_power
from qspecht.tableaux import degree, residue_sequence, standard_tableaux_with_degrees


def with_node_removed(lam, node):
    """``lam`` with the removable node ``node`` taken out."""
    a, b, m = node
    if not 1 <= m <= len(lam):
        raise ValueError(f"component {m} out of range for {lam!r}")
    comp = list(lam[m - 1])
    below = comp[a] if a < len(comp) else 0
    if not (1 <= a <= len(comp) and b == comp[a - 1] and b > below):
        raise ValueError(f"node {node!r} is not removable from {lam!r}")
    comp[a - 1] -= 1
    if comp[a - 1] == 0:
        comp.pop()
    return lam[: m - 1] + (tuple(comp),) + lam[m:]


def conjugate(p):
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def hook_length_count(p):
    """Number of standard Young tableaux of a partition, by the hook-length
    product formula."""
    conj = conjugate(p)
    product = 1
    for i, part in enumerate(p):
        for j in range(part):
            product *= part - j + conj[j] - i - 1
    return factorial(sum(p)) // product


def multipartition_tableau_count(lam):
    """Standard tableaux of a multipartition: a multinomial choice of entry
    sets times per-component hook-length counts."""
    total = factorial(sum(sum(c) for c in lam))
    for comp in lam:
        total //= factorial(sum(comp))
    for comp in lam:
        total *= hook_length_count(comp)
    return total


def partition_count(n, _cache={0: 1}):
    """Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n in _cache:
        return _cache[n]
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    _cache[n] = total
    return total


def even_column_node_count(p):
    """Direct count of nodes (a, b) with b even: the level-1 parity statistic
    counts exactly these."""
    return sum(part // 2 for part in p)


def brute_even_column_node_count(p):
    """Same count by scanning every node individually."""
    return sum(1 for part in p for b in range(1, part + 1) if b % 2 == 0)


def brute_residue_node_count(p, charge, i):
    """Node-by-node residue count, independent of the row-wise formula."""
    return sum(
        1
        for a, part in enumerate(p, 1)
        for b in range(1, part + 1)
        if (charge + b - a) % 2 == i
    )


def contains_node(lam, node):
    """True if ``node`` is a cell of the diagram of ``lam``."""
    a, b, m = node
    return 1 <= m <= len(lam) and (a, b) in _cells(lam[m - 1])


def residue_of(node, kappa):
    """Residue of a node: charge of its component plus (column - row), mod 2."""
    a, b, m = node
    if a < 1 or b < 1:
        raise ValueError(f"node coordinates must be positive, got {node!r}")
    if not 1 <= m <= len(kappa):
        raise ValueError(f"component {m} out of range for multicharge {kappa!r}")
    return (kappa[m - 1] + b - a) % 2


def is_below(node, other):
    """True if ``node`` lies strictly below ``other``: in a later component,
    or in the same component and a later row."""
    return node[2] > other[2] or (node[2] == other[2] and node[0] > other[0])


def _cells(comp):
    return {(a, b) for a, part in enumerate(comp, 1) for b in range(1, part + 1)}


def _is_diagram(cells):
    """True if a finite set of cells is the Young diagram of a partition:
    every cell's upper and left neighbours are cells too."""
    return all(
        (a == 1 or (a - 1, b) in cells) and (b == 1 or (a, b - 1) in cells)
        for a, b in cells
    )


def _residue_nodes(lam, kappa, i, addable):
    """Cells of residue i whose addition (or removal) leaves a diagram in
    their component, tried cell by cell over a box that holds every
    candidate, and listed in below-order."""
    out = []
    for m, comp in enumerate(lam, 1):
        cells = _cells(comp)
        for a in range(1, len(comp) + 2):
            for b in range(1, (comp[0] if comp else 0) + 2):
                if (kappa[m - 1] + b - a) % 2 != i or ((a, b) in cells) == addable:
                    continue
                if _is_diagram(cells ^ {(a, b)}):
                    out.append((a, b, m))
    return out


def addable_nodes(lam, kappa, i):
    """Addable i-nodes by the literal definition, in below-order."""
    return _residue_nodes(lam, kappa, i, addable=True)


def removable_nodes(lam, kappa, i):
    """Removable i-nodes by the literal definition, in below-order."""
    return _residue_nodes(lam, kappa, i, addable=False)


def degree_contribution(lam, kappa, node):
    """The signed node count d_A(lam) of a node A of the diagram: addable
    nodes of A's residue strictly below A, minus removable ones."""
    i = residue_of(node, kappa)
    return sum(is_below(other, node) for other in addable_nodes(lam, kappa, i)) - sum(
        is_below(other, node) for other in removable_nodes(lam, kappa, i)
    )


def literal_degree(shape, places, kappa):
    """The degree of the placements ``places`` by the literal prefix
    recursion, or None if they are not a standard tableau of ``shape``: each
    new cell must leave a diagram, checked cell by cell, and the last
    diagram must be ``shape``."""
    cells = [set() for _ in shape]
    prefix = tuple(() for _ in shape)
    total = 0
    for a, b, m in places:
        if not 1 <= m <= len(shape) or (a, b) in cells[m - 1]:
            return None
        cells[m - 1].add((a, b))
        if not _is_diagram(cells[m - 1]):
            return None
        rows = Counter(row for row, _ in cells[m - 1])
        comp = tuple(rows[row] for row in range(1, len(rows) + 1))
        prefix = prefix[: m - 1] + (comp,) + prefix[m:]
        total += degree_contribution(prefix, kappa, (a, b, m))
    return total if prefix == shape else None


def pair_sums(pairs):
    """{exponent: summed coefficient} of ``[exponent, coefficient]`` pairs,
    zero sums left out."""
    sums = {}
    for e, c in pairs:
        sums[e] = sums.get(e, 0) + c
    return {e: c for e, c in sums.items() if c}


def divided_power(lam, kappa, i, k):
    """F_i^(k) applied to ``lam``, by the closed formula of Lascoux, Leclerc
    and Thibon: one term lam+S for each set S of k addable i-nodes, with the
    exponent summed over A in S of the addable i-nodes outside S below A
    minus the removable i-nodes below A.  For k = 1 this is one node-adding
    step."""
    add = addable_nodes(lam, kappa, i)
    rem = removable_nodes(lam, kappa, i)
    out = {}
    for nodes in combinations(add, k):
        grown = lam
        for node in nodes:
            grown = with_node_added(grown, node)
        exponent = sum(
            sum(is_below(other, node) for other in add if other not in nodes)
            - sum(is_below(other, node) for other in rem)
            for node in nodes
        )
        out[grown] = q_power(exponent)
    return out


def shape_moves(lam, kappa, i, k):
    """``(lam+S, exponent)`` for each set S of k addable i-nodes of ``lam``,
    in the tuple form that the bead kernel of ``fock`` replaced: the nodes
    and signed counts of ``core.steps``, each chosen node spliced into its
    row, the exponent being the sum of their counts less k(k-1)/2."""
    plus = [(node, count) for node, mark, count in steps(lam, kappa)[i] if mark == ADDABLE]
    overlap = k * (k - 1) // 2
    out = []
    for chosen in combinations(plus, k):
        grown = lam
        for (a, b, m), _ in chosen:
            comp = grown[m - 1]
            comp = comp + (1,) if b == 1 else comp[: a - 1] + (b,) + comp[a:]
            grown = grown[: m - 1] + (comp,) + grown[m:]
        out.append((grown, sum(count for _, count in chosen) - overlap))
    return out


def q_int(n):
    """Balanced q-integer: q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n < 0:
        raise ValueError("q-integers are defined for nonnegative n")
    return LaurentPoly({n - 1 - 2 * j: 1 for j in range(n)})


def q_factorial(n):
    out = ONE
    for j in range(2, n + 1):
        out = out * q_int(j)
    return out


def exact_div(num, divisor):
    """``num / divisor`` by long division from the top degree; raises
    ValueError if the quotient is not integral."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ZERO
    smin, smax = num.min_exponent(), num.max_exponent()
    dmin, dmax = divisor.min_exponent(), divisor.max_exponent()
    rest = [num.coefficient(e) for e in range(smin, smax + 1)]
    den = [divisor.coefficient(e) for e in range(dmin, dmax + 1)]
    qlen = len(rest) - len(den) + 1
    if qlen <= 0:
        raise ValueError(f"{num} is not divisible by {divisor}")
    lead = den[-1]
    quot = [0] * qlen
    for k in range(qlen - 1, -1, -1):
        c = rest[k + len(den) - 1]
        if c % lead:
            raise ValueError(f"{num} is not divisible by {divisor}")
        f = c // lead
        quot[k] = f
        if f:
            for j, dj in enumerate(den):
                rest[k + j] -= f * dj
    if any(rest):
        raise ValueError(f"{num} is not divisible by {divisor}")
    return LaurentPoly({k + smin - dmin: c for k, c in enumerate(quot)})


def divided_power_by_division(v, kappa, i, k):
    """F_i^(k) applied to the vector ``v`` by its definition: ``induct``
    applied k times, each coefficient then divided exactly by [k]!."""
    for _ in range(k):
        v = induct(v, kappa, i)
    divisor = q_factorial(k)
    return FockVector((mu, exact_div(c, divisor)) for mu, c in v.items())


def node_signature(lam, kappa, i):
    """The i-signature as two literal lists merged by a sort: addable nodes
    marked '+', removable ones '-', in below-order."""
    marked = [(node, "+") for node in addable_nodes(lam, kappa, i)]
    marked += [(node, "-") for node in removable_nodes(lam, kappa, i)]
    marked.sort(key=lambda pair: (pair[0][2], pair[0][0]))
    return marked


def reduced_signature(lam, kappa, i):
    """The i-signature after the literal stack reduction: scanning
    downwards, each '+' cancels the nearest surviving '-' above it."""
    stack = []
    for node, mark in node_signature(lam, kappa, i):
        if mark == "+" and stack and stack[-1][1] == "-":
            stack.pop()
        else:
            stack.append((node, mark))
    return stack


def add_good_node(lam, kappa, i):
    """Add the lowest surviving '+' of the reduced i-signature, or return
    None if there is none."""
    survivors = [node for node, mark in reduced_signature(lam, kappa, i) if mark == "+"]
    return with_node_added(lam, survivors[-1]) if survivors else None


def remove_good_node(lam, kappa, i):
    """Remove the highest surviving '-' of the reduced i-signature, or
    return None if there is none."""
    survivors = [node for node, mark in reduced_signature(lam, kappa, i) if mark == "-"]
    return with_node_removed(lam, survivors[0]) if survivors else None


def ladder_word(mu, charge=0):
    """(residue, multiplicity) pairs describing the diagram ladder by ladder.

    Nodes (a, b) with equal a+b-1 form one ladder; ladders are read in
    increasing order and each carries a constant residue.  Feeding the word to
    the divided powers of ``induct`` from the empty vector produces a vector
    with leading coefficient 1 at ``mu``.
    """
    if not is_2_restricted(mu):
        raise ValueError(f"{mu!r} is not 2-restricted")
    counts = {}
    for a, part in enumerate(mu, start=1):
        for b in range(1, part + 1):
            ladder = a + b - 1
            counts[ladder] = counts.get(ladder, 0) + 1
    return [((charge + ladder + 1) % 2, counts[ladder]) for ladder in sorted(counts)]


def ladder_vector(mu, kappa=(0,)):
    """Divided-power induction along the ladder word of ``mu``, from the
    empty diagram, sharing nothing with other columns."""
    v = FockVector.basis(((),))
    for i, k in ladder_word(mu, kappa[0]):
        v = induct(v, kappa, i, k)
    return v


def dense_matrix_json(matrix):
    """The JSON form of a graded decomposition matrix, built by looking up
    every (row, column) cell, zero or not."""
    def name(p):
        return ",".join(map(str, p)) if p else "-"

    return {
        "rows": [name(lam) for (lam,) in matrix.rows],
        "cols": [name(mu) for (mu,) in matrix.cols],
        "entries": [
            [matrix.entry(lam, mu).to_pairs() for mu in matrix.cols] for lam in matrix.rows
        ],
    }


def literal_truncations(lam, kappa):
    """The literal definition of graded dimensions, by residue sequence:
    q^degree(t) summed over the listed tableaux of ``lam``."""
    out = {}
    for t, _ in standard_tableaux_with_degrees(lam, (0,) * len(lam)):
        seq = residue_sequence(t, kappa)
        out[seq] = out.get(seq, ZERO) + q_power(degree(t, kappa))
    return out


@lru_cache(maxsize=None)
def _growth_steps(mu, kappa):
    """(node, residue, signed node count in the grown shape, grown shape) for
    every addable node of ``mu``."""
    return tuple(
        (node, i, degree_contribution(grown, kappa, node), grown)
        for i in (0, 1)
        for node in addable_nodes(mu, kappa, i)
        for grown in [with_node_added(mu, node)]
    )


def tableau_truncations(lam, kappa):
    """The same sum as :func:`literal_truncations`, fast enough for the
    differential sweeps.

    Every tableau is walked as its path of added nodes from the empty
    diagram; deg(t) sums the signed node count of each added node in the
    shape it completes, as `tableaux.degree` does, and the residue sequence
    lists the added nodes' residues.  The counts are cached per (shape,
    node), so each tableau costs one step per entry.
    """
    counts = {}
    steps_inside = {}

    def walk(mu, seq, deg):
        if mu == lam:
            by_degree = counts.setdefault(seq, {})
            by_degree[deg] = by_degree.get(deg, 0) + 1
            return
        steps = steps_inside.get(mu)
        if steps is None:
            steps = steps_inside[mu] = [
                step for step in _growth_steps(mu, kappa) if contains_node(lam, step[0])
            ]
        for _, i, contribution, grown in steps:
            walk(grown, seq + (i,), deg + contribution)

    walk(empty_multipartition(len(lam)), (), 0)
    return {seq: LaurentPoly(by_degree) for seq, by_degree in counts.items()}


def recursive_partitions(d, cap=None):
    """Partitions of ``d`` with parts at most ``cap`` (default ``d``), by the
    recursion on the first part, largest first part first."""
    if d == 0:
        yield ()
        return
    for first in range(d if cap is None else min(d, cap), 0, -1):
        for rest in recursive_partitions(d - first, first):
            yield (first,) + rest
