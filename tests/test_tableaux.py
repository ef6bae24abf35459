from collections import Counter
from itertools import islice, product

import pytest

from qspecht.core import multipartitions, partitions
from qspecht.tableaux import (
    StandardTableau,
    degree,
    residue_sequence,
    row_filled_tableau,
    standard_tableaux_with_degrees,
)
from oracles import hook_length_count, multipartition_tableau_count

K0 = (0,)


def listed(lam, kappa=None, residues=None):
    """The tableaux of ``lam`` that the search lists, without degrees; the
    charge defaults to all zeros, which only sets the degrees."""
    kappa = (0,) * len(lam) if kappa is None else kappa
    return [t for t, _ in standard_tableaux_with_degrees(lam, kappa, residues)]


# The four standard (3,2,2,1)-tableaux whose residue sequence alternates
# 0,1,0,1,... , with their degrees; frozen reference data.
REMARK_TABLEAUX = {
    "1,2,3/4,7/5,8/6": 1,
    "1,4,5/2,7/3,8/6": 1,
    "1,4,7/2,5/3,6/8": 1,
    "1,4,7/2,5/3,8/6": -1,
}


def test_row_filled_examples():
    t = row_filled_tableau(((2, 1),))
    assert t.places == ((1, 1, 1), (1, 2, 1), (2, 1, 1))
    assert row_filled_tableau(((), ())).places == ()
    t2 = row_filled_tableau(((1,), (2,)))
    assert t2.places == ((1, 1, 1), (1, 1, 2), (1, 2, 2))


def test_row_filled_is_standard():
    for lam in [((3, 2, 2, 1),), ((2, 1), (1, 1))]:
        row_filled_tableau(lam).check()


def test_enumeration_counts_level_one():
    assert len(listed(((2, 1),))) == 2
    assert len(listed(((1, 1, 1, 1),))) == 1
    for d in range(9):
        for p in partitions(d):
            count = len(listed((p,)))
            assert count == hook_length_count(p), p


def test_enumeration_counts_level_two():
    for lam in multipartitions(5, 2):
        count = len(listed(lam))
        assert count == multipartition_tableau_count(lam), lam


def test_enumeration_is_streaming():
    # callers may stop early without paying for the rest
    first_two = list(islice(standard_tableaux_with_degrees(((4, 3, 2, 1),), K0), 2))
    assert len(first_two) == 2


def test_enumeration_has_no_duplicates():
    seen = listed(((3, 2),))
    assert len(seen) == len({t.places for t in seen})
    for t in seen:
        t.check()


def test_residue_sequence_examples():
    assert residue_sequence(row_filled_tableau(((1,) * 8,)), K0) == (0, 1, 0, 1, 0, 1, 0, 1)
    assert residue_sequence(row_filled_tableau(((2,),)), K0) == (0, 1)
    assert residue_sequence(row_filled_tableau(((),)), K0) == ()


def test_residue_sequence_level_mismatch():
    with pytest.raises(ValueError):
        residue_sequence(row_filled_tableau(((2,),)), (0, 1))
    with pytest.raises(ValueError):
        degree(row_filled_tableau(((2,),)), (0, 1))


def test_degree_examples():
    assert degree(row_filled_tableau(((2,),)), K0) == 1
    assert degree(row_filled_tableau(((1, 1),)), K0) == 0


def test_remark_tableaux_and_degrees():
    lam = ((3, 2, 2, 1),)
    found = listed(lam, K0, (0, 1, 0, 1, 0, 1, 0, 1))
    assert {t.compact(): degree(t, K0) for t in found} == REMARK_TABLEAUX
    assert sorted(degree(t, K0) for t in found) == [-1, 1, 1, 1]


def test_residue_filtered_search_examples():
    assert listed(((2,),), K0, (0, 0)) == []
    found = listed(((1,),), (1,), (1,))
    assert len(found) == 1


def test_residue_filter_length_mismatch():
    with pytest.raises(ValueError):
        standard_tableaux_with_degrees(((2,),), K0, (0,))


@pytest.mark.parametrize("residues", [(0, 2), (0, -1)])
def test_residue_filter_rejects_a_residue_outside_0_1(residues):
    with pytest.raises(ValueError, match="residues must be 0 or 1"):
        standard_tableaux_with_degrees(((2,),), K0, residues)


def test_pruned_search_is_complete():
    # regrouping the full enumeration by residue sequence recovers exactly
    # the filtered searches
    kappa = (0, 1)
    for lam in [((2, 1), (1,)), ((3, 1), ()), ((1, 1), (2,))]:
        by_sequence = Counter()
        for t in listed(lam):
            by_sequence[residue_sequence(t, kappa)] += 1
        total = 0
        for seq, count in by_sequence.items():
            found = listed(lam, kappa, seq)
            assert len(found) == count
            total += count
        assert total == len(listed(lam))


def test_incremental_degree_matches_literal_recursion():
    # the signed counts the search adds from `core.steps`, against the prefix
    # recursion through `core.degree_contribution`, on every shape of size
    # <= 6 at levels 1-3 under every charge; each pruned search lists, in
    # order, the tableaux of the full search with its residue sequence
    tableaux = 0
    for level in (1, 2, 3):
        for kappa in product((0, 1), repeat=level):
            for d in range(7):
                for lam in multipartitions(d, level):
                    by_sequence = {}
                    for t, deg in standard_tableaux_with_degrees(lam, kappa):
                        assert deg == degree(t, kappa), (lam, kappa, t.places)
                        seq = residue_sequence(t, kappa)
                        by_sequence.setdefault(seq, []).append((t, deg))
                        tableaux += 1
                    for seq, found in by_sequence.items():
                        pruned = list(standard_tableaux_with_degrees(lam, kappa, seq))
                        assert pruned == found, (lam, kappa, seq)
    assert tableaux == sum(
        2**level * multipartition_tableau_count(lam)
        for level in (1, 2, 3)
        for d in range(7)
        for lam in multipartitions(d, level)
    )


def test_all_degrees_of_a_shape_share_parity():
    for lam in multipartitions(6, 1):
        degs = {deg % 2 for _, deg in standard_tableaux_with_degrees(lam, K0)}
        assert len(degs) <= 1


def test_tableau_display():
    t = row_filled_tableau(((2, 1), (1,)))
    assert t.compact() == "1,2/3|4"
    assert t.to_json() == {
        "shape": "2,1|1",
        "places": [[1, 1, 1], [1, 2, 1], [2, 1, 1], [1, 1, 2]],
    }


def test_check_rejects_nonstandard():
    bad = StandardTableau(((2,),), ((1, 2, 1), (1, 1, 1)))
    for reading in (bad.check, lambda: residue_sequence(bad, K0)):
        with pytest.raises(ValueError, match="is not addable"):
            reading()
    # the placements are standard but stop short of the shape
    short = StandardTableau(((5,),), ((1, 1, 1),))
    readings = (short.check, lambda: degree(short, K0), lambda: residue_sequence(short, K0))
    for reading in readings:
        with pytest.raises(ValueError, match="do not fill the shape"):
            reading()
