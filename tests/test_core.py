
import itertools

import pytest
from hypothesis import given, strategies as st

from qspecht.core import (
    CallMemo,
    as_multicharge,
    as_partition,
    degree_contribution,
    degree_parity,
    format_multipartition,
    is_2_restricted,
    multipartition_size,
    multipartitions,
    parse_multipartition,
    parse_residues,
    partition_parity,
    partitions,
    residue_node_count,
    signatures,
    steps,
    with_node_added,
    young_nodes,
)
from qspecht.crystal import add_good_node
from qspecht.fock import FockVector, induct
import oracles
from oracles import (
    brute_even_column_node_count,
    brute_residue_node_count,
    even_column_node_count,
    is_below,
    node_signature,
    partition_count,
    recursive_partitions,
    residue_of,
    with_node_removed,
)


def marked(lam, kappa, i, mark):
    """The i-nodes that the signature marks with ``mark``, in below-order."""
    return [node for node, m in signatures(lam, kappa)[i] if m == mark]


@st.composite
def partition_strategy(draw, max_size=10, max_part=6):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    cap = max_part
    while n > 0 and cap > 0:
        take = draw(st.integers(min_value=1, max_value=min(cap, n)))
        parts.append(take)
        cap = take
        n -= take
    return tuple(parts) if n == 0 else tuple(parts) + (1,) * n


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))
    assert as_partition(()) == ()


def test_residue_examples():
    assert residue_of((1, 1, 1), (0,)) == 0
    assert residue_of((2, 1, 1), (0,)) == 1
    assert residue_of((1, 3, 2), (0, 1)) == 1


def test_residue_component_out_of_range():
    with pytest.raises(ValueError):
        residue_of((1, 1, 3), (0, 1))


def test_residue_constant_on_diagonals():
    kappa = (0, 1)
    for node in [(1, 1, 1), (2, 3, 2), (4, 1, 1), (3, 3, 2)]:
        a, b, m = node
        assert residue_of(node, kappa) == residue_of((a + 1, b + 1, m), kappa)


def test_is_below():
    assert is_below((2, 1, 1), (1, 3, 1))
    assert is_below((1, 1, 2), (3, 1, 1))
    assert not is_below((1, 2, 1), (1, 1, 1))


def test_addable_nodes_examples():
    assert marked(((1, 1),), (0,), 1, "+") == [(1, 2, 1)]
    assert marked(((), ()), (0, 1), 0, "+") == [(1, 1, 1)]
    assert marked(((2,),), (0,), 1, "+") == [(2, 1, 1)]


def test_removable_nodes_examples():
    assert marked(((2,),), (0,), 1, "-") == [(1, 2, 1)]
    assert marked(((),), (0,), 0, "-") == []
    assert marked(((1,), (1,)), (0, 1), 1, "-") == [(1, 1, 2)]


def test_addable_removable_are_valid_moves():
    kappa = (0, 1)
    for lam in multipartitions(5, 2):
        diagram = set(young_nodes(lam))
        for i in (0, 1):
            for node in marked(lam, kappa, i, "+"):
                assert node not in diagram
                grown = with_node_added(lam, node)
                assert multipartition_size(grown) == 6
                assert with_node_removed(grown, node) == lam
            for node in marked(lam, kappa, i, "-"):
                assert node in diagram
                shrunk = with_node_removed(lam, node)
                assert with_node_added(shrunk, node) == lam


@pytest.mark.parametrize(
    "lam, node",
    [
        (((1,),), (1, 2.0, 1)),
        (((1,),), (2.0, 1, 1)),
        (((1,), ()), (1, 1, 2.0)),
        (((1,),), (1, "2", 1)),
        (((1,),), (1, 3, 1)),
        (((1,),), (1, 2, 2)),
    ],
)
def test_with_node_added_rejects_a_node_it_cannot_add(lam, node):
    with pytest.raises(ValueError):
        with_node_added(lam, node)


def test_node_lists_in_below_order():
    lam = ((3, 1), (2, 2, 1))
    kappa = (0, 1)
    for i in (0, 1):
        for nodes in (marked(lam, kappa, i, "+"), marked(lam, kappa, i, "-")):
            for earlier, later in zip(nodes, nodes[1:]):
                assert is_below(later, earlier)


STAIRCASE = tuple(range(30, 0, -1))


def test_signature_matches_two_lists_and_sort():
    # both residues of the run-length pass against the oracle, which tries
    # every cell of a box around each component: every shape of size <= 9
    # at levels 1-3, every charge in {0, 1} and two of other integers, then
    # one run of 40 rows, one row of 40 parts and 30 runs of one row
    for level in (1, 2, 3):
        charges = list(itertools.product((0, 1), repeat=level))
        charges += [(2, -1, 3)[:level], (-1, 2, -2)[:level]]
        shapes = [lam for d in range(10) for lam in multipartitions(d, level)]
        for kappa in charges:
            for lam in shapes:
                assert signatures(lam, kappa) == tuple(
                    node_signature(lam, kappa, i) for i in (0, 1)
                ), (lam, kappa)
    for lam in [((1,) * 40,), ((40,),), (STAIRCASE,), ((1,) * 40, (), (40,))]:
        for charge in [(0, 1, 0), (1, 0, 1), (2, -1, 3), (-1, 2, -2)]:
            kappa = charge[: len(lam)]
            assert signatures(lam, kappa) == tuple(
                node_signature(lam, kappa, i) for i in (0, 1)
            ), (lam, kappa)


class Reads(tuple):
    """A partition that tallies the parts read from it: one per index, and
    the whole tuple per scan."""

    reads = 0

    def __getitem__(self, key):
        Reads.reads += len(range(len(self))[key]) if isinstance(key, slice) else 1
        return super().__getitem__(key)

    def __iter__(self):
        Reads.reads += len(self)
        return super().__iter__()

    def count(self, value):
        Reads.reads += len(self)
        return super().count(value)

    def index(self, value, *args):
        Reads.reads += len(self)
        return super().index(value, *args)


@pytest.mark.parametrize("comp", [(1,) * 40, (40,), STAIRCASE, (5,) * 9 + (3,) * 17 + (1,)])
def test_signatures_read_each_row_at_most_twice(comp):
    # one walk reads each row, and the first row of each run once more;
    # scanning the tuple once per run would read 30 * 30 parts of the
    # staircase
    Reads.reads = 0
    assert signatures((Reads(comp),), (0,)) == signatures((comp,), (0,))
    assert Reads.reads <= 2 * len(comp)


def test_node_kernel_matches_the_literal_definitions():
    # every node of every shape and every charge: the signed counts read
    # from `signatures` against the oracle, which tries every cell of a box
    # around each component (the marks themselves are checked by
    # `test_signature_matches_two_lists_and_sort`)
    nodes = 0
    for level, max_d in ((1, 10), (2, 8), (3, 6)):
        for kappa in itertools.product((0, 1), repeat=level):
            for d in range(max_d + 1):
                for lam in multipartitions(d, level):
                    for node in young_nodes(lam):
                        nodes += 1
                        assert degree_contribution(
                            lam, kappa, node
                        ) == oracles.degree_contribution(lam, kappa, node), (lam, kappa, node)
    assert nodes == 31236


def test_steps_match_the_literal_definitions():
    # every i-node with its mark and shift, against the oracle node lists
    # and signed counts: an addable node counted in the grown shape, a
    # removable one in lam; the list runs upwards from the lowest node.
    # Asked for one residue, steps leaves the other list empty
    cases = 0
    for level, max_d in ((1, 10), (2, 6), (3, 4)):
        for kappa in itertools.product((0, 1), repeat=level):
            for d in range(max_d + 1):
                for lam in multipartitions(d, level):
                    for i in (0, 1):
                        expected = []
                        for node, mark in reversed(node_signature(lam, kappa, i)):
                            shape = with_node_added(lam, node) if mark == "+" else lam
                            count = oracles.degree_contribution(shape, kappa, node)
                            expected.append((node, mark, count))
                        assert steps(lam, kappa)[i] == expected, (lam, kappa, i)
                        assert steps(lam, kappa, (i,)) == (
                            (expected, []) if i == 0 else ([], expected)
                        ), (lam, kappa, i)
                        cases += 1
    assert cases == 2 * (2 * 139 + 4 * 139 + 8 * 86)


@pytest.mark.parametrize("i", [2, -1])
def test_residue_outside_zero_one_is_rejected(i):
    # the good node of a residue i outside {0, 1} would be read from the
    # summary of i mod 2
    with pytest.raises(ValueError):
        add_good_node(((1,),), (0,), i)
    with pytest.raises(ValueError):
        induct(FockVector.basis(((1,),)), (0,), i)


def test_degree_contribution_examples():
    assert degree_contribution(((2,),), (0,), (1, 2, 1)) == 1
    assert degree_contribution(((1, 1),), (0,), (2, 1, 1)) == 0
    assert degree_contribution(((1,),), (0,), (1, 1, 1)) == 0


def test_degree_contribution_requires_node_in_diagram():
    with pytest.raises(ValueError):
        degree_contribution(((2,),), (0,), (3, 1, 1))


def test_parity_examples():
    assert degree_parity(((1,) * 8,), (0,)) == 0
    assert degree_parity(((3, 2, 2, 1),), (0,)) == 1
    assert degree_parity(((2,), (1,)), (0, 1)) == 0


def test_call_memo_is_shared_by_nested_blocks_and_fresh_outside_them():
    memo = CallMemo("test_memo", dict)
    assert memo.get() is not memo.get()
    with memo.held() as state:
        assert memo.get() is state
        with memo.held() as inner:
            assert inner is state
            inner["x"] = 1
        assert memo.get() is state
    assert memo.get() == {}


def test_call_memo_state_is_dropped_after_a_return_and_after_a_raise():
    memo = CallMemo("test_memo", dict)

    def filled():
        with memo.held() as state:
            state["x"] = 1
            return state

    assert filled() is not filled()
    assert memo.get() == {}
    with pytest.raises(RuntimeError):
        with memo.held() as state:
            state["x"] = 1
            raise RuntimeError("stop")
    assert memo.get() == {}


def test_parity_level_mismatch():
    with pytest.raises(ValueError):
        degree_parity(((1,),), (0, 1))


def test_level_one_parity_counts_even_columns():
    # independent direct count of nodes in even columns
    for d in range(13):
        for p in partitions(d):
            assert partition_parity(p) == brute_even_column_node_count(p) % 2
            assert degree_parity((p,), (0,)) == even_column_node_count(p) % 2


def test_residue_node_count_against_node_scan():
    for d in range(10):
        for p in partitions(d):
            for charge in (0, 1):
                for i in (0, 1):
                    assert residue_node_count(p, charge, i) == brute_residue_node_count(
                        p, charge, i
                    )


def test_is_2_restricted_examples():
    assert is_2_restricted((1, 1, 1))
    assert not is_2_restricted((2,))
    assert is_2_restricted((3, 2, 2, 1))
    assert is_2_restricted(())


def test_partitions_reverse_lexicographic():
    assert list(partitions(2)) == [(2,), (1, 1)]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts_match_pentagonal_recurrence():
    for d in range(15):
        assert sum(1 for _ in partitions(d)) == partition_count(d)


def test_the_successor_rule_lists_the_recursive_order():
    for d in range(31):
        assert list(partitions(d)) == list(recursive_partitions(d)), d
    assert len(list(recursive_partitions(30))) == partition_count(30) == 5604
    with pytest.raises(ValueError, match="size must be nonnegative"):
        next(partitions(-1))


def test_multipartitions_examples():
    assert list(multipartitions(0, 2)) == [((), ())]
    assert list(multipartitions(2, 1)) == [((2,),), ((1, 1),)]
    assert len(list(multipartitions(2, 2))) == 5


def test_multipartitions_no_duplicates():
    for d, level in [(4, 2), (3, 3)]:
        seen = list(multipartitions(d, level))
        assert len(seen) == len(set(seen))
        assert all(multipartition_size(lam) == d for lam in seen)


@given(partition_strategy())
def test_partition_parity_matches_node_count(p):
    assert partition_parity(p) == brute_even_column_node_count(p) % 2


def test_multipartition_text_roundtrip():
    for text in ["3,2,2,1", "2,1|1", "-|-", "-", "1|2,2|-"]:
        assert format_multipartition(parse_multipartition(text)) == text
    with pytest.raises(ValueError):
        parse_multipartition("2,x")
    with pytest.raises(ValueError):
        parse_multipartition("1,2")


def test_parse_residues():
    assert parse_residues("0,1,0") == (0, 1, 0)
    assert parse_residues("") == ()
    with pytest.raises(ValueError):
        parse_residues("0,2")
    with pytest.raises(ValueError):
        as_multicharge(())
