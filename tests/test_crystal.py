import hashlib
import itertools

import pytest

import oracles
from qspecht import crystal
from qspecht.core import (
    is_2_restricted,
    multipartition_size,
    multipartitions,
    partitions,
    steps,
    with_node_added,
)
from qspecht.crystal import add_good_node, restricted_multipartitions
from oracles import kernel_signatures

K0 = (0,)


def test_signature_examples():
    assert kernel_signatures(((1,),), K0) == (
        [((1, 1, 1), "-")],
        [((1, 2, 1), "+"), ((2, 1, 1), "+")],
    )
    assert kernel_signatures(((),), K0) == ([((1, 1, 1), "+")], [])
    assert kernel_signatures(((2,),), K0) == (
        [((1, 3, 1), "+")],
        [((1, 2, 1), "-"), ((2, 1, 1), "+")],
    )
    # the kernel itself lists each signature lowest first, with the '+'
    # minus the '-' below each node
    assert steps(((2,),), K0) == (
        [((1, 3, 1), "+", 0)],
        [((2, 1, 1), "+", 0), ((1, 2, 1), "-", 1)],
    )


def test_signature_below_order_level_two():
    for sig in kernel_signatures(((2, 1), (1,)), (0, 1)):
        keys = [(node[2], node[0]) for node, _ in sig]
        assert keys == sorted(keys)


def test_add_good_node_examples():
    assert add_good_node(((),), K0, 0) == ((1,),)
    assert add_good_node(((1,),), K0, 0) is None
    assert add_good_node(((1,),), K0, 1) == ((1, 1),)


def test_adjacent_cancellation():
    # (2) has signature -+ for residue 1: the pair cancels, nothing is addable
    assert add_good_node(((2,),), K0, 1) is None


def test_remove_inverts_add():
    for d in range(7):
        for lam in restricted_multipartitions(d, K0):
            for i in (0, 1):
                grown = add_good_node(lam, K0, i)
                if grown is not None:
                    assert oracles.remove_good_node(grown, K0, i) == lam
    for d in range(5):
        for lam in multipartitions(d, 2):
            for i in (0, 1):
                grown = add_good_node(lam, (0, 1), i)
                if grown is not None:
                    assert oracles.remove_good_node(grown, (0, 1), i) == lam


@pytest.mark.parametrize("level,top", [(1, 8), (2, 8), (3, 6), (4, 4)])
def test_add_good_node_matches_the_stack_reduction(level, top):
    for kappa in itertools.product((0, 1), repeat=level):
        cases = []
        for d in range(top + 1):
            for lam in multipartitions(d, level):
                for i in (0, 1):
                    cases.append((lam, i, oracles.add_good_node(lam, kappa, i)))
        with crystal.summary_memo.held():
            for lam, i, grown in cases:
                assert add_good_node(lam, kappa, i) == grown, (lam, kappa, i)
        assert crystal.summary_memo.get() is not crystal.summary_memo.get()
        for lam, i, grown in cases:
            assert add_good_node(lam, kappa, i) == grown, (lam, kappa, i)


def oracle_summary(comp, k):
    """(A0, B0, grown0, A1, B1, grown1) of one component of charge k, read
    from the literal stack reduction of each signature."""
    out = ()
    for i in (0, 1):
        reduced = oracles.reduced_signature((comp,), (k,), i)
        plus = [node for node, mark in reduced if mark == "+"]
        grown = with_node_added((comp,), plus[-1])[0] if plus else None
        out += (len(plus), len(reduced) - len(plus), grown)
    return out


@pytest.mark.parametrize("k", [0, 1])
def test_component_summary_matches_the_stack_reduction(k):
    # every partition of size <= 12, the 40-row column, the 40-part row and
    # the staircase (12, 11, ..., 1)
    shapes = [p for d in range(13) for p in partitions(d)]
    shapes += [(1,) * 40, (40,), tuple(range(12, 0, -1))]
    table = crystal._Interned(k)
    for comp in shapes:
        A0, B0, g0, A1, B1, g1 = table.summary(table.index(comp))
        grown0 = None if g0 is None else table.comps[g0]
        grown1 = None if g1 is None else table.comps[g1]
        assert (A0, B0, grown0, A1, B1, grown1) == oracle_summary(comp, k), comp


def test_charges_count_modulo_two():
    for d in range(6):
        for lam in multipartitions(d, 2):
            for i in (0, 1):
                expected = oracles.add_good_node(lam, (2, -1), i)
                assert add_good_node(lam, (2, -1), i) == expected, (lam, i)


def test_closure_memo_lives_for_one_call(monkeypatch):
    # outside a held block every get() is a fresh state
    memo = crystal.summary_memo
    assert restricted_multipartitions(6, (0, 1))
    assert memo.get() is not memo.get()

    def failing(lam, kappa, i):
        assert memo.get() is memo.get()
        raise RuntimeError("stop")

    monkeypatch.setattr(crystal, "add_good_node", failing)
    with pytest.raises(RuntimeError):
        restricted_multipartitions(3, (0, 1))
    assert memo.get() is not memo.get()


def test_restricted_examples():
    assert restricted_multipartitions(2, K0) == {((1, 1),)}
    assert restricted_multipartitions(0, (0, 1)) == {((), ())}


def test_restricted_matches_level_one_characterisation():
    for d in range(11):
        generated = {lam[0] for lam in restricted_multipartitions(d, K0)}
        filtered = {p for p in partitions(d) if is_2_restricted(p)}
        assert generated == filtered, d


@pytest.mark.parametrize("level,top", [(2, 10), (3, 7), (4, 5)])
def test_restricted_is_the_closure_under_the_oracle(level, top):
    for kappa in itertools.product((0, 1), repeat=level):
        layer = {((),) * level}
        for d in range(top + 1):
            assert restricted_multipartitions(d, kappa) == layer, (kappa, d)
            grown = (oracles.add_good_node(lam, kappa, i) for lam in layer for i in (0, 1))
            layer = {lam for lam in grown if lam is not None}


def test_the_closure_reads_charges_modulo_two():
    for d in range(9):
        assert restricted_multipartitions(d, (2, -1)) == restricted_multipartitions(d, (0, 1))
        assert restricted_multipartitions(d, (3, 0, 2)) == restricted_multipartitions(d, (1, 0, 0))


def test_add_good_node_checks_components_after_a_closure_in_the_same_block():
    # the closure fills the summary memo unchecked, with partitions only
    with crystal.summary_memo.held():
        assert restricted_multipartitions(8, (0, 1))
        with pytest.raises(ValueError, match="weakly decreasing"):
            add_good_node(((1, 3), ()), (0, 1), 0)


def test_restricted_subset_of_all_multipartitions():
    for kappa in [(0, 1), (1, 0), (1, 1)]:
        for d in range(6):
            everything = set(multipartitions(d, 2))
            layer = restricted_multipartitions(d, kappa)
            assert layer <= everything
            assert all(multipartition_size(lam) == d for lam in layer)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        restricted_multipartitions(-1, K0)


@pytest.mark.parametrize("d", [0, 3])
def test_empty_multicharge_rejected(d):
    with pytest.raises(ValueError, match="at least one component"):
        restricted_multipartitions(d, ())


# sha256 over the lines f"{d}: {sorted(restricted_multipartitions(d, kappa))!r}\n"
# for d = 0..20 at levels 1-2 and d = 0..14 at level 3, recorded from the
# implementation that stack-reduced the whole signature of every multipartition
FROZEN_CLOSURE_SHA256 = {
    (0,): "448c6def57de40e1396de711dc3f15cd3b313132d8d1631fd712c9aec9b504a3",
    (1,): "448c6def57de40e1396de711dc3f15cd3b313132d8d1631fd712c9aec9b504a3",
    (0, 0): "1f14ee4b908a32afc5dd47bc8cac6158822ec5635146cc7f19954bedd968a25f",
    (0, 1): "d79d886422b60cbca5a20832b986959b35bce3fa56fc495c4f4e029e4c19ad69",
    (1, 0): "d79d886422b60cbca5a20832b986959b35bce3fa56fc495c4f4e029e4c19ad69",
    (1, 1): "1f14ee4b908a32afc5dd47bc8cac6158822ec5635146cc7f19954bedd968a25f",
    (0, 0, 0): "2a5e726d4d676c92449bf96982c247dd8b37751694a58c66d40968db268a8b38",
    (0, 0, 1): "387fb646c020e2e61ba336f940c644dc88e29f73fc92ad237c6d26ef0e608cab",
    (0, 1, 0): "9808d8f585c590a75ac6676b1fd63a6c2b75aefa8ec84bddb64c45b4b57a135a",
    (0, 1, 1): "0d24343d9922a2a6077a1459cd6a810204f95f11e2d4745d6baa9b32d985de09",
    (1, 0, 0): "0d24343d9922a2a6077a1459cd6a810204f95f11e2d4745d6baa9b32d985de09",
    (1, 0, 1): "9808d8f585c590a75ac6676b1fd63a6c2b75aefa8ec84bddb64c45b4b57a135a",
    (1, 1, 0): "387fb646c020e2e61ba336f940c644dc88e29f73fc92ad237c6d26ef0e608cab",
    (1, 1, 1): "2a5e726d4d676c92449bf96982c247dd8b37751694a58c66d40968db268a8b38",
}


def test_closures_match_frozen_digests():
    for level, top in ((1, 20), (2, 20), (3, 14)):
        for kappa in itertools.product((0, 1), repeat=level):
            digest = hashlib.sha256()
            for d in range(top + 1):
                layer = sorted(restricted_multipartitions(d, kappa))
                digest.update(f"{d}: {layer!r}\n".encode())
            assert digest.hexdigest() == FROZEN_CLOSURE_SHA256[kappa], kappa
