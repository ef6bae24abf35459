"""Fuzz over the library's entry points: each draw either raises ValueError or
agrees with the oracles.

The draws mix valid inputs with zero, negative, rising and non-integer
parts, wrong component counts and bad residues.  The tests decide validity
themselves, so an entry point may neither refuse a valid input nor answer an
invalid one."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from qspecht.core import degree_contribution, degree_parity, young_nodes
from qspecht.crystal import add_good_node
from qspecht.laurent import ZERO, LaurentPoly
from qspecht.specht import qdim_specht, qdim_truncation
from qspecht.tableaux import (
    StandardTableau,
    degree,
    residue_sequence,
    standard_tableaux_with_degrees,
)

MAX_SIZE = 6
fuzz = settings(max_examples=100, deadline=None, database=None)

_partition = st.lists(st.integers(1, 3), max_size=3).map(lambda p: tuple(sorted(p, reverse=True)))
_any_parts = st.lists(st.one_of(st.integers(-1, 3), st.sampled_from([1.5, 2.0])), max_size=3)
_component = st.one_of(_partition, _partition, _any_parts.map(tuple))
# charges outside {0, 1} are read mod 2, so they are valid
_charge = st.lists(st.integers(-1, 2), min_size=1, max_size=3).map(tuple)
_residue = st.integers(-1, 2)


def is_partition(comp):
    return all(type(p) is int and p >= 1 for p in comp) and list(comp) == sorted(comp, reverse=True)


def is_shape(lam, kappa):
    return len(lam) == len(kappa) and all(map(is_partition, lam))


@st.composite
def shapes(draw):
    """(lam, kappa), with one component too few or too many now and then."""
    kappa = draw(_charge)
    level = len(kappa) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    lam = tuple(draw(_component) for _ in range(level))
    if is_shape(lam, kappa):
        assume(sum(map(sum, lam)) <= MAX_SIZE)
    return lam, kappa


def residue_sequences(lam):
    """Residue sequences, of the shape's size or not."""
    size = sum(p for comp in lam for p in comp if type(p) is int and p > 0)
    fitting = st.lists(st.integers(0, 1), min_size=size, max_size=size)
    return st.one_of(fitting, fitting, st.lists(_residue, max_size=MAX_SIZE + 1)).map(tuple)


def oracle_qdim(lam, kappa):
    return sum(oracles.tableau_truncations(lam, kappa).values(), ZERO)


@fuzz
@given(shapes())
def test_qdim_specht_and_degree_parity(shape):
    lam, kappa = shape
    if not is_shape(lam, kappa):
        for entry in (qdim_specht, degree_parity):
            with pytest.raises(ValueError):
                entry(lam, kappa)
        return
    qdim = oracle_qdim(lam, kappa)
    assert qdim_specht(lam, kappa) == qdim
    # every tableau's degree has the parity of the shape
    assert degree_parity(lam, kappa) == qdim.min_exponent() % 2


@fuzz
@given(st.data())
def test_qdim_truncation_and_tableaux(data):
    lam, kappa = data.draw(shapes())
    residues = data.draw(st.one_of(st.none(), residue_sequences(lam)))
    valid = is_shape(lam, kappa) and (
        residues is None
        or (len(residues) == sum(map(sum, lam)) and set(residues) <= {0, 1})
    )
    if not valid:
        with pytest.raises(ValueError):
            standard_tableaux_with_degrees(lam, kappa, residues)
        if residues is not None:
            with pytest.raises(ValueError):
                qdim_truncation(lam, kappa, residues)
        return
    truncations = oracles.tableau_truncations(lam, kappa)
    expected = oracle_qdim(lam, kappa) if residues is None else truncations.get(residues, ZERO)
    listed = list(standard_tableaux_with_degrees(lam, kappa, residues))
    assert len({t.places for t, _ in listed}) == len(listed)
    for t, deg in listed:
        assert oracles.literal_degree(lam, t.places, kappa) == deg
    assert LaurentPoly((deg, 1) for _, deg in listed) == expected
    if residues is not None:
        assert qdim_truncation(lam, kappa, residues) == expected


@st.composite
def tableaux(draw):
    """(tableau, kappa): the shape's own cells in some order, or nodes drawn
    from a box around it."""
    lam, kappa = draw(shapes())
    node = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, len(lam) + 1))
    drawn = st.lists(node, max_size=MAX_SIZE + 1)
    if all(map(is_partition, lam)):
        drawn = st.one_of(drawn, st.permutations(list(young_nodes(lam))))
    return StandardTableau(lam, tuple(draw(drawn))), kappa


@fuzz
@given(tableaux())
@example((StandardTableau(((5,),), ((1, 1, 1),)), (0,)))  # does not fill its shape
def test_degree_and_check(drawn):
    t, kappa = drawn
    expected = None
    if len(t.shape) == len(kappa):
        expected = oracles.literal_degree(t.shape, t.places, kappa)
    if expected is None:
        for reading in (degree, residue_sequence):
            with pytest.raises(ValueError):
                reading(t, kappa)
    else:
        assert degree(t, kappa) == expected
        residues = tuple(oracles.residue_of(node, kappa) for node in t.places)
        assert residue_sequence(t, kappa) == residues
    if oracles.literal_degree(t.shape, t.places, (0,) * len(t.shape)) is None:
        with pytest.raises(ValueError):
            t.check()
    else:
        t.check()


@fuzz
@given(shapes(), st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
@example((((1, 3),), (0,)), (1, 1, 1))  # (1, 3) is no partition
@example((((1, 3), (1,)), (0, 0)), (1, 1, 2))
def test_degree_contribution(shape, node):
    lam, kappa = shape
    if not (is_shape(lam, kappa) and oracles.contains_node(lam, node)):
        with pytest.raises(ValueError):
            degree_contribution(lam, kappa, node)
        return
    assert degree_contribution(lam, kappa, node) == oracles.degree_contribution(lam, kappa, node)


@fuzz
@given(shapes(), _residue)
@example((((1, 3),), (0,)), 0)  # (1, 3) is no partition
def test_add_good_node(shape, i):
    lam, kappa = shape
    if not (is_shape(lam, kappa) and i in (0, 1)):
        with pytest.raises(ValueError):
            add_good_node(lam, kappa, i)
        return
    assert add_good_node(lam, kappa, i) == oracles.add_good_node(lam, kappa, i)


_pair_value = st.one_of(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([1.5, 2.0, "1", None]))


@fuzz
@given(st.lists(st.lists(_pair_value, min_size=2, max_size=2), max_size=5))
@example([[0, 1.5]])
def test_laurent_poly_of_pairs(pairs):
    if not all(type(x) is int for pair in pairs for x in pair):
        with pytest.raises(ValueError):
            LaurentPoly(pairs)
        return
    f = LaurentPoly(pairs)
    assert {e: f.coefficient(e) for e in f.support()} == oracles.pair_sums(pairs)
