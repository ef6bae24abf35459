"""Fuzz over the library's entry points: each draw either raises ValueError or
agrees with the oracles.

The draws mix valid inputs with zero, negative, rising and non-integer
parts, shapes and components that are lists, wrong component counts,
charges that are not integers, nodes that are not triples of integers,
sizes that are not integers and bad residues.  The tests decide validity
themselves, so an entry point may neither refuse a valid input nor answer an
invalid one."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from qspecht.core import (
    degree_contribution,
    degree_parity,
    empty_multipartition,
    multipartitions,
    partitions,
    young_nodes,
)
from qspecht.crystal import add_good_node, restricted_multipartitions
from qspecht.fock import decomposition_matrix, simple_qdims
from qspecht.laurent import ZERO, LaurentPoly
from qspecht.specht import (
    qdim_hecke,
    qdim_specht,
    qdim_truncation,
    verify_hecke_even,
    verify_row_degree_parity,
    verify_specht_parity,
)
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
_component = st.one_of(_partition, _partition, _partition, _any_parts.map(tuple), _partition.map(list))
# charges outside {0, 1} are read mod 2, so they are valid, and so is a list
# of charges; a charge that is not an integer is not
_charges = st.lists(
    st.one_of(st.integers(-1, 2), st.integers(-1, 2), st.integers(-1, 2), st.sampled_from([0.5, 1.0])),
    min_size=1,
    max_size=3,
)
_charge = st.one_of(_charges.map(tuple), _charges.map(tuple), _charges)
_residue = st.integers(-1, 2)
_size = st.one_of(st.integers(-1, 4), st.integers(-1, 4), st.sampled_from([1.5, 2.0, "2", None]))
_coordinate = st.integers(0, 4)
_node = st.one_of(
    *[st.tuples(_coordinate, _coordinate, _coordinate)] * 4,
    st.tuples(_coordinate, _coordinate),
    st.tuples(st.sampled_from(["a", 1.0]), _coordinate, _coordinate),
    st.lists(_coordinate, min_size=3, max_size=3),
)


def is_partition(comp):
    return (
        type(comp) is tuple
        and all(type(p) is int and p >= 1 for p in comp)
        and list(comp) == sorted(comp, reverse=True)
    )


def is_charge(kappa):
    return len(kappa) > 0 and all(type(k) is int for k in kappa)


def is_shape(lam, kappa):
    return (
        type(lam) is tuple and len(lam) == len(kappa) and all(map(is_partition, lam)) and is_charge(kappa)
    )


def is_node(node):
    return type(node) is tuple and len(node) == 3 and all(type(x) is int for x in node)


@st.composite
def shapes(draw):
    """(lam, kappa), with one component too few or too many now and then."""
    kappa = draw(_charge)
    level = len(kappa) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    lam = tuple(draw(_component) for _ in range(level))
    if is_shape(lam, kappa):
        assume(sum(map(sum, lam)) <= MAX_SIZE)
    if draw(st.integers(0, 7)) == 0:
        lam = list(lam)
    return lam, kappa


def residue_sequences(lam):
    """Residue sequences, of the shape's size or not."""
    size = sum(p for comp in lam for p in comp if type(p) is int and p > 0)
    fitting = st.lists(st.integers(0, 1), min_size=size, max_size=size)
    return st.one_of(fitting, fitting, st.lists(_residue, max_size=MAX_SIZE + 1)).map(tuple)


def oracle_qdim(lam, kappa):
    return sum(oracles.tableau_truncations(lam, tuple(kappa)).values(), ZERO)


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
    truncations = oracles.tableau_truncations(lam, tuple(kappa))
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
    drawn = st.lists(st.one_of(node, node, node, _node), max_size=MAX_SIZE + 1)
    if all(map(is_partition, lam)):
        drawn = st.one_of(drawn, st.permutations(list(young_nodes(lam))))
    return StandardTableau(lam, tuple(draw(drawn))), kappa


@fuzz
@given(tableaux())
@example((StandardTableau(((5,),), ((1, 1, 1),)), (0,)))  # does not fill its shape
def test_degree_and_check(drawn):
    t, kappa = drawn
    placed = all(map(is_node, t.places))
    expected = None
    if placed and is_shape(t.shape, kappa):
        expected = oracles.literal_degree(t.shape, t.places, kappa)
    if expected is None:
        for reading in (degree, residue_sequence):
            with pytest.raises(ValueError):
                reading(t, kappa)
    else:
        assert degree(t, kappa) == expected
        residues = tuple(oracles.residue_of(node, kappa) for node in t.places)
        assert residue_sequence(t, kappa) == residues
    if not placed or oracles.literal_degree(t.shape, t.places, (0,) * len(t.shape)) is None:
        with pytest.raises(ValueError):
            t.check()
    else:
        t.check()


@fuzz
@given(shapes(), _node)
@example((((1, 3),), (0,)), (1, 1, 1))  # (1, 3) is no partition
@example((((1, 3), (1,)), (0, 0)), (1, 1, 2))
@example((((1,),), (0,)), (1, 1))  # once "not enough values to unpack"
@example((((1,),), (0,)), ("a", 1, 1))  # once a TypeError
def test_degree_contribution(shape, node):
    lam, kappa = shape
    if not (is_shape(lam, kappa) and is_node(node) and oracles.contains_node(lam, node)):
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


def closure_layer(d, kappa):
    """The size-d layer of the good-node closure, grown by the oracle."""
    layer = {empty_multipartition(len(kappa))}
    for _ in range(d):
        grown = {oracles.add_good_node(lam, kappa, i) for lam in layer for i in (0, 1)}
        layer = grown - {None}
    return layer


@fuzz
@given(_size, _charge)
@example(1.5, (0,))  # once a TypeError in every entry point below
def test_entry_points_that_take_a_size(d, kappa):
    sized = type(d) is int and d >= 0
    valid = sized and is_charge(kappa)
    by_size = {
        "partitions": lambda: list(partitions(d)),
        "multipartitions": lambda: list(multipartitions(d, len(kappa))),
    }
    by_size_and_charge = {
        "restricted_multipartitions": lambda: restricted_multipartitions(d, kappa),
        "qdim_hecke": lambda: qdim_hecke(d, kappa),
        "verify_hecke_even": lambda: verify_hecke_even(d, kappa),
        "verify_specht_parity": lambda: verify_specht_parity(d, kappa),
        "verify_row_degree_parity": lambda: verify_row_degree_parity(d, kappa),
    }
    for name, call in [*by_size.items(), *by_size_and_charge.items()]:
        if not (sized if name in by_size else valid):
            with pytest.raises(ValueError):
                call()
    if not sized:
        return
    assert by_size["partitions"]() == list(oracles.recursive_partitions(d))
    shapes_of_d = by_size["multipartitions"]()
    assert len(shapes_of_d) == len(set(shapes_of_d))
    # a level-1 matrix, solved with the drawn charge: a charge of another
    # level, or one that is not an integer, is refused
    level_1 = valid and len(kappa) == 1
    matrix = decomposition_matrix(d, kappa if level_1 else (0,))
    if not level_1:
        with pytest.raises(ValueError):
            simple_qdims(matrix, kappa)
    else:
        simples = simple_qdims(matrix, kappa)
        for lam in matrix.rows:
            rebuilt = sum((matrix.entry(lam, mu) * simples[mu] for mu in matrix.cols), ZERO)
            assert rebuilt == oracle_qdim(lam, kappa), lam
    if not valid:
        return
    qdims = [oracle_qdim(lam, kappa) for lam in shapes_of_d]
    assert qdim_hecke(d, kappa) == sum((qdim * qdim for qdim in qdims), ZERO)
    assert restricted_multipartitions(d, kappa) == closure_layer(d, kappa)
    for sweep in (verify_specht_parity, verify_row_degree_parity):
        report = sweep(d, kappa)
        assert report.ok and report.checked == len(shapes_of_d)
    report = verify_hecke_even(d, kappa)
    assert report.ok and report.checked == d + 1


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
