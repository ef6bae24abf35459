import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import textwrap
from itertools import product
from math import factorial

import pytest

import qspecht
from qspecht import specht, tableaux
from qspecht.cli import main
from qspecht.core import (
    CallMemo,
    degree_contribution,
    degree_parity,
    multipartitions,
    partitions,
    signatures,
    steps,
)
from qspecht.crystal import add_good_node
from qspecht.fock import decomposition_matrix, simple_qdims
from qspecht.laurent import LaurentPoly, ONE, Q, ZERO, q_power
from qspecht.specht import (
    SweepReport,
    qdim_hecke,
    qdim_specht,
    qdim_truncation,
    verify_hecke_even,
    verify_row_degree_parity,
    verify_specht_parity,
)
from qspecht.tableaux import degree, row_filled_tableau, standard_tableaux_with_degrees
from oracles import (
    hook_length_count,
    literal_truncations,
    partition_count,
    tableau_truncations,
)

K0 = (0,)


def test_qdim_specht_examples():
    assert qdim_specht(((2,),), K0) == Q
    assert qdim_specht(((1, 1),), K0) == ONE
    assert qdim_specht(((),), K0) == ONE
    assert qdim_specht(((2,),), [0]) == Q


def test_qdim_specht_frozen_values():
    assert qdim_specht(((2, 1),), K0) == Q + q_power(-1)
    assert qdim_specht(((2, 1, 1),), K0) == q_power(-1) + 2 * Q
    assert qdim_specht(((3, 1),), K0) == 2 * Q + q_power(3)


def test_qdim_specht_counts_tableaux():
    for d in range(9):
        for p in partitions(d):
            assert qdim_specht((p,), K0).eval_at_one() == hook_length_count(p)


@pytest.mark.parametrize("level, max_d", [(1, 10), (2, 8), (3, 6)])
def test_graded_dimensions_match_tableau_sums(level, max_d):
    """The branching recursion against the sum over tableaux, for every
    charge; truncations too, on every residue sequence that occurs, for
    shapes of size at most 7 at levels 1 and 2.  The charges interleave in
    one shared memo, which must keep them apart."""
    with specht.qdim_memo.held():
        for d in range(max_d + 1):
            for lam in multipartitions(d, level):
                for kappa in product((0, 1), repeat=level):
                    by_sequence = tableau_truncations(lam, kappa)
                    qdim = qdim_specht(lam, kappa)
                    assert qdim == sum(by_sequence.values(), ZERO), (lam, kappa)
                    if level <= 2 and d <= 7:
                        truncations = {
                            seq: qdim_truncation(lam, kappa, seq) for seq in by_sequence
                        }
                        assert truncations == by_sequence, (lam, kappa)
                        assert sum(truncations.values(), ZERO) == qdim, (lam, kappa)


def test_tableau_oracle_is_the_literal_sum():
    for level, max_d in [(1, 7), (2, 5), (3, 4)]:
        for d in range(max_d + 1):
            for lam in multipartitions(d, level):
                for kappa in product((0, 1), repeat=level):
                    literal = literal_truncations(lam, kappa)
                    assert tableau_truncations(lam, kappa) == literal, (lam, kappa)


def module_states():
    """Each qspecht module's top-level names with their values and reprs, so
    that a container changed in place shows too."""
    for info in pkgutil.iter_modules(qspecht.__path__, "qspecht."):
        if info.name != "qspecht.__main__":
            importlib.import_module(info.name)
    return {
        module: {name: (value, repr(value)) for name, value in vars(sys.modules[module]).items()}
        for module in sorted(sys.modules)
        if module.split(".")[0] == "qspecht"
    }


def test_no_memo_outlives_a_call():
    assert not hasattr(qdim_specht, "cache_info")
    before = module_states()
    assert verify_specht_parity(6, (0, 1)).ok
    assert verify_hecke_even(4, (0, 1)).ok
    assert simple_qdims(decomposition_matrix(6))
    for argv in (
        ["verify", "parity", "--d", "8"],
        ["verify", "parity", "--d", "6", "--charge", "0,1"],
        ["verify", "hecke", "--d", "5"],
        ["verify", "hecke", "--d", "4", "--charge", "0,1"],
        ["llt", "--d", "8", "--charge", "1"],
        ["restricted", "--d", "10"],
        ["restricted", "--d", "8", "--charge", "1,0"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert module_states() == before
    memos = [value for state in before.values() for value, _ in state.values()
             if isinstance(value, CallMemo)]
    assert len(memos) == 3
    # outside a held block every get() is a fresh state
    assert all(memo.get() is not memo.get() for memo in memos)
    specht_values = [v for name, v in vars(specht).items() if not name.startswith("__")]
    assert not any(isinstance(v, (dict, list, set)) for v in specht_values)


def test_a_component_that_is_no_partition_is_a_value_error():
    with pytest.raises(ValueError, match="weakly decreasing"):
        qdim_specht(((2, 3),), K0)
    with pytest.raises(ValueError, match="positive"):
        qdim_specht(((0,),), K0)
    with pytest.raises(ValueError, match="weakly decreasing"):
        qdim_truncation(((1, 3),), K0, (0, 1, 0, 1))
    with pytest.raises(ValueError, match="weakly decreasing"):
        degree_parity(((1,), (1, 2)), (0, 1))
    # unchecked, the search lists no tableau of (2, 3) and one empty tableau of (0)
    with pytest.raises(ValueError, match="weakly decreasing"):
        standard_tableaux_with_degrees(((2, 3),), K0)
    with pytest.raises(ValueError, match="positive"):
        standard_tableaux_with_degrees(((0,),), K0)
    # unchecked, these grew (1, 3) to (1, 3, 1) and counted 1 at its first node
    with pytest.raises(ValueError, match="weakly decreasing"):
        add_good_node(((1, 3),), K0, 0)
    with pytest.raises(ValueError, match="weakly decreasing"):
        degree_contribution(((1, 3),), K0, (1, 1, 1))
    with pytest.raises(ValueError, match="weakly decreasing"):
        degree_contribution(((1, 3), (1,)), (0, 0), (1, 1, 2))


@pytest.mark.parametrize("level, d", [(2, 5), (3, 4)])
def test_charges_shifted_by_two_give_the_reduced_charges_results(level, d):
    for kappa in product((0, 1), repeat=level):
        reduced = verify_specht_parity(d, kappa)
        assert reduced.ok, reduced.violations
        for shift in product((-2, 2), repeat=level):
            shifted = tuple(k + s for k, s in zip(kappa, shift))
            for lam in multipartitions(d, level):
                assert degree_parity(lam, shifted) == degree_parity(lam, kappa), (lam, shifted)
            for sweep in (verify_specht_parity, verify_row_degree_parity):
                got, expected = sweep(d, shifted), sweep(d, kappa)
                assert (got.checked, got.violations) == (expected.checked, expected.violations)


def test_qdim_truncation_examples():
    lam = ((3, 2, 2, 1),)
    assert qdim_truncation(lam, K0, (0, 1, 0, 1, 0, 1, 0, 1)) == q_power(-1) + 3 * Q
    assert qdim_truncation(((2,),), K0, (0, 1)) == Q
    assert qdim_truncation(((2,),), K0, (1, 0)) == LaurentPoly()


def test_qdim_truncation_length_check():
    with pytest.raises(ValueError):
        qdim_truncation(((2,),), K0, (0,))


def test_qdim_truncation_checks_every_residue():
    # the recursion dies before it reaches the first entry, so only the
    # entry check can refuse it
    with pytest.raises(ValueError, match="residues must be 0 or 1"):
        qdim_truncation(((2, 1),), K0, (2, 0, 1))
    with pytest.raises(ValueError, match="residues must be 0 or 1"):
        qdim_truncation(((2, 1),), K0, [0, -1, 1])


@pytest.mark.parametrize("lam,kappa", [(((1,), (1,)), K0), (((1,),), (0, 1))])
def test_level_mismatch_is_a_value_error(lam, kappa):
    with pytest.raises(ValueError, match="components but charge has"):
        qdim_specht(lam, kappa)
    with pytest.raises(ValueError, match="components but charge has"):
        qdim_truncation(lam, kappa, (0,) * sum(map(sum, lam)))
    for kernel in (signatures, steps):
        with pytest.raises(ValueError, match="components but charge has"):
            kernel(lam, kappa)
    with pytest.raises(ValueError, match="components but charge has"):
        add_good_node(lam, kappa, 0)
    with pytest.raises(ValueError, match="components but charge has"):
        degree_contribution(lam, kappa, (1, 1, 1))


def test_truncations_partition_the_graded_dimension():
    import itertools

    for lam in [((3, 2),), ((2, 2, 1),), ((2, 1), (1,))]:
        kappa = K0 if len(lam) == 1 else (0, 1)
        d = sum(sum(c) for c in lam)
        total = LaurentPoly()
        for seq in itertools.product((0, 1), repeat=d):
            total = total + qdim_truncation(lam, kappa, seq)
        assert total == qdim_specht(lam, kappa)


def test_qdim_hecke_examples():
    assert qdim_hecke(0, K0) == ONE
    assert qdim_hecke(2, K0) == q_power(2) + ONE
    assert qdim_hecke(3, K0).eval_at_one() == 6


def test_qdim_hecke_dimension_identity():
    for d in range(7):
        assert qdim_hecke(d, K0).eval_at_one() == factorial(d)
    for d in range(5):
        assert qdim_hecke(d, (0, 1)).eval_at_one() == 2**d * factorial(d)


def test_qdim_hecke_has_even_parity_only():
    for d in range(7):
        assert qdim_hecke(d, K0).is_pure_parity(0)


def test_truncations_are_pure_of_the_shape_parity():
    import itertools

    for lam in [((3, 2),), ((2, 2, 1),)]:
        parity = degree_parity(lam, K0)
        d = sum(sum(c) for c in lam)
        for seq in itertools.product((0, 1), repeat=d):
            assert qdim_truncation(lam, K0, seq).is_pure_parity(parity)


def test_verify_specht_parity_sweep():
    for kappa, d in [(K0, 8), ((0, 1), 5)]:
        report = verify_specht_parity(d, kappa)
        assert report.ok
        assert report.checked == len(list(multipartitions(d, len(kappa))))
    assert verify_specht_parity(0, K0).ok


def test_parity_sweep_catches_counts_that_disagree_with_degree_contribution(monkeypatch):
    # Shifting every step of both residues by 2 keeps each qdim pure of its
    # parity, so only the row-filled degree check can see it.
    def shifted(lam, kappa, *residues):
        return tuple(
            [(node, mark, count + 2) for node, mark, count in sig]
            for sig in steps(lam, kappa, *residues)
        )

    monkeypatch.setattr(specht, "steps", shifted)
    report = verify_specht_parity(3, (0, 1))
    assert report.violations
    assert all("misses row-filled degree" in v for v in report.violations)


def test_verify_row_degree_parity_sweep():
    for kappa, d in [(K0, 10), ((1, 1), 5)]:
        assert verify_row_degree_parity(d, kappa).ok


@pytest.mark.parametrize("kappa", [K0, (0, 1)])
def test_every_sweep_rejects_a_negative_size(kappa):
    # unchecked, the empty rank loop of the hecke sweep and the empty level-2
    # shape list would read as an ok report with nothing checked
    for sweep in (verify_specht_parity, verify_row_degree_parity, verify_hecke_even):
        with pytest.raises(ValueError, match="size must be nonnegative"):
            sweep(-1, kappa)


def test_verify_hecke_even_report():
    report = verify_hecke_even(5, K0)
    assert report.ok
    assert report.checked == 6
    assert any("squared" in note for note in report.notes)


def test_report_is_json_serialisable():
    import json

    report = verify_specht_parity(3, K0)
    blob = json.dumps(report.to_json())
    assert '"ok": true' in blob


@pytest.mark.parametrize("level, max_d", [(1, 10), (2, 7), (3, 5)])
def test_the_row_filled_walk_matches_the_literal_degree(level, max_d):
    """The sweep's walk over row-filled prefixes against the literal prefix
    recursion of :func:`tableaux.degree`; one memo per charge serves every
    size, as it would serve every shape of one sweep."""
    for kappa in product((0, 1), repeat=level):
        memo = {}
        for d in range(max_d + 1):
            for lam in multipartitions(d, level):
                expected = degree(row_filled_tableau(lam), kappa)
                assert specht._row_filled_degree(lam, kappa, memo) == expected, (lam, kappa)
                assert specht._row_filled_degree(lam, kappa, {}) == expected, (lam, kappa)


def test_a_sweep_reads_each_row_filled_prefix_once(monkeypatch):
    calls = []

    def counted(lam, kappa, node):
        calls.append(lam)
        return degree_contribution(lam, kappa, node)

    bound = [
        module
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "qspecht"
        and getattr(module, "degree_contribution", None) is degree_contribution
    ]
    assert specht in bound
    for module in bound:
        monkeypatch.setattr(module, "degree_contribution", counted)
    assert verify_row_degree_parity(20, K0).ok
    # every nonempty partition of size at most 20 is a row-filled prefix of
    # a partition of 20, and each is read once
    assert len(calls) == len(set(calls)) == sum(map(partition_count, range(1, 21))) == 2713


def test_the_walks_run_without_recursion():
    # a 1,200-node row is deeper than Python's default recursion limit
    assert specht._row_filled_degree(((1200,),), K0, {}) == 600
    for fn in (specht._branch, specht._row_filled_degree, tableaux._search):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for scope in ast.walk(tree):
            if isinstance(scope, ast.FunctionDef):
                called = {n.func.id for n in ast.walk(scope)
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                assert scope.name not in called, (fn.__name__, scope.name)


def test_a_sweep_report_is_an_immutable_value():
    report = verify_specht_parity(3, (0, 1))
    with pytest.raises(AttributeError):
        report.checked = 0
    same = SweepReport(
        check="specht-parity",
        parameters={"d": 3, "charge": [0, 1]},
        checked=10,
        violations=(),
    )
    assert report == same
    assert report.notes == () and report.ok
    assert report.to_json() == {
        "check": "specht-parity",
        "parameters": {"d": 3, "charge": [0, 1]},
        "checked": 10,
        "violations": [],
        "notes": [],
        "ok": True,
    }
    failed = SweepReport("row-degree-parity", {"d": 1}, 1, ("x",), ("n",))
    assert not failed.ok
    assert failed.to_json() == {
        "check": "row-degree-parity",
        "parameters": {"d": 1},
        "checked": 1,
        "violations": ["x"],
        "notes": ["n"],
        "ok": False,
    }
