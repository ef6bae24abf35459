import pytest

from qspecht.adjustment import (
    AdjustmentEvidence,
    adjusted_entry,
    candidate_entries,
    default_bound,
    evidence_report,
    published_evidence,
)
from qspecht.core import degree_parity
from qspecht.fock import decomposition_matrix
from qspecht.laurent import LaurentPoly, ONE, Q, ZERO, q_power
from qspecht.tableaux import (
    degree,
    residue_sequence,
    row_filled_tableau,
    standard_tableaux_with_degrees,
)

K0 = (0,)


def test_published_evidence_table():
    table = published_evidence()
    assert len(table) == 4
    first = table[0]
    assert first == AdjustmentEvidence((3, 2, 2, 1), (1,) * 8, 2, 2)
    assert all(ev.ungraded_value == 2 and ev.p == 2 for ev in table)
    assert {sum(ev.lam) for ev in table} == {8, 9, 10}


def test_published_pairs_have_opposite_parities():
    for ev in published_evidence():
        assert degree_parity((ev.lam,), K0) != degree_parity((ev.mu,), K0)


def test_evidence_validation():
    with pytest.raises(ValueError):
        AdjustmentEvidence((2,), (1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        AdjustmentEvidence((2,), (1, 1), -1, 2)


def test_candidate_entries_odd_value_two():
    ev = published_evidence()[0]
    assert default_bound(ev, K0) == 5
    found = candidate_entries(ev, K0)
    assert found == [
        Q + q_power(-1),
        q_power(3) + q_power(-3),
        q_power(5) + q_power(-5),
    ]


def test_candidate_entries_degenerate_cases():
    zero = AdjustmentEvidence((2, 1), (1, 1, 1), 0, 2)
    assert candidate_entries(zero, K0) == [ZERO]
    same_parity = AdjustmentEvidence((2, 2, 1), (1,) * 5, 1, 2)
    assert degree_parity(((2, 2, 1),), K0) == degree_parity(((1,) * 5,), K0)
    assert candidate_entries(same_parity, K0) == [ONE]


def test_candidate_entries_mixed_even_value():
    ev = AdjustmentEvidence((2, 2, 1), (1,) * 5, 2, 2)
    assert default_bound(ev, K0) == 2
    found = candidate_entries(ev, K0)
    assert set(found) == {
        LaurentPoly({0: 2}),
        q_power(2) + q_power(-2),
    }


def test_candidates_satisfy_all_constraints():
    for ev in published_evidence():
        parity = (degree_parity((ev.lam,), K0) + degree_parity((ev.mu,), K0)) % 2
        for f in candidate_entries(ev, K0):
            assert f.bar() == f
            assert f.eval_at_one() == ev.ungraded_value
            assert f.is_pure_parity(parity)


def test_evidence_report_pins_published_columns():
    expected = Q + q_power(-1)
    for ev in published_evidence()[:3]:
        assert evidence_report(ev, K0).pinned == expected


def test_pin_fourth_pair_is_undetermined():
    report = evidence_report(published_evidence()[3], K0)
    assert report.pinned is None
    assert report.note.startswith("undetermined: ")


def test_a_constant_survives_when_degree_zero_occurs():
    # a(1) = 1 at even parity leaves the one candidate 1, and the truncation
    # has degree 0, so the entry is pinned
    report = evidence_report(AdjustmentEvidence((2, 2, 1), (1,) * 5, 1, 2), K0)
    assert report.degrees == (0,)
    assert report.candidates == (ONE,)
    assert report.pinned == ONE
    assert report.note == "pinned"


def test_a_constant_candidate_can_leave_an_entry_undetermined():
    # degree 0 occurs 7 times and -2 once, so 2 passes the filter as well as
    # q^-2+q^2, and neither is pinned
    report = evidence_report(AdjustmentEvidence((3, 3, 2, 2, 1), (1,) * 11, 2, 2), K0)
    assert report.degrees.count(0) == 7 and report.degrees.count(-2) == 1
    assert report.pinned is None
    assert report.note == (
        "undetermined: 2 candidates survive the truncation filter: ['2', 'q^-2+q^2']"
    )


def test_pinned_entry_witnesses_negative_degree():
    # a pinned non-constant bar-symmetric entry has a negative exponent, so
    # the corresponding graded numbers leave the polynomial ring
    entry = evidence_report(published_evidence()[0], K0).pinned
    assert entry.min_exponent() < 0
    assert entry != LaurentPoly({0: entry.eval_at_one()})


def test_default_bound_comes_from_specht_support():
    ev = published_evidence()[0]
    bound = default_bound(ev, K0)
    assert bound >= 1
    report = evidence_report(ev, K0)
    assert report.pinned == Q + q_power(-1)
    assert max(f.max_exponent() for f in report.candidates) == bound


def test_adjusted_entry_identity_and_errors():
    row = [Q, ONE, ZERO]
    identity_col = [ZERO, ONE, ZERO]
    assert adjusted_entry(row, identity_col) == ONE
    assert adjusted_entry([ZERO, ZERO], [ONE, Q]) == ZERO
    with pytest.raises(ValueError):
        adjusted_entry([ONE], [ONE, Q])


def test_adjusted_entry_for_pinned_column():
    # multiply the d=8 characteristic-0 row of (3,2,2,1) with the adjustment
    # column of the column-shape, filled with the pinned entry
    matrix = decomposition_matrix(8)
    lam = ((3, 2, 2, 1),)
    pinned = evidence_report(published_evidence()[0], K0).pinned
    column = []
    for nu in matrix.cols:
        if nu == lam:
            column.append(pinned)
        elif nu == ((1,) * 8,):
            column.append(ONE)
        else:
            column.append(ZERO)
    result = adjusted_entry(matrix.row(lam), column)
    assert result.coefficient(-1) == 1
    assert all(c >= 0 for _, c in result.to_pairs())


def test_evidence_reports():
    reports = [evidence_report(ev, K0) for ev in published_evidence()]
    for r in reports[:3]:
        assert r.pinned == Q + q_power(-1)
        assert r.note == "pinned"
    assert reports[0].tableau_count == 4
    assert sorted(reports[0].degrees) == [-1, 1, 1, 1]
    last = reports[3]
    assert last.pinned is None
    assert last.note.startswith("undetermined")
    assert last.tableau_count is None
    assert len(last.candidates) >= 1


@pytest.mark.parametrize("kappa", [(0,), (1,)])
def test_evidence_counts_are_the_listed_tableaux(kappa):
    # the report reads the truncation's graded dimension; the listing
    # enumerates the tableaux with the column's residue sequence
    for ev in published_evidence()[:3]:
        report = evidence_report(ev, kappa)
        residues = residue_sequence(row_filled_tableau((ev.mu,)), kappa)
        found = list(standard_tableaux_with_degrees((ev.lam,), kappa, residues))
        assert report.tableau_count == len(found) > 0
        assert report.degrees == tuple(sorted(degree(t, kappa) for t, _ in found))
        assert all(degree(t, kappa) == deg for t, deg in found)


def test_each_evidence_computes_its_candidates_and_truncation_once(monkeypatch):
    # three column evidences, one truncation each; four candidate lists
    import qspecht.adjustment as adjustment

    calls = {"qdim_truncation": 0, "candidate_entries": 0}
    for name in calls:
        original = getattr(adjustment, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(adjustment, name, counting)
    reports = [evidence_report(ev, K0) for ev in published_evidence()]
    assert calls == {"qdim_truncation": 3, "candidate_entries": 4}
    assert [r.note for r in reports][:3] == ["pinned"] * 3
