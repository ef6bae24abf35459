"""Acceptance suite: the package's headline guarantees, checked exhaustively
at desk scale with exact tolerances.  Run with ``pytest -s`` to see one
pass/fail line per criterion."""

import random
import time
from itertools import product
from math import factorial

from qspecht.adjustment import evidence_report, published_evidence
from qspecht.core import (
    degree_parity,
    is_2_restricted,
    multipartitions,
    partitions,
)
from qspecht.crystal import restricted_multipartitions
from qspecht.fock import decomposition_matrix, simple_qdims
from qspecht.laurent import LaurentPoly, ONE, Q, q_power
from qspecht.specht import (
    qdim_hecke,
    qdim_memo,
    qdim_specht,
    qdim_truncation,
    verify_specht_parity,
)
from qspecht.tableaux import degree, row_filled_tableau, standard_tableaux_with_degrees
from oracles import hook_length_count

K0 = (0,)
LEVEL_TWO_CHARGES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _report(number: int, description: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({time.time() - started:.1f}s) — {description}")


def _sweep_cases():
    for d in range(13):
        for lam in multipartitions(d, 1):
            yield lam, K0
    for kappa in LEVEL_TWO_CHARGES:
        for d in range(9):
            for lam in multipartitions(d, 2):
                yield lam, kappa


def test_criterion_1_specht_parity_sweep():
    started = time.time()
    sweeps = [(K0, 18)]
    sweeps += [(kappa, 12) for kappa in LEVEL_TWO_CHARGES]
    sweeps += [(kappa, 8) for kappa in product((0, 1), repeat=3)]
    violations = []
    with qdim_memo.held():  # one memo per charge across all sizes
        for kappa, max_d in sweeps:
            for d in range(max_d + 1):
                violations += verify_specht_parity(d, kappa).violations
    ok = not violations
    _report(1, "every Specht graded dimension is parity-pure "
               "(level 1 d<=18; level 2 d<=12, all four charges; "
               "level 3 d<=8, all eight charges)", ok, started)
    assert ok, violations


def test_criterion_2_row_tableau_degree_parity_sweep():
    started = time.time()
    violations = []
    for lam, kappa in _sweep_cases():
        if degree(row_filled_tableau(lam), kappa) % 2 != degree_parity(lam, kappa):
            violations.append((lam, kappa))
    ok = not violations
    _report(2, "row-filled tableau degree matches the parity statistic "
               "(level 1 d<=12; level 2 d<=8, all four charges)", ok, started)
    assert ok, violations


def test_criterion_3_adjustment_reproduction():
    started = time.time()
    lam = ((3, 2, 2, 1),)
    found = list(standard_tableaux_with_degrees(lam, K0, (0, 1, 0, 1, 0, 1, 0, 1)))
    degrees = sorted(degree(t, K0) for t, _ in found)
    ok = all(deg == degree(t, K0) for t, deg in found)
    ok = ok and len(found) == 4 and degrees == [-1, 1, 1, 1]
    expected = Q + q_power(-1)
    for ev in published_evidence()[:3]:
        ok = ok and evidence_report(ev, K0).pinned == expected
    _report(3, "exactly 4 alternating-residue tableaux with degrees "
               "{1,1,1,-1}; all three column pairs pin to q+q^-1", ok, started)
    assert ok


def test_criterion_4_hecke_grading_even_and_total_dimension():
    started = time.time()
    ok = True
    for d in range(9):
        qdim = qdim_hecke(d, K0)
        ok = ok and qdim.is_pure_parity(0)
        ok = ok and qdim.eval_at_one() == factorial(d)
    _report(4, "algebra graded dimension is even-degree only and totals d! "
               "for d<=8", ok, started)
    assert ok


def test_criterion_5_canonical_basis_suite():
    started = time.time()
    ok = True
    failures = []
    for d in range(1, 11):
        matrix = decomposition_matrix(d)
        simples = simple_qdims(matrix, K0)
        for mu in matrix.cols:
            if matrix.entry(mu, mu) != ONE:
                failures.append(("diagonal", d, mu))
        for lam in matrix.rows:
            for mu in matrix.cols:
                entry = matrix.entry(lam, mu)
                if lam != mu and entry and (
                    entry.min_exponent() < 1 or any(c < 0 for _, c in entry.to_pairs())
                ):
                    failures.append(("off-diagonal", d, lam, mu))
                parity = (degree_parity(lam, K0) + degree_parity(mu, K0)) % 2
                if not entry.is_pure_parity(parity):
                    failures.append(("entry-parity", d, lam, mu))
        for lam in matrix.rows:
            total = LaurentPoly()
            for mu in matrix.cols:
                total = total + matrix.entry(lam, mu) * simples[mu]
            if total != qdim_specht(lam, K0):
                failures.append(("reconstruction", d, lam))
        for mu, poly in simples.items():
            if not poly.is_bar_symmetric():
                failures.append(("bar", d, mu))
            if not poly.is_pure_parity(degree_parity(mu, K0)):
                failures.append(("simple-parity", d, mu))
            if degree_parity(mu, K0) == 1 and poly.eval_at_one() % 2:
                failures.append(("even-dimension", d, mu))
    ok = not failures
    _report(5, "canonical-basis suite for d<=10: unitriangular positive "
               "matrix, parity-pure entries, exact reconstruction, "
               "bar-symmetric parity-pure simples with even odd-parity "
               "dimensions", ok, started)
    assert ok, failures[:10]


def test_criterion_6_crystal_matches_restriction_filter():
    started = time.time()
    ok = True
    for d in range(15):
        generated = {lam[0] for lam in restricted_multipartitions(d, K0)}
        filtered = {p for p in partitions(d) if is_2_restricted(p)}
        ok = ok and generated == filtered
    _report(6, "good-node closure equals the 2-restricted filter for all "
               "d<=14", ok, started)
    assert ok


def test_criterion_7_counting_oracles():
    started = time.time()
    ok = True
    for d in range(11):
        for p in partitions(d):
            if qdim_specht((p,), K0).eval_at_one() != hook_length_count(p):
                ok = False
    rng = random.Random(20260808)
    pool = [p for d in range(1, 10) for p in partitions(d)]
    for p in rng.sample(pool, 50):
        total = LaurentPoly()
        for seq in product((0, 1), repeat=sum(p)):
            total = total + qdim_truncation((p,), K0, seq)
        if total != qdim_specht((p,), K0):
            ok = False
    _report(7, "tableau counts match the hook-length formula (d<=10); "
               "residue truncations sum back to the graded dimension on 50 "
               "sampled shapes", ok, started)
    assert ok
