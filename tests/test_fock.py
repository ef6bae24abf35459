import hashlib
import json
from collections import Counter
from itertools import product

import pytest

from qspecht import fock

from qspecht.core import (
    degree_contribution,
    degree_parity,
    is_2_restricted,
    multipartitions,
    partitions,
    with_node_added,
)
from qspecht.fock import (
    FockVector,
    GradedDecompositionMatrix,
    canonical_basis,
    decomposition_matrix,
    induct,
    simple_qdims,
)
from qspecht.laurent import LaurentPoly, ONE, Q, ZERO, q_power
from qspecht.specht import qdim_specht
from oracles import (
    addable_nodes,
    conjugate,
    dense_matrix_json,
    divided_power,
    divided_power_by_division,
    ladder_vector,
    ladder_word,
    recursive_partitions,
    shape_moves,
)

K0 = (0,)
EMPTY = FockVector.basis(((),))


def test_fock_vector_basics():
    v = FockVector({((2,),): Q, ((1, 1),): ONE})
    assert v.coefficient(((2,),)) == Q
    assert v.coefficient(((3,),)) == ZERO
    assert v.support() == (((2,),), ((1, 1),))
    assert v.sub_scaled(ONE, v) == FockVector()
    assert FockVector({((1,),): ZERO}) == FockVector()
    with pytest.raises(ValueError, match="one level"):
        FockVector({((1,),): ONE, ((1,), ()): Q})


def test_a_bare_partition_is_not_a_fock_key():
    v = FockVector({((2, 1),): Q})
    for bad in [(2, 1), (1,), ()]:
        with pytest.raises(ValueError):
            v.coefficient(bad)
        with pytest.raises(ValueError):
            FockVector.basis(bad)


def test_a_component_that_is_no_partition_is_not_a_fock_key():
    # unchecked, induct on ((2, 3),) would give ((2, 3, 1),)
    v = FockVector({((2, 1), (1,)): Q})
    for bad in [((2, 3),), ((1,), (0,)), ((2, 1), (1, 2)), ((1.5,),)]:
        with pytest.raises(ValueError, match="partition parts"):
            FockVector.basis(bad)
        with pytest.raises(ValueError, match="partition parts"):
            v.coefficient(bad)
    assert v.coefficient(((2, 1), (1,))) == Q


def test_induct_examples():
    assert induct(EMPTY, K0, 0) == FockVector.basis(((1,),))
    assert induct(FockVector.basis(((1,),)), K0, 1) == FockVector(
        {((2,),): Q, ((1, 1),): ONE}
    )
    assert induct(FockVector.basis(((2,),)), K0, 1) == FockVector.basis(((2, 1),))
    assert induct(FockVector.basis(((2,),)), [0], 1) == FockVector.basis(((2, 1),))


@pytest.mark.parametrize("level, max_d", [(1, 12), (2, 5), (3, 4)])
def test_induct_and_divided_powers_match_the_closed_formula(level, max_d):
    # every shape, charge and residue: the divided powers F_i^(k) for every
    # k up to the longest top ladder of the sizes (6 for d <= 24 at level 1),
    # on each basis vector and on a combination of all shapes of a size,
    # against the closed formula and against k single steps divided by [k]!
    max_k = {1: 6, 2: 3, 3: 3}[level]
    cases = 0
    for kappa in product((0, 1), repeat=level):
        for d in range(max_d + 1):
            shapes = list(multipartitions(d, level))
            mixed = FockVector({lam: q_power(n) for n, lam in enumerate(shapes)})
            for i in (0, 1):
                for k in range(max_k + 1):
                    got = induct(mixed, kappa, i, k)
                    assert got == FockVector(
                        (mu, q_power(n) * c)
                        for n, lam in enumerate(shapes)
                        for mu, c in divided_power(lam, kappa, i, k).items()
                    ), (d, kappa, i, k)
                    assert got == divided_power_by_division(mixed, kappa, i, k), (d, kappa, i, k)
                for lam in shapes:
                    v = FockVector.basis(lam)
                    for k in range(max_k + 1):
                        got = induct(v, kappa, i, k)
                        assert got == FockVector(divided_power(lam, kappa, i, k)), (lam, kappa, i, k)
                        assert got == divided_power_by_division(v, kappa, i, k), (lam, kappa, i, k)
                    cases += 1
    assert cases == {1: 1088, 2: 592, 3: 1376}[level]


def test_canonical_basis_is_level_one_only():
    # top ladders are a level-1 notion
    with pytest.raises(ValueError, match="level-1 only"):
        canonical_basis(3, (0, 1))
    with pytest.raises(ValueError, match="level-1 only"):
        decomposition_matrix(3, (1, 0, 0))


def test_induct_divided_power_examples():
    one_box = induct(EMPTY, K0, 0)
    assert induct(one_box, K0, 1, 2) == FockVector.basis(((2, 1),))
    assert induct(one_box, K0, 1, 1) == induct(one_box, K0, 1)
    assert induct(one_box, K0, 1, 0) == one_box
    assert induct(one_box, K0, 1, 3) == FockVector()
    with pytest.raises(ValueError, match="nonnegative"):
        induct(one_box, K0, 1, -1)


def test_ladder_word_examples():
    assert ladder_word((1, 1)) == [(0, 1), (1, 1)]
    assert ladder_word((1,)) == [(0, 1)]
    assert ladder_word((2, 1)) == [(0, 1), (1, 2)]
    assert ladder_word(()) == []
    with pytest.raises(ValueError):
        ladder_word((2,))


def test_ladder_vector_leading_coefficient():
    for d in range(9):
        for mu in partitions(d):
            if is_2_restricted(mu):
                assert ladder_vector(mu, K0).coefficient((mu,)) == ONE


def test_canonical_basis_small():
    assert canonical_basis(1) == [(((1,),), FockVector.basis(((1,),)))]
    (mu, g), = canonical_basis(2)
    assert mu == ((1, 1),)
    assert g == FockVector({((2,),): Q, ((1, 1),): ONE})


def test_canonical_basis_frozen_d4():
    basis = dict(canonical_basis(4))
    assert basis[((2, 1, 1),)] == FockVector(
        {((3, 1),): q_power(2), ((2, 2),): Q, ((2, 1, 1),): ONE}
    )
    assert basis[((1, 1, 1, 1),)] == FockVector(
        {((4,),): q_power(2), ((3, 1),): Q, ((2, 1, 1),): Q, ((1, 1, 1, 1),): ONE}
    )


def test_column_vector_coefficients_at_d8():
    # every coefficient in the d=8 canonical vector of the column shape is
    # pure of the combined parity; the (3,2,2,1)-coefficient in particular is
    # zero (the characteristic-2 value arises entirely through adjustment)
    basis = dict(canonical_basis(8))
    vector = basis[((1,) * 8,)]
    assert vector.coefficient(((3, 2, 2, 1),)) == ZERO
    assert vector.coefficient(((3, 2, 2, 1),)).is_pure_parity(1)
    assert vector.coefficient(((7, 1),)) == q_power(3)
    for lam, coeff in vector.items():
        parity = degree_parity(lam, K0)  # the column shape has parity 0
        assert coeff.is_pure_parity(parity)


def test_decomposition_matrix_d2():
    matrix = decomposition_matrix(2)
    assert matrix.rows == (((2,),), ((1, 1),))
    assert matrix.cols == (((1, 1),),)
    assert matrix.entry(((2,),), ((1, 1),)) == Q
    assert matrix.entry(((1, 1),), ((1, 1),)) == ONE


def test_entry_outside_the_index_sets_is_a_key_error():
    matrix = decomposition_matrix(3)
    assert matrix.entry(((2, 1),), ((2, 1),)) == ONE
    for lam, mu in [
        ((2, 1), (2, 1)),  # the bare partitions of the level-1 shapes
        (((2, 1),), (2, 1)),
        (((3, 1),), ((2, 1),)),  # a shape of another size
        (((2, 1),), ((3,),)),  # a row that is not a column
    ]:
        with pytest.raises(KeyError):
            matrix.entry(lam, mu)


def test_decomposition_matrix_invariants():
    for d in range(1, 8):
        matrix = decomposition_matrix(d)
        for mu in matrix.cols:
            assert matrix.entry(mu, mu) == ONE
        for lam in matrix.rows:
            for mu in matrix.cols:
                entry = matrix.entry(lam, mu)
                if lam == mu or not entry:
                    continue
                assert entry.min_exponent() >= 1
                assert all(c > 0 for _, c in entry.to_pairs())


def test_row_and_column_removal_across_sizes():
    # Chuang, Miyachi and Tan, "Row and column removal in the q-deformed Fock
    # space": if lam and mu share their first row (or first column), then
    # d_lam,mu is the entry of the two shapes with it removed.  Removing it
    # shifts every residue by one, so that entry is read at the other charge.
    # The two entries have different sizes, so the elimination does not
    # check itself.  Every pair sharing the row or column is compared, zero
    # entries included.
    matrices = {(d, c): decomposition_matrix(d, (c,)) for d in range(21) for c in (0, 1)}
    removals = [
        (lambda p: p[0], lambda p: p[1:]),
        (len, lambda p: tuple(part - 1 for part in p if part > 1)),
    ]
    nonzero = Counter()
    for (d, c), matrix in matrices.items():
        if d == 0:
            continue
        for kind, (removed, rest) in enumerate(removals):
            rows_of = {}
            for (lam,) in matrix.rows:
                rows_of.setdefault(removed(lam), []).append(lam)
            for (mu,) in matrix.cols:
                smaller = matrices[d - removed(mu), 1 - c]
                for lam in rows_of[removed(mu)]:
                    entry = matrix.entry((lam,), (mu,))
                    assert entry == smaller.entry((rest(lam),), (rest(mu),)), (kind, lam, mu, c)
                    nonzero[kind] += bool(entry)
    assert nonzero[0] > 1000 and nonzero[1] > 1000, nonzero


def test_simple_qdims_small():
    assert simple_qdims(decomposition_matrix(2)) == {((1, 1),): ONE}
    d3 = simple_qdims(decomposition_matrix(3))
    assert d3[((1, 1, 1),)] == ONE
    assert d3[((2, 1),)] == Q + q_power(-1)
    d4 = simple_qdims(decomposition_matrix(4))
    assert d4[((2, 1, 1),)] == Q + q_power(-1)


def test_reconstruction_identity():
    # entry-weighted sums of simple graded dimensions rebuild every Specht
    # graded dimension; this pins all convention choices at once
    for d in range(1, 8):
        matrix = decomposition_matrix(d)
        simples = simple_qdims(matrix, K0)
        for lam in matrix.rows:
            total = LaurentPoly()
            for mu in matrix.cols:
                total = total + matrix.entry(lam, mu) * simples[mu]
            assert total == qdim_specht(lam, K0), lam


def test_entries_pure_of_combined_parity():
    for d in range(1, 8):
        matrix = decomposition_matrix(d)
        for lam in matrix.rows:
            for mu in matrix.cols:
                parity = (degree_parity(lam, K0) + degree_parity(mu, K0)) % 2
                assert matrix.entry(lam, mu).is_pure_parity(parity)


def test_simples_bar_symmetric_and_pure():
    for d in range(1, 8):
        for mu, poly in simple_qdims(decomposition_matrix(d)).items():
            assert poly.is_bar_symmetric()
            assert poly.is_pure_parity(degree_parity(mu, K0))
            if degree_parity(mu, K0) == 1:
                assert poly.eval_at_one() % 2 == 0


def test_matrix_json_shape():
    blob = decomposition_matrix(3).to_json()
    assert blob["rows"] == ["3", "2,1", "1,1,1"]
    assert blob["cols"] == ["2,1", "1,1,1"]
    assert blob["entries"][0][1] == [[1, 1]]  # coefficient q at ((3), (1^3))


# sha256 of json.dumps(decomposition_matrix(d, (c,)).to_json(), sort_keys=True),
# recorded from the implementation that built every column from the empty
# diagram and multiplied each coefficient by q^(signed count)
FROZEN_MATRIX_SHA256 = {
    (0, 0): "a3711d23d25996f2ea3d82f729c8150a08004322c0f9b2a86bce6350e3e63362",
    (1, 0): "049926dd95e224e9ef10d4b4b1bc1784b5ebef47559c40945185d4abc7e04ff7",
    (2, 0): "69a07483790da7d7c2476246f695b201b111118a3574f1de7acc2ad71c08d53a",
    (3, 0): "fcac8ec52681104a752964c57df74be1380346b54095cdc12760ca4943fb5b4b",
    (4, 0): "e9cf551c3e1cb74a166f60c5f29484c46ac30b02cd7f61b63319ec46a906a3a6",
    (5, 0): "50c91c4ff55f542d49ab9f4e4a4e4c9519b51a499ef3afee6a2adab366ce1505",
    (6, 0): "5073ae46679c68919cdacb7ecd7bb1bc130562581c7b86a6484ea36fd3b6a83f",
    (7, 0): "7a459da4f1b283abedbcfe2c034a65b1516d0422d53b285aa3fb5d1d1e1f088f",
    (8, 0): "d76d2bf45b7e6b1c4841b66ab453e793d5d5fc0cfe664663ae4be8c5219f099f",
    (9, 0): "53542808ecb90c1292daaf423f11caf7bed99316c22f6ebec5841b2f539515cb",
    (10, 0): "8822239ddf6c1ce18f4c8c9a13eda104e7e3f4a24fd37f79fc521565fcbe7e3d",
    (11, 0): "05e9d2130d52579afe420adc738fcccfd5e6cc4f71ae48095378e86366ce0e7d",
    (12, 0): "f9d8068f9d87b1d30ffe343946ec19f9bd89e71d6b37e05c029efc45f10373f8",
    (13, 0): "388c6968c40e5bef2308f9b201d4ecf393a70611b5c10445ef078de45b4d80f5",
    (14, 0): "ac1b5049a50ce74f078cc58772120d2c25aaf1ca6fe94e09bb00345a4a2387ad",
    (15, 0): "b5ebea5c442dffee8a3e213cf7dd0012f2201ed63ea11147624635e3fcf13462",
    (16, 0): "31a8e7b4414d5e8267918cbb7d90bf0268882e77561abec5c4565efad2cbeda7",
    (17, 0): "ce4fd3c065981ca072293f2a14bcab0c521f13dbdfccb25f798e0ae08c4a2c0b",
    (18, 0): "7b9a564751f3b635c113683b188182cb5244ad4181486789004adce482048a77",
    (19, 0): "be3d162691fc38dded94fd5da784be01c5b0241668c4a3b7b788af184970e96b",
    (20, 0): "e3814a17d9fdc7064dbaf0f0bc37f8c9b700c4dbc9a10712f34ffced1ebec4b3",
    (0, 1): "a3711d23d25996f2ea3d82f729c8150a08004322c0f9b2a86bce6350e3e63362",
    (1, 1): "049926dd95e224e9ef10d4b4b1bc1784b5ebef47559c40945185d4abc7e04ff7",
    (2, 1): "69a07483790da7d7c2476246f695b201b111118a3574f1de7acc2ad71c08d53a",
    (3, 1): "fcac8ec52681104a752964c57df74be1380346b54095cdc12760ca4943fb5b4b",
    (4, 1): "e9cf551c3e1cb74a166f60c5f29484c46ac30b02cd7f61b63319ec46a906a3a6",
    (5, 1): "50c91c4ff55f542d49ab9f4e4a4e4c9519b51a499ef3afee6a2adab366ce1505",
    (6, 1): "5073ae46679c68919cdacb7ecd7bb1bc130562581c7b86a6484ea36fd3b6a83f",
    (7, 1): "7a459da4f1b283abedbcfe2c034a65b1516d0422d53b285aa3fb5d1d1e1f088f",
    (8, 1): "d76d2bf45b7e6b1c4841b66ab453e793d5d5fc0cfe664663ae4be8c5219f099f",
    (9, 1): "53542808ecb90c1292daaf423f11caf7bed99316c22f6ebec5841b2f539515cb",
    (10, 1): "8822239ddf6c1ce18f4c8c9a13eda104e7e3f4a24fd37f79fc521565fcbe7e3d",
    (11, 1): "05e9d2130d52579afe420adc738fcccfd5e6cc4f71ae48095378e86366ce0e7d",
    (12, 1): "f9d8068f9d87b1d30ffe343946ec19f9bd89e71d6b37e05c029efc45f10373f8",
    (13, 1): "388c6968c40e5bef2308f9b201d4ecf393a70611b5c10445ef078de45b4d80f5",
    (14, 1): "ac1b5049a50ce74f078cc58772120d2c25aaf1ca6fe94e09bb00345a4a2387ad",
    (15, 1): "b5ebea5c442dffee8a3e213cf7dd0012f2201ed63ea11147624635e3fcf13462",
    (16, 1): "31a8e7b4414d5e8267918cbb7d90bf0268882e77561abec5c4565efad2cbeda7",
    (17, 1): "ce4fd3c065981ca072293f2a14bcab0c521f13dbdfccb25f798e0ae08c4a2c0b",
    (18, 1): "7b9a564751f3b635c113683b188182cb5244ad4181486789004adce482048a77",
    (19, 1): "be3d162691fc38dded94fd5da784be01c5b0241668c4a3b7b788af184970e96b",
    (20, 1): "e3814a17d9fdc7064dbaf0f0bc37f8c9b700c4dbc9a10712f34ffced1ebec4b3",
    # recorded from the elimination that restarted until no index was left
    (24, 0): "5817d7282276698b45ad0e2b8e9d71eea705bfebf71fa1d4f64d7ce58d86c79e",
    (24, 1): "5817d7282276698b45ad0e2b8e9d71eea705bfebf71fa1d4f64d7ce58d86c79e",
}


def test_decomposition_matrices_match_frozen_digests():
    for (d, c), expected in FROZEN_MATRIX_SHA256.items():
        blob = json.dumps(decomposition_matrix(d, (c,)).to_json(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == expected, (d, c)


def test_canonical_vectors_are_supported_at_or_after_their_columns():
    # the order that lets _reduce eliminate in one pass, least dominant first
    for c in (0, 1):
        for d in range(17):
            for mu, vector in canonical_basis(d, (c,)):
                assert all(lam >= mu for lam in vector.support()), (d, c, mu)


def test_reduce_refuses_start_vectors_it_cannot_finish():
    mu = ((1, 1),)
    with pytest.raises(fock.InternalConsistencyError, match=r"start vector of \(\(1, 1\),\) is zero"):
        fock._reduce(mu, FockVector(), [])
    with pytest.raises(fock.InternalConsistencyError, match=r"at \(\(1, 1\),\) is 2, expected 1"):
        fock._reduce(mu, FockVector({mu: ONE + ONE}), [])
    # with no earlier column, nothing removes a q^-1 or a negative coefficient
    for coeff in (q_power(-1), -Q):
        v = FockVector({mu: ONE, ((2,),): coeff})
        with pytest.raises(
            fock.InternalConsistencyError,
            match=r"at \(\(2,\),\) in the vector for \(\(1, 1\),\) is outside q-positive range",
        ):
            fock._reduce(mu, v, [])


def test_induct_shifts_are_the_signed_counts():
    for d in range(16):
        for mu in partitions(d):
            for c in (0, 1):
                for i in (0, 1):
                    expected = {}
                    for node in addable_nodes((mu,), (c,), i):
                        grown = with_node_added((mu,), node)
                        count = degree_contribution(grown, (c,), node)
                        expected[grown] = q_power(count)
                    got = induct(FockVector.basis((mu,)), (c,), i)
                    assert got == FockVector(expected), (mu, c, i)


def restricted_partitions(d):
    return [mu for mu in partitions(d) if is_2_restricted(mu)]


def test_columns_take_one_divided_power_of_their_top_ladder(monkeypatch):
    # every column of every size up to d starts from the finished vector one
    # top ladder smaller: one induct per column, whose power is the length
    # of its top ladder
    powers = []
    original = fock.induct

    def counting(v, kappa, i, k=1):
        powers.append(k)
        return original(v, kappa, i, k)

    monkeypatch.setattr(fock, "induct", counting)
    canonical_basis(14)
    columns = [mu for s in range(1, 15) for mu in restricted_partitions(s)]
    assert len(powers) == len(columns) == 109
    assert powers == [ladder_word(mu)[-1][1] for mu in columns]
    assert sum(powers) == 138


def test_top_ladder_ends_rows_and_leaves_a_restricted_partition():
    for d in range(1, 31):
        for mu in restricted_partitions(d):
            nodes = [(a, b) for a, part in enumerate(mu, 1) for b in range(1, part + 1)]
            top = max(a + b - 1 for a, b in nodes)
            ladder = [(a, b) for a, b in nodes if a + b - 1 == top]
            assert all(b == mu[a - 1] for a, b in ladder), mu
            rows = Counter(a for a, b in nodes if a + b - 1 != top)
            rest = tuple(rows[a] for a in range(1, len(mu) + 1) if rows[a])
            assert is_2_restricted(rest), mu
            for c in (0, 1):
                minus, i, k = fock._top_ladder((mu,), c)
                assert (minus, k) == ((rest,), len(ladder)), (mu, c)
                assert ladder_word(mu, c)[-1] == (i, k), (mu, c)


def test_a_start_vector_not_held_is_a_consistency_error(monkeypatch):
    original = fock._top_ladder

    def wrong(mu, charge):
        minus, i, k = original(mu, charge)
        return (((3,),) if mu == ((2, 1, 1),) else minus), i, k

    monkeypatch.setattr(fock, "_top_ladder", wrong)
    with pytest.raises(fock.InternalConsistencyError, match=r"column \(\(2, 1, 1\),\)"):
        canonical_basis(5)


def test_sparse_matrix_json_is_the_dense_one():
    # the JSON text is what `llt` prints and the session digest reads; each
    # zero cell is the one shared empty tuple, not a list of its own
    zero_cells = []
    for c in (0, 1):
        for d in range(17):
            matrix = decomposition_matrix(d, (c,))
            sparse = matrix.to_json()
            text = json.dumps(sparse, sort_keys=True)
            assert text == json.dumps(dense_matrix_json(matrix), sort_keys=True), (d, c)
            for lam, row in zip(matrix.rows, sparse["entries"]):
                for mu, cell in zip(matrix.cols, row):
                    entry = matrix.entry(lam, mu)
                    if entry:
                        assert cell == entry.to_pairs(), (lam, mu)
                    else:
                        zero_cells.append(cell)
    assert zero_cells[0] == () and type(zero_cells[0]) is tuple
    assert all(cell is zero_cells[0] for cell in zero_cells)


def test_nonzero_cells_are_the_nonzero_entries_in_row_major_order():
    matrix = decomposition_matrix(8)
    cells = matrix.nonzero_cells()
    assert [(r, c) for r, c, _ in cells] == sorted((r, c) for r, c, _ in cells)
    assert {(matrix.rows[r], matrix.cols[c]): e for r, c, e in cells} == matrix.entries


def test_move_table_lives_for_one_canonical_basis_call(monkeypatch):
    # outside a held block every get() is a fresh state
    memo = fock.move_memo
    assert memo.get() is not memo.get()
    canonical_basis(6)
    assert memo.get() is not memo.get()
    seen = []

    def failing(mu, v, earlier):
        seen.append(memo.get() is memo.get())
        raise fock.InternalConsistencyError("provoked")

    monkeypatch.setattr(fock, "_reduce", failing)
    with pytest.raises(fock.InternalConsistencyError, match="provoked"):
        canonical_basis(6)
    assert seen and seen[0]
    assert memo.get() is not memo.get()


def test_canonical_bases_sharing_one_move_table_match_frozen_digests():
    # the moves of one charge must not serve the other
    with fock.move_memo.held():
        for d in (10, 14):
            for c in (0, 1):
                blob = json.dumps(decomposition_matrix(d, (c,)).to_json(), sort_keys=True)
                assert hashlib.sha256(blob.encode()).hexdigest() == FROZEN_MATRIX_SHA256[d, c]


def test_induct_from_the_move_table_is_the_standalone_induct(monkeypatch):
    # every canonical vector of size <= 12 is inducted with the move table
    # of the running canonical_basis call, then again outside any call
    original = fock._reduce
    for c in (0, 1):
        inside = []

        def reducing(mu, v, earlier, _c=c):
            g = original(mu, v, earlier)
            assert fock.move_memo.get() is fock.move_memo.get()
            inside.extend((g, i, induct(g, (_c,), i)) for i in (0, 1))
            return g

        monkeypatch.setattr(fock, "_reduce", reducing)
        canonical_basis(12, (c,))
        assert len(inside) == 2 * sum(len(restricted_partitions(s)) for s in range(1, 13))
        for g, i, got in inside:
            assert got == induct(g, (c,), i), (g, c, i)


@pytest.mark.parametrize("level, max_d, cases", [(1, 12, 3264), (2, 7, 5976), (3, 5, 9312)])
def test_bead_moves_match_the_tuple_moves(level, max_d, cases):
    # the bead kernel against the tuple form it replaced, on every shape of
    # every size up to max_d, every charge in {0, 1}^level, both residues and
    # k <= 3: the same grown shapes with the same exponents, in a layout with
    # room for them
    seen = 0
    for kappa in product((0, 1), repeat=level):
        for d in range(max_d + 1):
            beads = fock._layout(level, d + 3)
            for lam in multipartitions(d, level):
                x = beads.code(lam)
                for i in (0, 1):
                    add, rem = beads.masks(kappa, i)
                    for k in (1, 2, 3):
                        got = [(beads.shape(y), e) for y, e in fock._moves(x, add, rem, k)]
                        assert sorted(got) == sorted(shape_moves(lam, kappa, i, k)), (lam, kappa, i, k)
                        seen += 1
    assert seen == cases


def test_bead_masks_and_coefficient_codes_round_trip():
    for level, max_d in [(1, 16), (2, 8), (3, 6)]:
        for size in (max_d, 2 * max_d + 1):
            beads = fock._layout(level, size)
            masks = set()
            for d in range(max_d + 1):
                for lam in multipartitions(d, level):
                    x = beads.code(lam)
                    assert beads.shape(x) == lam, (lam, beads.cap)
                    masks.add(x)
            assert len(masks) == sum(1 for d in range(max_d + 1) for _ in multipartitions(d, level))
    top = (1 << 30) - 1
    polys = [
        ZERO,
        ONE,
        q_power(-40),
        LaurentPoly({-3: -5, 0: 2, 7: 1}),
        LaurentPoly({-8: top, -7: -top, 0: -1, 1: top, 40: -top}),
    ]
    for poly in polys:
        for off in (8, 40, 64):
            if poly and poly.min_exponent() < -off:
                continue
            assert fock._poly(fock._code(poly, off), off) == poly, (poly, off)
    terms = {((2, 1), ()): polys[3], ((), (1,)): polys[4], ((1,), (1, 1)): polys[2]}
    assert dict(FockVector(terms).items()) == terms


def test_a_coefficient_at_q_minus_40_inducts_right():
    # q^-40 lies far below the default offset of the codes: induct gives the
    # closed formula's terms, recoding the vector when a move would shift a
    # digit out, and never a wrong number
    recoded = 0
    for lam in [((2, 1),), ((3, 1, 1),), ((2,), (1,)), ((1, 1), (2,))]:
        kappa = (0,) * len(lam)
        coeff = q_power(-40) + 3 * q_power(-38)
        v = FockVector({lam: coeff})
        for i in (0, 1):
            for k in (1, 2):
                expected = FockVector(
                    (mu, c * coeff) for mu, c in divided_power(lam, kappa, i, k).items()
                )
                try:
                    got = induct(v, kappa, i, k)
                except fock.InternalConsistencyError:
                    continue
                assert got == expected, (lam, i, k)
                recoded += got._off > v._off
    assert recoded
    # a product reaching below the offset recodes both vectors
    w = FockVector({((2, 1),): q_power(-30), ((3,),): ONE})
    u = FockVector({((2, 1),): Q, ((1, 1, 1),): q_power(-20)})
    gamma = q_power(-25) + q_power(25)
    assert u.sub_scaled(gamma, w) == FockVector(
        {((2, 1),): Q - gamma * q_power(-30), ((3,),): -gamma, ((1, 1, 1),): q_power(-20)}
    )


def test_a_digit_past_the_guard_raises():
    off = 8
    for digit in (1 << 30, -(1 << 30), (1 << 31) + 5):
        with pytest.raises(fock.InternalConsistencyError, match="guard"):
            fock._poly(digit << 32 * (off + 3), off)
    top = (1 << 30) - 1
    assert fock._poly(top << 32 * off, off) == LaurentPoly({0: top})
    v = FockVector.basis(((2, 1),))
    (mask,) = v._terms
    v._terms[mask] = (1 << 30) << 32 * v._off
    with pytest.raises(fock.InternalConsistencyError, match="guard"):
        v.coefficient(((2, 1),))
    with pytest.raises(ValueError, match="2\\^30"):
        FockVector({((1,),): LaurentPoly({0: 1 << 30})})


def test_sums_that_could_pass_the_digit_guard_raise():
    # a digit of 2^32 or more would carry into the next exponent and decode
    # as a small wrong number: every sum that could reach 2^30 raises instead
    big = LaurentPoly({0: 1 << 16})
    with pytest.raises(fock.InternalConsistencyError, match="guard"):
        FockVector({((1,),): ONE}).sub_scaled(big, FockVector({((1,),): big}))
    # repeated shapes are summed as polynomials before they are coded
    top = LaurentPoly({0: (1 << 30) - 1})
    with pytest.raises(ValueError, match="2\\^30"):
        FockVector([(((1,),), top)] * 5)
    assert FockVector([(((1,),), top)] * 2 + [(((1,),), -top)] * 2) == FockVector()
    # each shape below the staircase (4,3,2,1) reaches it by one 1-node, so
    # F_1 adds four codes into one (shape, exponent)
    below = [((3, 3, 2, 1),), ((4, 2, 2, 1),), ((4, 3, 1, 1),), ((4, 3, 2),)]
    spread = LaurentPoly({e: 1 for e in range(21)})
    c = (1 << 27) - 1
    expected = FockVector(
        (mu, coeff * spread * c) for lam in below for mu, coeff in divided_power(lam, K0, 1, 1).items()
    )
    got = induct(FockVector((lam, spread * c) for lam in below), K0, 1)
    assert got == expected
    assert got.coefficient(((4, 3, 2, 1),)).coefficient(0) == 4 * c
    with pytest.raises(fock.InternalConsistencyError, match="guard"):
        induct(FockVector((lam, spread * ((1 << 30) - 1)) for lam in below), K0, 1)


def test_long_induction_chains_keep_exact_digit_bounds():
    # the bound of each induct is the input's times its term count, so along
    # F_1 F_0 ... F_0 of the empty shape it outgrows 2^30 and is replaced by
    # the exact one: the chain is never refused and always right
    v = exact = EMPTY
    loose = 1
    for t in range(18):
        i = t % 2
        loose *= len(v._terms)
        v = induct(v, K0, i)
        exact = FockVector(
            (mu, c * coeff) for lam, c in exact.items() for mu, coeff in divided_power(lam, K0, i, 1).items()
        )
        assert v == exact, t
        assert v._bound < 1 << 30
    assert loose >= 1 << 30


def test_restricted_partitions_are_the_conjugates_of_distinct_parts():
    # the one lister of the columns against an independent construction:
    # conjugation takes the partitions into distinct parts to the
    # 2-restricted ones
    for d in range(31):
        distinct = [p for p in recursive_partitions(d) if len(set(p)) == len(p)]
        assert restricted_partitions(d) == sorted(map(conjugate, distinct), reverse=True), d


def _per_bit_masks(beads, kappa, i):
    """The i-masks of a layout, bit by bit: a move up from p in the window of
    a component of charge c adds a node of residue c+p+1-N."""
    add = rem = 0
    w = beads.width
    for m, charge in enumerate(reversed(kappa)):
        for p in range(w):
            if (charge + p + 1 - beads.beads - i) % 2 == 0:
                add |= (p < w - 1) << m * w + p
            else:
                rem |= (p > 0) << m * w + p
    return add, rem


def test_the_fock_layer_reads_charges_mod_2():
    for level in (1, 2, 3):
        for cap in (8, 16, 64):
            beads = fock._Beads(level, cap)
            for kappa in product((-1, 2, 3), repeat=level):
                reduced = tuple(c % 2 for c in kappa)
                for i in (0, 1):
                    assert beads.masks(kappa, i) == _per_bit_masks(beads, kappa, i), (kappa, i)
                    assert beads.masks(kappa, i) == beads.masks(reduced, i), (kappa, i)
    for kappa in [(2,), (-1, 0), (0, 1, 3)]:
        reduced = tuple(c % 2 for c in kappa)
        for d in range(6):
            for lam in multipartitions(d, len(kappa)):
                v = FockVector.basis(lam)
                for i, k in product((0, 1), (0, 1, 2)):
                    assert induct(v, kappa, i, k) == induct(v, reduced, i, k), (lam, kappa, i, k)
    assert canonical_basis(10, (2,)) == canonical_basis(10, (0,))


def _unchecked_simples(matrix):
    """The back-substitution of ``simple_qdims`` with no check of its results."""
    simples = {}
    for mu in reversed(matrix.cols):
        total = qdim_specht(mu, K0)
        for nu in matrix.cols:
            if nu != mu and (mu, nu) in matrix.entries:
                total = total - matrix.entries[mu, nu] * simples[nu]
        simples[mu] = total
    return simples


@pytest.mark.parametrize("d, nonnegative", [(11, 1), (12, 2)])
def test_simple_qdims_refuses_every_q_squared_mutant(d, nonnegative):
    # each off-diagonal entry of a 2-restricted row multiplied by q^2 in turn:
    # every mutant raises, including those whose solved dimensions have no
    # negative coefficient, which only the bar-symmetry check refuses
    matrix = decomposition_matrix(d)
    cols = set(matrix.cols)
    cells = [(lam, mu) for (lam, mu), e in matrix.entries.items() if lam in cols and lam != mu]
    unnoticed = 0
    for cell in cells:
        entries = dict(matrix.entries)
        entries[cell] = entries[cell] * q_power(2)
        mutant = GradedDecompositionMatrix(matrix.rows, matrix.cols, entries)
        with pytest.raises(fock.InternalConsistencyError):
            simple_qdims(mutant)
        simples = _unchecked_simples(mutant).values()
        unnoticed += all(c >= 0 for poly in simples for _, c in poly.terms())
    assert len(cells) == {11: 9, 12: 20}[d]
    assert unnoticed == nonnegative


def test_simple_qdims_refuses_an_entry_above_the_diagonal():
    # the entry at ((1^4), (2,1,1)) sits in the row of a later column
    matrix = decomposition_matrix(4)
    assert matrix.cols == (((2, 1, 1),), ((1, 1, 1, 1),))
    entries = {**matrix.entries, (matrix.cols[1], matrix.cols[0]): Q}
    mutant = GradedDecompositionMatrix(matrix.rows, matrix.cols, entries)
    with pytest.raises(
        fock.InternalConsistencyError,
        match=r"entry \(\(\(1, 1, 1, 1\),\), \(\(2, 1, 1\),\)\) breaks unitriangularity",
    ):
        simple_qdims(mutant)


def test_decomposition_matrix_fields_cannot_be_reassigned():
    matrix = decomposition_matrix(4)
    for name in ("rows", "cols", "entries"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(matrix, name, ())
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(matrix, name)
    assert matrix.entry(((2, 1, 1),), ((2, 1, 1),)) == ONE
