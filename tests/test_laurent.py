import pytest
from hypothesis import given, strategies as st

from qspecht.laurent import (
    LaurentPoly,
    ONE,
    Q,
    ZERO,
    q_power,
)
from oracles import exact_div, q_factorial, q_int

laurent_strategy = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


def test_canonical_form_strips_zeros():
    assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
    assert not LaurentPoly({5: 0})
    assert (Q - Q) == ZERO


def test_arithmetic_examples():
    qinv = q_power(-1)
    assert (Q + qinv) + ZERO == Q + qinv
    assert Q * qinv == ONE
    assert (ONE + Q) * (ONE + Q) == LaurentPoly({0: 1, 1: 2, 2: 1})


def test_int_mixing():
    assert 2 * Q + 1 == LaurentPoly({0: 1, 1: 2})
    assert (Q - 1) * (Q + 1) == LaurentPoly({2: 1, 0: -1})


def test_bar_examples():
    f = Q + q_power(-1)
    assert f.bar() == f
    assert q_power(2).bar() == q_power(-2)
    assert ZERO.bar() == ZERO


@given(laurent_strategy)
def test_bar_is_an_involution(f):
    assert f.bar().bar() == f


@given(laurent_strategy)
def test_eval_at_one_is_parity_total(f):
    even = sum(c for e, c in f.terms() if e % 2 == 0)
    odd = sum(c for e, c in f.terms() if e % 2)
    assert f.eval_at_one() == even + odd


def test_eval_at_one_examples():
    assert (Q + q_power(-1)).eval_at_one() == 2
    assert ZERO.eval_at_one() == 0
    assert LaurentPoly({0: 1, 1: 2, 2: 1}).eval_at_one() == 4


def test_is_pure_parity():
    assert (Q + q_power(-1)).is_pure_parity(1)
    assert not (ONE + Q).is_pure_parity(0)
    assert ZERO.is_pure_parity(0) and ZERO.is_pure_parity(1)
    assert not (-1 * Q).is_pure_parity(1)  # purity requires nonnegative coefficients


def test_q_integers():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(2) == Q + q_power(-1)
    assert q_int(3) == q_power(2) + ONE + q_power(-2)
    assert q_factorial(3) == q_int(2) * q_int(3)


def test_exact_division():
    assert exact_div(q_int(2) * q_int(3), q_int(3)) == q_int(2)
    assert exact_div(ZERO, Q) == ZERO
    with pytest.raises(ValueError):
        exact_div(Q + 1, q_int(2))
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)


@given(laurent_strategy, laurent_strategy)
def test_exact_division_inverts_multiplication(a, b):
    if a and b:
        assert exact_div(a * b, b) == a


def test_text_form():
    assert str(q_power(-1) + 3 * Q) == "q^-1+3q"
    assert str(ZERO) == "0"
    assert str(ONE - Q) == "1-q"
    assert str(q_power(2)) == "q^2"


def test_json_pairs_roundtrip():
    f = 2 * q_power(-3) + ONE + 5 * Q
    assert f.to_pairs() == [[-3, 2], [0, 1], [1, 5]]
    assert LaurentPoly(f.to_pairs()) == f


def test_hash_consistency():
    assert hash(Q + ONE) == hash(ONE + Q)
    assert len({Q, ONE + Q - ONE}) == 1


@pytest.mark.parametrize("c", [0, 1, -3, 2**40])
def test_a_constant_hashes_like_the_integer_it_equals(c):
    # equal values must hash alike, or a set or dict keeps them apart
    f = LaurentPoly({0: c})
    assert f == c and hash(f) == hash(c)
    assert len({f, c}) == 1
    assert {c: "a"}.get(f) == "a" and {f: "a"}.get(c) == "a"
