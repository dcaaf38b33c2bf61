import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qkig.pairs import (
    InvalidPairError,
    basis_list,
    bruhat_leq,
    dim_schubert,
    dim_space,
    dual_pair,
    explain_invalid,
    is_valid_pair,
    richardson_dim,
    richardson_nonempty,
    require_valid,
)


def test_is_valid_pair():
    assert is_valid_pair(3, 2, 3)
    assert not is_valid_pair(3, 2, 5)  # sum 7 = 2n + 1
    assert not is_valid_pair(2, 1, 4)
    assert not is_valid_pair(3, 3, 3)
    assert not is_valid_pair(3, 0, 4)
    assert not is_valid_pair(3, 2, 7)
    # non-int indices, as explain_invalid and require_valid reject them
    for n, a, b in ((2, 1.5, 2), (3, 1.0, 2.0), (2, True, 3)):
        assert not is_valid_pair(n, a, b)
        assert explain_invalid(n, a, b) == "indices must be integers"


def test_bool_and_float_indices_are_rejected():
    for a, b in ((True, 5), (1, True), (1.0, 5), (2, 6.0)):
        assert explain_invalid(3, a, b) == "indices must be integers"
        with pytest.raises(InvalidPairError, match="indices must be integers"):
            require_valid(3, (a, b))


def test_require_valid_rejects_non_pairs():
    for bad in ((1, 2, 3), (1,), (), 5, None):
        with pytest.raises(InvalidPairError,
                           match=r"expected a pair \(a, b\), got "):
            require_valid(3, bad)


@settings(max_examples=500, derandomize=True)
@given(st.integers(-1, 9) | st.booleans(), st.data())
def test_require_valid_agrees_with_explain_invalid(n, data):
    index = st.integers(-2, 2 * n + 2) | st.booleans()
    a, b = data.draw(index), data.draw(index)
    try:
        reason = explain_invalid(n, a, b)
    except ValueError as exc:  # n itself is invalid
        with pytest.raises(ValueError) as info:
            require_valid(n, (a, b))
        assert str(info.value) == str(exc)
        return
    if reason is None:
        assert require_valid(n, (a, b)) == (a, b)
    else:
        with pytest.raises(InvalidPairError) as info:
            require_valid(n, (a, b))
        assert str(info.value) == f"invalid pair ({a},{b}) for n={n}: {reason}"


def test_dims():
    assert dim_schubert(3, 4, 6) == 6
    assert dim_space(3) - dim_schubert(3, 4, 6) == 1  # the divisor
    assert dim_schubert(3, 5, 6) == 7 == dim_space(3)
    assert dim_schubert(3, 1, 2) == 0
    with pytest.raises(InvalidPairError):
        dim_schubert(3, 2, 5)


@pytest.mark.parametrize("n", range(2, 9))
def test_unique_extreme_dims(n):
    dims = [dim_schubert(n, a, b) for a, b in basis_list(n)]
    assert dims.count(0) == 1
    assert dims.count(dim_space(n)) == 1


def test_bruhat_examples():
    assert bruhat_leq(3, (1, 3), (2, 4))
    assert not bruhat_leq(3, (2, 3), (1, 5))
    for p in basis_list(3):
        assert bruhat_leq(3, p, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_partial_order(n):
    basis = basis_list(n)
    for p, q in itertools.product(basis, repeat=2):
        if bruhat_leq(n, p, q) and bruhat_leq(n, q, p):
            assert p == q
    for p, q, r in itertools.product(basis, repeat=3):
        if bruhat_leq(n, p, q) and bruhat_leq(n, q, r):
            assert bruhat_leq(n, p, r)


def test_dual_examples():
    assert dual_pair(3, (5, 6)) == (1, 2)
    assert dual_pair(3, (4, 6)) == (1, 3)
    assert dim_schubert(3, 4, 6) + dim_schubert(3, 1, 3) == dim_space(3)


@settings(max_examples=150, derandomize=True)
@given(st.integers(2, 8), st.data())
def test_dual_involution_and_complement(n, data):
    pair = data.draw(st.sampled_from(basis_list(n)))
    dual = dual_pair(n, pair)
    assert is_valid_pair(n, *dual)
    assert dual_pair(n, dual) == pair
    assert dim_schubert(n, *dual) == dim_space(n) - dim_schubert(n, *pair)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_reverses_bruhat(n):
    basis = basis_list(n)
    for p, q in itertools.product(basis, repeat=2):
        assert bruhat_leq(n, p, q) == bruhat_leq(n, dual_pair(n, q),
                                                 dual_pair(n, p))


def test_richardson_examples():
    assert richardson_nonempty(3, (2, 6), (4, 6))
    assert not richardson_nonempty(3, (1, 3), (3, 5))
    assert not richardson_nonempty(2, (1, 2), (1, 2))
    assert richardson_dim(3, (2, 6), (4, 6)) == 3
    with pytest.raises(InvalidPairError):
        richardson_dim(3, (1, 3), (3, 5))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_richardson_dim_consistency(n):
    # dim = dim X_u - codim X^v, and = 0 against the complementary dual
    for u in basis_list(n):
        for v in basis_list(n):
            if richardson_nonempty(n, u, v):
                d = richardson_dim(n, u, v)
                assert d >= 0
                assert d == (dim_schubert(n, *u) + dim_schubert(n, *v)
                             - dim_space(n))
        assert richardson_dim(n, u, dual_pair(n, u)) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_richardson_dim_matches_index_formula(n):
    # the closed formula in the indices, with one [a + b > 2n + 1] per pair
    for (p1, p2), (q1, q2) in itertools.product(basis_list(n), repeat=2):
        if richardson_nonempty(n, (p1, p2), (q1, q2)):
            expected = (p1 + p2 + q1 + q2 - 4 * n - 1
                        - (p1 + p2 > 2 * n + 1) - (q1 + q2 > 2 * n + 1))
            assert richardson_dim(n, (p1, p2), (q1, q2)) == expected
        else:
            with pytest.raises(InvalidPairError):
                richardson_dim(n, (p1, p2), (q1, q2))


def test_basis_list():
    assert basis_list(2) == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert len(basis_list(3)) == 12
    for n in range(2, 8):
        basis = basis_list(n)
        assert len(basis) == 2 * n * (n - 1)
        assert all(is_valid_pair(n, a, b) for a, b in basis)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_order_refines_bruhat(n):
    basis = basis_list(n)
    index = {p: i for i, p in enumerate(basis)}
    for p, q in itertools.product(basis, repeat=2):
        if bruhat_leq(n, p, q):
            assert index[p] <= index[q]
