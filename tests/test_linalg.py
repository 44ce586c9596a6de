"""Exact elimination and sparse accumulation in qfano.linalg."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfano.linalg import accumulate, invert, nullspace

F = Fraction


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0))
             for col in zip(*b)] for row in a]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def assert_kernel(mat, basis, ncols):
    for vec in basis:
        assert len(vec) == ncols
        assert all(sum((x * y for x, y in zip(row, vec)), F(0)) == 0
                   for row in mat)


def test_accumulate_merges_and_drops_cancelled_keys():
    dst = {"a": F(1), "b": F(2)}
    out = accumulate(dst, [("a", F(-1)), ("c", F(3)), ("b", F(1)),
                           ("c", F(-3)), ("d", F(0))])
    assert out is dst
    assert dst == {"b": F(3)}


def test_invert_returns_true_inverse():
    # The (0, 0) pivot is zero, so elimination has to swap rows.
    mat = [[0, 2, 1], [1, 0, 3], [4, -1, F(1, 2)]]
    inv = invert(mat)
    assert matmul(mat, inv) == identity(3)
    assert matmul(inv, mat) == identity(3)
    assert invert([[F(2, 3)]]) == [[F(3, 2)]]


def test_invert_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular matrix"):
        invert([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with pytest.raises(ValueError, match="singular matrix"):
        invert([[0, 0], [0, 0]])


def test_nullspace_rank_deficient():
    mat = [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]
    basis = nullspace(mat)
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    assert_kernel(mat, basis, 3)


def test_nullspace_wide():
    mat = [[1, 0, 1, 2], [0, 1, -1, F(1, 2)]]
    basis = nullspace(mat)
    assert len(basis) == 2
    assert_kernel(mat, basis, 4)


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 2], [3, 4], [5, 6]]) == []


def test_nullspace_empty_inputs():
    assert nullspace([]) == []
    assert nullspace([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace([[0, 0, 0]]) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)],
                                      [F(0), F(0), F(1)]]


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_invert_agrees_with_nullspace(mat):
    n = len(mat)
    basis = nullspace(mat)
    assert_kernel(mat, basis, n)
    if basis:
        with pytest.raises(ValueError, match="singular matrix"):
            invert(mat)
    else:
        assert matmul(mat, invert(mat)) == identity(n)
