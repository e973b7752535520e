"""Exact row reduction and right kernels, checked against the definition."""

from fractions import Fraction

from denslift.linalg import nullspace, rank
from denslift.scalars import Scalar


def _matrix(rows):
    return [[Scalar.of(x) for x in row] for row in rows]


def test_nullspace_of_no_equations_is_empty():
    assert nullspace([]) == []


def test_wide_full_row_rank_matrix_has_the_complementary_kernel():
    # the pivots run out of rows before the columns run out
    l0 = Scalar.param("l0")
    m = _matrix([[1, 2, 3, Fraction(1, 2)], [0, 0, 1, 5]])
    m[1][1] = l0
    kernel = nullspace(m)
    assert rank(m) == 2 and len(kernel) == 2
    for vec in kernel:
        assert all(sum((a * v for a, v in zip(row, vec)), Scalar.of(0)) == 0 for row in m)
    # unit entries at the free columns make the basis independent
    assert rank(kernel) == 2
