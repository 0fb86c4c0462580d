"""The Gauss-Jordan readers over Q: algebraic laws on random small matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmabuild.linalg import (
    Q0,
    affine_solve,
    det,
    dot,
    identity,
    inverse,
    mat,
    matmul,
    matvec,
    rank,
)

ENTRIES = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)
SIZES = st.integers(min_value=1, max_value=4)


def blocks(n_rows, n_cols):
    row = st.tuples(*[ENTRIES] * n_cols)
    return st.tuples(*[row] * n_rows)


@st.composite
def matrices(draw, n_rows=None, n_cols=None):
    """A rational matrix; half of the draws are rank-deficient by construction."""
    n_rows = n_rows or draw(SIZES)
    n_cols = n_cols or draw(SIZES)
    if not draw(st.booleans()):
        return draw(blocks(n_rows, n_cols))
    middle = draw(st.integers(min_value=0, max_value=min(n_rows, n_cols) - 1))
    if middle == 0:
        return mat([[0] * n_cols] * n_rows)
    return matmul(draw(blocks(n_rows, middle)), draw(blocks(middle, n_cols)))


SQUARES = SIZES.flatmap(lambda n: matrices(n, n))
SQUARE_PAIRS = SIZES.flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, n)))


@st.composite
def systems(draw):
    """(rows, rhs); the rhs is in the column space of rows in half of the draws."""
    rows = draw(matrices())
    if draw(st.booleans()):
        rhs = matvec(rows, draw(st.tuples(*[ENTRIES] * len(rows[0]))))
    else:
        rhs = draw(st.tuples(*[ENTRIES] * len(rows)))
    return rows, rhs


SPARSE_ENTRIES = st.one_of(st.just(0), st.just(0), ENTRIES)


@st.composite
def sparse_products(draw):
    """(a, b) with a n x k and b k x m, mostly zeros, sometimes all-zero rows."""
    n, k, m = draw(SIZES), draw(SIZES), draw(SIZES)

    def sparse(n_rows, n_cols):
        zero_rows = draw(st.sets(st.integers(min_value=0, max_value=n_rows - 1)))
        return tuple(
            (0,) * n_cols if i in zero_rows else draw(st.tuples(*[SPARSE_ENTRIES] * n_cols))
            for i in range(n_rows)
        )

    return sparse(n, k), sparse(k, m)


@settings(max_examples=200, deadline=None)
@given(sparse_products())
def test_matmul_is_the_dense_product(pair):
    a, b = pair
    product = matmul(a, b)
    assert product == tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)
    assert all(type(e) is Fraction for row in product for e in row)


@settings(max_examples=150, deadline=None)
@given(SQUARES)
def test_inverse_exactly_when_det_nonzero(m):
    if det(m) == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(m)
    else:
        assert matmul(inverse(m), m) == identity(len(m))


@settings(max_examples=150, deadline=None)
@given(SQUARE_PAIRS)
def test_det_multiplicative(pair):
    a, b = pair
    assert det(matmul(a, b)) == det(a) * det(b)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_affine_solve_particular_and_null_space(system):
    rows, rhs = system
    result = affine_solve(rows, rhs)
    augmented = [row + (b,) for row, b in zip(rows, rhs)]
    assert (result is None) == (rank(augmented) > rank(rows))
    if result is None:
        return
    part, null = result
    assert matvec(rows, part) == tuple(rhs)
    for v in null:
        assert matvec(rows, v) == (Q0,) * len(rows)
    assert rank(rows) + len(null) == len(rows[0])


def test_reader_edge_cases():
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        affine_solve([], [])
    assert affine_solve(mat([[1, 1], [1, 1]]), (1, 2)) is None
    assert det(mat([[0, 1], [1, 0]])) == -1
    assert inverse(mat([[2]])) == ((Fraction(1, 2),),)
    assert rank([]) == 0


# integer entries, some near 10**17, where a float quotient would round
INTS = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(lambda k: 10**17 + k))


@st.composite
def integer_matrices(draw):
    """An integer matrix; half of the draws repeat the first row at the end."""
    n_rows, n_cols = draw(SIZES), draw(SIZES)
    rows = draw(st.tuples(*[st.tuples(*[INTS] * n_cols)] * n_rows))
    if n_rows > 1 and draw(st.booleans()):
        rows = rows[:-1] + (rows[0],)
    return rows


@settings(max_examples=150, deadline=None)
@given(integer_matrices(), st.data())
def test_integer_rows_read_like_their_fraction_copies(rows, data):
    copy = mat(rows)
    rhs = data.draw(st.tuples(*[INTS] * len(rows)))
    assert rank(rows) == rank(copy)
    assert affine_solve(rows, rhs) == affine_solve(copy, rhs)
    if len(rows) == len(rows[0]):
        d = det(rows)
        assert type(d) is Fraction and d == det(copy)
        if d:
            assert inverse(rows) == inverse(copy)
            assert matmul(inverse(rows), rows) == identity(len(rows))


def test_integer_rows_are_divided_exactly():
    big = 10**17
    m = ((big, 1), (big + 1, 1))
    assert rank(m) == 2
    assert det(m) == -1
    assert inverse(m) == ((-1, 1), (big + 1, -big))
    assert affine_solve(m, (1, 2)) == ((1, 1 - big), ())
    assert repr(det(((2, 1), (1, 3)))) == "Fraction(5, 1)"
