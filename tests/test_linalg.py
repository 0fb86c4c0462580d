"""The fraction-free Gauss-Jordan readers: algebraic laws on random small
matrices, and agreement with the Fraction elimination kept in `linalg_oracle`."""

from fractions import Fraction
from math import gcd

import linalg_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_oracle import identity

from sigmabuild import linalg
from sigmabuild.linalg import (
    Q0,
    LinalgError,
    affine_solve,
    det,
    dot,
    integer_inverse,
    inverse,
    mat,
    matmul,
    matvec,
    rank,
    scaled,
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


def typed(x):
    """x with every number paired with its type, so == also compares types."""
    if isinstance(x, tuple):
        return tuple(typed(e) for e in x)
    return x if x is None else (type(x), x)


def reads(module, rows, rhs):
    """Every reader of `module` on rows (and rows . x = rhs), errors included."""
    out = {"rank": module.rank(rows), "solve": typed(module.affine_solve(rows, rhs))}
    if len(rows) == len(rows[0]):
        out["det"] = typed(module.det(rows))
        try:
            out["inverse"] = typed(module.inverse(rows))
        except LinalgError as exc:
            out["inverse"] = str(exc)
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), integer_matrices()), st.data())
def test_readers_match_the_fraction_elimination(rows, data):
    # rank-deficient Fraction matrices and integer ones with entries near 10**17
    rhs = data.draw(st.tuples(*[st.one_of(INTS, ENTRIES)] * len(rows)))
    assert reads(linalg, rows, rhs) == reads(oracle, rows, rhs)


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_integer_inverse_is_an_integer_adjugate(num):
    if len(num) != len(num[0]) or oracle.det(num) == 0:
        with pytest.raises(LinalgError, match="singular matrix"):
            integer_inverse(num)
        return
    adj, d = integer_inverse(num)
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in adj for x in row)
    n = len(num)
    assert matmul(adj, num) == tuple(tuple(d * (i == j) for j in range(n)) for i in range(n))


@given(st.lists(st.one_of(INTS, ENTRIES)))
def test_scaled_is_the_least_common_denominator(entries):
    nums, den = scaled(entries)
    assert all(type(x) is int for x in nums) and type(den) is int and den > 0
    assert [Fraction(x, den) for x in nums] == entries
    assert gcd(*nums, den) == 1
