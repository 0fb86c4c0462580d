"""The fraction-free Gauss-Jordan readers: algebraic laws on random small
matrices, and agreement with the Fraction elimination kept in `linalg_oracle`."""

from fractions import Fraction
from math import gcd

import linalg_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_oracle import identity, mat

from sigmabuild import linalg
from sigmabuild.linalg import (
    LinalgError,
    det,
    dot,
    integer_inverse,
    integer_null_space,
    inverse,
    matmul,
    matvec,
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


INT_ENTRIES = st.one_of(st.just(0), st.integers(min_value=-(10**20), max_value=10**20))


@st.composite
def small_square_pairs(draw):
    """(a, b), both n x n for n in {2, 3}, of ints (often zero) or of Fractions."""
    n = draw(st.sampled_from((2, 3)))
    entries = draw(st.sampled_from((INT_ENTRIES, SPARSE_ENTRIES)))
    row = st.tuples(*[entries] * n)
    return draw(st.tuples(*[row] * n)), draw(st.tuples(*[row] * n))


@settings(max_examples=200, deadline=None)
@given(small_square_pairs())
def test_small_square_products_are_the_dense_product(pair):
    a, b = pair
    product = matmul(a, b)
    assert product == tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)
    assert all(type(row) is tuple for row in product)
    if all(type(x) is int for m in pair for row in m for x in row):
        assert all(type(x) is int for row in product for x in row)


def test_rectangular_and_4x4_products_take_the_sparse_loop():
    flags = ((1, 0, 2), (0, 1, 1))
    assert matmul(((1, 1),), flags) == ((1, 1, 3),)
    four = tuple(tuple(i * 4 + j for j in range(4)) for i in range(4))
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    product = matmul(four, eye)
    assert product == four and all(type(x) is int for row in product for x in row)
    assert matmul(identity(4), mat(four)) == mat(four)


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
@given(matrices())
def test_integer_null_space_is_an_integer_kernel(rows):
    pivots, null = integer_null_space(rows)
    n = len(rows[0])
    assert list(pivots) == sorted(pivots) and len(pivots) == oracle.rank(rows)
    assert len(pivots) + len(null) == n
    free = [c for c in range(n) if c not in pivots]
    for v, fc in zip(null, free):
        assert all(type(x) is int for x in v)
        assert matvec(rows, v) == (0,) * len(rows)
        assert v[fc] and not any(v[c] for c in free if c != fc)


def test_reader_edge_cases():
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(LinalgError, match="empty system"):
        integer_null_space([])
    assert integer_null_space(mat([[1, 1], [1, 1]])) == ((0,), ((-1, 1),))
    assert integer_null_space(((0, 0),)) == ((), ((1, 0), (0, 1)))
    assert det(mat([[0, 1], [1, 0]])) == -1
    assert inverse(mat([[2]])) == ((Fraction(1, 2),),)


# integer entries, some near 10**17, where a float quotient would round
INTS = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(lambda k: 10**17 + k))


@st.composite
def integer_matrices(draw, square=False):
    """An integer matrix; half of the draws repeat the first row at the end."""
    n_rows = draw(SIZES)
    n_cols = n_rows if square else draw(SIZES)
    rows = draw(st.tuples(*[st.tuples(*[INTS] * n_cols)] * n_rows))
    if n_rows > 1 and draw(st.booleans()):
        rows = rows[:-1] + (rows[0],)
    return rows


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_integer_rows_read_like_their_fraction_copies(rows):
    copy = mat(rows)
    assert integer_null_space(rows) == integer_null_space(copy)
    if len(rows) == len(rows[0]):
        d = det(rows)
        assert type(d) is Fraction and d == det(copy)
        if d:
            assert inverse(rows) == inverse(copy)
            assert matmul(inverse(rows), rows) == identity(len(rows))


def test_integer_rows_are_divided_exactly():
    big = 10**17
    m = ((big, 1), (big + 1, 1))
    assert integer_null_space(m) == ((0, 1), ())
    assert det(m) == -1
    assert inverse(m) == ((-1, 1), (big + 1, -big))
    assert integer_null_space(((big, big + 1),)) == ((0,), ((-big - 1, big),))
    assert repr(det(((2, 1), (1, 3)))) == "Fraction(5, 1)"


def typed(x):
    """x with every number paired with its type, so == also compares types."""
    if isinstance(x, tuple):
        return tuple(typed(e) for e in x)
    return x if x is None else (type(x), x)


def null_space(module, rows):
    """(pivots, null-space basis) with each basis vector scaled to 1 at its free column."""
    if module is oracle:
        _, pivots, _, _ = oracle._gauss_jordan(rows, len(rows[0]))
        return tuple(pivots), oracle.affine_solve(rows, (0,) * len(rows))[1]
    pivots, null = integer_null_space(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    return pivots, tuple(tuple(Fraction(x, v[fc]) for x in v) for v, fc in zip(null, free))


def reads(module, rows):
    """Every reader of `module` on rows, errors included."""
    out = {"null space": typed(null_space(module, rows))}
    if len(rows) == len(rows[0]):
        out["det"] = typed(module.det(rows))
        try:
            out["inverse"] = typed(module.inverse(rows))
        except LinalgError as exc:
            out["inverse"] = str(exc)
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), integer_matrices()))
def test_readers_match_the_fraction_elimination(rows):
    # rank-deficient Fraction matrices and integer ones with entries near 10**17
    assert reads(linalg, rows) == reads(oracle, rows)


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(SQUARES, integer_matrices(square=True)))
def test_integer_inverse_is_the_oracle_adjugate(m):
    # n = 1..4: the cofactor adjugate up to 3x3, the elimination kernel at 4x4
    if oracle.det(m) == 0:
        with pytest.raises(LinalgError, match="singular matrix"):
            integer_inverse(m)
        return
    adj, d = integer_inverse(m)
    assert (adj, d) == oracle.integer_inverse(m)
    assert type(d) is int and all(type(x) is int for row in adj for x in row)


def test_integer_inverse_eliminates_only_above_3x3(monkeypatch):
    calls = []
    kernel = linalg._gauss_jordan

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    half = Fraction(1, 2)
    assert integer_inverse(((half,),)) == (((2,),), 1)
    assert integer_inverse(((-3,),)) == (((-1,),), 3)
    assert integer_inverse(((0, 1), (1, 0))) == (((0, 1), (1, 0)), 1)  # det -1
    # den = 2 scales the rows to ((4, 2, 0), (0, 1, 0), (0, 0, 2)), of det 8
    assert integer_inverse(((2, 1, 0), (0, half, 0), (0, 0, 1))) == (
        ((4, -8, 0), (0, 16, 0), (0, 0, 8)),
        8,
    )
    for singular in (((0,),), ((1, 2), (2, 4)), ((1, 2, 3), (4, 5, 6), (5, 7, 9))):
        with pytest.raises(LinalgError, match="singular matrix"):
            integer_inverse(singular)
    assert calls == []
    four = tuple(tuple(int(i == j) * (i + 1) for j in range(4)) for i in range(4))
    assert integer_inverse(four) == (((24, 0, 0, 0), (0, 12, 0, 0), (0, 0, 8, 0), (0, 0, 0, 6)), 24)
    assert calls == [4]


@given(st.lists(st.one_of(INTS, ENTRIES)))
def test_scaled_is_the_least_common_denominator(entries):
    nums, den = scaled(entries)
    assert all(type(x) is int for x in nums) and type(den) is int and den > 0
    assert [Fraction(x, den) for x in nums] == entries
    assert gcd(*nums, den) == 1
