"""The Fraction Gauss-Jordan elimination and its four readers, kept as a test oracle.

The library eliminates fraction-free on integer rows (Bareiss) and builds
Fractions only for what a reader returns.  The routines here are the plain
elimination over Q instead: each pivot is made a Fraction and every other row
loses its multiple of the pivot row.  Tests compare the two routes, values and
types: `det` and `inverse` with the library's, the adjugate pair of
`integer_inverse` with the one read off `inverse` and `det`, and the null space of
`affine_solve` with `linalg.integer_null_space`.  `affine_solve` and `rank`
have no other counterpart in the library; `fm_oracle` and the tests use them
as plain references.  `matrix_element` builds a group element of any square
matrix, for tests that need one outside SL_n, and `mat` the Fraction copy of
a matrix.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

from sigmabuild.chevalley import GroupElement
from sigmabuild.linalg import Q0, Q1, LinalgError, scaled


def identity(n):
    return tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n))


def mat(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def matrix_element(rows):
    """The canonical integer rows over a denominator of any square rational
    matrix, as a `GroupElement`: the constructor without its det = 1 check."""
    n = len(rows)
    nums, den = scaled(Fraction(e) for e in chain.from_iterable(rows))
    return GroupElement._of(tuple(tuple(nums[i : i + n]) for i in range(0, n * n, n)), den)


def _gauss_jordan(rows, n_cols):
    """Gauss-Jordan elimination over Q, pivoting only in the first n_cols columns.

    Returns (work, pivots, swaps, values).  Row i < len(pivots) of `work` has
    the non-zero entry values[i] in column pivots[i], and every other row is
    zero in that column; the remaining rows are zero in the first n_cols
    columns.  `swaps` counts row exchanges.  Pivot rows are left unscaled.
    """
    work = [list(row) for row in rows]
    n_rows = len(work)
    pivots, values = [], []
    swaps = 0
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            swaps += 1
        prow = work[r]
        pv = Fraction(prow[c])
        for i, row in enumerate(work):
            if i != r and row[c] != 0:
                f = row[c] / pv
                work[i] = [e - f * a if a else e for e, a in zip(row, prow)]
        pivots.append(c)
        values.append(pv)
    return work, pivots, swaps, values


def inverse(m):
    n = len(m)
    n_cols = len(m[0]) if m else 0
    aug = [list(row) + list(e) for row, e in zip(m, identity(n))]
    work, pivots, _, values = _gauss_jordan(aug, n_cols)
    if n_cols != n or len(pivots) < n:
        raise LinalgError("singular matrix")
    return tuple(tuple(e / pv if e else Q0 for e in row[n:]) for row, pv in zip(work, values))


def integer_inverse(m):
    """(adj, d) with d = |det(den m)|, den the least common denominator of
    m's entries, and adj = d m^-1, as Fractions of denominator 1."""
    n = len(m)
    den = lcm(*(Fraction(e).denominator for row in m for e in row))
    inv = inverse(m)
    d = abs(det(m)) * den**n
    return tuple(tuple(d * e for e in row) for row in inv), d


def det(m):
    n = len(m)
    _, pivots, swaps, values = _gauss_jordan(m, n)
    if len(pivots) < n:
        return Q0
    d = -Q1 if swaps % 2 else Q1
    for v in values:
        d *= v
    return d


def affine_solve(rows, rhs):
    """(particular solution, null-space basis) of rows . x = rhs, or None."""
    if not rows:
        raise LinalgError("empty system")
    n = len(rows[0])
    aug = [list(r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    work, piv_cols, _, values = _gauss_jordan(aug, n)
    if any(row[n] != 0 for row in work[len(piv_cols):]):
        return None
    part = [Q0] * n
    for row, c, pv in zip(work, piv_cols, values):
        part[c] = row[n] / pv
    basis = []
    for fc in range(n):
        if fc in piv_cols:
            continue
        v = [Q0] * n
        v[fc] = Q1
        for row, c, pv in zip(work, piv_cols, values):
            v[c] = -row[fc] / pv
        basis.append(tuple(v))
    return tuple(part), tuple(basis)


def rank(rows):
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])
