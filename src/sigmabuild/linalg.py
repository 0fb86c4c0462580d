"""Exact rational linear algebra: one fraction-free elimination kernel and its readers.

Vectors are tuples and matrices tuples of row tuples, of ints and Fractions.
`det` and `integer_null_space` read a single fraction-free Gauss-Jordan
elimination of integer rows (`_gauss_jordan`; Bareiss 1968), and so does
`integer_inverse` above 3x3; up to 3x3, the sizes of the group layer, it
returns the cofactor adjugate instead, and `inverse` reads `integer_inverse`.
`det` and `inverse` build Fractions only for what they return, the other two
build none.  `matmul` writes out square 2x2 and 3x3 products, the same group
sizes, and multiplies every other shape in a zero-skipping sparse loop.  There
is no inequality solver: alcove cells are decided combinatorially in `coxeter`.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

Q0 = Fraction(0)
Q1 = Fraction(1)


class LinalgError(ValueError):
    pass


def vec(entries):
    return tuple(Fraction(e) for e in entries)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Q0)


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    """The product a.b as a tuple of rows.

    Square 2x2 and 3x3 pairs, the sizes of the group layer, are the written-out
    sums.  Every other shape runs a sparse loop: only the non-zero products
    a_ik b_kj are added, row by row into accumulators that start at the int 0,
    since the rectangular flag matrices multiplied here are mostly zero.
    Integer rows give integer rows.
    """
    n = len(a)
    if (n == 2 or n == 3) and len(b) == n and len(a[0]) == n and len(b[0]) == n:
        if n == 2:
            (a0, a1), (a2, a3) = a
            (b0, b1), (b2, b3) = b
            return ((a0 * b0 + a1 * b2, a0 * b1 + a1 * b3), (a2 * b0 + a3 * b2, a2 * b1 + a3 * b3))
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
        return (
            (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
            (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
            (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8),
        )
    n_cols = len(b[0]) if b else 0
    b_nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        acc = [0] * n_cols
        for aik, bk in zip(row, b_nonzero):
            if aik:
                for j, bkj in bk:
                    acc[j] += aik * bkj
        out.append(tuple(acc))
    return tuple(out)


def scaled(entries):
    """(nums, den): ints and Fractions as integers over den, the lcm of their
    denominators, so gcd(nums, den) = 1."""
    pairs = [e.as_integer_ratio() for e in entries]
    den = lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination, pivoting in every column in turn.

    Returns (work, pivots, swaps, d, den).  The rows are scaled once to
    integer rows over den (`scaled`).  At pivot pv in row r, column c, every
    other row becomes (pv * row - row[c] * pivot row) // d_prev, d_prev the
    previous pivot (1 at first), and every division is exact by Sylvester's
    identity (Bareiss 1968).  At the end row i < len(pivots) of `work` has
    the last pivot d in column pivots[i], every other row is zero there, and
    the remaining rows are zero; `swaps` counts row exchanges.
    """
    width = len(rows[0]) if rows else 0
    flat, den = scaled(chain.from_iterable(rows))
    work = [flat[i * width : (i + 1) * width] for i in range(len(rows))]
    n_rows = len(work)
    pivots = []
    swaps = 0
    d = 1
    for c in range(width):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            swaps += 1
        prow = work[r]
        pv = prow[c]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                work[i] = [(pv * e - f * a) // d for e, a in zip(row, prow)]
        pivots.append(c)
        d = pv
    return work, pivots, swaps, d, den


def _cofactor_inverse(m):
    """`integer_inverse` of a 1x1, 2x2 or 3x3 matrix from the cofactor adjugate."""
    n = len(m)
    if all(type(x) is int for row in m for x in row):
        rows, den = m, 1
    else:
        flat, den = scaled(chain.from_iterable(m))
        rows = [flat[i : i + n] for i in range(0, n * n, n)]
    if n == 1:
        adj = ((1,),)
    elif n == 2:
        (a, b), (c, d) = rows
        adj = ((d, -b), (-c, a))
    else:
        (a, b, c), (d, e, f), (g, h, i) = rows
        adj = (
            (e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d),
        )
    det_m = sum(x * row[0] for x, row in zip(rows[0], adj))
    if not det_m:
        raise LinalgError("singular matrix")
    if det_m < 0:
        den, det_m = -den, -det_m
    if den != 1:
        adj = tuple(tuple(den * x for x in row) for row in adj)
    return adj, det_m


def integer_inverse(m):
    """(adj, d): integer rows adj and an int d > 0 with adj . m = d I.

    Rows that are not all ints are scaled once to integer rows M over den
    (`scaled`; M = m and den = 1 otherwise); then d = |det M| and
    adj = d m^-1 = +-den adj(M).  Up to 3x3 adj(M) is the cofactor adjugate
    and det M its first row against adj(M)'s first column; larger matrices
    reduce [M | den I] with the elimination kernel.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise LinalgError("singular matrix")
    if 0 < n <= 3:
        return _cofactor_inverse(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    work, pivots, _, d, _ = _gauss_jordan(aug)
    # [M | I] has rank n, so its n pivots lie in M's columns iff M is invertible
    if pivots[-1] >= n:
        raise LinalgError("singular matrix")
    if d < 0:
        return tuple(tuple(-x for x in row[n:]) for row in work), -d
    return tuple(tuple(row[n:]) for row in work), d


def inverse(m):
    adj, d = integer_inverse(m)
    return tuple(tuple(Fraction(x, d) if x else Q0 for x in row) for row in adj)


def det(m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise LinalgError("non-square matrix")
    _, pivots, swaps, d, den = _gauss_jordan(m)
    if len(pivots) < n:
        return Q0
    return Fraction(-d if swaps % 2 else d, den**n)


def integer_null_space(rows):
    """(pivots, basis): the pivot columns of rows, in order, and an integer
    basis of the rational null space {x : rows . x = 0}.

    One basis vector per free column fc: d at fc, -row[fc] at the pivot
    column of each pivot row, zero elsewhere, where d is the last pivot of the
    fraction-free elimination; it builds no Fraction.
    """
    if not rows:
        raise LinalgError("empty system")
    n = len(rows[0])
    work, pivots, _, d, _ = _gauss_jordan(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = d
        for row, c in zip(work, pivots):
            v[c] = -row[fc]
        basis.append(tuple(v))
    return tuple(pivots), tuple(basis)


def fraction_str(x):
    """Serialize a Fraction as 'p/q' (or 'p' when integral)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
