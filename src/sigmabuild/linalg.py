"""Exact rational linear algebra: one elimination kernel and its readers.

Everything works over `fractions.Fraction`; vectors are tuples, matrices are
tuples of row tuples.  `rank`, `det`, `inverse` and `affine_solve` are thin
readers of a single Gauss-Jordan elimination (`_gauss_jordan`); `inverse`
reduces [m | I] once.  There is no inequality solver: alcove cells are
decided combinatorially in `coxeter`.
"""

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


class LinalgError(ValueError):
    pass


def vec(entries):
    return tuple(Fraction(e) for e in entries)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Q0)


def mat(rows):
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def matvec(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b, zero=Q0):
    """The product a.b as a tuple of rows.

    Only the non-zero products a_ik b_kj are added, row by row into
    accumulators that start at `zero`: the group elements multiplied here are
    mostly triangular or unipotent, so most products would be zero.  With
    the int 0, integer rows give integer rows; by default every entry of the
    product is a Fraction.
    """
    n_cols = len(b[0]) if b else 0
    b_nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        acc = [zero] * n_cols
        for aik, bk in zip(row, b_nonzero):
            if aik:
                for j, bkj in bk:
                    acc[j] += aik * bkj
        out.append(tuple(acc))
    return tuple(out)


def identity(n):
    return tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n))


def _gauss_jordan(rows, n_cols):
    """Gauss-Jordan elimination over Q, pivoting only in the first n_cols columns.

    Returns (work, pivots, swaps, values).  Row i < len(pivots) of `work` has
    the non-zero entry values[i] in column pivots[i], and every other row is
    zero in that column; the remaining rows are zero in the first n_cols
    columns.  `swaps` counts row exchanges.  Pivot rows are left unscaled, so
    the values are the diagonal of plain forward elimination and callers
    divide only the entries they read.  A pivot that is not a Fraction is
    made one, so integer rows are divided exactly.  Columns from n_cols on
    (a right-hand side, an identity block) ride along but never pivot.
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
        pv = prow[c]
        if type(pv) is not Fraction:
            pv = Fraction(pv)
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
    """Solve a (possibly underdetermined) system rows . x = rhs.

    Returns (particular_solution, null_space_basis) with free variables set
    to zero, or None if inconsistent.
    """
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
    """Rank of a list of rational vectors."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def fraction_str(x):
    """Serialize a Fraction as 'p/q' (or 'p' when integral)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
