"""Exact rational linear algebra: one elimination kernel and linear feasibility.

Everything works over `fractions.Fraction`; vectors are tuples, matrices are
tuples of row tuples.  `rank`, `det`, `inverse` and `affine_solve` are thin
readers of a single Gauss-Jordan elimination (`_gauss_jordan`); `inverse`
reduces [m | I] once.  The feasibility routine is a plain Fourier-Motzkin
elimination with witness extraction, which is enough for the low-dimensional
polyhedral questions asked by the alcove and sector predicates.
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


def matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n):
    return tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n))


def _gauss_jordan(rows, n_cols):
    """Gauss-Jordan elimination over Q, pivoting only in the first n_cols columns.

    Returns (work, pivots, swaps, values).  Row i < len(pivots) of `work` has
    the non-zero entry values[i] in column pivots[i], and every other row is
    zero in that column; the remaining rows are zero in the first n_cols
    columns.  `swaps` counts row exchanges.  Pivot rows are left unscaled, so
    the values are the diagonal of plain forward elimination and callers
    divide only the entries they read.  Columns from n_cols on (a right-hand
    side, an identity block) ride along but never pivot.
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
    return tuple(tuple(e / pv for e in row[n:]) for row, pv in zip(work, values))


def det(m):
    n = len(m)
    _, pivots, swaps, values = _gauss_jordan(m, n)
    if len(pivots) < n:
        return Q0
    d = -Q1 if swaps % 2 else Q1
    for v in values:
        d *= v
    return d


# --- linear feasibility -----------------------------------------------------
#
# A constraint is a triple (coeffs, rel, rhs) meaning  coeffs . x  REL  rhs,
# with REL one of "==", "<=", "<".


def _substitute(constraints, var, expr_coeffs, expr_const):
    """Replace x_var by sum(expr_coeffs . x) + expr_const in every constraint."""
    out = []
    for coeffs, rel, rhs in constraints:
        c = coeffs[var]
        if c == 0:
            out.append((coeffs, rel, rhs))
            continue
        new = list(coeffs)
        new[var] = Q0
        for j, e in enumerate(expr_coeffs):
            new[j] += c * e
        out.append((tuple(new), rel, rhs - c * expr_const))
    return out


def feasible_point(n_vars, constraints):
    """Return an exact rational point satisfying all constraints, or None.

    Equalities are eliminated by substitution, the remaining strict/weak
    inequalities by Fourier-Motzkin.  The witness is reconstructed by
    back-substitution, picking midpoints of the feasible intervals.
    """
    constraints = [(vec(c), rel, Fraction(r)) for c, rel, r in constraints]
    subs = []  # (var, coeffs, const) in elimination order

    # eliminate equalities first
    changed = True
    while changed:
        changed = False
        for k, (coeffs, rel, rhs) in enumerate(constraints):
            if rel != "==":
                continue
            var = next((j for j, c in enumerate(coeffs) if c != 0), None)
            if var is None:
                if rhs != 0:
                    return None
                constraints.pop(k)
                changed = True
                break
            c = coeffs[var]
            expr_coeffs = [-e / c for e in coeffs]
            expr_coeffs[var] = Q0
            expr_const = rhs / c
            constraints.pop(k)
            constraints = _substitute(constraints, var, expr_coeffs, expr_const)
            subs.append((var, tuple(expr_coeffs), expr_const))
            changed = True
            break

    # Fourier-Motzkin on the inequalities
    active = sorted({j for coeffs, _, _ in constraints for j, c in enumerate(coeffs) if c != 0})
    elim_stack = []  # (var, lowers, uppers); bounds as (coeffs, const, strict)
    for var in active:
        lowers, uppers, keep = [], [], []
        for coeffs, rel, rhs in constraints:
            c = coeffs[var]
            if c == 0:
                keep.append((coeffs, rel, rhs))
                continue
            bound_coeffs = tuple(-e / c if j != var else Q0 for j, e in enumerate(coeffs))
            bound_const = rhs / c
            strict = rel == "<"
            if c > 0:
                uppers.append((bound_coeffs, bound_const, strict))
            else:
                lowers.append((bound_coeffs, bound_const, strict))
        new = keep
        for lo in lowers:
            for hi in uppers:
                coeffs = tuple(a - b for a, b in zip(lo[0], hi[0]))
                rel = "<" if (lo[2] or hi[2]) else "<="
                new.append((coeffs, rel, hi[1] - lo[1]))
        elim_stack.append((var, lowers, uppers))
        constraints = new

    for coeffs, rel, rhs in constraints:
        if any(c != 0 for c in coeffs):
            raise LinalgError("variable survived elimination")
        if rel == "<" and not rhs > 0:
            return None
        if rel == "<=" and not rhs >= 0:
            return None

    # back-substitute: first the FM variables, then the equality variables
    x = [Q0] * n_vars
    for var, lowers, uppers in reversed(elim_stack):
        lo_val, lo_strict = None, False
        for coeffs, const, strict in lowers:
            v = dot(coeffs, x) + const
            if lo_val is None or v > lo_val or (v == lo_val and strict):
                lo_val, lo_strict = v, strict
        hi_val, hi_strict = None, False
        for coeffs, const, strict in uppers:
            v = dot(coeffs, x) + const
            if hi_val is None or v < hi_val or (v == hi_val and strict):
                hi_val, hi_strict = v, strict
        if lo_val is None and hi_val is None:
            x[var] = Q0
        elif lo_val is None:
            x[var] = hi_val - 1 if hi_strict else hi_val
        elif hi_val is None:
            x[var] = lo_val + 1 if lo_strict else lo_val
        elif lo_val == hi_val:
            x[var] = lo_val
        else:
            x[var] = (lo_val + hi_val) / 2
    for var, expr_coeffs, expr_const in reversed(subs):
        x[var] = dot(expr_coeffs, x) + expr_const
    return tuple(x)


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
