"""Fourier-Motzkin feasibility and the alcove routes built on it, kept as test oracles.

The library decides alcove cells combinatorially (vertex tuples from gallery
walks).  The routines here decide the same questions by exact linear
feasibility instead: `feasible_point` is a plain Fourier-Motzkin elimination
with witness extraction, and `FMGeometry` is an `AlcoveGeometry` whose
witnesses, faces, vertices and upper faces come from it, and whose
dimensions, neighbours and projections are the retired Fraction-point
versions.  Tests compare the two routes.
"""

from fractions import Fraction

from linalg_oracle import affine_solve
from linalg_oracle import rank as mat_rank
from sigmabuild.coxeter import FLOOR, WALL, AlcoveGeometry, GeometryError
from sigmabuild.linalg import Q0, Q1, LinalgError, dot, vec
from sigmabuild.root_system import AffineHyperplane, affine_reflect

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


def constraints(g, cell, *, closed=False):
    """Linear constraints cutting the cell (open by default, else closure)."""
    cons = []
    for i, (f, k) in enumerate(cell):
        row = g._functionals[i]
        if f == WALL:
            cons.append((row, "==", k))
        else:
            rel = "<=" if closed else "<"
            cons.append((tuple(-x for x in row), rel, -k))
            cons.append((row, rel, k + 1))
    return cons


def cell_meets_open_sector(g, tip, tau, cell):
    """Whether the open cell meets the open cone K_tip(tau) (exact)."""
    cons = constraints(g, cell)
    for s, f, a in zip(tau.signs, g._functionals, g.datum.positive_roots):
        level = g.datum.kappa(tip, a)
        if s > 0:
            cons.append((tuple(-x for x in f), "<", -level))
        elif s < 0:
            cons.append((f, "<", level))
        else:
            cons.append((f, "==", level))
    return feasible_point(g.datum.rank, cons) is not None


class FMGeometry(AlcoveGeometry):
    """The alcove geometry with every face and witness decided by Fourier-Motzkin.

    Witnesses are FM midpoints, facets are the feasible wall/floor edits of
    the right dimension, vertices are the witnesses of the 0-dimensional faces
    of the closure, barycenters are their means, and the upper face
    intersects the wall systems of its panels.  The dimension is the rank
    left by the wall rows, a neighbour is the affine reflection of the
    witness and a projection steps from the witness along a point direction.
    Galleries and everything else are inherited, so a `Window` built on this
    geometry is the FM route to its cells.
    """

    def __init__(self, datum):
        super().__init__(datum)
        self._witness_cache = {}
        self._vertex_cache = {}
        self._bary_cache = {}

    def dim(self, cell):
        wall_rows = [self._functionals[i] for i, (f, _) in enumerate(cell) if f == WALL]
        if not wall_rows:
            return self.datum.rank
        return self.datum.rank - mat_rank(wall_rows)

    def witness(self, cell):
        if cell in self._witness_cache:
            return self._witness_cache[cell]
        x = feasible_point(self.datum.rank, constraints(self, cell))
        if x is None:
            raise GeometryError(f"cell {cell} is infeasible")
        if self.cell_of_point(x) != cell:
            raise GeometryError(f"witness {x} of cell {cell} lies in another cell")
        self._witness_cache[cell] = x
        return x

    def cell_from_constraints(self, walls, floors):
        """Canonical cell for a mixed wall/floor constraint set, or None.

        `walls` maps positive-root index -> integer level, `floors` likewise.
        Extra walls implied by the affine span are detected exactly.
        """
        if not walls:
            x = feasible_point(
                self.datum.rank,
                [c for i, k in floors.items() for c in self._floor_cons(i, k)],
            )
            return None if x is None else self.cell_of_point(x)
        rows = [self._functionals[i] for i in sorted(walls)]
        rhs = [Fraction(walls[i]) for i in sorted(walls)]
        sol = affine_solve(rows, rhs)
        if sol is None:
            return None
        part, null = sol
        full_walls = dict(walls)
        for i, k in floors.items():
            g = self._functionals[i]
            if all(dot(g, u) == 0 for u in null):
                # the value is forced by the wall system; it must stay inside
                # the closed slab of the original floor constraint
                v = dot(g, part)
                if v.denominator == 1:
                    if v < k or v > k + 1:
                        return None
                    full_walls[i] = int(v)
                else:
                    if not k < v < k + 1:
                        return None
                    # constant non-integral values keep their floor constraint
        cons = []
        for i, k in full_walls.items():
            cons.append((self._functionals[i], "==", k))
        for i, k in floors.items():
            if i not in full_walls:
                cons.extend(self._floor_cons(i, k))
        x = feasible_point(self.datum.rank, cons)
        if x is None:
            return None
        return self.cell_of_point(x)

    def _floor_cons(self, i, k):
        g = self._functionals[i]
        return [(tuple(-x for x in g), "<", -k), (g, "<", k + 1)]

    def facets(self, cell):
        if cell in self._facet_cache:
            return self._facet_cache[cell]
        d = self.dim(cell)
        walls = {i: k for i, (f, k) in enumerate(cell) if f == WALL}
        floors = {i: k for i, (f, k) in enumerate(cell) if f == FLOOR}
        out = set()
        for i, k in floors.items():
            for level in (k, k + 1):
                w = dict(walls)
                w[i] = level
                fl = {j: m for j, m in floors.items() if j != i}
                cand = self.cell_from_constraints(w, fl)
                if cand is not None and self.dim(cand) == d - 1:
                    out.add(cand)
        out = frozenset(out)
        self._facet_cache[cell] = out
        return out

    def vertices(self, cell):
        if cell in self._vertex_cache:
            return self._vertex_cache[cell]
        verts = []
        for c in self.closure(cell):
            if self.dim(c) == 0:
                verts.append(self.witness(c))
        verts = tuple(sorted(verts))
        self._vertex_cache[cell] = verts
        return verts

    def barycenter(self, cell):
        if cell in self._bary_cache:
            return self._bary_cache[cell]
        vs = self.vertices(cell)
        n = Fraction(len(vs))
        out = tuple(sum(col, Q0) / n for col in zip(*vs))
        self._bary_cache[cell] = out
        return out

    def upper_face(self, chamber, sigma):
        if not self.is_chamber(chamber):
            raise GeometryError("upper/lower faces are defined for chambers")
        if not sigma.is_chamber:
            raise GeometryError("sigma must be a chamber at infinity")
        panels = [p for p in self.facets(chamber) if self.project_toward(p, sigma) == chamber]
        walls = {}
        for p in panels:
            for i, (f, k) in enumerate(p):
                if f == WALL:
                    walls[i] = k
        floors = {i: k for i, (f, k) in enumerate(chamber) if i not in walls}
        face = self.cell_from_constraints(walls, floors)
        if face is None:
            raise GeometryError("upper face must be a non-empty face")
        return face

    # --- projections and neighbours through Fraction points ----------------

    def project_toward(self, cell, tau):
        key = (cell, tau.signs)
        if key in self._proj_cache:
            return self._proj_cache[key]
        res = self._project_dir(cell, tau.direction)
        self._proj_cache[key] = res
        return res

    def _project_dir(self, cell, u, limit=None):
        x0 = self.witness(cell)
        eps = None
        for i in range(self.npos):
            r = dot(self._functionals[i], u)
            if r == 0:
                continue
            v = dot(self._functionals[i], x0)
            if r > 0:
                gap = (v.numerator // v.denominator) + 1 - v if v.denominator != 1 else Q1
            else:
                gap = v - (v.numerator // v.denominator) if v.denominator != 1 else Q1
            step = gap / abs(r)
            eps = step if eps is None else min(eps, step)
        if eps is None:
            return cell  # direction parallel to every wall through the cell
        if limit is not None:
            eps = min(eps, limit)
        eps = eps / 2
        y = tuple(a + eps * b for a, b in zip(x0, u))
        return self.cell_of_point(y)

    def project_to_cell(self, cell, target):
        """Gate projection pr_cell(target): project toward the barycenter of target."""
        x0 = self.witness(cell)
        y = self.barycenter(target)
        u = tuple(b - a for a, b in zip(x0, y))
        if all(x == 0 for x in u):
            return cell
        return self._project_dir(cell, u, limit=Q1)

    def chamber_neighbors(self, chamber):
        """Pairs (panel, neighbor) across each facet of a chamber."""
        out = []
        for p in self.facets(chamber):
            i, k = next((i, k) for i, (f, k) in enumerate(p) if chamber[i][0] == FLOOR and f == WALL)
            h = AffineHyperplane.make(self.datum, self.datum.positive_roots[i], k)
            y = affine_reflect(self.datum, h, self.witness(chamber))
            out.append((p, self.cell_of_point(y)))
        return sorted(out)
