"""Finite windows of the affine Coxeter complex with the full projection toolbox.

Cells are canonical constraint vectors over the positive roots: for each
positive root alpha either an open slab  k < kappa(x, alpha) < k+1  (a
"floor") or a wall  kappa(x, alpha) = k.  Faces and projections are
constraint edits backed by exact feasibility checks, so all predicates are
decided, never approximated.

The chamber at infinity "sigma" is a sign vector over the positive roots; the
base chamber is all-plus (the sector where every positive root functional
grows), opposition is sign negation.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Q0, Q1, affine_solve, feasible_point, matvec, rank as mat_rank
from .root_system import AffineHyperplane, affine_reflect

FLOOR = 0
WALL = 1


class GeometryError(ValueError):
    pass


class WindowTooSmall(GeometryError):
    """An operation needed cells outside the window bounds."""


@dataclass(frozen=True)
class InfinitySimplex:
    """A simplex of the sphere at infinity: sign of kappa(., alpha) per positive root."""

    signs: tuple  # entries in {+1, -1, 0}, indexed like datum.positive_roots
    direction: tuple  # a rational direction vector realizing the signs

    @property
    def is_chamber(self):
        return all(s != 0 for s in self.signs)

    def opposite(self):
        return InfinitySimplex(
            tuple(-s for s in self.signs), tuple(-x for x in self.direction)
        )


def _sign(x):
    return 0 if x == 0 else (1 if x > 0 else -1)


class AlcoveGeometry:
    """All cell-level operations for one root datum, with caches.

    The datum is immutable and every operation is a pure function of its
    arguments; the caches only memoize answers.
    """

    def __init__(self, datum):
        self.datum = datum
        self.npos = len(datum.positive_roots)
        # dual functional of each positive root: kappa(x, alpha) = g_alpha . x
        self._functionals = tuple(
            matvec(datum.gram, alpha) for alpha in datum.positive_roots
        )
        self._simple_idx = tuple(
            datum.pos_index[s] for s in datum.simple_root_coeffs
        )
        self._witness_cache = {}
        self._facet_cache = {}
        self._vertex_cache = {}
        self._proj_cache = {}
        self._bary_cache = {}

    # --- simplices at infinity -----------------------------------------

    def infinity_from_direction(self, u):
        u = tuple(Fraction(x) for x in u)
        if all(x == 0 for x in u):
            raise GeometryError("zero direction")
        signs = tuple(_sign(self.datum.kappa(u, a)) for a in self.datum.positive_roots)
        return InfinitySimplex(signs, u)

    def base_chamber_at_infinity(self):
        """The all-plus chamber at infinity."""
        return self.infinity_from_direction(self.datum.point((1,) * self.datum.rank))

    # --- cells ------------------------------------------------------------

    def root_value(self, x, i):
        from .linalg import dot

        return dot(self._functionals[i], x)

    def cell_of_point(self, x):
        """The unique cell whose constraints x satisfies."""
        entries = []
        for i in range(self.npos):
            v = self.root_value(x, i)
            if v.denominator == 1:
                entries.append((WALL, int(v)))
            else:
                entries.append((FLOOR, v.numerator // v.denominator))
        return tuple(entries)

    def dim(self, cell):
        wall_rows = [self._functionals[i] for i, (f, _) in enumerate(cell) if f == WALL]
        if not wall_rows:
            return self.datum.rank
        return self.datum.rank - mat_rank(wall_rows)

    def is_chamber(self, cell):
        return all(f == FLOOR for f, _ in cell)

    def constraints(self, cell, *, closed=False):
        """Linear constraints cutting the cell (open by default, else closure)."""
        cons = []
        for i, (f, k) in enumerate(cell):
            g = self._functionals[i]
            if f == WALL:
                cons.append((g, "==", k))
            else:
                rel = "<=" if closed else "<"
                cons.append((tuple(-x for x in g), rel, -k))
                cons.append((g, rel, k + 1))
        return cons

    def witness(self, cell):
        """An exact rational point in the (relative) interior of the cell."""
        if cell in self._witness_cache:
            return self._witness_cache[cell]
        x = feasible_point(self.datum.rank, self.constraints(cell))
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
        from .linalg import dot

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
        """Codimension-1 faces, as canonical cells."""
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

    def closure(self, cell):
        """The cell together with all its faces."""
        seen = set()
        stack = [cell]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(self.facets(c))
        return seen

    def vertices(self, cell):
        """The 0-faces of the closed cell, as coordinate tuples."""
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

    def is_special_vertex(self, x):
        """Special vertex: integral against every root (meets every wall class)."""
        return all(self.root_value(x, i).denominator == 1 for i in range(self.npos))

    # --- projections ------------------------------------------------------

    def project_toward(self, cell, tau):
        """pr_cell(tau): the cell containing an initial segment of rays into tau."""
        key = (cell, tau.signs)
        if key in self._proj_cache:
            return self._proj_cache[key]
        res = self._project_dir(cell, tau.direction)
        self._proj_cache[key] = res
        return res

    def _project_dir(self, cell, u, limit=None):
        x0 = self.witness(cell)
        from .linalg import dot

        eps = None
        for i in range(self.npos):
            r = dot(self._functionals[i], u)
            if r == 0:
                continue
            v = self.root_value(x0, i)
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

    def upper_face(self, chamber, sigma):
        """Intersection of the panels P of the chamber with pr_P(sigma) = chamber."""
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

    def lower_face(self, chamber, sigma):
        return self.upper_face(chamber, sigma.opposite())

    # --- galleries ---------------------------------------------------------

    def wall_distance(self, c, d):
        """Number of walls separating two chambers (= gallery distance)."""
        return sum(abs(kc - kd) for (_, kc), (_, kd) in zip(c, d))

    def chamber_neighbors(self, chamber):
        """Pairs (panel, neighbor) across each facet of a chamber."""
        out = []
        for p in self.facets(chamber):
            i, k = next((i, k) for i, (f, k) in enumerate(p) if chamber[i][0] == FLOOR and f == WALL)
            h = AffineHyperplane.make(self.datum, self.datum.positive_roots[i], k)
            y = affine_reflect(self.datum, h, self.witness(chamber))
            out.append((p, self.cell_of_point(y)))
        return sorted(out)

    def is_sigma_minimal(self, gallery, sigma):
        """Each step must cross its panel toward sigma."""
        for c, d in zip(gallery, gallery[1:]):
            panel = self._common_panel(c, d)
            if panel is None:
                raise GeometryError("consecutive chambers are not panel-adjacent")
            if self.project_toward(panel, sigma) != d:
                return False
        return True

    def _common_panel(self, c, d):
        common = self.facets(c) & self.facets(d)
        if len(common) != 1:
            return None
        return next(iter(common))

    def sigma_minimal_galleries(self, start, end, sigma):
        """All sigma-minimal galleries from start to end.

        A sigma-minimal gallery crosses each separating wall exactly once and
        always toward sigma, so the search can prune on wall distance.
        """
        out = []
        stack = [(start, [start])]
        while stack:
            cur, path = stack.pop()
            if cur == end:
                out.append(tuple(path))
                continue
            dist = self.wall_distance(cur, end)
            for panel, nb in self.chamber_neighbors(cur):
                if self.wall_distance(nb, end) != dist - 1:
                    continue
                if self.project_toward(panel, sigma) != nb:
                    continue
                stack.append((nb, path + [nb]))
        return out

    def sector_contains_point(self, tip, tau, y):
        """Whether y lies in the open cone K_tip(tau)."""
        u = tuple(b - a for a, b in zip(tip, y))
        if all(x == 0 for x in u):
            return False
        return all(
            _sign(self.datum.kappa(u, a)) == s
            for s, a in zip(tau.signs, self.datum.positive_roots)
        )

    def cell_in_closed_sector(self, tip, tau, cell):
        """Whether the closed cell lies in the closed cone from tip toward tau."""
        for v in self.vertices(cell):
            u = tuple(b - a for a, b in zip(tip, v))
            for s, a in zip(tau.signs, self.datum.positive_roots):
                val = self.datum.kappa(u, a)
                if s > 0 and val < 0:
                    return False
                if s < 0 and val > 0:
                    return False
                if s == 0 and val != 0:
                    return False
        return True

    def cell_meets_open_sector(self, tip, tau, cell):
        """Whether the open cell meets the open cone K_tip(tau) (exact)."""
        cons = self.constraints(cell)
        for s, g, a in zip(tau.signs, self._functionals, self.datum.positive_roots):
            level = self.datum.kappa(tip, a)
            if s > 0:
                cons.append((tuple(-x for x in g), "<", -level))
            elif s < 0:
                cons.append((g, "<", level))
            else:
                cons.append((g, "==", level))
        return feasible_point(self.datum.rank, cons) is not None
