"""Finite windows of the affine Coxeter complex with the full projection toolbox.

Cells are canonical constraint vectors over the positive roots: for each
positive root alpha either an open slab  k < kappa(x, alpha) < k+1  (a
"floor") or a wall  kappa(x, alpha) = k.  Every alcove is a simplex, and each
chamber key carries its vertex tuple, a vertex being held as its root values
scaled to integers.  The fundamental alcove's vertices are 0 and the coweights
w_i / c_i (c the highest root); any other alcove's come from a gallery walk
that reflects one vertex per step.  A cell's vertices are those of an alcove
containing it that lie on its walls, its faces are vertex subsets and its key
is that of its barycenter; `closure` enumerates those subsets and seeds the
face cache with each, so a window's cells need no alcove search of their
own.  Neighbours, sector bounds and the keys of means (retraction images in
`building` too) read these integer values, and the vertices of the alcoves
around the origin are found once per geometry for the epsilon of a height.
Projections read only the key and the signs of a direction on the positive
roots: a step from the barycenter stays in the cell's floors and leaves each
of its walls to the side of the sign; a gate projection takes its signs from
the two faces' integer column sums.  The key of a mean of m vertices is read
entry by entry from one table per m, from an integer column sum to its key
entry, filled on first use.  A point that goes in (`cell_of_point`, a sector
tip, a direction at infinity) is brought to integers over one denominator,
and its root values are the integer root functionals dotted with those; only
`barycenter`, where a point comes out, builds Fractions.  All arithmetic is
exact, so every predicate is decided, never approximated.

The chamber at infinity "sigma" is a sign vector over the positive roots; the
base chamber is all-plus (the sector where every positive root functional
grows), opposition is sign negation.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .linalg import scaled

FLOOR = 0
WALL = 1


class GeometryError(ValueError):
    pass


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
        # dual functional of each positive root: kappa(x, alpha) = g_alpha . x,
        # g_alpha = G alpha an integer row
        self._functionals = tuple(
            tuple(sum(map(mul, row, alpha)) for row in datum.gram) for alpha in datum.positive_roots
        )
        self._simple_idx = tuple(
            datum.pos_index[s] for s in datum.simple_root_coeffs
        )
        self._facet_cache = {}
        self._closure_cache = {}
        self._face_cache = {}
        self._proj_cache = {}
        # An alcove vertex is stored as its scaled root values: the integers
        # den * kappa(v, alpha) over the positive roots.  The fundamental
        # alcove's vertices are 0 and the coweights w_i / c_i (c the highest
        # root), and reflections keep root values in Z / den, den = lcm(c).
        self._den = lcm(*datum.highest_root)
        # the key entries of the means of m vertices, by column sum
        self._entries = tuple(_EntryTable(self._den * m) for m in range(datum.rank + 2))
        corners = [(0,) * self.npos] + [
            tuple(self._den * beta[i] // c for beta in datum.positive_roots)
            for i, c in enumerate(datum.highest_root)
        ]
        # <beta, alpha^V> (row alpha): the reflection in a wall of alpha moves
        # kappa(., beta) by this multiple of the distance to the wall
        self._pairings = datum.pairings(datum.positive_roots, datum.positive_roots)
        # chamber key -> its vertex tuple, or None when no alcove has the key
        self._fundamental = ((FLOOR, 0),) * self.npos
        self._chamber_cache = {self._fundamental: tuple(corners)}
        self._origin_star = None

    # --- simplices at infinity -----------------------------------------

    def infinity_from_direction(self, u):
        u = tuple(u)
        if all(x == 0 for x in u):
            raise GeometryError("zero direction")
        return InfinitySimplex(tuple(map(_sign, self._values(u)[0])), u)

    def base_chamber_at_infinity(self):
        """The all-plus chamber at infinity."""
        return self.infinity_from_direction(self.datum.point((1,) * self.datum.rank))

    # --- cells ------------------------------------------------------------

    def _values(self, x):
        """(nums, q): kappa(x, alpha) = nums[i] / q for every positive root alpha, q > 0."""
        xs, q = scaled(x)
        return [sum(map(mul, g, xs)) for g in self._functionals], q

    def cell_of_point(self, x):
        """The unique cell whose constraints x satisfies."""
        nums, q = self._values(x)
        return tuple(_entry(v, q) for v in nums)

    def dim(self, cell):
        """Every cell is a simplex: one less than its number of vertices."""
        return len(self._face(cell)) - 1

    def is_chamber(self, cell):
        return all(f == FLOOR for f, _ in cell)

    def _chamber(self, chamber):
        """Vertices (scaled root values) of the alcove with this key, or None.

        Walks a gallery to it, from a cached chamber one wall away if there is
        one, else from the fundamental alcove: each step crosses a panel of the
        current alcove whose wall separates it from the target, reflecting the
        vertex opposite that panel.  Every alcove passed is cached.  When no
        panel wall separates the current alcove from the key, no alcove has it.
        """
        cache = self._chamber_cache
        if chamber in cache:
            return cache[chamber]
        cur = next(
            (nb for nb in _neighbor_keys(chamber) if cache.get(nb) is not None),
            self._fundamental,
        )
        verts = cache[cur]
        while cur != chamber:
            step = _separating_panel(cur, verts, chamber, self._den)
            if step is None:
                cache[chamber] = None
                return None
            i, level, j = step
            # the affine reflection in the wall kappa(., alpha_i) = level
            dist = verts[j][i] - self._den * level
            y = tuple(v - dist * p for v, p in zip(verts[j], self._pairings[i]))
            k = cur[i][1]
            cur = cur[:i] + ((FLOOR, k + 1 if level > k else k - 1),) + cur[i + 1:]
            verts = cache.setdefault(cur, verts[:j] + (y,) + verts[j + 1:])
        return verts

    def _face(self, cell):
        """Vertices (scaled root values) of a cell.

        Every wall (WALL, k) of the key becomes the floor (FLOOR, k) to give an
        alcove containing the cell (rho is positive on every positive root);
        the cell's vertices are those of the alcove on all of the key's walls.
        The key is a cell iff their barycenter lies in it.
        """
        if cell in self._face_cache:
            return self._face_cache[cell]
        walls = [(i, self._den * k) for i, (f, k) in enumerate(cell) if f == WALL]
        chamber = tuple((FLOOR, k) for _, k in cell) if walls else cell
        verts = self._chamber(chamber) or ()
        face = tuple(v for v in verts if all(v[i] == k for i, k in walls))
        if not face or self._key_of_mean(face) != cell:
            raise GeometryError(f"cell {cell} is infeasible")
        self._face_cache[cell] = face
        return face

    def _key_of_mean(self, verts):
        """The key of the barycenter of some vertices."""
        return tuple(map(self._entries[len(verts)].__getitem__, map(sum, zip(*verts))))

    def _scaled_values(self, simple_values):
        """Scaled root values of the point with these integer simple-root values."""
        return tuple(
            self._den * sum(c * s for c, s in zip(beta, simple_values))
            for beta in self.datum.positive_roots
        )

    def _bary_values(self, cell):
        """kappa(b, alpha) over the positive roots, b the barycenter of the cell."""
        face = self._face(cell)
        d = self._den * len(face)
        return tuple(Fraction(sum(col), d) for col in zip(*face))

    def _panel_keys(self, face):
        """The key of the face opposite each vertex of a simplex."""
        return [self._key_of_mean(face[:j] + face[j + 1:]) for j in range(len(face))]

    def facets(self, cell):
        """Codimension-1 faces, as canonical cells: drop one vertex at a time."""
        if cell in self._facet_cache:
            return self._facet_cache[cell]
        face = self._face(cell)
        out = frozenset(self._panel_keys(face)) if len(face) > 1 else frozenset()
        self._facet_cache[cell] = out
        return out

    def closure(self, cell):
        """The cell together with all its faces: the keys of the means of the
        non-empty vertex subsets of the simplex.

        Each subset is the vertex set of the face with its key, so it seeds
        the face cache of that face.
        """
        if cell in self._closure_cache:
            return self._closure_cache[cell]
        face, faces = self._face(cell), self._face_cache
        out = set()
        for k in range(1, len(face) + 1):
            for sub in combinations(face, k):
                key = self._key_of_mean(sub)
                faces.setdefault(key, sub)
                out.add(key)
        out = self._closure_cache[cell] = frozenset(out)
        return out

    def closure_of(self, cells):
        """The union of the closures of the given cells, a frozenset."""
        return frozenset().union(*map(self.closure, cells))

    def barycenter(self, cell):
        values = self._bary_values(cell)
        return self.datum.point(values[i] for i in self._simple_idx)

    # --- projections ------------------------------------------------------

    def project_toward(self, cell, tau):
        """pr_cell(tau): the cell containing an initial segment of rays into tau."""
        key = (cell, tau.signs)
        if key in self._proj_cache:
            return self._proj_cache[key]
        self._face(cell)  # a key that is no cell raises
        res = _step_key(cell, tau.signs)
        self._proj_cache[key] = res
        return res

    def project_to_cell(self, cell, target):
        """Gate projection pr_cell(target): project toward the barycenter of target.

        The direction's sign on a root is that of the difference of the two
        barycenters' values, compared over the faces' integer column sums.
        """
        face, other = self._face(cell), self._face(target)
        n, m = len(face), len(other)
        signs = (_sign(sum(b) * n - sum(a) * m) for a, b in zip(zip(*face), zip(*other)))
        return _step_key(cell, signs)

    def upper_face(self, chamber, sigma):
        """Intersection of the panels P of the chamber with pr_P(sigma) = chamber.

        It is spanned by the vertices opposite the other panels.
        """
        if not self.is_chamber(chamber):
            raise GeometryError("upper/lower faces are defined for chambers")
        if not sigma.is_chamber:
            raise GeometryError("sigma must be a chamber at infinity")
        face = self._face(chamber)
        kept = [
            v
            for v, panel in zip(face, self._panel_keys(face))
            if self.project_toward(panel, sigma) != chamber
        ]
        if not kept:
            raise GeometryError("upper face must be a non-empty face")
        return self._key_of_mean(kept)

    # --- galleries ---------------------------------------------------------

    def wall_distance(self, c, d):
        """Number of walls separating two chambers (= gallery distance)."""
        return sum(abs(kc - kd) for (_, kc), (_, kd) in zip(c, d))

    def chamber_neighbors(self, chamber):
        """Pairs (panel, neighbor) across each facet of a chamber.

        A panel lies on one wall (WALL, k), and the alcove across it differs
        from the chamber only there: its floor c becomes the mirror 2k - 1 - c.
        """
        out = []
        for p in self.facets(chamber):
            i, k = next((i, k) for i, (f, k) in enumerate(p) if f == WALL)
            floor = (FLOOR, 2 * k - 1 - chamber[i][1])
            out.append((p, chamber[:i] + (_SHARED_ENTRIES.get(floor, floor),) + chamber[i + 1:]))
        return sorted(out)

    def gallery_layers(self, start, inside=None):
        """The sets of chambers at gallery distance 0, 1, 2, ... from start,
        without end unless `inside` (a test of a convex set of chambers, so
        that the distances are those of the complex) bounds them."""
        prev, layer = set(), {start}
        while layer:
            yield layer
            # a neighbour of a chamber at distance d is at distance d - 1 or d + 1
            nbs = {nb for c in layer for _, nb in self.chamber_neighbors(c)} - prev
            prev, layer = layer, nbs if inside is None else set(filter(inside, nbs))

    def _origin_vertices(self):
        """The vertices of the alcoves whose closures hold the origin, found
        once by a gallery search from the fundamental alcove: an alcove's
        closure holds 0 iff every floor is -1 or 0, and these alcoves, the
        star of a vertex, are gallery-connected."""
        if self._origin_star is None:
            near = self.gallery_layers(self._fundamental, lambda c: all(k in (-1, 0) for _, k in c))
            self._origin_star = frozenset(v for layer in near for c in layer for v in self._face(c))
        return self._origin_star

    def _sector_bounds(self, tip, signs):
        """Integer bounds on the scaled root values of the closed cone from a
        tip toward signs: (lower, upper), each a tuple of (root index, bound).

        A root of sign 0 gets both bounds; they cross when the tip's value on
        it is no multiple of 1/den, and then no point satisfies them.
        """
        lower, upper = [], []
        nums, q = self._values(tip)
        for i, (t, s) in enumerate(zip(nums, signs)):
            num = self._den * t
            if s >= 0:
                lower.append((i, -(-num // q)))
            if s <= 0:
                upper.append((i, num // q))
        return tuple(lower), tuple(upper)


def _entry(num, den):
    """The key entry of the root value num / den: a wall or the floor below it."""
    k, rem = divmod(num, den)
    entry = (FLOOR, k) if rem else (WALL, k)
    return _SHARED_ENTRIES.get(entry, entry)


# One shared object per key entry of a small level, as Python shares small
# ints: the caches hold thousands of keys, most of them built from these.
_SHARED_ENTRIES = {(f, k): (f, k) for f in (FLOOR, WALL) for k in range(-128, 128)}


class _EntryTable(dict):
    """The key entries of the root values s / den, by the integer s, each made
    by `_entry` on first use."""

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, s):
        entry = self[s] = _entry(s, self.den)
        return entry


def _step_key(cell, signs):
    """The cell just past the barycenter of a cell, in a direction with these
    signs on the positive roots.

    The barycenter has the cell's own key, so a step shorter than its distance
    to every wall off it leaves the floors alone; on each of its walls the
    step enters the floor on the side of the sign.
    """
    out = []
    for e, s in zip(cell, signs):
        if e[0] == WALL and s:
            e = (FLOOR, e[1] if s > 0 else e[1] - 1)
            e = _SHARED_ENTRIES.get(e, e)
        out.append(e)
    return tuple(out)


def _neighbor_keys(chamber):
    """The chamber keys one floor step away in one coordinate."""
    for i, (_, k) in enumerate(chamber):
        for step in (-1, 1):
            yield chamber[:i] + ((FLOOR, k + step),) + chamber[i + 1:]


def _separating_panel(cur, verts, target, den):
    """(root index, level, opposite vertex) of a panel wall of the alcove `cur`
    separating it from the chamber key `target`, or None."""
    for i, ((_, k), (_, t)) in enumerate(zip(cur, target)):
        if t == k:
            continue
        level = k + 1 if t > k else k
        off = [j for j, vals in enumerate(verts) if vals[i] != den * level]
        if len(off) == 1:
            return i, level, off[0]
    return None
