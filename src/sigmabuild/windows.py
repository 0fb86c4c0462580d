"""Finite windows of the Coxeter complex, the deconstruction toolbox and heights.

A window is a box of floor bounds on the simple-root functionals, holding
l! c_1 ... c_l chambers per unit box (c the highest root), so its size is
known before it is searched.  The cells inside form a finite face-closed
complex on which the residual boundary R(Z), sigma-convexity with witness
galleries, the chamber-by-chamber deconstruction filtration and the
upper/lower complexes of a generic height are computed with certificates.
Each window keeps one vertex table, its distinct alcove vertices and each
cell's tuple of their positions: closed-sector cells and the certified
height ranges test or evaluate each vertex once and read every cell from its
positions, and the epsilon of a height is read from the vertices of the
alcoves around the origin, found once per geometry.
Sigma-convexity and sigma-length 0 are read from the sigma-order of chambers
(every floor of d on c's sigma side) and sigma-steps, so no gallery is
enumerated; a deconstruction finds each chamber's once and keeps its steps
and R(Z), from which the stages of the filtration are rebuilt.

`HeightForm` is the package's one height, h = sum_i c_i kappa(., alpha_i).
It reads only the simple-root values of a point, so the same form measures
apartment points here and, through the retraction from infinity, vertices of
the Bruhat-Tits truncations in `building`.  Its coefficients c are those of
the character chi with h(g x) = chi(g) + h(x) (`equivariant_character`), and
it is generic (strictly decreasing toward the base chamber at infinity) iff
every coefficient is negative.  The superlevel filtration of h speaks for the
class of -c, not of c, in `sigma.sigma_verdict`: on the SL_2 tree the
superlevel sets of h = (1) are connected and (-1) is certain-in for
Sigma^1, while those of h = (-1) have ever more components and (1) is
certain-out.  Its `level` and `grid` are the package's one integer height
and one rounding onto it.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import ceil, factorial, floor, prod
from operator import mul

from .chevalley import CharacterVec
from .complexes import CellComplex
from .coxeter import FLOOR, AlcoveGeometry, GeometryError
from .linalg import scaled


@dataclass(frozen=True)
class HeightForm:
    """Linear height x -> sum coeffs_i * kappa(x, alpha_i) over the simple roots.

    At integer simple-root values h lies in Z / d, d the least common
    denominator of the coefficients; `level` and `grid` work on that scale.
    """

    coeffs: tuple
    d: int = field(init=False, repr=False, compare=False)
    _scaled: tuple = field(init=False, repr=False, compare=False)  # the coefficients times d

    def __post_init__(self):
        nums, d = scaled(self.coeffs)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_scaled", tuple(nums))

    def level(self, values):
        """d * h at integer simple-root values: an integer."""
        return sum(map(mul, self._scaled, values))

    def grid(self, r, den=1):
        """(floor, ceil) of d * den * r: the level r on the grid of `level`
        refined den times, for simple-root values in Z / den."""
        x = Fraction(r) * (self.d * den)
        return floor(x), ceil(x)

    def equivariant_character(self, n, p):
        """The character chi with h(g x) = chi(g) + h(x) on the SL_n(Q_p) building.

        Over the basis chi_{k,p}(g) = v_p(g_{k+1,k+1}) - v_p(g_{k,k}) its
        coefficients are the height's own, as the equivariance needs.  The
        superlevel filtration of h decides the Sigma-class of -chi in
        `sigma.sigma_verdict`, not that of chi.
        """
        return CharacterVec(n, (p,), {(i + 1, p): c for i, c in enumerate(self.coeffs)})


# Window.chambers gives up past this many chambers: A_4 at -2:1 has 6,144,
# at -3:2 it has 31,104, whose complex alone takes half a minute to build
MAX_WINDOW_CHAMBERS = 10_000


class Window:
    """All cells whose simple-root floors fit in the given box, from a BFS seed.

    Unless given, the geometry is built on first use: not for a window that
    its chamber count rejects.
    """

    def __init__(self, datum, lo, hi, geometry=None):
        self._geometry = geometry
        self.datum = datum
        self.lo = tuple(int(x) for x in lo)
        self.hi = tuple(int(x) for x in hi)
        if len(self.lo) != datum.rank or len(self.hi) != datum.rank:
            raise GeometryError("window bounds must give one range per simple root")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise GeometryError("empty window bounds")
        self._chambers = None
        self._cells = None
        self._vertex_table = None
        self._complex = None
        self._special_groups = None

    @property
    def geometry(self):
        if self._geometry is None:
            self._geometry = AlcoveGeometry(self.datum)
        return self._geometry

    @classmethod
    def radius(cls, datum, r, geometry=None):
        """Symmetric window with simple-root floors in [-r, r-1]."""
        return cls(datum, [-r] * datum.rank, [r - 1] * datum.rank, geometry)

    # --- membership -----------------------------------------------------

    def contains_chamber(self, cell):
        for i, pi in enumerate(self.geometry._simple_idx):
            f, k = cell[pi]
            if f != FLOOR:
                raise GeometryError(f"{cell} is not a chamber")
            if not self.lo[i] <= k <= self.hi[i]:
                return False
        return True

    def interior_cell(self, cell):
        """Cells at least one floor from the rim, so that their full star is in the window."""
        for i, pi in enumerate(self.geometry._simple_idx):
            f, k = cell[pi]
            if k <= self.lo[i] or (k + 1 if f == FLOOR else k) > self.hi[i]:
                return False
        return True

    # --- construction -----------------------------------------------------

    def chamber_count(self):
        """l! c_1 ... c_l chambers per unit box of simple-root floors, c the
        highest root (|W| = l! c_1 ... c_l f; Humphreys 1990, section 4.9)."""
        boxes = prod(b - a + 1 for a, b in zip(self.lo, self.hi))
        return factorial(self.datum.rank) * prod(self.datum.highest_root) * boxes

    def chambers(self):
        if self._chambers is not None:
            return self._chambers
        if self.chamber_count() > MAX_WINDOW_CHAMBERS:
            raise GeometryError(f"window has more than {MAX_WINDOW_CHAMBERS:,} chambers")
        # the alcove just above the corner lo: floor sum c_i lo_i on each
        # positive root sum c_i alpha_i
        seed = tuple((FLOOR, sum(c * k for c, k in zip(beta, self.lo))) for beta in self.datum.positive_roots)
        self._chambers = frozenset().union(*self.geometry.gallery_layers(seed, self.contains_chamber))
        return self._chambers

    def cells(self):
        if self._cells is None:
            self._cells = self.geometry.closure_of(self.chambers())
        return self._cells

    def vertex_table(self):
        """(vertices, index): the window's distinct alcove vertices, as scaled
        root values, and for each cell the tuple of its vertices' positions
        in them.  Sector and level queries test each vertex once and read a
        cell from its positions."""
        if self._vertex_table is None:
            g = self.geometry
            at = {}
            index = {c: tuple(at.setdefault(v, len(at)) for v in g._face(c)) for c in self.cells()}
            self._vertex_table = tuple(at), index
        return self._vertex_table

    def complex(self):
        if self._complex is not None:
            return self._complex
        g = self.geometry
        self._complex = CellComplex((c, g.dim(c), g.facets(c)) for c in self.cells())
        return self._complex

    def special_groups(self):
        """The cells grouped by two special vertices, each a dict from its
        integer simple-root values to cells: the componentwise ceiling of the
        cell, and its extremal special dominator k + 1, k the simple floors."""
        if self._special_groups is None:
            ceilings, dominators = {}, {}
            for cell in self.cells():
                entries = [cell[pi] for pi in self.geometry._simple_idx]
                ceilings.setdefault(tuple(k + 1 if f == FLOOR else k for f, k in entries), []).append(cell)
                dominators.setdefault(tuple(k + 1 for _, k in entries), []).append(cell)
            self._special_groups = ceilings, dominators
        return self._special_groups


# --- the section-4 toolbox ---------------------------------------------------


def residual_r(geometry, cells, sigma):
    """R(Z): cells of Z whose projection away from sigma leaves Z."""
    cells = frozenset(cells)
    op = sigma.opposite()
    return frozenset(
        a for a in cells if geometry.project_toward(a, op) not in cells
    )


def _sigma_steps(geometry, chamber, sigma):
    """The chambers one sigma-step away: across a panel, toward sigma."""
    return [nb for p, nb in geometry.chamber_neighbors(chamber) if geometry.project_toward(p, sigma) == nb]


def _sigma_below(c, d, signs):
    """c <=sigma d: on every positive root the floor of d is on c's sigma side."""
    return all(kc == kd or (kd - kc) * s > 0 for (_, kc), (_, kd), s in zip(c, d, signs))


def sigma_convex_check(geometry, cells, sigma):
    """Sigma-convexity of Z with a witness gallery; returns (ok, witness_gallery).

    A sigma-minimal gallery crosses each separating wall once, toward sigma,
    so one from c to d exists iff c <=sigma d, and then every minimal gallery
    from c to d is one; the chambers they pass are the x with c <=sigma x
    <=sigma d.  One breadth-first search over sigma-steps from the starts
    pr_a(sigma), kept below the ends pr_a(-sigma), visits exactly those
    chambers; it tests only the maximal ends, found in decreasing order of
    the signed floor sum, which grows along the sigma-order.  The witness
    runs from a start through the first chamber found outside Z, then by
    sigma-steps to the nearest end above it.
    """
    cells = frozenset(cells)
    signs = sigma.signs
    op = sigma.opposite()
    ends = {geometry.project_toward(a, op) for a in cells}
    tops = []
    for d in sorted(ends, key=lambda d: -sum(k * s for (_, k), s in zip(d, signs))):
        if not any(_sigma_below(d, t, signs) for t in tops):
            tops.append(d)
    frontier = [(c, None) for c in sorted({geometry.project_toward(a, sigma) for a in cells})]
    parent = {}
    while frontier:
        nxt = []
        for x, up in frontier:
            if x in parent or not any(_sigma_below(x, t, signs) for t in tops):
                continue
            parent[x] = up
            if x not in cells:
                return False, _witness(geometry, parent, x, ends, sigma)
            nxt += ((nb, x) for nb in _sigma_steps(geometry, x, sigma))
        frontier = nxt
    return True, None


def _witness(geometry, parent, x, ends, sigma):
    """The search path to x, then sigma-steps on to the nearest end above x."""
    gallery = [x]
    while parent[gallery[-1]] is not None:
        gallery.append(parent[gallery[-1]])
    gallery.reverse()
    above = (d for d in ends if _sigma_below(x, d, sigma.signs))
    d = min(above, key=lambda d: (geometry.wall_distance(x, d), d))
    while gallery[-1] != d:
        steps = _sigma_steps(geometry, gallery[-1], sigma)
        gallery.append(next(nb for nb in steps if _sigma_below(nb, d, sigma.signs)))
    return tuple(gallery)


@dataclass
class DeconstructionStep:
    chamber: tuple
    lower_face: tuple
    removed_star: frozenset
    certificates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Deconstruction:
    steps: list  # one DeconstructionStep per stage Z_1 < ... < Z_n = Z, from the bottom
    residual: frozenset  # Z_0 = R(Z)

    @property
    def filtration(self):
        """The cell sets Z_0 < Z_1 < ... < Z_n = Z, each the last with its step's star."""
        stars = (step.removed_star for step in self.steps)
        return list(accumulate(stars, frozenset.union, initial=self.residual))


def deconstruct(geometry, cells, sigma):
    """Filter a finite sigma-convex subcomplex chamber by chamber.

    Each step removes one chamber C of sigma-length 0 together with the open
    star of its lower face, and records the certificate facts: the removed
    star lies in the closed chamber, the intersection with the previous stage
    is the boundary of that star, and R is unchanged.  Sigma-steps, cofaces
    and projections away from sigma are indexed once over Z; as R(stage) =
    R(Z) by induction, R is unchanged iff the star misses R(Z) and no
    remaining cell projects into it.  The chamber removed is the least one of
    sigma-length 0, popped from a heap of the ready chambers (Kahn 1962):
    each chamber counts its sigma-steps still in the stage, and the star's
    one chamber is C, so a step decrements only the chambers that step to C.
    """
    cells = frozenset(cells)
    ok, witness = sigma_convex_check(geometry, cells, sigma)
    if not ok:
        raise GeometryError(f"subcomplex is not sigma-convex; witness gallery {witness}")
    r_z = residual_r(geometry, cells, sigma)
    op = sigma.opposite()
    cofaces, preimages = {}, {}
    for x in cells:
        for a in geometry.closure(x):
            cofaces.setdefault(a, []).append(x)
        preimages.setdefault(geometry.project_toward(x, op), []).append(x)
    chambers = [c for c in cells if geometry.is_chamber(c)]
    waiting, stepped_from = {}, {}
    for c in chambers:
        ahead = [nb for nb in _sigma_steps(geometry, c, sigma) if nb in cells]
        waiting[c] = len(ahead)
        for nb in ahead:
            stepped_from.setdefault(nb, []).append(c)
    # sigma-length 0: no sigma-step stays in the stage; the least such chamber, for determinism
    ready = [c for c in chambers if not waiting[c]]
    heapify(ready)
    current = set(cells)
    steps = []
    for _ in chambers:
        if not ready:
            raise GeometryError("no chamber of sigma-length zero; subcomplex not deconstructible")
        c = heappop(ready)
        lower = geometry.upper_face(c, op)  # the lower face toward sigma
        closure_c = geometry.closure(c)
        star = frozenset(x for x in cofaces.get(lower, ()) if x in current)
        boundary = (set().union(*map(geometry.closure, star)) & current) - star
        current -= star
        cert = {
            "star_in_closed_chamber": star <= closure_c,
            "intersection_is_star_boundary": (current & closure_c) == boundary,
            "residual_unchanged": star.isdisjoint(r_z)
            and not any(a in current for x in star for a in preimages.get(x, ())),
            "sigma_length_zero": True,
        }
        if not all(cert.values()):
            raise GeometryError(f"deconstruction certificate failed at {c}: {cert}")
        steps.append(DeconstructionStep(c, lower, star, cert))
        for b in stepped_from.get(c, ()):
            waiting[b] -= 1
            if not waiting[b]:
                heappush(ready, b)
    if current != r_z:
        raise GeometryError("deconstruction did not terminate at R(Z)")
    steps.reverse()
    return Deconstruction(steps, r_z)


# --- upper and lower complexes of a generic height ---------------------------


def epsilon_for_height(geometry, h):
    """The uniform constant 2*d1 + 2*d2 controlling sector covers for h.

    d2 is the largest |h| on the alcoves whose closures hold the origin, the
    largest |level| over their vertices (`AlcoveGeometry._origin_vertices`)
    over d * den.
    """
    _check_rank(h, geometry.datum.rank)
    d1 = Fraction(abs(h.level((1,) * geometry.datum.rank)), h.d)
    d2 = max(map(abs, _levels(geometry, h, geometry._origin_vertices())))
    return 2 * d1 + 2 * Fraction(d2, h.d * geometry._den)


def _check_rank(h, rank):
    """A height on an apartment of this rank has one coefficient per simple root."""
    if len(h.coeffs) != rank:
        raise GeometryError(f"height has {len(h.coeffs)} coefficient(s), one per simple root needs {rank}")


def upper_complex(window, h, r):
    """U_h(r): the union of closed opposite sectors at special vertices above r."""
    return _upper_lower(window, h, r)[0]


def upper_lower_certified(window, h, r):
    """U_h(r), L_h(r) and the certificate record of their defining inclusions.

    Every vertex of the window's table has its level read once on the
    geometry's den, every cell's height range is the (min, max) of its
    vertices' levels (`_level_ranges`), and both are compared with r and
    r + eps rounded onto that grid once.
    """
    up, low = _upper_lower(window, h, r)
    g = window.geometry
    eps = epsilon_for_height(g, h)
    r_down, r_up = h.grid(r, g._den)
    top = h.grid(Fraction(r) + eps, g._den)[0]
    verts, index = window.vertex_table()
    ranges = _level_ranges(_levels(g, h, verts), index)
    residual = residual_r(g, low, g.base_chamber_at_infinity())
    cert = {
        "epsilon": eps,
        "sublevel_in_lower": all(c in low for c, (_, mx) in ranges.items() if mx <= r_down),
        "lower_below_r_plus_eps": all(
            ranges[c][0] <= top for c in low if window.interior_cell(c)
        ),
        "residual_in_band": all(
            r_up <= ranges[c][0] and ranges[c][1] <= top
            for c in residual
            if window.interior_cell(c)
        ),
    }
    return up, low, cert


def _levels(geometry, h, verts):
    """d * den * h at each vertex (scaled root values): an integer, as the
    vertex's simple-root values are integers over den."""
    idx = geometry._simple_idx
    return [h.level([v[i] for i in idx]) for v in verts]


def _level_ranges(levels, index):
    """(min, max) of d * den * h over each closed cell, from the levels of
    the window's vertices and the cell's tuple of their positions."""
    out = {}
    for cell, ix in index.items():
        hs = [levels[j] for j in ix]
        out[cell] = min(hs), max(hs)
    return out


def _upper_lower(window, h, r):
    """Fast membership via the extremal special dominator of each cell.

    Every point of a cell with simple floor levels k_i is strictly dominated
    by the special vertex at (k_i + 1), and that vertex maximizes the height
    among all special dominators; so the cell meets the union of open
    opposite sectors iff h(k+1) >= r.  Likewise the closed-sector hull of the
    cell is governed by its componentwise ceiling.  Both are level tests
    against the grid ceiling T of r, made once per special vertex of the
    window's `special_groups`: a cell is in U iff the level of its ceiling
    is >= T, and in L iff the level of k + 1 is < T.
    """
    _check_rank(h, window.datum.rank)
    # generic: strictly decreasing along every ray into the base chamber at
    # infinity, i.e. every coefficient negative
    bad = next((i for i, c in enumerate(h.coeffs) if c >= 0), None)
    if bad is not None:
        raise GeometryError(
            f"height is not strictly decreasing toward the boundary vertex of sector ray {bad}"
        )
    threshold = h.grid(r)[1]
    ceilings, dominators = window.special_groups()
    upper = chain.from_iterable(cells for v, cells in ceilings.items() if h.level(v) >= threshold)
    lower = chain.from_iterable(cells for v, cells in dominators.items() if h.level(v) < threshold)
    return frozenset(upper), frozenset(lower)


def closed_sector_cells(window, tip, tau):
    """Cells of the window inside the closed cone from tip toward tau: those
    with no vertex outside the cone's bounds, each vertex of the window's
    table tested once."""
    lower, upper = window.geometry._sector_bounds(tip, tau.signs)
    verts, index = window.vertex_table()
    outside = {
        j
        for j, v in enumerate(verts)
        if any(v[i] < b for i, b in lower) or any(v[i] > b for i, b in upper)
    }
    return frozenset(c for c, ix in index.items() if outside.isdisjoint(ix))
