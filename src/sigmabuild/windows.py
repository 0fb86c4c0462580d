"""Finite windows of the Coxeter complex, the deconstruction toolbox and heights.

A window is a box of floor bounds on the simple-root functionals; the cells
inside form a finite face-closed complex on which the residual boundary R(Z),
sigma-convexity with witness galleries, the chamber-by-chamber deconstruction
filtration and the upper/lower complexes of a generic height are computed
with certificates.  Sigma-convexity and sigma-length 0 are read from the
sigma-order of chambers (every floor of d on c's sigma side) and sigma-steps,
so no gallery is enumerated.

`HeightForm` is the package's one height, h = sum_i c_i kappa(., alpha_i).
It reads only the simple-root values of a point, so the same form measures
apartment points here and, through the retraction from infinity, vertices of
the Bruhat-Tits truncations in `building`.  Its coefficients are those of the
character it pairs with, and it is generic (strictly decreasing toward the
base chamber at infinity) iff every coefficient is negative.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .chevalley import CharacterVec
from .complexes import CellComplex
from .coxeter import FLOOR, AlcoveGeometry, GeometryError
from .linalg import Q0, scaled


@dataclass(frozen=True)
class HeightForm:
    """Linear height x -> sum coeffs_i * kappa(x, alpha_i) over the simple roots."""

    coeffs: tuple
    # the coefficients times the lcm of their denominators, and that lcm
    _scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nums, d = scaled(self.coeffs)
        object.__setattr__(self, "_scaled", (tuple(nums), d))

    def __call__(self, values):
        """The height of the point whose simple-root values kappa(x, alpha_i) are given."""
        return sum((c * v for c, v in zip(self.coeffs, values)), Q0)

    def range_on_cell(self, geometry, cell):
        """(min, max) of the height over the closed cell."""
        lo, hi = self._scaled_range(geometry, cell)
        scale = self._scaled[1] * geometry._den
        return Fraction(lo, scale), Fraction(hi, scale)

    def _scaled_range(self, geometry, cell):
        """(min, max) of the height over the closed cell's vertices, as the
        integers d * den * h: the scaled coefficients dotted with the
        vertices' integer scaled root values."""
        terms = tuple(zip(geometry._simple_idx, self._scaled[0]))
        heights = [sum(c * v[i] for i, c in terms) for v in geometry._face(cell)]
        return min(heights), max(heights)

    def is_generic_decreasing(self):
        """Strictly decreasing along every ray into the base chamber at infinity.

        Equivalent to all coefficients being negative; returns the index of an
        offending boundary vertex direction otherwise.
        """
        for i, c in enumerate(self.coeffs):
            if c >= 0:
                return False, i
        return True, None

    def equivariant_character(self, n, p):
        """The character chi with h(g x) = chi(g) + h(x) on the SL_n(Q_p) building.

        Over the basis chi_{k,p}(g) = v_p(g_{k+1,k+1}) - v_p(g_{k,k}) its
        coefficients are the height's own.
        """
        return CharacterVec(n, (p,), {(i + 1, p): c for i, c in enumerate(self.coeffs)})


# Window.chambers gives up past this many chambers: A_4 at -2:1 has 6,144,
# at -3:2 it has 31,104, whose complex alone takes half a minute to build
MAX_WINDOW_CHAMBERS = 10_000


class Window:
    """All cells whose simple-root floors fit in the given box, from a BFS seed."""

    def __init__(self, datum, lo, hi, geometry=None):
        self.geometry = geometry or AlcoveGeometry(datum)
        self.datum = datum
        self.lo = tuple(int(x) for x in lo)
        self.hi = tuple(int(x) for x in hi)
        if len(self.lo) != datum.rank or len(self.hi) != datum.rank:
            raise GeometryError("window bounds must give one range per simple root")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise GeometryError("empty window bounds")
        self._chambers = None
        self._cells = None
        self._complex = None

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

    def chambers(self):
        if self._chambers is not None:
            return self._chambers
        g = self.geometry
        # the alcove just above the corner lo: floor sum c_i lo_i on each
        # positive root sum c_i alpha_i
        seed = tuple((FLOOR, sum(c * k for c, k in zip(beta, self.lo))) for beta in self.datum.positive_roots)
        seen = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for c in frontier:
                for _, nb in g.chamber_neighbors(c):
                    if nb not in seen and self.contains_chamber(nb):
                        seen.add(nb)
                        nxt.append(nb)
            if len(seen) > MAX_WINDOW_CHAMBERS:
                raise GeometryError(f"window has more than {MAX_WINDOW_CHAMBERS:,} chambers")
            frontier = nxt
        self._chambers = frozenset(seen)
        return self._chambers

    def cells(self):
        if self._cells is not None:
            return self._cells
        g = self.geometry
        out = set()
        for c in self.chambers():
            out |= g.closure(c)
        self._cells = frozenset(out)
        return self._cells

    def complex(self):
        if self._complex is not None:
            return self._complex
        g = self.geometry
        cx = CellComplex()
        for c in self.cells():
            cx.add_cell(c, g.dim(c), g.facets(c))
        self._complex = cx.freeze()
        return self._complex


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
    chambers.  The witness runs from a start through the first chamber found
    outside Z, then by sigma-steps to the nearest end above it.
    """
    cells = frozenset(cells)
    signs = sigma.signs
    ends = {geometry.project_toward(a, sigma.opposite()) for a in cells}
    frontier = [(c, None) for c in sorted({geometry.project_toward(a, sigma) for a in cells})]
    parent = {}
    while frontier:
        nxt = []
        for x, up in frontier:
            if x in parent or not any(_sigma_below(x, d, signs) for d in ends):
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


@dataclass
class Deconstruction:
    filtration: list  # cell sets Z_0 < Z_1 < ... < Z_n = Z
    steps: list  # one DeconstructionStep per removal, in removal order
    residual: frozenset


def deconstruct(geometry, cells, sigma):
    """Filter a finite sigma-convex subcomplex chamber by chamber.

    Each step removes one chamber C of sigma-length 0 together with the open
    star of its lower face, and records the certificate facts: the removed
    star lies in the closed chamber, the intersection with the previous stage
    is the boundary of that star, and R is unchanged.
    """
    cells = frozenset(cells)
    ok, witness = sigma_convex_check(geometry, cells, sigma)
    if not ok:
        raise GeometryError(f"subcomplex is not sigma-convex; witness gallery {witness}")
    r_z = residual_r(geometry, cells, sigma)
    current = set(cells)
    filtration = [frozenset(current)]
    steps = []
    # sorted once: a step removes only its own chamber (star_in_closed_chamber)
    chambers = sorted(c for c in current if geometry.is_chamber(c))
    while chambers:
        # sigma-length 0: no sigma-step stays in the stage; the least such chamber, for determinism
        c = next((c for c in chambers if current.isdisjoint(_sigma_steps(geometry, c, sigma))), None)
        if c is None:
            raise GeometryError("no chamber of sigma-length zero; subcomplex not deconstructible")
        lower = geometry.lower_face(c, sigma)
        closure_c = geometry.closure(c)
        star = frozenset(
            x for x in current if lower in geometry.closure(x) or x == lower
        )
        cert = {}
        cert["star_in_closed_chamber"] = star <= closure_c
        star_closure = set()
        for x in star:
            star_closure |= geometry.closure(x)
        star_closure &= set(current)
        boundary = frozenset(star_closure) - star
        nxt = set(current) - star
        cert["intersection_is_star_boundary"] = (nxt & closure_c) == (nxt & boundary)
        cert["residual_unchanged"] = residual_r(geometry, nxt, sigma) == r_z
        cert["sigma_length_zero"] = True
        if not all(cert.values()):
            raise GeometryError(f"deconstruction certificate failed at {c}: {cert}")
        steps.append(DeconstructionStep(c, lower, star, cert))
        chambers.remove(c)
        current = nxt
        filtration.append(frozenset(current))
    if frozenset(current) != r_z:
        raise GeometryError("deconstruction did not terminate at R(Z)")
    filtration.reverse()
    steps.reverse()
    return Deconstruction(filtration, steps, r_z)


# --- upper and lower complexes of a generic height ---------------------------


def epsilon_for_height(geometry, h):
    """The uniform constant 2*d1 + 2*d2 controlling sector covers for h."""
    d1 = abs(h((1,) * geometry.datum.rank))
    d2 = Q0
    for flags in product((-1, 0), repeat=geometry.npos):
        cand = tuple((FLOOR, k) for k in flags)
        try:
            lo, hi = h.range_on_cell(geometry, cand)
        except GeometryError:
            continue
        d2 = max(d2, -lo, hi)
    return 2 * d1 + 2 * d2


def upper_complex(window, h, r):
    """U_h(r): the union of closed opposite sectors at special vertices above r."""
    return _upper_lower(window, h, r)[0]


def upper_lower_certified(window, h, r):
    """U_h(r), L_h(r) and the certificate record of their defining inclusions.

    Every cell's height range is read once as integers over S = d * den (d
    the form's denominator, den the geometry's) and compared with r and
    r + eps rounded to that grid once.
    """
    up, low = _upper_lower(window, h, r)
    g = window.geometry
    eps = epsilon_for_height(g, h)
    r = Fraction(r)
    scale = h._scaled[1] * g._den
    r_up, r_down, top = ceil(r * scale), floor(r * scale), floor((r + eps) * scale)
    ranges = {cell: h._scaled_range(g, cell) for cell in window.cells()}
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


def _upper_lower(window, h, r):
    """Fast membership via the extremal special dominator of each cell.

    Every point of a cell with simple floor levels k_i is strictly dominated
    by the special vertex at (k_i + 1), and that vertex maximizes the height
    among all special dominators; so the cell meets the union of open
    opposite sectors iff h(k+1) >= r.  Likewise the closed-sector hull of the
    cell is governed by its componentwise ceiling.  Both are integer tests
    with the form's scaled coefficients (c, d) and T = ceil(r d): a cell is
    in U iff sum c_i k_i + sum over its floors of c_i >= T, and in L iff
    sum c_i k_i + sum c_i < T.
    """
    g = window.geometry
    ok, bad = h.is_generic_decreasing()
    if not ok:
        raise GeometryError(
            f"height is not strictly decreasing toward the boundary vertex of sector ray {bad}"
        )
    coeffs, d = h._scaled
    terms = tuple(zip(g._simple_idx, coeffs))
    total = sum(coeffs)
    threshold = ceil(Fraction(r) * d)
    upper = set()
    lower = set()
    for cell in window.cells():
        base = floors = 0
        for pi, c in terms:
            f, k = cell[pi]
            base += c * k
            if f == FLOOR:
                floors += c
        if base + floors >= threshold:  # the ceiling
            upper.add(cell)
        if base + total < threshold:  # the extremal special dominator
            lower.add(cell)
    return frozenset(upper), frozenset(lower)


def closed_sector_cells(window, tip, tau):
    """Cells of the window inside the closed cone from tip toward tau."""
    g = window.geometry
    bounds = g._sector_bounds(tip, tau.signs)
    return frozenset(c for c in window.cells() if g._in_closed_sector(bounds, c))
