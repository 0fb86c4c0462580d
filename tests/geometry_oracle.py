"""Cofacets and chamber adjacency, face closures in a cell complex, gallery
distances, a window's chambers by a search from a perturbed centre point,
root values and the vertices of a cell as Fraction points, the cell of a
point, sector bounds and chambers at infinity read from Fraction root values,
closed-sector cells by a per-cell scan, special vertices, Fraction height
values and per-cell height ranges, the epsilon of a height from its floor
keys, lower faces, projections by a step from the barycenter, closures by a
facet walk, the upper/lower complexes with their certificate in Fraction
arithmetic, sigma-minimal galleries with the sigma-convexity and sigma-length
they define, and the deconstruction that rescans its stage on every step and
keeps a snapshot of each stage.

Reference code that only tests use, shared by the alcove, flag-building and
truncation tests.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import ceil, floor

from sigmabuild.coxeter import FLOOR, GeometryError, _entry, _sign
from sigmabuild.linalg import Q0, Q1, dot
from sigmabuild.windows import (
    DeconstructionStep,
    _sigma_steps,
    residual_r,
    sigma_convex_check,
)


_cofacet_tables = weakref.WeakKeyDictionary()


def cofacets(complex_, key):
    """The cells of a complex that have the cell as a facet, read from its
    facet table once per complex; KeyError for a key that is not a cell."""
    table = _cofacet_tables.get(complex_)
    if table is None:
        table = _cofacet_tables[complex_] = {}
        for k in range(complex_.dim + 1):
            for c in complex_.cells(k):
                table.setdefault(c, set())
                for f in complex_.facets(c):
                    table[f].add(c)
    return frozenset(table[key])


def panel_neighbors(complex_, chamber):
    """The chambers of a complex that share a panel with the chamber."""
    return {nb for panel in complex_.facets(chamber) for nb in cofacets(complex_, panel)} - {chamber}


def face_closure(complex_, keys):
    """All iterated faces of the given cells of a complex, themselves included."""
    seen = set()
    stack = list(keys)
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            stack.extend(complex_.facets(k))
    return seen


def gallery_distances(neighbors, start):
    """Gallery distance from the start chamber to every chamber it reaches, by BFS.

    `neighbors(c)` gives the chambers adjacent to c.
    """
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for nb in neighbors(cur):
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def seed_by_perturbed_points(window):
    """A chamber of the window: the cell of the box's centre point, nudged
    off the walls by small distinct offsets until that cell is a chamber."""
    g, datum = window.geometry, window.datum
    for attempt in range(50):
        den = 101 + 13 * attempt
        target = [
            Fraction(window.lo[i] + window.hi[i] + 1, 2) + Fraction(1, den + 7 * i)
            for i in range(datum.rank)
        ]
        cell = g.cell_of_point(datum.point(target))
        if g.is_chamber(cell) and window.contains_chamber(cell):
            return cell
    raise GeometryError("could not seed the window with a generic chamber")


def window_chambers_by_search(window):
    """The window's chambers: every chamber a gallery inside it reaches from
    the perturbed-point seed."""
    g = window.geometry

    def neighbors(c):
        return [nb for _, nb in g.chamber_neighbors(c) if window.contains_chamber(nb)]

    return frozenset(gallery_distances(neighbors, seed_by_perturbed_points(window)))


def root_value(geometry, x, i):
    """kappa(x, alpha) for the i-th positive root alpha."""
    return dot(geometry._functionals[i], x)


def root_values(geometry, x):
    """kappa(x, alpha) for every positive root alpha, as Fractions."""
    return tuple(root_value(geometry, x, i) for i in range(geometry.npos))


def cell_of_point_by_values(geometry, x):
    """The cell of a point: the key entry of each of its Fraction root values."""
    return tuple(_entry(v.numerator, v.denominator) for v in root_values(geometry, x))


def sector_bounds_by_values(geometry, tip, signs):
    """`AlcoveGeometry._sector_bounds` from the Fraction root values of the tip:
    den * kappa(tip, alpha) rounded up for a lower bound, down for an upper."""
    lower, upper = [], []
    for i, (t, s) in enumerate(zip(root_values(geometry, tip), signs)):
        if s >= 0:
            lower.append((i, ceil(geometry._den * t)))
        if s <= 0:
            upper.append((i, floor(geometry._den * t)))
    return tuple(lower), tuple(upper)


def in_closed_sector(geometry, bounds, cell):
    """Whether the closed cell lies in the closed cone with these
    `_sector_bounds`, read from the cell's own vertices."""
    lower, upper = bounds
    for vals in geometry._face(cell):
        for i, b in lower:
            if vals[i] < b:
                return False
        for i, b in upper:
            if vals[i] > b:
                return False
    return True


def closed_sector_cells_by_scan(window, tip, tau):
    """The window's cells inside the closed cone from tip toward tau, each
    cell's vertices tested on their own."""
    g = window.geometry
    bounds = g._sector_bounds(tip, tau.signs)
    return frozenset(c for c in window.cells() if in_closed_sector(g, bounds, c))


def signs_at_infinity_by_values(geometry, u):
    """The signs of the root values of a direction: its simplex at infinity."""
    return tuple(_sign(v) for v in root_values(geometry, u))


def lower_face(geometry, chamber, sigma):
    """The upper face of a chamber toward the chamber opposite sigma."""
    return geometry.upper_face(chamber, sigma.opposite())


def simple_values(geometry, cell):
    """kappa(v, alpha_i) over the simple roots, for each vertex v of the cell."""
    den = geometry._den
    return [tuple(Fraction(v[i], den) for i in geometry._simple_idx) for v in geometry._face(cell)]


def vertices(geometry, cell):
    """The 0-faces of the closed cell, as sorted coordinate tuples."""
    return tuple(sorted(geometry.datum.point(v) for v in simple_values(geometry, cell)))


def is_special_vertex(geometry, x):
    """Special vertex: integral against every root (meets every wall class)."""
    return all(v.denominator == 1 for v in root_values(geometry, x))


def height_at(h, values):
    """The height sum c_i v_i of a HeightForm at the given simple-root values,
    a Fraction: the reference for `HeightForm.level`, which is d times it."""
    return sum((c * v for c, v in zip(h.coeffs, values)), Q0)


def height_value(h, geometry, x):
    """The height of an apartment point, read from its simple-root values."""
    return height_at(h, (root_value(geometry, x, i) for i in geometry._simple_idx))


def require_generic(h):
    """The GeometryError of `windows.upper_complex` unless h is generic:
    strictly decreasing toward the base chamber at infinity, every
    coefficient negative."""
    bad = next((i for i, c in enumerate(h.coeffs) if c >= 0), None)
    if bad is not None:
        raise GeometryError(
            f"height is not strictly decreasing toward the boundary vertex of sector ray {bad}"
        )


def project_dir(geometry, cell, u, limit=None):
    """The cell of the points just past the barycenter along a direction.

    u gives the direction's positive-root values.  Each root's value moves
    from v by r per unit; half the least step to a wall (a full unit from
    a wall the barycenter lies on), capped by `limit`, stays inside the
    projection.
    """
    x0 = geometry._bary_values(cell)
    steps = [((-v if r > 0 else v) % 1 or Q1) / abs(r) for v, r in zip(x0, u) if r]
    if not steps:
        return cell  # direction parallel to every wall through the cell
    eps = (min(steps) if limit is None else min(*steps, limit)) / 2
    ys = (v + eps * r for v, r in zip(x0, u))
    return tuple(_entry(y.numerator, y.denominator) for y in ys)


def project_toward_by_step(geometry, cell, tau):
    """pr_cell(tau) by a step from the barycenter along tau's direction."""
    return project_dir(geometry, cell, root_values(geometry, tau.direction))


def project_to_cell_by_step(geometry, cell, target):
    """Gate projection pr_cell(target) by a step toward the barycenter of target."""
    u = tuple(b - a for a, b in zip(geometry._bary_values(cell), geometry._bary_values(target)))
    if not any(u):
        return cell
    return project_dir(geometry, cell, u, limit=Q1)


def closure_by_facets(geometry, cell):
    """The cell together with all its faces, by a walk over facets."""
    seen = set()
    stack = [cell]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        stack.extend(geometry.facets(c))
    return seen


def level_ranges_by_cell(geometry, h, cells):
    """(min, max) of d * den * h over each closed cell: the levels of its
    vertices, whose simple-root values are integers over den, each vertex
    evaluated once."""
    idx = geometry._simple_idx
    levels = {}
    out = {}
    for cell in cells:
        hs = []
        for v in geometry._face(cell):
            x = levels.get(v)
            if x is None:
                x = levels[v] = h.level([v[i] for i in idx])
            hs.append(x)
        out[cell] = min(hs), max(hs)
    return out


def range_on_cell(h, geometry, cell):
    """(min, max) of the height over the closed cell."""
    lo, hi = level_ranges_by_cell(geometry, h, (cell,))[cell]
    scale = h.d * geometry._den
    return Fraction(lo, scale), Fraction(hi, scale)


def epsilon_by_floor_keys(geometry, h):
    """`windows.epsilon_for_height` with d2 read from every key with floors
    in {-1, 0}, the infeasible ones skipped: the alcoves whose closures hold
    the origin."""
    d1 = abs(height_at(h, (1,) * geometry.datum.rank))
    d2 = Q0
    for flags in product((-1, 0), repeat=geometry.npos):
        try:
            lo, hi = range_on_cell(h, geometry, tuple((FLOOR, k) for k in flags))
        except GeometryError:
            continue
        d2 = max(d2, -lo, hi)
    return 2 * d1 + 2 * d2


def upper_lower_by_fractions(window, h, r):
    """U_h(r) and L_h(r) from the Fraction heights of each cell's ceiling and
    extremal special dominator, evaluated once per level tuple."""
    g = window.geometry
    require_generic(h)

    @cache
    def height(values):
        return height_at(h, values)

    upper = set()
    lower = set()
    r = Fraction(r)
    for cell in window.cells():
        levels = [cell[pi] for pi in g._simple_idx]
        if height(tuple(k + 1 if f == FLOOR else k for f, k in levels)) >= r:
            upper.add(cell)
        if height(tuple(k + 1 for _, k in levels)) < r:
            lower.add(cell)
    return frozenset(upper), frozenset(lower)


def certificate_by_fractions(window, h, r, low):
    """The certificate record of `upper_lower_certified` for the lower set,
    from the Fraction heights of every cell's vertices."""
    g = window.geometry
    eps = epsilon_by_floor_keys(g, h)
    ranges = {}
    for cell in window.cells():
        heights = [height_at(h, values) for values in simple_values(g, cell)]
        ranges[cell] = (min(heights), max(heights))
    residual = residual_r(g, low, g.base_chamber_at_infinity())
    return {
        "epsilon": eps,
        "sublevel_in_lower": all(c in low for c, (_, mx) in ranges.items() if mx <= r),
        "lower_below_r_plus_eps": all(
            ranges[c][0] <= r + eps for c in low if window.interior_cell(c)
        ),
        "residual_in_band": all(
            r <= ranges[c][0] and ranges[c][1] <= r + eps
            for c in residual
            if window.interior_cell(c)
        ),
    }


def sigma_minimal_galleries(geometry, start, end, sigma):
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
        dist = geometry.wall_distance(cur, end)
        for panel, nb in geometry.chamber_neighbors(cur):
            if geometry.wall_distance(nb, end) != dist - 1:
                continue
            if geometry.project_toward(panel, sigma) != nb:
                continue
            stack.append((nb, path + [nb]))
    return out


def galleries_leaving(geometry, cells, sigma):
    """The sigma-minimal galleries from a start pr_a(sigma) to an end
    pr_a(-sigma), a in Z, that leave Z's chambers: by definition Z is
    sigma-convex iff there are none."""
    starts = {geometry.project_toward(a, sigma) for a in cells}
    ends = {geometry.project_toward(a, sigma.opposite()) for a in cells}
    return {
        gallery
        for c in starts
        for d in ends
        for gallery in sigma_minimal_galleries(geometry, c, d, sigma)
        if any(x not in cells for x in gallery)
    }


def sigma_length(geometry, cells, chamber, sigma):
    """Length of the longest sigma-minimal gallery inside Z starting at the chamber."""
    chambers = {c for c in cells if geometry.is_chamber(c)}
    if chamber not in chambers:
        raise GeometryError("chamber not in the subcomplex")
    return _longest(geometry, chambers, sigma, chamber, {})


def _longest(geometry, chambers, sigma, c, memo):
    """sigma_length by memoized recursion.

    sigma-minimal steps strictly increase the signed floor sum, so the step
    relation is acyclic and the recursion terminates.  A module function, not
    a closure: a recursive closure references itself, and the cycle would
    keep the geometry and its caches alive until the cycle collector runs.
    """
    if c in memo:
        return memo[c]
    best = 0
    for panel, nb in geometry.chamber_neighbors(c):
        if nb in chambers and geometry.project_toward(panel, sigma) == nb:
            best = max(best, 1 + _longest(geometry, chambers, sigma, nb, memo))
    memo[c] = best
    return best


def deconstruction_order_by_sigma_length(geometry, cells, sigma):
    """The chambers in the order a deconstruction adds them, each stage
    removing the least chamber whose sigma_length in the stage is 0 with the
    open star of its lower face."""
    current = set(cells)
    removed = []
    while chambers := [c for c in current if geometry.is_chamber(c)]:
        c = min(c for c in chambers if sigma_length(geometry, current, c, sigma) == 0)
        lower = lower_face(geometry, c, sigma)
        current -= {x for x in current if lower in geometry.closure(x) or x == lower}
        removed.append(c)
    return removed[::-1]


@dataclass
class SnapshotDeconstruction:
    filtration: list  # a frozenset snapshot of every stage Z_0 < Z_1 < ... < Z_n = Z
    steps: list
    residual: frozenset


def deconstruct_by_rescans(geometry, cells, sigma):
    """`windows.deconstruct` with every step read from the whole stage: the
    sigma-steps of each remaining chamber, the star of the lower face by a
    closure per cell and R of the next stage, all recomputed, and a snapshot
    of each stage kept."""
    cells = frozenset(cells)
    ok, witness = sigma_convex_check(geometry, cells, sigma)
    if not ok:
        raise GeometryError(f"subcomplex is not sigma-convex; witness gallery {witness}")
    r_z = residual_r(geometry, cells, sigma)
    current = set(cells)
    filtration = [frozenset(current)]
    steps = []
    chambers = sorted(c for c in current if geometry.is_chamber(c))
    while chambers:
        c = next((c for c in chambers if current.isdisjoint(_sigma_steps(geometry, c, sigma))), None)
        if c is None:
            raise GeometryError("no chamber of sigma-length zero; subcomplex not deconstructible")
        lower = lower_face(geometry, c, sigma)
        closure_c = geometry.closure(c)
        star = frozenset(x for x in current if lower in geometry.closure(x) or x == lower)
        cert = {"star_in_closed_chamber": star <= closure_c}
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
    return SnapshotDeconstruction(filtration, steps, r_z)
