"""Cell decoding, projections, faces and galleries on small windows."""

import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from geometry_oracle import (
    cell_of_point_by_values,
    closure_by_facets,
    cofacets,
    gallery_distances,
    in_closed_sector,
    is_special_vertex,
    lower_face,
    project_to_cell_by_step,
    project_toward_by_step,
    root_value,
    root_values,
    sector_bounds_by_values,
    sigma_minimal_galleries,
    signs_at_infinity_by_values,
    vertices,
    window_chambers_by_search,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmabuild import coxeter
from sigmabuild.building import Truncation
from sigmabuild.coxeter import FLOOR, WALL, AlcoveGeometry, GeometryError, _entry, _sign
from sigmabuild.homology import betti_vector
from sigmabuild.root_system import build_root_system
from sigmabuild.windows import Window


@pytest.fixture(scope="module")
def a1():
    datum = build_root_system("A", 1)
    return datum, AlcoveGeometry(datum)


@pytest.fixture(scope="module")
def a2():
    datum = build_root_system("A", 2)
    return datum, AlcoveGeometry(datum)


def test_cell_of_point_a1(a1):
    datum, g = a1
    x = datum.point([Fraction(1, 2)])
    assert g.cell_of_point(x) == ((FLOOR, 0),)
    x = datum.point([1])
    assert g.cell_of_point(x) == ((WALL, 1),)
    assert g.dim(((WALL, 1),)) == 0
    assert g.dim(((FLOOR, 0),)) == 1


def test_cell_of_point_a2_fundamental(a2):
    datum, g = a2
    # (coweight_1 + coweight_2)/3 has simple values 1/3, 1/3 and highest-root value 2/3
    x = datum.point([Fraction(1, 3), Fraction(1, 3)])
    cell = g.cell_of_point(x)
    assert g.is_chamber(cell)
    assert all(k == 0 for _, k in cell)  # the fundamental alcove


def test_witness_round_trip(a2):
    datum, g = a2
    window = Window.radius(datum, 2, g)
    for cell in window.cells():
        assert g.cell_of_point(g.barycenter(cell)) == cell


def test_chamber_face_counts(a2):
    datum, g = a2
    window = Window.radius(datum, 2, g)
    for c in window.chambers():
        closure = g.closure(c)
        # a 2-simplex: 1 chamber, 3 edges, 3 vertices
        dims = sorted(g.dim(x) for x in closure)
        assert dims == [0, 0, 0, 1, 1, 1, 2]
        # codim-k faces lie in exactly k facets (simple polytope property)
        for f in closure:
            k = 2 - g.dim(f)
            n_facets = sum(1 for p in g.facets(c) if f in g.closure(p) or f == p)
            if k > 0:
                assert n_facets == k


@pytest.mark.parametrize("family, rank, radius", [("A", 2, 3), ("C", 2, 2), ("A", 3, 1)])
def test_closure_is_the_facet_walk(family, rank, radius):
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, radius, g)
    walked = set()
    for c in window.chambers():
        walked |= closure_by_facets(g, c)
    assert walked == window.cells()
    for cell in walked:
        assert g.closure(cell) == closure_by_facets(g, cell)


@pytest.mark.parametrize("family, rank, radius", [("A", 2, 3), ("C", 2, 2), ("A", 3, 1)])
def test_closure_of_is_the_union_of_closures(family, rank, radius):
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    chambers = sorted(Window.radius(datum, radius, g).chambers())
    for some in (chambers, chambers[::5], chambers[:1], []):
        union = set()
        for c in some:
            union |= g.closure(c)
        assert g.closure_of(some) == union
        assert type(g.closure_of(some)) is frozenset


def test_project_toward_a1(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    vertex = ((WALL, 3),)
    assert g.project_toward(vertex, sigma) == ((FLOOR, 3),)
    assert g.project_toward(vertex, sigma.opposite()) == ((FLOOR, 2),)
    chamber = ((FLOOR, -1),)
    assert g.project_toward(chamber, sigma) == chamber


def test_project_toward_a2_origin(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    origin = g.cell_of_point(datum.zero())
    assert g.dim(origin) == 0
    proj = g.project_toward(origin, sigma)
    assert all(k == 0 for _, k in proj)  # the fundamental alcove


def test_panel_projections_give_both_chambers(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 2, g)
    cx = window.complex()
    for panel in cx.cells(1):
        star_chambers = cofacets(cx, panel)
        if len(star_chambers) != 2:
            continue  # rim panel of the window
        plus = g.project_toward(panel, sigma)
        minus = g.project_toward(panel, sigma.opposite())
        assert {plus, minus} == star_chambers


@pytest.mark.parametrize(
    "family, rank, radius, weyl_order",
    [("A", 2, 3, 6), ("C", 2, 2, 8), ("A", 3, 1, 24), ("D", 3, 1, 24), ("C", 3, 1, 48)],
)
def test_projections_match_the_barycenter_step(family, rank, radius, weyl_order):
    # the sign rule on the key against a step from the barycenter: toward
    # chambers at infinity, a face with a zero sign and its opposite from
    # every cell, and the gate projection of every cell of the ball of radius
    # 1 about the special vertex (1, ..., 1), its closed star, onto every
    # chamber of it (its walls have levels 1 and up, so the two barycenters'
    # vertex counts enter the signs)
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, radius, g)
    base = g.base_chamber_at_infinity()
    other = g.infinity_from_direction(datum.point((1, -3, 7)[:rank]))
    face = g.infinity_from_direction(datum.point((1,) + (0,) * (rank - 1)))
    assert other.is_chamber and not face.is_chamber
    for tau in (base, base.opposite(), other, other.opposite(), face, face.opposite()):
        for cell in window.cells():
            assert g.project_toward(cell, tau) == project_toward_by_step(g, cell, tau)
    vertex = g.cell_of_point(datum.point((1,) * rank))
    star = [c for c in Window(datum, [0] * rank, [1] * rank, g).cells() if vertex in g.closure(c)]
    chambers = [c for c in star if g.is_chamber(c)]
    assert len(chambers) == weyl_order  # the whole star
    for cell in star:
        for c in chambers:
            assert g.project_to_cell(cell, c) == project_to_cell_by_step(g, cell, c)
    # the walls through the origin of all roots but the last meet only at the
    # origin, which lies on the last root's wall, not in its floor: the key is
    # no cell, and both routes reject it
    bad = ((WALL, 0),) * (g.npos - 1) + ((FLOOR, 0),)
    chamber = chambers[0]
    for route in (
        lambda: g.project_toward(bad, base),
        lambda: project_toward_by_step(g, bad, base),
        lambda: g.project_to_cell(bad, chamber),
        lambda: project_to_cell_by_step(g, bad, chamber),
        lambda: g.project_to_cell(chamber, bad),
        lambda: project_to_cell_by_step(g, chamber, bad),
    ):
        with pytest.raises(GeometryError):
            route()


def test_upper_lower_faces_a1(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    c = ((FLOOR, 2),)
    assert g.upper_face(c, sigma) == ((WALL, 2),)
    assert lower_face(g, c, sigma) == ((WALL, 3),)


def test_upper_face_a2_fundamental(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    e = g.cell_of_point(datum.point([Fraction(1, 3), Fraction(1, 3)]))
    up = g.upper_face(e, sigma)
    assert up == g.cell_of_point(datum.zero())


def test_upper_face_interval_property(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 2, g)
    rng = random.Random(42)
    chambers = sorted(window.chambers())
    for c in rng.sample(chambers, min(50, len(chambers))):
        up = g.upper_face(c, sigma)
        interval = {a for a in g.closure(c) if up in g.closure(a)}
        projecting = {a for a in g.closure(c) if g.project_toward(a, sigma) == c}
        assert interval == projecting


def is_sigma_minimal(g, gallery, sigma):
    """Each step must cross its panel toward sigma."""
    for c, d in zip(gallery, gallery[1:]):
        panel = _common_panel(g, c, d)
        if panel is None:
            raise GeometryError("consecutive chambers are not panel-adjacent")
        if g.project_toward(panel, sigma) != d:
            return False
    return True


def _common_panel(g, c, d):
    common = g.facets(c) & g.facets(d)
    if len(common) != 1:
        return None
    return next(iter(common))


def window_distance(window, c, d):
    """Minimal gallery length via BFS over panel adjacency inside the window."""
    g, chambers = window.geometry, window.chambers()
    return gallery_distances(lambda x: (nb for _, nb in g.chamber_neighbors(x) if nb in chambers), c)[d]


def sector_contains_point(g, tip, tau, y):
    """Whether y lies in the open cone K_tip(tau)."""
    if tuple(tip) == tuple(y):
        return False
    return all(_sign(v - t) == s for v, t, s in zip(root_values(g, y), root_values(g, tip), tau.signs))


def test_sigma_minimal_check_a1(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    up = [((FLOOR, 0),), ((FLOOR, 1),)]
    down = list(reversed(up))
    assert is_sigma_minimal(g, up, sigma)
    assert not is_sigma_minimal(g, down, sigma)
    with pytest.raises(GeometryError):
        is_sigma_minimal(g, [((FLOOR, 0),), ((FLOOR, 2),)], sigma)


def test_minimal_galleries_in_star_are_sigma_minimal(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    origin = g.cell_of_point(datum.zero())
    target = g.project_toward(origin, sigma)
    window = Window.radius(datum, 2, g)
    star = sorted(c for c in window.chambers() if origin in g.closure(c))
    for start in star:
        for gallery in sigma_minimal_galleries(g, start, target, sigma):
            assert is_sigma_minimal(g, list(gallery), sigma)
            assert len(gallery) - 1 == g.wall_distance(start, target)


def all_minimal_galleries(g, chambers, start, end):
    """Every minimal gallery between two chambers inside a chamber set."""
    target_len = g.wall_distance(start, end)
    out = []
    stack = [(start, (start,))]
    while stack:
        cur, path = stack.pop()
        if cur == end:
            out.append(path)
            continue
        if len(path) - 1 >= target_len:
            continue
        for _, nb in g.chamber_neighbors(cur):
            if nb in chambers and g.wall_distance(nb, end) == target_len - (len(path)):
                stack.append((nb, path + (nb,)))
    return out


def test_minimal_star_galleries_to_projection_are_sigma_minimal(a2):
    # every minimal gallery in a vertex star that ends at the projection
    # chamber moves toward infinity at each step
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 2, g)
    origin = g.cell_of_point(datum.zero())
    target = g.project_toward(origin, sigma)
    star = {c for c in window.chambers() if origin in g.closure(c)}
    assert len(star) == 6
    total = 0
    for start in sorted(star):
        for gallery in all_minimal_galleries(g, star, start, target):
            total += 1
            assert is_sigma_minimal(g, list(gallery), sigma)
    assert total >= len(star)


def test_gallery_distance_bfs_equals_wall_count(a2):
    datum, g = a2
    window = Window.radius(datum, 2, g)
    chambers = sorted(window.chambers())
    rng = random.Random(1)
    for _ in range(30):
        c, d = rng.sample(chambers, 2)
        assert window_distance(window, c, d) == g.wall_distance(c, d)
    c = chambers[0]
    assert window_distance(window, c, c) == 0


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("C", 2), ("C", 3), ("D", 3)])
def test_window_seed_is_the_corner_alcove(family, rank):
    # the chambers grown from the alcove just above the corner lo are those
    # grown from a perturbed centre point
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    rng = random.Random(rank * 7 + ord(family))
    for _ in range(6):
        lo = [rng.randint(-3, 1) for _ in range(rank)]
        hi = [k + rng.randint(0, 2 if rank < 3 else 1) for k in lo]
        window = Window(datum, lo, hi, g)
        assert window.chambers() == window_chambers_by_search(window)


@pytest.mark.parametrize(
    "family, lo, hi, count",
    [
        ("A", [-3], [2], 6),
        ("A", [-2, -2], [1, 1], 32),
        ("A", [-1, 0], [2, 0], 8),
        ("A", [-1, -1, -1], [0, 0, 0], 48),
        ("A", [-2, -1, 0], [0, 1, 0], 54),
        ("A", [-2] * 4, [1] * 4, 6_144),
        ("C", [-2, -2], [1, 1], 64),
        ("C", [-1, -3], [2, 0], 64),
        ("C", [-1] * 3, [0] * 3, 192),
        ("D", [-1] * 3, [0] * 3, 48),
        ("D", [-1] * 4, [0] * 4, 768),
    ],
)
def test_chamber_count_is_the_closed_form(family, lo, hi, count):
    # l! c_1 ... c_l alcoves per unit box of simple-root floors, c the highest root
    window = Window(build_root_system(family, len(lo)), lo, hi)
    assert window.chamber_count() == count == len(window.chambers())


def test_oversized_window_is_rejected_before_its_geometry(monkeypatch):
    # A_16 at -3:2: the count alone rejects it, with no pairing table built
    def unbuilt(datum):
        raise AssertionError("geometry built for an oversized window")

    monkeypatch.setattr("sigmabuild.windows.AlcoveGeometry", unbuilt)
    window = Window(build_root_system("A", 16), [-3] * 16, [2] * 16)
    with pytest.raises(GeometryError, match="more than 10,000 chambers"):
        window.chambers()


def test_a12_geometry_builds_in_budget():
    # the pairing table is 78^2 integer entries; Fraction pairings took about 4 s
    datum = build_root_system("A", 12)
    t0 = time.perf_counter()
    AlcoveGeometry(datum)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2)])
def test_interior_cells_have_their_star_in_the_window(family, rank):
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    window = Window(datum, [-1] * rank, [1] * rank, g)
    interior = {c for c in window.cells() if window.interior_cell(c)}
    assert interior and interior < window.cells()
    for c in Window.radius(datum, 3, g).chambers():
        if not interior.isdisjoint(g.closure(c)):
            assert c in window.chambers()


def test_gallery_distance_a1_example(a1):
    datum, g = a1
    window = Window(datum, [-1], [4], g)
    assert window_distance(window, ((FLOOR, 0),), ((FLOOR, 3),)) == 3


def test_gate_property(a2):
    datum, g = a2
    window = Window.radius(datum, 3, g)
    origin = g.cell_of_point(datum.zero())
    star_chambers = sorted(c for c in window.chambers() if origin in g.closure(c))
    chambers = sorted(window.chambers())
    rng = random.Random(9)
    sample = rng.sample(chambers, min(25, len(chambers)))
    for d in star_chambers:
        for c in sample:
            # the gate identity d(D,C) = d(D, pr_A(C)) + d(pr_A(C), C)
            gate = g.project_to_cell(origin, c)
            assert g.wall_distance(d, c) == g.wall_distance(d, gate) + g.wall_distance(gate, c)


def test_c2_window_and_special_vertices():
    # the alcove layer is family-generic: C_2 alcoves are right triangles with
    # one non-special vertex (not all wall classes meet it)
    datum = build_root_system("C", 2)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, 1, g)
    sigma = g.base_chamber_at_infinity()
    assert len(window.chambers()) > 0
    special_counts = set()
    for c in window.chambers():
        closure = g.closure(c)
        dims = sorted(g.dim(x) for x in closure)
        assert dims == [0, 0, 0, 1, 1, 1, 2]  # a triangle
        n_special = sum(
            1 for x in closure if g.dim(x) == 0 and is_special_vertex(g, g.barycenter(x))
        )
        special_counts.add(n_special)
        # interval property holds in type C as well
        up = g.upper_face(c, sigma)
        interval = {a for a in closure if up in g.closure(a)}
        projecting = {a for a in closure if g.project_toward(a, sigma) == c}
        assert interval == projecting
    assert special_counts == {2}  # two special corners, one midpoint vertex
    # the gallery metric agrees with the wall-crossing count in type C too
    chambers = sorted(window.chambers())
    rng = random.Random(13)
    for _ in range(15):
        c, d = rng.sample(chambers, 2)
        assert window_distance(window, c, d) == g.wall_distance(c, d)


def test_sector_membership_predicate(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    rng = random.Random(8)
    for _ in range(100):
        x = datum.point([Fraction(rng.randint(-8, 8), 3) for _ in range(2)])
        y = datum.point([Fraction(rng.randint(-8, 8), 3) for _ in range(2)])
        expected = all(
            root_value(g, y, pi) > root_value(g, x, pi) for pi in g._simple_idx
        )
        assert sector_contains_point(g, x, sigma, y) == expected


@pytest.mark.parametrize(
    "family, radius, n_cells",
    [("A", 2, 1977), ("D", 2, 1977), ("C", 1, 1045), ("C", 2, 7465)],
)
def test_rank3_windows_build_and_are_acyclic(family, radius, n_cells):
    # a window is a convex box of alcoves, so every reduced Betti number is 0
    datum = build_root_system(family, 3)
    t0 = time.perf_counter()
    window = Window.radius(datum, radius)
    cx = window.complex()
    elapsed = time.perf_counter() - t0
    assert len(window.cells()) == n_cells
    assert betti_vector(cx) == [0, 0, 0, 0]
    assert elapsed <= 30, f"{family}3 radius {radius} window took {elapsed:.1f} s"


@pytest.mark.parametrize("family", ["A", "C"])
def test_sector_predicates_match_their_definitions(family):
    # chambers at infinity of both signs and a face of one (a zero sign): the
    # cone tests against kappa of the difference to the tip, vertex by vertex;
    # C_2 vertex values are halves, so the sector bounds round
    datum = build_root_system(family, 2)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, 2, g)
    base = g.base_chamber_at_infinity()
    other = g.infinity_from_direction(datum.point((1, -3)))
    face = g.infinity_from_direction(datum.point((1, 0)))
    assert other.is_chamber and not face.is_chamber
    rng = random.Random(5)

    def sign_ok(s, value, closed):
        if s == 0:
            return value == 0
        return s * value >= 0 if closed else s * value > 0

    def diff(a, b):
        return tuple(y - x for x, y in zip(a, b))

    for tau in (base, base.opposite(), other, other.opposite(), face, face.opposite()):
        for _ in range(3):
            tip = datum.point([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(2)])
            for cell in window.cells():
                expected = all(
                    sign_ok(s, datum.kappa(diff(tip, v), root), closed=True)
                    for v in vertices(g, cell)
                    for s, root in zip(tau.signs, datum.positive_roots)
                )
                assert in_closed_sector(g, g._sector_bounds(tip, tau.signs), cell) == expected
            for _ in range(20):
                y = datum.point([Fraction(rng.randint(-8, 8), 3) for _ in range(2)])
                expected = y != tip and all(
                    sign_ok(s, datum.kappa(diff(tip, y), root), closed=False)
                    for s, root in zip(tau.signs, datum.positive_roots)
                )
                assert sector_contains_point(g, tip, tau, y) == expected


# --- keys and point values from integers -------------------------------------

KEY_WINDOWS = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3), ("D", 4))


def key_of_mean_by_entries(geometry, verts):
    """The key of the mean of some vertices: `_entry` of each column sum."""
    d = geometry._den * len(verts)
    return tuple(_entry(sum(col), d) for col in zip(*verts))


@pytest.mark.parametrize("family, rank", KEY_WINDOWS)
def test_key_of_mean_reads_the_entry_of_each_column_sum(family, rank):
    window = Window.radius(build_root_system(family, rank), 1)
    g = window.geometry
    subsets = 0
    for cell in window.cells():
        face = g._face(cell)
        assert g._key_of_mean(face) == cell
        for m in range(1, len(face) + 1):
            for sub in combinations(face, m):
                assert g._key_of_mean(sub) == key_of_mean_by_entries(g, sub)
                subsets += 1
    assert subsets >= len(window.cells())


@pytest.mark.parametrize("n, p, radius", [(2, 3, 3), (3, 2, 2)])
def test_retraction_images_read_the_entry_of_each_column_sum(n, p, radius):
    trunc = Truncation(n, p, radius)
    values = trunc._apartment_values
    for cell in trunc.complex.cells():
        assert trunc.retract_cell(cell) == key_of_mean_by_entries(trunc.geometry, [values[v] for v in cell])


def test_entry_tables_call_entry_once_per_vertex_count_and_column_sum(monkeypatch):
    # each table makes a key entry once, on the first mean that needs it
    calls = []

    def counted(num, den):
        calls.append((num, den))
        return _entry(num, den)

    monkeypatch.setattr(coxeter, "_entry", counted)
    datum = build_root_system("A", 2)
    g = AlcoveGeometry(datum)
    Window.radius(datum, 4, g).cells()
    assert calls and max(Counter(calls).values()) == 1
    made = {(m, s) for m, table in enumerate(g._entries) for s in table}
    assert {(den // g._den, num) for num, den in calls} == made


@cache
def point_geometry(family, rank):
    return AlcoveGeometry(build_root_system(family, rank))


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
coordinates = st.one_of(rationals, st.integers(-6, 6))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_point_values_match_the_fraction_definitions(data):
    family, rank = data.draw(st.sampled_from(KEY_WINDOWS))
    g = point_geometry(family, rank)
    x = tuple(data.draw(coordinates) for _ in range(rank))
    assert g.cell_of_point(x) == cell_of_point_by_values(g, x)
    signs = tuple(data.draw(st.sampled_from((-1, 0, 1))) for _ in range(g.npos))
    assert g._sector_bounds(x, signs) == sector_bounds_by_values(g, x, signs)
    if any(x):
        tau = g.infinity_from_direction(x)
        assert tau.signs == signs_at_infinity_by_values(g, x)
        assert tau.direction == x and tau.opposite().signs == tuple(-s for s in tau.signs)
    else:
        with pytest.raises(GeometryError, match="zero direction"):
            g.infinity_from_direction(x)
