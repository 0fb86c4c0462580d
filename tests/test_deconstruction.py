"""Residual boundaries, sigma-convexity, the deconstruction filtration, U/L complexes."""

import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fm_oracle import cell_meets_open_sector
from geometry_oracle import (
    certificate_by_fractions,
    closed_sector_cells_by_scan,
    deconstruct_by_rescans,
    deconstruction_order_by_sigma_length,
    epsilon_by_floor_keys,
    height_at,
    height_value,
    in_closed_sector,
    is_special_vertex,
    galleries_leaving,
    level_ranges_by_cell,
    lower_face,
    require_generic,
    root_value,
    root_values,
    sigma_length,
    simple_values,
    upper_lower_by_fractions,
    vertices,
)

from sigmabuild import acceptance
from sigmabuild.coxeter import FLOOR, WALL, AlcoveGeometry, GeometryError, InfinitySimplex
from sigmabuild.root_system import build_root_system
from sigmabuild.windows import (
    Deconstruction,
    HeightForm,
    Window,
    _level_ranges,
    _levels,
    _upper_lower,
    closed_sector_cells,
    deconstruct,
    epsilon_for_height,
    residual_r,
    sigma_convex_check,
    upper_complex,
    upper_lower_certified,
)


@pytest.fixture(scope="module")
def a1():
    datum = build_root_system("A", 1)
    return datum, AlcoveGeometry(datum)


@pytest.fixture(scope="module")
def a2():
    datum = build_root_system("A", 2)
    return datum, AlcoveGeometry(datum)


def a1_interval(g, lo, hi):
    """Closed union of the A_1 chambers (lo, lo+1), ..., (hi-1, hi)."""
    cells = set()
    for k in range(lo, hi):
        cells |= g.closure(((FLOOR, k),))
    return frozenset(cells)


def test_residual_a1_interval(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    z = a1_interval(g, 0, 3)
    assert residual_r(g, z, sigma) == {((WALL, 0),)}


def test_residual_full_window_is_outward_rim(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 2, g)
    z = window.cells()
    r = residual_r(g, z, sigma)
    # brute force against the definition
    op = sigma.opposite()
    expected = {a for a in z if g.project_toward(a, op) not in z}
    assert r == expected
    assert r  # rim cells exist
    # no chamber is ever in R
    assert all(not g.is_chamber(a) for a in r)


def test_residual_single_chamber(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    c = next(iter(Window.radius(datum, 1, g).chambers()))
    z = frozenset(g.closure(c))
    r = residual_r(g, z, sigma)
    down = lower_face(g, c, sigma)
    interval = {a for a in z if down in g.closure(a) or a == down}
    assert r == z - interval


def test_sigma_length_a1(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    z = a1_interval(g, 0, 3)
    assert sigma_length(g, z, ((FLOOR, 2),), sigma) == 0
    assert sigma_length(g, z, ((FLOOR, 0),), sigma) == 2
    single = frozenset(g.closure(((FLOOR, 5),)))
    assert sigma_length(g, single, ((FLOOR, 5),), sigma) == 0


def test_sigma_convexity(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    ok, _ = sigma_convex_check(g, a1_interval(g, 0, 3), sigma)
    assert ok
    gap = a1_interval(g, 0, 1) | a1_interval(g, 2, 3)
    ok, witness = sigma_convex_check(g, gap, sigma)
    assert not ok
    assert ((FLOOR, 1),) in witness


def test_closed_sector_is_sigma_convex(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 3, g)
    tip = datum.zero()
    z = closed_sector_cells(window, tip, sigma.opposite())
    ok, _ = sigma_convex_check(g, z, sigma)
    assert ok


def test_single_chamber_is_sigma_convex(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    c = next(iter(Window.radius(datum, 1, g).chambers()))
    ok, _ = sigma_convex_check(g, frozenset(g.closure(c)), sigma)
    assert ok


def chambers_at_infinity(geometry, rng):
    """Every chamber at infinity, from seeded random generic directions."""
    found = {}
    for _ in range(400):
        u = geometry.datum.point([rng.randint(-5, 5) for _ in range(geometry.datum.rank)])
        if all(root_values(geometry, u)):
            sigma = geometry.infinity_from_direction(u)
            found.setdefault(sigma.signs, sigma)
    return [found[k] for k in sorted(found)]


def check_against_galleries(g, z, sigma):
    """sigma_convex_check agrees with the definition, and its witness is a
    sigma-minimal gallery from a start to an end that leaves Z."""
    ok, witness = sigma_convex_check(g, z, sigma)
    leaving = galleries_leaving(g, z, sigma)
    assert ok == (not leaving)
    assert witness is None if ok else witness in leaving
    return ok


@pytest.mark.parametrize("family, rank, weyl_order", [("A", 1, 2), ("A", 2, 6), ("C", 2, 8)])
def test_sigma_convexity_matches_galleries_at_every_chamber_at_infinity(family, rank, weyl_order):
    # unions of 2-4 closed chambers and closed sector corners, against the
    # definition, toward every chamber at infinity
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, 2, g)
    rng = random.Random(17)
    sigmas = chambers_at_infinity(g, rng)
    assert len(sigmas) == weyl_order
    chambers = sorted(window.chambers())
    verdicts = []
    for sigma in sigmas:
        for _ in range(20):
            z = set()
            for c in rng.sample(chambers, rng.randint(2, min(4, len(chambers)))):
                z |= g.closure(c)
            verdicts.append(check_against_galleries(g, frozenset(z), sigma))
        for tip in ((0,) * rank, (1,) * rank):
            corner = closed_sector_cells(window, datum.point(tip), sigma.opposite())
            verdicts.append(check_against_galleries(g, corner, sigma))
    assert True in verdicts and False in verdicts


def test_sigma_convexity_toward_the_all_minus_chamber(a2):
    # floors decrease along sigma-minimal galleries toward the all-minus
    # chamber, so a filter that asks them to increase missed this gallery
    datum, g = a2
    sigma = g.base_chamber_at_infinity().opposite()
    z = g.closure(((FLOOR, -1), (FLOOR, 1), (FLOOR, 1))) | g.closure(((FLOOR, -1), (FLOOR, -2), (FLOOR, -3)))
    assert not check_against_galleries(g, frozenset(z), sigma)


def sector_corners():
    """Closed sector corners of small A_2, C_2 and A_3 windows at tips in {0, 1}^rank."""
    for family, rank, radius in (("A", 2, 2), ("C", 2, 2), ("A", 3, 1)):
        window = Window.radius(build_root_system(family, rank), radius)
        sigma = window.geometry.base_chamber_at_infinity()
        for tip in product((0, 1), repeat=rank):
            yield window.geometry, closed_sector_cells(window, window.datum.point(tip), sigma.opposite())


@pytest.fixture(scope="module")
def criterion_pieces():
    """The 20 subcomplexes the coxeter criterion deconstructs, with their geometry."""
    pieces = []

    def recording(g, z, sigma):
        pieces.append((g, z))
        return deconstruct(g, z, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "deconstruct", recording)
        assert acceptance.criterion_coxeter(seed=42)["passed"]
    assert len(pieces) == 20
    return pieces


def test_deconstruction_order_matches_the_sigma_length_loop(criterion_pieces):
    for g, z in criterion_pieces + list(sector_corners()):
        sigma = g.base_chamber_at_infinity()
        steps = deconstruct(g, z, sigma).steps
        assert [s.chamber for s in steps] == deconstruction_order_by_sigma_length(g, z, sigma)


WHOLE_WINDOWS = (("A", 2, 2), ("C", 2, 2), ("A", 3, 1))


def test_deconstruction_matches_the_rescanning_route(criterion_pieces):
    # step by step (chamber, lower face, star, certificates), then the
    # filtration and R, on the criterion's pieces, sector corners and whole
    # windows, the largest the C_2 -4:3 window of 256 steps
    windows = [Window.radius(build_root_system(f, rank), r) for f, rank, r in WHOLE_WINDOWS]
    windows.append(Window(build_root_system("C", 2), [-4, -4], [3, 3]))
    for g, z in criterion_pieces + list(sector_corners()) + [(w.geometry, w.cells()) for w in windows]:
        sigma = g.base_chamber_at_infinity()
        fast, slow = deconstruct(g, z, sigma), deconstruct_by_rescans(g, z, sigma)
        assert len(fast.steps) == len(slow.steps)
        for a, b in zip(fast.steps, slow.steps):
            assert (a.chamber, a.lower_face, a.removed_star) == (b.chamber, b.lower_face, b.removed_star)
            assert a.certificates == b.certificates
        # the stages rebuilt from the steps are the rescanning route's snapshots
        assert fast.filtration == slow.filtration and fast.residual == slow.residual


@pytest.mark.parametrize("family, rank, lo, hi", [("A", 2, -2, 1), ("A", 3, -2, 1), ("C", 2, -4, 3)])
def test_deconstruction_matches_the_rescanning_route_on_a_gapped_window(family, rank, lo, hi):
    # the CLI's --gapped input: a window without the open star of its middle
    # interior chamber is not sigma-convex, and both routes give its witness
    window = Window(build_root_system(family, rank), [lo] * rank, [hi] * rank)
    g = window.geometry
    z = set(window.cells())
    interior = sorted(c for c in z if g.is_chamber(c) and window.interior_cell(c))
    victim = interior[len(interior) // 2]
    z = frozenset(x for x in z if victim not in g.closure(x))
    sigma = g.base_chamber_at_infinity()
    errors = []
    for route in (deconstruct, deconstruct_by_rescans):
        with pytest.raises(GeometryError, match="witness gallery") as info:
            route(g, z, sigma)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_full_window_deconstruction_budget():
    # sigma-steps, cofaces and projections are indexed once over Z, not
    # recomputed on each of the 800 steps (about 3 s with per-step rescans)
    window = Window(build_root_system("A", 2), [-10, -10], [9, 9])
    g = window.geometry
    cells = window.cells()
    t0 = time.perf_counter()
    result = deconstruct(g, cells, g.base_chamber_at_infinity())
    elapsed = time.perf_counter() - t0
    assert len(result.steps) == 800 and result.filtration[-1] == cells
    assert elapsed < 1.5


def test_a3_full_window_deconstruction_budget():
    # 1,296 steps; a frozenset copy of every stage took about 1.1-1.7 s and
    # 235 MB, and a deconstruction now keeps only its steps and R(Z).  Choosing
    # each chamber by a scan of the remaining ones took 0.62-0.96 s (it failed
    # this gate at 1.13-1.18 s in full runs); a heap of ready chambers takes
    # 0.32-0.63 s (2-vCPU VM, Python 3.11, best and worst of 5)
    window = Window(build_root_system("A", 3), [-3] * 3, [2] * 3)
    g = window.geometry
    cells = window.cells()
    t0 = time.perf_counter()
    result = deconstruct(g, cells, g.base_chamber_at_infinity())
    elapsed = time.perf_counter() - t0
    assert [f.name for f in fields(Deconstruction)] == ["steps", "residual"]
    assert len(result.steps) == 1296
    assert elapsed < 1.0


def test_deconstruct_a1_interval(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    z = a1_interval(g, 0, 3)
    result = deconstruct(g, z, sigma)
    assert result.residual == {((WALL, 0),)}
    assert result.filtration[0] == result.residual
    assert result.filtration[-1] == z
    # chambers are added in sigma-ward order (0,1), (1,2), (2,3)
    added = [s.chamber for s in result.steps]
    assert added == [((FLOOR, 0),), ((FLOOR, 1),), ((FLOOR, 2),)]
    for step in result.steps:
        assert all(step.certificates.values())


def test_deconstruct_empty(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    result = deconstruct(g, frozenset(), sigma)
    assert result.filtration == [frozenset()]
    assert result.steps == []


def test_deconstruct_sector_corner(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 3, g)
    tip = datum.zero()
    sector = closed_sector_cells(window, tip, sigma.opposite())
    # keep the three chambers closest to the tip
    chambers = sorted(
        (c for c in sector if g.is_chamber(c)),
        key=lambda c: g.wall_distance(c, g.project_toward(g.cell_of_point(tip), sigma.opposite())),
    )[:3]
    z = set()
    for c in chambers:
        z |= g.closure(c)
    result = deconstruct(g, frozenset(z), sigma)
    assert result.filtration[0] == residual_r(g, frozenset(z), sigma)
    for step in result.steps:
        assert all(step.certificates.values())


def test_deconstruct_rejects_nonconvex(a1):
    datum, g = a1
    sigma = g.base_chamber_at_infinity()
    gap = a1_interval(g, 0, 1) | a1_interval(g, 2, 3)
    with pytest.raises(GeometryError):
        deconstruct(g, gap, sigma)


def test_intersection_residual_identity(a2):
    datum, g = a2
    sigma = g.base_chamber_at_infinity()
    window = Window.radius(datum, 2, g)
    cx = window.complex()
    rng = random.Random(30)
    chambers = sorted(window.chambers())
    for _ in range(50):
        y = set()
        for c in rng.sample(chambers, 4):
            y |= g.closure(c)
        z = set()
        for c in rng.sample(chambers, 4):
            z |= g.closure(c)
        y, z = frozenset(y), frozenset(z)
        inter = y & z
        lhs = residual_r(g, inter, sigma)
        rhs = inter & (residual_r(g, y, sigma) | residual_r(g, z, sigma))
        assert lhs == rhs


def lower_complex(window, h, r):
    """L_h(r): the window minus the open opposite sectors at special vertices above r."""
    return _upper_lower(window, h, r)[1]


def test_upper_lower_a1(a1):
    datum, g = a1
    window = Window(datum, [-4], [3], g)
    h = HeightForm((Fraction(-1),))
    up = upper_complex(window, h, 0)
    low = lower_complex(window, h, 0)
    # h = -kappa(., alpha): special vertices with h >= 0 are kappa-values <= 0;
    # their opposite sectors cover the kappa <= 0 half of the window.
    for cell in window.cells():
        vals = [root_value(g, v, 0) for v in vertices(g, cell)]
        if max(vals) <= 0:
            assert cell in up
        if min(vals) >= 0:
            assert cell in low
        if min(vals) < 0:
            assert cell not in low


def test_upper_complex_everything_below(a1):
    datum, g = a1
    window = Window(datum, [-4], [3], g)
    h = HeightForm((Fraction(-1),))
    up = upper_complex(window, h, -100)
    assert up == window.cells()


def test_upper_lower_certificates_a2(a2):
    datum, g = a2
    window = Window.radius(datum, 4, g)
    h = HeightForm((Fraction(-1), Fraction(-1)))  # -kappa(., alpha_1 + alpha_2)
    up, low, cert = upper_lower_certified(window, h, Fraction(-1))
    assert cert["sublevel_in_lower"]
    assert cert["lower_below_r_plus_eps"]
    assert cert["residual_in_band"]
    assert cert["epsilon"] > 0


@cache
def range_window(family, rank, radius):
    return Window.radius(build_root_system(family, rank), radius)


@given(
    st.lists(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=12)), min_size=1, max_size=4),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.fractions(-20, 20, max_denominator=30),
    st.integers(1, 6),
)
def test_level_and_grid_are_the_height_on_its_integer_scale(coeffs, values, r, den):
    h = HeightForm(tuple(coeffs))
    assert h.d == lcm(*(Fraction(c).denominator for c in coeffs))
    level = h.level(values)
    assert type(level) is int and level == height_at(h, values) * h.d
    # the grid levels next to r on the scale d * den, equal iff r is on it
    lo, hi = h.grid(r, den)
    scale = h.d * den
    assert Fraction(lo, scale) <= r <= Fraction(hi, scale)
    assert hi - lo == (0 if (r * scale).denominator == 1 else 1)


def special_vertices_above(window, h, r):
    """Special vertices w with h(w) >= r whose opposite sector meets the window.

    Special vertices are exactly the points with integral simple-root values,
    so the enumeration runs over an explicit integer box.
    """
    datum = window.datum
    lam = h.coeffs
    lo_vals = [Fraction(b) for b in window.lo]
    out = []
    ranges = []
    for i in range(datum.rank):
        rest = sum((lam[j] * lo_vals[j] for j in range(datum.rank) if j != i), Fraction(0))
        bound = (Fraction(r) - rest) / lam[i]  # lam[i] < 0 flips the inequality
        hi_c = bound.numerator // bound.denominator
        ranges.append(range(window.lo[i], hi_c + 1))
    for c in product(*ranges):
        if height_at(h, c) >= r:
            out.append(datum.point(c))
    return out


def upper_lower_by_sectors(window, h, r):
    """Oracle for upper_complex/lower_complex: sector membership over enumerated tips."""
    g = window.geometry
    require_generic(h)
    sigma_op = g.base_chamber_at_infinity().opposite()
    tips = special_vertices_above(window, h, r)
    upper = set()
    lower = set()
    for cell in window.cells():
        if any(in_closed_sector(g, g._sector_bounds(w, sigma_op.signs), cell) for w in tips):
            upper.add(cell)
        if not any(cell_meets_open_sector(g, w, sigma_op, cell) for w in tips):
            lower.add(cell)
    return frozenset(upper), frozenset(lower)


def test_upper_lower_fast_route_matches_sector_route(a2):
    datum, g = a2
    window = Window.radius(datum, 3, g)
    for lam, r in [((-1, -1), -1), ((-1, -2), 0), ((-3, -1), -2)]:
        h = HeightForm(tuple(Fraction(x) for x in lam))
        up_fast = upper_complex(window, h, r)
        low_fast = lower_complex(window, h, r)
        up_ref, low_ref = upper_lower_by_sectors(window, h, r)
        assert up_fast == up_ref
        assert low_fast == low_ref


def test_upper_lower_dual_route_c2():
    datum = build_root_system("C", 2)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, 2, g)
    h = HeightForm((Fraction(-1), Fraction(-2)))
    for r in (-3, -1):
        up_fast = upper_complex(window, h, r)
        low_fast = lower_complex(window, h, r)
        up_ref, low_ref = upper_lower_by_sectors(window, h, r)
        assert up_fast == up_ref
        assert low_fast == low_ref


def test_deconstruct_c2_sector_corner():
    # the filtration machinery is family-generic: run it on a C_2 corner
    datum = build_root_system("C", 2)
    g = AlcoveGeometry(datum)
    window = Window.radius(datum, 2, g)
    sigma = g.base_chamber_at_infinity()
    corner = closed_sector_cells(window, datum.zero(), sigma.opposite())
    assert sum(1 for c in corner if g.is_chamber(c)) >= 4
    result = deconstruct(g, corner, sigma)
    assert result.filtration[0] == residual_r(g, corner, sigma)
    for step in result.steps:
        assert all(step.certificates.values())


def test_upper_lower_rejects_nongeneric(a2):
    datum, g = a2
    window = Window.radius(datum, 2, g)
    with pytest.raises(GeometryError):
        upper_complex(window, HeightForm((Fraction(-1), Fraction(0))), 0)


def test_upper_lower_rejects_a_height_of_the_wrong_rank(a2):
    # a form with a coefficient too few or too many is no height on the
    # window, whatever the signs of its coefficients
    datum, g = a2
    window = Window.radius(datum, 3, g)
    for coeffs in ((-1,), (-1, -2, -3)):
        with pytest.raises(GeometryError, match="coefficient"):
            upper_lower_certified(window, HeightForm(coeffs), -1)
        with pytest.raises(GeometryError, match="coefficient"):
            upper_complex(window, HeightForm(coeffs), -1)
        with pytest.raises(GeometryError, match="coefficient"):
            epsilon_for_height(g, HeightForm(coeffs))
    up, low, _ = upper_lower_certified(window, HeightForm((-1, -2)), -1)
    assert up and low


NEGATIVE_COEFFS = st.one_of(
    st.integers(-4, -1), st.fractions(-4, 0, max_denominator=6).filter(bool)
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((("A", 2, 3), ("C", 2, 2), ("A", 3, 1))),
    st.lists(NEGATIVE_COEFFS, min_size=3, max_size=3),
    st.data(),
)
def test_integer_thresholds_match_fraction_route(case, coeffs, data):
    # r exactly at the heights of level tuples and vertices (and eps below
    # them), between those heights and beyond them
    window = range_window(*case)
    g = window.geometry
    h = HeightForm(tuple(coeffs[: window.datum.rank]))
    heights = {height_at(h, values) for cell in window.cells() for values in simple_values(g, cell)}
    for cell in window.cells():
        levels = [cell[pi] for pi in g._simple_idx]
        heights.add(height_at(h, tuple(k + 1 if f == FLOOR else k for f, k in levels)))
        heights.add(height_at(h, tuple(k + 1 for _, k in levels)))
    eps = epsilon_for_height(g, h)
    exact = sorted(heights | {x - eps for x in heights})
    between = [(a + b) / 2 for a, b in zip(exact, exact[1:])]
    r = data.draw(st.sampled_from(exact + between + [exact[0] - 1, exact[-1] + 1]))
    up, low, cert = upper_lower_certified(window, h, r)
    assert (up, low) == upper_lower_by_fractions(window, h, r)
    assert cert == certificate_by_fractions(window, h, r, low)
    zero = list(h.coeffs)
    zero[data.draw(st.integers(0, len(zero) - 1))] = 0
    with pytest.raises(GeometryError):
        upper_lower_certified(window, HeightForm(tuple(zero)), r)


def covering_special_vertex(geometry, h, x):
    """A special vertex w with x in K_w(sigma_op) and h(w) > h(x) - epsilon."""
    datum = geometry.datum
    cell = geometry.cell_of_point(x)
    if not geometry.is_chamber(cell):
        # move into an incident chamber: project along a fully generic direction
        sigma = geometry.base_chamber_at_infinity()
        cell = geometry.project_toward(cell, sigma)
    special = [v for v in vertices(geometry, cell) if is_special_vertex(geometry, v)]
    if not special:
        raise GeometryError("chamber has no special vertex")
    u1 = special[0]
    return datum.point(root_value(geometry, u1, pi) + 2 for pi in geometry._simple_idx)


def test_sector_covering_simplex_constant(a2):
    datum, g = a2
    h = HeightForm((Fraction(-1), Fraction(-2)))
    eps = epsilon_for_height(g, h)
    rng = random.Random(77)
    sigma_op = g.base_chamber_at_infinity().opposite()
    for _ in range(100):
        vals = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(2)]
        x = datum.point(vals)
        w = covering_special_vertex(g, h, x)
        assert is_special_vertex(g, w)
        hx = height_value(h, g, x)
        hw = height_value(h, g, w)
        assert hw > hx - eps
        # x lies in the open opposite sector at w
        assert all(
            root_value(g, x, pi) < root_value(g, w, pi) for pi in g._simple_idx
        )


# --- the window's vertex table -----------------------------------------------

TABLE_WINDOWS = (("A", 2, 3), ("C", 2, 2), ("A", 3, 1))


@pytest.mark.parametrize("family, rank, radius", TABLE_WINDOWS)
def test_vertex_table_lists_each_cells_vertices(family, rank, radius):
    window = range_window(family, rank, radius)
    g = window.geometry
    verts, index = window.vertex_table()
    assert len(set(verts)) == len(verts)
    assert set(index) == window.cells()
    assert {j for ix in index.values() for j in ix} == set(range(len(verts)))
    for cell, ix in index.items():
        assert len(set(ix)) == len(ix) and {verts[j] for j in ix} == set(g._face(cell))
    assert window.vertex_table() is window.vertex_table()


@pytest.mark.parametrize("family, rank, radius", TABLE_WINDOWS)
def test_closure_seeds_the_face_of_every_window_cell(family, rank, radius):
    # the vertex subsets that closures enumerate are the faces that a
    # geometry which never ran a closure finds by its own alcove search
    datum = build_root_system(family, rank)
    g = AlcoveGeometry(datum)
    cells = Window.radius(datum, radius, g).cells()
    assert cells <= g._face_cache.keys()
    fresh = AlcoveGeometry(datum)
    for cell in sorted(cells):
        assert set(g._face(cell)) == set(fresh._face(cell))
    assert not fresh._closure_cache


def sector_tips(window, data):
    """A rational point near the window: a vertex of one of its cells, or
    a point with small denominators that is mostly no vertex."""
    g, datum = window.geometry, window.datum
    if data.draw(st.booleans()):
        verts, _ = window.vertex_table()
        v = data.draw(st.sampled_from(verts))
        return datum.point(Fraction(v[i], g._den) for i in g._simple_idx)
    coordinate = st.fractions(-4, 4, max_denominator=6)
    return datum.point(data.draw(coordinate) for _ in range(datum.rank))


def sector_signs(geometry, data):
    """A simplex at infinity, a chamber or not, or any sign vector."""
    if data.draw(st.booleans()):
        u = data.draw(st.lists(st.integers(-3, 3), min_size=geometry.datum.rank, max_size=geometry.datum.rank))
        if any(u):
            return geometry.infinity_from_direction(geometry.datum.point(u))
    signs = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=geometry.npos, max_size=geometry.npos))
    return InfinitySimplex(tuple(signs), None)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TABLE_WINDOWS), st.data())
def test_closed_sector_cells_match_the_per_cell_scan(case, data):
    window = range_window(*case)
    tip = sector_tips(window, data)
    tau = sector_signs(window.geometry, data)
    assert closed_sector_cells(window, tip, tau) == closed_sector_cells_by_scan(window, tip, tau)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(TABLE_WINDOWS),
    st.lists(
        st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)),
        min_size=3,
        max_size=3,
    ),
)
def test_table_level_ranges_and_epsilon_match_the_per_cell_routes(case, coeffs):
    # any rational coefficients, zero and positive ones too
    window = range_window(*case)
    g = window.geometry
    h = HeightForm(tuple(coeffs[: window.datum.rank]))
    verts, index = window.vertex_table()
    ranges = _level_ranges(_levels(g, h, verts), index)
    assert ranges == level_ranges_by_cell(g, h, window.cells())
    eps = epsilon_for_height(g, h)
    assert eps == epsilon_by_floor_keys(g, h) and type(eps) is Fraction


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(TABLE_WINDOWS),
    st.lists(
        st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6)),
        min_size=3,
        max_size=3,
    ),
)
def test_range_on_cell_matches_vertex_heights(case, coeffs):
    # any rational coefficients, zero and positive ones too: the per-window
    # level table against the height of each vertex's Fraction simple-root values
    window = range_window(*case)
    g = window.geometry
    h = HeightForm(tuple(coeffs[: window.datum.rank]))
    verts, index = window.vertex_table()
    ranges = _level_ranges(_levels(g, h, verts), index)
    assert set(ranges) == set(window.cells())
    scale = h.d * g._den
    for cell, (lo, hi) in ranges.items():
        heights = [height_at(h, values) * scale for values in simple_values(g, cell)]
        assert (lo, hi) == (min(heights), max(heights))


@pytest.mark.parametrize("family, rank", [("A", 1), ("C", 3), ("D", 4), ("A", 4)])
def test_epsilon_matches_the_floor_keys_in_higher_rank(family, rank):
    g = AlcoveGeometry(build_root_system(family, rank))
    h = HeightForm(tuple(Fraction(-1 - i, 1 + i % 2) for i in range(rank)))
    assert epsilon_for_height(g, h) == epsilon_by_floor_keys(g, h)


# --- horizontal (Coxeter-level) reduction ------------------------------------


@dataclass
class ReducedCoxeterData:
    """Rank-reduced wall data after cutting along one horizontal direction."""

    simple_indices: tuple  # surviving simple roots, as indices into the old simples
    gram: tuple  # Gram matrix of the surviving simple roots
    positive_roots: tuple  # coefficient tuples over the surviving simples
    height_coeffs: tuple  # restricted height coefficients
    horizontal_dim: int  # dimension of the horizontal face of the reduced chamber

    @property
    def rank(self):
        return len(self.simple_indices)


def horizontal_dimension(h):
    """dim of the horizontal face of sigma for h: #zero coefficients - 1."""
    return sum(1 for c in h.coeffs if c == 0) - 1


def horizontal_reduction(datum, h):
    """One reduction step along a boundary vertex of sigma fixed by h.

    The surviving walls are those parallel to the chosen direction: the roots
    with zero coefficient on the removed simple root.  Dimension drops by
    exactly one and the horizontal dimension of the chamber drops by one.
    """
    zeros = [i for i, c in enumerate(h.coeffs) if c == 0]
    if not zeros:
        raise GeometryError("nothing to reduce: the height is already generic")
    if any(c > 0 for c in h.coeffs):
        raise GeometryError("height must be non-increasing toward the base chamber")
    i0 = zeros[0]
    keep = [i for i in range(datum.rank) if i != i0]
    gram = tuple(tuple(datum.gram[i][j] for j in keep) for i in keep)
    pos = []
    for root in datum.positive_roots:
        if root[i0] == 0:
            pos.append(tuple(root[i] for i in keep))
    return ReducedCoxeterData(
        simple_indices=tuple(keep),
        gram=gram,
        positive_roots=tuple(sorted(pos, key=lambda c: (sum(c), c))),
        height_coeffs=tuple(h.coeffs[i] for i in keep),
        horizontal_dim=horizontal_dimension(h) - 1,
    )


def iterate_reduction(datum, h):
    """Reduce until the restricted height is strictly decreasing; returns the chain."""
    chain = []
    current = h
    while any(c == 0 for c in current.coeffs):
        datum = horizontal_reduction(datum, current)
        chain.append(datum)
        current = HeightForm(datum.height_coeffs)
    return chain


def test_horizontal_reduction_a2(a2):
    datum, g = a2
    h = HeightForm((Fraction(-1), Fraction(0)))
    assert horizontal_dimension(h) == 0
    red = horizontal_reduction(datum, h)
    assert len(red.simple_indices) == 1
    assert len(red.positive_roots) == 1  # rank-one wall system
    assert red.horizontal_dim == -1
    assert red.height_coeffs == (Fraction(-1),)


def test_horizontal_reduction_error_branch(a2):
    datum, g = a2
    with pytest.raises(GeometryError):
        horizontal_reduction(datum, HeightForm((Fraction(-1), Fraction(-2))))


def test_iterated_reduction_terminates():
    datum = build_root_system("A", 3)
    h = HeightForm((Fraction(0), Fraction(-1), Fraction(0)))
    chain = iterate_reduction(datum, h)
    assert len(chain) == horizontal_dimension(h) + 1 == 2
    assert all(c < 0 for c in chain[-1].height_coeffs)
    # each step drops the rank and the horizontal dimension by exactly one
    dims = [horizontal_dimension(h)] + [c.horizontal_dim for c in chain]
    assert dims == [1, 0, -1]
