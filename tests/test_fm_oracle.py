"""Combinatorial alcove cells against the Fourier-Motzkin route (`fm_oracle`).

Random cell keys near small A2, C2, A3 and C3 windows, many of them not cells
at all, must get the same answer from both routes: whether a witness exists,
and then the facets, vertices, dimension, projections, neighbours and upper
faces.  Whole windows must have the same cells and face relation.
"""

from fractions import Fraction

import pytest
from fm_oracle import FMGeometry
from geometry_oracle import vertices
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmabuild.coxeter import FLOOR, WALL, AlcoveGeometry, GeometryError
from sigmabuild.root_system import build_root_system
from sigmabuild.windows import Window

DATA = {name: build_root_system(name[0], int(name[1])) for name in ("A2", "C2", "A3", "C3")}
# both routes keep their caches across examples, as a long-lived geometry does
GEOMETRIES = {name: (AlcoveGeometry(d), FMGeometry(d)) for name, d in DATA.items()}
# simple-root values of a direction on no root wall in any of the four types
GENERIC = (1, -3, 7)


@st.composite
def cell_keys(draw):
    """(type, key): the cell of a point with small denominators, then up to
    two entries replaced by a nearby floor or wall, which often gives a key
    that is not a cell."""
    name = draw(st.sampled_from(sorted(DATA)))
    return name, draw(keys_of(name))


@st.composite
def keys_of(draw, name):
    """A key of the given type, drawn as in `cell_keys`."""
    datum = DATA[name]
    g, _ = GEOMETRIES[name]
    values = [
        Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7))))
        for _ in range(datum.rank)
    ]
    key = list(g.cell_of_point(datum.point(values)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, g.npos - 1))
        flag = draw(st.sampled_from((FLOOR, WALL)))
        key[i] = (flag, key[i][1] + draw(st.integers(-1, 1)))
    return tuple(key)


def _fm_is_cell(fm, key):
    try:
        fm.witness(key)
    except GeometryError:
        return False
    return True


@given(cell_keys(), st.data())
@settings(max_examples=150, deadline=None)
def test_cells_agree_with_fm_route(case, data):
    name, key = case
    g, fm = GEOMETRIES[name]
    if not _fm_is_cell(fm, key):
        for read in (g.barycenter, g.facets, g.dim):
            with pytest.raises(GeometryError):
                read(key)
        with pytest.raises(GeometryError):
            vertices(g, key)
        return
    assert g.cell_of_point(g.barycenter(key)) == key
    assert g.facets(key) == fm.facets(key)
    assert vertices(g, key) == fm.vertices(key)
    assert g.dim(key) == fm.dim(key) == len(vertices(g, key)) - 1
    datum = DATA[name]
    base = g.base_chamber_at_infinity()
    other = g.infinity_from_direction(datum.point(GENERIC[: datum.rank]))
    assert other.is_chamber
    sigmas = (base, base.opposite(), other, other.opposite())
    for sigma in sigmas:
        assert g.project_toward(key, sigma) == fm.project_toward(key, sigma)
    target = data.draw(keys_of(name))
    if _fm_is_cell(fm, target):
        assert g.project_to_cell(key, target) == fm.project_to_cell(key, target)
    if g.is_chamber(key):
        assert g.chamber_neighbors(key) == fm.chamber_neighbors(key)
        for sigma in sigmas:
            assert g.upper_face(key, sigma) == fm.upper_face(key, sigma)


@pytest.mark.parametrize("name, radius", [("A2", 4), ("C2", 3), ("A3", 1)])
def test_window_cells_match_fm_route(name, radius):
    datum = DATA[name]
    window = Window.radius(datum, radius, AlcoveGeometry(datum))
    ref = Window.radius(datum, radius, FMGeometry(datum))
    assert window.chambers() == ref.chambers()
    assert window.cells() == ref.cells()
    cx, ref_cx = window.complex(), ref.complex()
    for k in range(datum.rank + 1):
        assert cx.cells(k) == ref_cx.cells(k)
    for c in window.cells():
        assert window.geometry.facets(c) == ref.geometry.facets(c)


def test_far_chamber_walks_from_the_fundamental_alcove():
    # a fresh geometry has only the fundamental alcove cached, so a distant
    # chamber is reached by a long gallery walk, and keys on the way are cached
    datum = DATA["C3"]
    g, fm = AlcoveGeometry(datum), FMGeometry(datum)
    far = g.cell_of_point(datum.point((Fraction(41, 7), Fraction(-23, 5), Fraction(13, 3))))
    assert g.is_chamber(far)
    assert vertices(g, far) == fm.vertices(far)
    assert g.facets(far) == fm.facets(far)
    # positive simple-root values force a positive highest-root value
    bad = tuple((FLOOR, 0) for _ in far[:-1]) + ((FLOOR, -1),)
    with pytest.raises(GeometryError):
        g.barycenter(bad)
    assert not _fm_is_cell(fm, bad)
