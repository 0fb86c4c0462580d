"""Lattice-class truncations: canonical forms, retraction, heights, cone chains."""

import random
import time
from collections import Counter
from types import SimpleNamespace
from fractions import Fraction
from functools import cache, partial
from math import lcm

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from geometry_oracle import (
    cofacets,
    face_closure,
    gallery_distances,
    height_at,
    height_value,
    panel_neighbors,
    root_value,
    vertices,
)
from lattice_oracle import ChainTruncation, diagonal_exponents, echelon_basis, key_exponents
from lattice_oracle import lattice_canonical_form as oracle_canonical_form
from linalg_oracle import identity, matrix_element

from sigmabuild import building
from sigmabuild.building import (
    BuildingError,
    HeightFiltration,
    HeightSpec,
    Truncation,
    _hermite_form,
    _panel_vertices,
    cone_chain,
    grow_truncation,
    height_eval,
    retraction_preimage,
    standard_opposite_sector_cells,
    superlevel_complex,
)
from sigmabuild.chevalley import (
    GroupElement,
    character_eval,
    h_elem,
    identity_element,
    valuation,
    w_elem,
    x_elem,
)
from sigmabuild.complexes import CellComplex
from sigmabuild.coxeter import FLOOR
from sigmabuild.homology import ChainComplexF2, betti_vector, induced_map_trivial
from sigmabuild.linalg import det, matmul
from sigmabuild.sigma import CERTAIN_IN, CERTAIN_OUT, SigmaContext, sigma_verdict
from sigmabuild.windows import HeightForm


# --- canonical forms ----------------------------------------------------------


def rand_unimodular(rng, n, p):
    """A random matrix in GL_n of the p-local ring (unit determinant valuation)."""
    from sigmabuild.linalg import det

    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 1, 3]))
                  for _ in range(n))
            for _ in range(n)
        )
        d = det(rows)
        if d != 0:
            v = 0
            num, den = d.numerator, d.denominator
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            if v == 0:
                return rows


def kernel_key(columns, p):
    """The library kernel's key (d, rows) of the class spanned by a rational matrix's columns.

    Scaling by the least common denominator of the entries changes neither
    the class nor its form, and N is v_p of the scaled determinant.  The
    exponents the kernel returns beside the key are checked against
    `valuation` of the key's diagonal.
    """
    scale = lcm(*(Fraction(e).denominator for row in columns for e in row))
    ints = [[int(e * scale) for e in row] for row in columns]
    key, exps = _hermite_form(list(zip(*ints)), p, valuation(det(ints), p))
    assert exps == key_exponents(key, p)
    return key


def kernel_form(columns, p):
    """The canonical form rows / p^d of the class, from the library kernel."""
    d, rows = kernel_key(columns, p)
    return tuple(tuple(Fraction(x, p**d) for x in row) for row in rows)


def test_canonical_form_invariance():
    rng = random.Random(17)
    p = 2
    for n in (2, 3):
        for _ in range(25):
            base = rand_unimodular(rng, n, 3 if p == 2 else 2)
            key = kernel_form(base, p)
            # right multiplication by a unimodular matrix fixes the class
            g = rand_unimodular(rng, n, p)
            assert kernel_form(matmul(base, g), p) == key
            # homothety by p-powers fixes the class
            c = Fraction(p) ** rng.randint(-2, 2)
            scaled = tuple(tuple(e * c for e in row) for row in base)
            assert kernel_form(scaled, p) == key


def test_canonical_form_shape():
    p = 3
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(25):
            m = rand_unimodular(rng, n, 2)
            key = kernel_form(m, p)
            exps = [None] * n
            for i in range(n):
                for j in range(n):
                    if j < i:
                        assert key[i][j] == 0
                e = key[i][i]
                v = 0
                x = Fraction(e)
                assert x > 0
                while x % p == 0:
                    x /= p
                    v += 1
                assert x == 1  # diagonal entries are pure p-powers
                exps[i] = v
            assert min(exps) == 0


def p_local(p, nonzero=False, unit=False):
    """Rationals in the local ring at p: denominators prime to p."""
    dens = [d for d in range(1, 10) if d % p]
    nums = st.integers(-6, 6)
    if unit:
        nums = nums.filter(lambda m: m % p)
    elif nonzero:
        nums = nums.filter(bool)
    return st.builds(Fraction, nums, st.sampled_from(dens))


@st.composite
def lattice_and_column_operations(draw):
    """(n, p, a full-rank rational basis, the same basis after GL_n(Z_(p)) column operations)."""
    n = draw(st.sampled_from((2, 3)))
    p = draw(st.sampled_from((2, 3)))
    # denominators: powers of 2 and 3, 5 and 7 (prime to both), and a mixed 12
    entry = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 4, 5, 7, 9, 12)))
    base = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    assume(det(base) != 0)
    cols = [list(col) for col in zip(*base)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(n)))[:2]
        kind = draw(st.sampled_from(("add", "swap", "scale")))
        if kind == "add":  # col_i += c col_j, c in the local ring
            c = draw(p_local(p))
            cols[i] = [a + c * b for a, b in zip(cols[i], cols[j])]
        elif kind == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        else:  # col_i *= u, u a unit of the local ring
            u = draw(p_local(p, unit=True))
            cols[i] = [u * a for a in cols[i]]
    moved = tuple(tuple(row) for row in zip(*cols))
    return n, p, base, moved


@settings(max_examples=60, deadline=None)
@given(lattice_and_column_operations(), st.integers(-3, 3))
def test_canonical_form_invariance_property(case, k):
    # the interned vertex table relies on one form per lattice class
    n, p, base, moved = case
    key = kernel_form(base, p)
    assert kernel_form(moved, p) == key
    scale = Fraction(p) ** k
    scaled = tuple(tuple(scale * e for e in row) for row in moved)
    assert kernel_form(scaled, p) == key


@settings(max_examples=60, deadline=None)
@given(lattice_and_column_operations(), st.integers(-3, 3))
def test_canonical_form_matches_fraction_oracle(case, k):
    # the modular integer kernel against the Fraction echelon route
    n, p, base, moved = case
    scale = Fraction(p) ** k
    for m in (base, moved, tuple(tuple(scale * e for e in row) for row in moved)):
        assert kernel_form(m, p) == oracle_canonical_form(m, p)


def test_canonical_form_rejects_non_square_and_singular_input():
    # the group action is the library's one route from a matrix to a form
    sl2, sl3 = grow_truncation(2, 2, 1), grow_truncation(3, 2, 0)
    with pytest.raises(BuildingError, match="3x3"):
        sl2.act_on_vertex(identity_element(3), sl2.base_vertex)
    with pytest.raises(BuildingError, match="2x2"):
        sl3.act_on_vertex(identity_element(2), sl3.base_vertex)
    singular = matrix_element(((1, 2), (2, 4)))
    with pytest.raises(BuildingError, match="full lattice"):
        sl2.act_on_vertex(singular, sl2.base_vertex)
    with pytest.raises(BuildingError, match="full lattice"):
        _hermite_form([(1, 0), (2, 0)], 2, 0)


def test_echelon_preserves_lattice_scale():
    p = 2
    m = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(2)))
    e = echelon_basis(m, p)
    # same lattice: mutual containment of column spans over the local ring
    from sigmabuild.linalg import inverse, matmul as mm

    c1 = mm(inverse(e), m)
    c2 = mm(inverse(m), e)
    for c in (c1, c2):
        for row in c:
            for x in row:
                assert x.denominator % p != 0  # p-integral


def test_nondiagonal_class_with_fractional_entry():
    # span{(p,0),(1,p)} is a genuine class whose canonical entries need 1/p
    p = 2
    m = ((Fraction(p), Fraction(1)), (Fraction(0), Fraction(p)))
    assert kernel_key(m, p) == (1, ((2, 1), (0, 2)))
    assert diagonal_exponents(kernel_key(m, p), p) is None
    assert kernel_form(m, p) == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1)))
    assert diagonal_exponents(kernel_key(((p, 0), (0, 1)), p), p) == (1, 0)


# --- truncations ---------------------------------------------------------------


def vertex_distances(trunc):
    """Plain BFS: each vertex's edge distance from the base vertex in the 1-skeleton."""
    base = trunc.base_vertex
    adj = {}
    for edge in trunc.complex.cells(1):
        a, b = edge
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {base: 0}
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def vertex_sphere_sizes(trunc, max_k):
    sizes = Counter(vertex_distances(trunc).values())
    return [sizes[k] for k in range(max_k + 1)]


@pytest.mark.parametrize("p", [2, 3])
def test_tree_sphere_counts(p):
    trunc = grow_truncation(2, p, 5)
    sizes = vertex_sphere_sizes(trunc, 4)
    assert sizes[0] == 1
    for k in range(1, 5):
        assert sizes[k] == (p + 1) * p ** (k - 1)


@pytest.mark.parametrize(
    "n, p, radius, sizes",
    [(2, 3, 4, [1, 4, 12, 36, 108, 81]), (3, 2, 3, [1, 14, 50, 16]), (3, 3, 2, [1, 26, 39])],
)
def test_vertex_layers_are_the_breadth_first_spheres(n, p, radius, sizes):
    # the SL_3 skeleton has triangles: a vertex's neighbours may share its layer
    trunc = Truncation(n, p, radius)
    dist = vertex_distances(trunc)
    layers = list(trunc.vertex_layers())
    assert layers == [{v for v, d in dist.items() if d == k} for k in range(len(layers))]
    assert [len(layer) for layer in layers] == sizes


def test_tree_radius1_p3():
    trunc = grow_truncation(2, 3, 1)
    # base edge plus (p+1)-1 = 3 new chambers per panel: 7 edges in the ball
    assert len(trunc.complex.cells(1)) == 7


def test_single_alcove_sl3():
    trunc = grow_truncation(3, 2, 0)
    assert len(trunc.complex.cells(2)) == 1
    assert len(trunc.complex.cells(1)) == 3
    assert len(trunc.complex.cells(0)) == 3


def test_interior_panel_thickness():
    for n, p, radius in [(2, 2, 3), (2, 3, 2), (3, 2, 2)]:
        trunc = grow_truncation(n, p, radius)
        top = trunc.complex.dim
        interior = 0
        for panel in trunc.complex.cells(top - 1):
            stars = cofacets(trunc.complex, panel)
            assert len(stars) <= p + 1
            if len(stars) == p + 1:
                interior += 1
        assert interior > 0


def test_chamber_guard(monkeypatch):
    with monkeypatch.context() as m, pytest.raises(BuildingError):
        m.setattr(building, "MAX_TRUNCATION_CHAMBERS", 4)
        grow_truncation(2, 2, 3)
    with pytest.raises(BuildingError):
        grow_truncation(2, 4, 1)
    with pytest.raises(BuildingError):
        grow_truncation(4, 2, 1)


@pytest.mark.parametrize("n, radius", [(2, 5), (3, 3)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_ball_size_is_checked_before_growth(monkeypatch, n, p, radius):
    # a_d p^d chambers at gallery distance d, a_d the alcoves at distance d
    # in an apartment: 2 for n = 2 and 3d for n = 3 (d >= 1)
    trunc = Truncation(n, p, radius)
    a = [1] + [2 if n == 2 else 3 * d for d in range(1, radius + 1)]
    assert Counter(trunc.chambers.values()) == {d: a[d] * p**d for d in range(radius + 1)}
    size = len(trunc.chambers)
    monkeypatch.setattr(building, "MAX_TRUNCATION_CHAMBERS", size)
    Truncation(n, p, radius)
    monkeypatch.setattr(building, "MAX_TRUNCATION_CHAMBERS", size - 1)
    with pytest.raises(BuildingError, match="chamber guard exceeded"):
        Truncation(n, p, radius)


def test_oversized_ball_is_rejected_at_once():
    # about 1.8 million chambers: growing toward the guard took 18 s
    t0 = time.perf_counter()
    with pytest.raises(BuildingError, match="more than 100,000 chambers"):
        Truncation(2, 97, 3)
    assert time.perf_counter() - t0 < 0.5


def test_negative_radius_rejected(monkeypatch):
    # a negative radius used to grow toward the chamber guard instead
    with pytest.raises(BuildingError, match="radius"):
        Truncation(2, 2, -1)
    monkeypatch.setattr(building, "MAX_TRUNCATION_CHAMBERS", 10)
    with pytest.raises(BuildingError, match="radius"):
        Truncation(3, 2, -1)


# --- integer growth against the Fraction chain route and against counting -------

GROWTH_TRUNCATIONS = (
    (2, 2, 4), (2, 3, 5), (2, 5, 3), (2, 7, 2), (3, 2, 3), (3, 2, 4), (3, 3, 2), (3, 5, 1),
)


@pytest.mark.parametrize("n, p, radius", GROWTH_TRUNCATIONS)
def test_integer_growth_matches_chain_oracle(n, p, radius):
    trunc = Truncation(n, p, radius)
    oracle = ChainTruncation(n, p, radius)
    assert trunc.vertices == oracle.vertices
    # the exponents growth carried beside each key, against `valuation` of
    # the key's diagonal (the oracle takes its own)
    assert trunc.exponents == oracle.exponents == [key_exponents(key, p) for key in trunc.vertices]
    # every ball vertex prints as the Fraction route's form
    assert [trunc.form(v) for v in range(len(trunc.vertices))] == oracle.forms
    assert trunc.base_vertex == oracle.base_vertex
    assert trunc.chambers == oracle.chambers
    assert trunc.cell_distance == oracle.cell_distance
    assert trunc.complex.cells() == oracle.complex.cells()
    # the retraction read from integer root values against the Fraction mean
    # of the vertices' apartment points
    for cell in trunc.complex.cells():
        pts = [trunc.vertex_retraction_point(v) for v in cell]
        mean = tuple(sum(col, Fraction(0)) / len(pts) for col in zip(*pts))
        assert trunc.retract_cell(cell) == trunc.geometry.cell_of_point(mean)


def alcove_sphere_sizes(geometry, radius):
    """Alcoves at each gallery distance from the fundamental alcove, by breadth-first search."""
    start = ((FLOOR, 0),) * geometry.npos
    seen = {start}
    sizes = [1]
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for c in frontier:
            for _, nb in geometry.chamber_neighbors(c):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes


@pytest.mark.parametrize("n, p, radius", GROWTH_TRUNCATIONS)
def test_chamber_sphere_is_p_power_times_alcove_sphere(n, p, radius):
    # every panel has p + 1 chambers, so the chambers at gallery distance d
    # from the base are p^d times the alcoves at distance d in the apartment
    trunc = Truncation(n, p, radius)
    counts = [0] * (radius + 1)
    for d in trunc.chambers.values():
        counts[d] += 1
    alcoves = alcove_sphere_sizes(trunc.geometry, radius)
    assert counts == [p**d * a for d, a in enumerate(alcoves)]


def test_growth_runs_no_hermite_reduction(monkeypatch):
    # a panel's new vertices come from the vertices of its neighbours and the
    # diagonal base chamber needs no pivot search, so growth never runs the
    # general kernel; the group action does, once per vertex
    calls = []
    kernel = building._hermite_form

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(building, "_hermite_form", counted)
    for n, p, radius in ((2, 3, 5), (3, 2, 3)):
        calls.clear()
        trunc = Truncation(n, p, radius)
        assert calls == []
        trunc.act_on_vertex(identity_element(n), trunc.base_vertex)
        assert len(calls) == 1


def diagonal_vertex(exps, p):
    """The vertex (key, exps) of the diagonal class with these p-exponents, min 0."""
    n = len(exps)
    return (0, tuple(tuple(p**e if i == j else 0 for j in range(n)) for i, e in enumerate(exps))), exps


def test_panel_vertices_are_the_other_lattices_between():
    # between W = span(2e0, 2e1, e2) and U = Z^3 lie the lines of e0, e1 and
    # e0 + e1 modulo W; own is W + Z e1 = span(2e0, e1, e2)
    p = 2
    upper, lower, own = (diagonal_vertex(e, p) for e in ((0, 0, 0), (1, 1, 0), (1, 0, 0)))
    got = _panel_vertices(upper, lower, own, p)
    expected = {
        kernel_key(((1, 0, 0), (0, 2, 0), (0, 0, 1)), p),
        kernel_key(((2, 1, 0), (0, 1, 0), (0, 0, 1)), p),
    }
    assert {key for key, _ in got} == expected
    for key, exps in got:
        assert exps == tuple(valuation(key[1][i][i], p) for i in range(3))


@pytest.mark.parametrize(
    "upper, lower",
    [
        ((0, 0, 0), (2, 0, 0)),  # one exponent up by 2
        ((0, 0, 0), (3, 0, 0)),  # an index that is not p^2 at any scale
        ((1, 0, 0), (0, 2, 1)),  # two up by 1, one down by 1
        ((0, 0), (1, 0)),  # n = 2 needs W = pU
    ],
)
def test_panel_vertices_reject_a_pair_off_a_panel(upper, lower):
    p = 3
    own = tuple(0 for _ in upper)
    with pytest.raises(BuildingError, match="quotient"):
        _panel_vertices(diagonal_vertex(upper, p), diagonal_vertex(lower, p), diagonal_vertex(own, p), p)


def test_panel_vertices_reject_a_chain_member_off_its_panel():
    p = 2
    upper, lower = diagonal_vertex((0, 0, 0), p), diagonal_vertex((1, 1, 0), p)
    for own in ((0, 0, 1), (1, 1, 0)):
        with pytest.raises(BuildingError, match="does not lie on its panel"):
            _panel_vertices(upper, lower, diagonal_vertex(own, p), p)


def test_growth_of_a_large_ball_budget():
    # SL2 p=5 r5, 7,811 chambers: 0.32-0.43 s when each new vertex took a
    # Hermite reduction of a moved basis, 0.27-0.32 s from its neighbours'
    # keys (2-vCPU VM, Python 3.11)
    t0 = time.perf_counter()
    trunc = Truncation(2, 5, 5)
    assert time.perf_counter() - t0 < 0.6
    assert len(trunc.chambers) == 7811


# --- the interned vertex table -------------------------------------------------

INTERNING_TRUNCATIONS = ((2, 2, 4), (2, 3, 3), (3, 2, 2))


def form_cells(trunc):
    """Every cell as a sorted tuple of canonical forms, built from the chambers' forms."""
    cells = set()
    for chamber in trunc.chambers:
        forms = sorted(trunc.form(v) for v in chamber)
        for mask in range(1, 1 << len(forms)):
            cells.add(tuple(f for i, f in enumerate(forms) if mask >> i & 1))
    return sorted(cells)


@pytest.mark.parametrize("n, p, radius", INTERNING_TRUNCATIONS)
def test_interned_cells_sort_like_their_forms(n, p, radius):
    trunc = grow_truncation(n, p, radius)
    as_forms = [tuple(trunc.form(v) for v in c) for c in trunc.complex.cells()]
    assert as_forms == form_cells(trunc)
    for d in range(n):
        assert trunc.complex.cells(d) == sorted(c for c in trunc.complex.cells() if len(c) == d + 1)
    assert len(trunc.vertices) == len(trunc.complex.cells(0))
    for i, key in enumerate(trunc.vertices):
        assert trunc.vertex_id((key, trunc.exponents[i])) == i
        assert (i,) in trunc.complex
    assert trunc.form(trunc.base_vertex) == identity(n)
    assert set(trunc.chambers) == set(trunc.complex.cells(n - 1))


@pytest.mark.parametrize("n, p, radius", INTERNING_TRUNCATIONS)
def test_act_on_vertex_is_the_form_of_the_product(n, p, radius):
    trunc = grow_truncation(n, p, radius)
    ball = len(trunc.vertices)
    simple = [tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)]
    elements = [h_elem(n, r, Fraction(p) ** k) for r in simple for k in (-1, 1)]
    elements += [x_elem(n, r, Fraction(1, p)) for r in simple]
    inside = outside = 0
    for g in elements:
        for (v,) in trunc.complex.cells(0):
            moved = trunc.act_on_vertex(g, v)
            form = oracle_canonical_form(matmul(g.rows, trunc.form(v)), p)
            assert trunc.form(moved) == form
            assert trunc.act_on_vertex(g, v) == moved
            if moved < ball:
                inside += 1
            else:
                outside += 1
                assert (moved,) not in trunc.complex
            assert trunc.exponents[moved] == key_exponents(trunc.vertices[moved], p)
    assert inside and outside
    # ids handed out beyond the ball leave the complex alone
    assert len(trunc.complex.cells(0)) == ball
    assert [tuple(trunc.form(v) for v in c) for c in trunc.complex.cells()] == form_cells(trunc)


ROOTS = {
    2: [(1,), (-1,)],
    3: [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
}


@st.composite
def group_word(draw, n, p):
    """A word in x_alpha(t), h_alpha(t) and w_alpha(t) over all roots, t with
    p and a second prime q in its denominator (q = 5 for p in {2, 3}), half of
    the time times a matrix of determinant other than 1."""
    g = identity_element(n)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from((x_elem, h_elem, w_elem)))
        num = draw(st.integers(-9, 9).filter(lambda m: kind is x_elem or m))
        den = p ** draw(st.integers(0, 2)) * 5 ** draw(st.integers(0, 1))
        g = g * kind(n, draw(st.sampled_from(ROOTS[n])), Fraction(num, den))
    if draw(st.booleans()):
        # an upper-triangular factor of determinant p^k 5^j, outside SL_n
        t = Fraction(p) ** draw(st.integers(-1, 2)) * 5 ** draw(st.integers(0, 1))
        rows = [[t if i == j == 0 else int(i == j or j == i + 1) for j in range(n)] for i in range(n)]
        g = g * matrix_element(rows)
    return g


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INTERNING_TRUNCATIONS), st.data())
def test_act_on_vertex_matches_the_oracle_on_group_words(case, data):
    # the integer route (g.num times the key's rows, one kernel call) against
    # the Fraction echelon route on g.rows times the vertex's Fraction form
    n, p, radius = case
    trunc = height_truncation(n, p, radius)
    ball = len(trunc.complex.cells(0))
    g = data.draw(group_word(n, p))
    g_inv = g.inv()
    for (v,) in trunc.complex.cells(0):
        moved = trunc.act_on_vertex(g, v)
        assert trunc.form(moved) == oracle_canonical_form(matmul(g.rows, trunc.form(v)), p)
        assert ((moved,) in trunc.complex) == (moved < ball)
        assert trunc.act_on_vertex(g_inv, moved) == v
        event("image inside the ball" if moved < ball else "image outside the ball")


# --- retraction -----------------------------------------------------------------


def test_retraction_fixes_apartment():
    trunc = grow_truncation(2, 2, 4)
    g = trunc.geometry
    for cell in trunc.apartment_cells():
        img = trunc.retract_cell(cell)
        pts = sorted(trunc.vertex_retraction_point(v) for v in cell)
        assert sorted(vertices(g, img)) == pts


def test_retraction_spec_example():
    p = 2
    trunc = grow_truncation(2, p, 4)
    g_el = GroupElement(((1, 0), (Fraction(1, p), 1)))
    v = trunc.act_on_vertex(g_el, trunc.base_vertex)
    # the form is canonical: the Fraction route maps it to itself
    assert oracle_canonical_form(trunc.form(v), p) == trunc.form(v)
    point = trunc.vertex_retraction_point(v)
    # image is the apartment vertex of diag(p^2, 1): kappa-value -2 (away from sigma)
    assert root_value(trunc.geometry, point, 0) == -2


def test_retraction_idempotent():
    trunc = grow_truncation(2, 2, 3)
    g = trunc.geometry
    # an apartment cell retracts to the alcove cell spanned by its vertices'
    # retraction points, and every image is the image of such a cell
    apartment = {}
    for cell in trunc.apartment_cells():
        key = trunc.retract_cell(cell)
        assert vertices(g, key) == tuple(sorted(trunc.vertex_retraction_point(v) for v in cell))
        apartment[key] = cell
    for cell in trunc.complex.cells():
        img = trunc.retract_cell(cell)
        assert img in apartment
        # the image cell, viewed through its apartment realization, is fixed
        bary = g.barycenter(img)
        assert g.cell_of_point(bary) == img


def test_retraction_constant_on_unipotent_translates():
    trunc = grow_truncation(2, 2, 4)
    for t in (Fraction(1), Fraction(1, 2), Fraction(3, 4)):
        u = x_elem(2, (1,), t)
        for cell in trunc.apartment_cells():
            moved = trunc.act_on_cell(u, cell)
            if moved in trunc.complex:
                assert trunc.retract_cell(moved) == trunc.retract_cell(cell)


def smith_kernel(rows, p):
    """Saturated kernel basis over the p-local ring (independent oracle path)."""
    rows = [list(Fraction(e) for e in r) for r in rows]
    m = len(rows)
    n = len(rows[0])
    vinv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def vp(x):
        if x == 0:
            return None
        v = 0
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    r = 0
    for _ in range(min(m, n)):
        piv = None
        piv_v = None
        for i in range(r, m):
            for j in range(r, n):
                v = vp(rows[i][j])
                if v is not None and (piv_v is None or v < piv_v):
                    piv, piv_v = (i, j), v
        if piv is None:
            break
        i0, j0 = piv
        rows[r], rows[i0] = rows[i0], rows[r]
        for row in rows:
            row[r], row[j0] = row[j0], row[r]
        for vrow in vinv:
            vrow[r], vrow[j0] = vrow[j0], vrow[r]
        for i in range(m):
            if i != r and rows[i][r] != 0:
                f = rows[i][r] / rows[r][r]
                for j in range(n):
                    rows[i][j] -= f * rows[r][j]
        for j in range(r + 1, n):
            if rows[r][j] != 0:
                f = rows[r][j] / rows[r][r]
                for i in range(m):
                    rows[i][j] -= f * rows[i][r]
                # column op col_j -= f col_r: x = V^-1 y bookkeeping
                for vrow in vinv:
                    vrow[j] -= f * vrow[r]
        r += 1
    # kernel = V^{-1} columns beyond the rank
    basis = []
    for j in range(r, n):
        basis.append(tuple(vinv[i][j] for i in range(n)))
    return basis


def iwasawa_oracle_exponents(matrix_rows, p):
    """Diagonal exponents of the class, via the coordinate-flag intersections.

    Independent of the Hermite reduction: for each j, the intersection with
    span(e_1..e_j) is computed from a saturated kernel of the bottom rows and
    its covolume exponent read off a determinant.
    """
    from sigmabuild.linalg import det

    n = len(matrix_rows)
    m = [tuple(Fraction(e) for e in row) for row in matrix_rows]
    d = []
    for j in range(1, n + 1):
        if j == n:
            full = det(m)
            v = 0
            x = abs(full)
            num, den = x.numerator, x.denominator
            while num % p == 0:
                num //= p
                v += 1
            while den % p == 0:
                den //= p
                v -= 1
            d.append(v)
            continue
        bottom = [m[i] for i in range(j, n)]
        kernel = smith_kernel(bottom, p)
        assert len(kernel) == j
        inter = [
            [sum(m[i][k] * vec[k] for k in range(n)) for vec in kernel]
            for i in range(j)
        ]
        dj = det(tuple(tuple(row) for row in inter))
        v = 0
        x = abs(dj)
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        d.append(v)
    exps = [d[0]] + [d[k] - d[k - 1] for k in range(1, n)]
    shift = min(exps)
    return tuple(e - shift for e in exps)


@pytest.mark.parametrize("n", [2, 3])
def test_retraction_against_iwasawa_oracle(n):
    p = 2
    trunc = grow_truncation(n, p, 2)
    rng = random.Random(23)
    for cell in trunc.complex.cells(0):
        (v,) = cell
        form = trunc.form(v)
        scramble = rand_unimodular(rng, n, p)
        scrambled = matmul(form, scramble)
        oracle = iwasawa_oracle_exponents(scrambled, p)
        mine = tuple(
            _vp_int(form[i][i], p) for i in range(n)
        )
        assert oracle == mine


def _vp_int(x, p):
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_fiber_counts_radius2():
    p = 2
    trunc = grow_truncation(2, p, 4)
    sizes = {}
    for cell in trunc.complex.cells(0):
        (v,) = cell
        pt = trunc.vertex_retraction_point(v)
        val = root_value(trunc.geometry, pt, 0)
        sizes[val] = sizes.get(val, 0) + 1
    # fibers grow away from sigma (negative kappa side), stay single toward sigma
    assert sizes[Fraction(2)] >= 1
    for val, count in sizes.items():
        if val > 0:
            assert count >= 1
    assert sizes[Fraction(-1)] > sizes[Fraction(1)] or sizes[Fraction(-2)] > sizes[Fraction(2)]


# --- heights --------------------------------------------------------------------


def vertex_height(trunc, h, v):
    return height_eval(trunc, h, (v,))[0]


def test_height_zero_spec():
    trunc = grow_truncation(2, 2, 3)
    h = HeightForm((Fraction(0),))
    for cell in trunc.complex.cells():
        assert height_eval(trunc, h, cell) == (0, 0)


def test_height_on_tree_apartment():
    p = 2
    trunc = grow_truncation(2, p, 3)
    h = HeightForm((Fraction(-1),))
    base = trunc.base_vertex
    assert vertex_height(trunc, h, base) == 0
    # apartment neighbours sit at heights -+ kappa-value of one edge step
    vals = set()
    for cell in trunc.apartment_cells():
        if len(cell) == 1:
            vals.add(vertex_height(trunc, h, cell[0]))
    assert {Fraction(-1), Fraction(0), Fraction(1)} <= vals


def test_height_equivariance_torus():
    rng = random.Random(41)
    p = 3
    trunc = grow_truncation(2, p, 4)
    h = HeightForm((Fraction(-2),))
    chi = h.equivariant_character(2, p)

    cells = trunc.complex.cells(0)
    for _ in range(20):
        k = rng.randint(-1, 1)
        gamma = h_elem(2, (1,), Fraction(p) ** k)
        value = character_eval(chi, gamma)
        (v,) = rng.choice(cells)
        moved = trunc.act_on_vertex(gamma, v)
        assert vertex_height(trunc, h, moved) == vertex_height(trunc, h, v) + value


def test_height_equivariance_torus_sl3():
    rng = random.Random(43)
    p = 2
    trunc = grow_truncation(3, p, 1)
    h = HeightForm((Fraction(-1), Fraction(-3)))
    chi = h.equivariant_character(3, p)

    cells = trunc.complex.cells(0)
    roots = [(1, 0), (0, 1)]
    for _ in range(20):
        gamma = identity_element(3)
        for r in roots:
            gamma = gamma * h_elem(3, r, Fraction(p) ** rng.randint(-1, 1))
        value = character_eval(chi, gamma)
        (v,) = rng.choice(cells)
        moved = trunc.act_on_vertex(gamma, v)
        assert vertex_height(trunc, h, moved) == vertex_height(trunc, h, v) + value


def test_height_table_extends_to_vertices_numbered_later():
    # the height table is filled first; the torus image of the base vertex
    # leaves the ball and is numbered afterwards
    p = 3
    trunc = grow_truncation(2, p, 2)
    h = HeightForm((Fraction(-2),))
    for (v,) in trunc.complex.cells(0):
        vertex_height(trunc, h, v)
    size = len(trunc.vertices)
    gamma = h_elem(2, (1,), Fraction(p) ** 3)
    moved = trunc.act_on_vertex(gamma, trunc.base_vertex)
    assert moved >= size
    value = character_eval(h.equivariant_character(2, p), gamma)
    assert vertex_height(trunc, h, moved) == height_at(h, trunc.root_values(moved))
    assert vertex_height(trunc, h, moved) == vertex_height(trunc, h, trunc.base_vertex) + value


@pytest.mark.parametrize("p", (2, 3))
def test_superlevel_filtration_of_h_speaks_for_minus_its_character(p):
    # h(g x) = chi(g) + h(x) fixes chi's coefficients to be h's own, c; the
    # superlevel sets of h then decide Sigma^1 for the class of -c: all
    # connected for c = (1), where -c is certain-in, and p^m components at
    # the levels of c = (-1) on the tree of radius 6, where -c is certain-out
    trunc = grow_truncation(2, p, 6)
    ctx = SigmaContext.for_sl(2, (p,))
    for c, b0, kind in (
        ((1,), [0] * 14, CERTAIN_IN),
        ((-1,), [p ** (i // 2) - 1 for i in range(14)], CERTAIN_OUT),
    ):
        h = HeightForm(c)
        levels = sorted({height_eval(trunc, h, v)[0] for v in trunc.complex.cells(0)})
        assert [betti_vector(superlevel_complex(trunc, h, r))[0] for r in levels] == b0
        (coeff,) = h.equivariant_character(2, p).coeffs.values()
        assert (coeff,) == c
        assert sigma_verdict(ctx, (-coeff,), 1).kind == kind
        assert sigma_verdict(ctx, (coeff,), 1).kind != kind


def test_superlevel_monotone_and_bruteforce():
    p = 2
    trunc = grow_truncation(2, p, 3)
    h = HeightForm((Fraction(-1),))
    prev = None
    for r in (-2, -1, 0, 1):
        sub = superlevel_complex(trunc, h, r)
        # oracle: the height of the retraction point in the alcove geometry
        brute = {
            c
            for c in trunc.complex.cells()
            if min(height_value(h, trunc.geometry, trunc.vertex_retraction_point(v)) for v in c) >= r
        }
        assert set(sub.cells()) == brute
        if prev is not None:
            assert set(sub.cells()) <= prev
        prev = set(sub.cells())
    assert superlevel_complex(trunc, h, 10**6).cells() == []


# --- height properties on SL2 p in {2, 3} and SL3 p = 2 --------------------------

HEIGHT_TRUNCATIONS = ((2, 2, 4), (2, 3, 3), (3, 2, 2))


@cache
def height_truncation(n, p, radius):
    return grow_truncation(n, p, radius)


def test_height_filtration_rejects_a_form_of_the_wrong_rank():
    # one coefficient per simple root of SL_n: a form with too few or too
    # many is refused when its filtration is built, before any query
    trunc = height_truncation(3, 2, 2)
    for coeffs in ((-1,), (-1, -2, -3)):
        with pytest.raises(BuildingError, match="coefficient"):
            superlevel_complex(trunc, HeightForm(coeffs), -1)
        with pytest.raises(BuildingError, match="coefficient"):
            height_eval(trunc, HeightForm(coeffs), trunc.complex.cells(0)[0])
        assert HeightForm(coeffs) not in trunc._filtrations
    assert superlevel_complex(trunc, HeightForm((-1, -2)), -1).cells()
    with pytest.raises(BuildingError, match="coefficient"):
        superlevel_complex(height_truncation(2, 2, 4), HeightForm((-1, -1)), 0)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
nonzero_rationals = rationals.filter(bool)


@st.composite
def truncation_and_height(draw):
    n, p, radius = draw(st.sampled_from(HEIGHT_TRUNCATIONS))
    coeffs = tuple(draw(nonzero_rationals) for _ in range(n - 1))
    return height_truncation(n, p, radius), HeightForm(coeffs)


@st.composite
def borel_element(draw, n, p, torus=True):
    """A product of root elements x_alpha(t), t in Z[1/p], and (with torus) of h_alpha(p^k)."""
    g = identity_element(n)
    simple = [tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)]
    positive = simple + ([(1, 1)] if n == 3 else [])
    for _ in range(draw(st.integers(1, 4))):
        if torus and draw(st.booleans()):
            g = g * h_elem(n, draw(st.sampled_from(simple)), Fraction(p) ** draw(st.integers(-2, 2)))
        else:
            t = Fraction(draw(st.integers(-8, 8)), p ** draw(st.integers(0, 2)))
            g = g * x_elem(n, draw(st.sampled_from(positive)), t)
    return g


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_height_equivariance_property(data):
    trunc, h = data.draw(truncation_and_height())
    g = data.draw(borel_element(trunc.n, trunc.p))
    chi = h.equivariant_character(trunc.n, trunc.p)
    (v,) = data.draw(st.sampled_from(trunc.complex.cells(0)))
    moved = trunc.act_on_vertex(g, v)
    assert vertex_height(trunc, h, moved) == vertex_height(trunc, h, v) + character_eval(chi, g)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_retraction_invariant_under_unipotents_property(data):
    # the retraction from the chamber at infinity of the upper-triangular
    # group is constant on orbits of its unipotent radical, also for images
    # that leave the ball
    n, p, radius = data.draw(st.sampled_from(HEIGHT_TRUNCATIONS))
    trunc = height_truncation(n, p, radius)
    u = data.draw(borel_element(n, p, torus=False))
    for cell in trunc.complex.cells():
        assert trunc.retract_cell(trunc.act_on_cell(u, cell)) == trunc.retract_cell(cell)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(((2, 2, 5), (2, 3, 4), (3, 2, 3))), st.data())
def test_retraction_is_idempotent_property(case, data):
    # rho(rho(c)) = rho(c): the standard-apartment cell on the image vertices,
    # found by its diagonal vertices wherever it lies in the ball, retracts to
    # the image key itself
    n, p, max_radius = case
    trunc = height_truncation(n, p, data.draw(st.integers(1, max_radius)))
    g = trunc.geometry
    diagonal = {
        trunc.vertex_retraction_point(v): v
        for (v,) in trunc.complex.cells(0)
        if trunc.in_standard_apartment(v)
    }
    for cell in trunc.complex.cells():
        key = trunc.retract_cell(cell)
        image = tuple(sorted(diagonal[x] for x in vertices(g, key)))
        assert image in trunc.complex
        assert trunc.retract_cell(image) == key


@settings(max_examples=15, deadline=None)
@given(truncation_and_height())
def test_height_of_root_values_is_height_of_retraction_point(case):
    trunc, h = case
    for (v,) in trunc.complex.cells(0):
        assert vertex_height(trunc, h, v) == height_value(h, trunc.geometry, trunc.vertex_retraction_point(v))


@settings(max_examples=15, deadline=None)
@given(truncation_and_height(), st.integers(-3, 3))
def test_height_spec_is_negated_height_form(case, r):
    trunc, h = case
    spec = HeightSpec(trunc.p, tuple(-c for c in h.coeffs))
    assert superlevel_complex(trunc, spec, r).cells() == superlevel_complex(trunc, h, r).cells()


def rebuilt(parent, keys):
    """The subcomplex on keys, built and validated anew from the parent's cells."""
    return CellComplex((c, parent.dim_of(c), parent.facets(c)) for c in keys)


def assert_same_complex(a, b):
    assert a.cells() == b.cells()
    assert a.dim == b.dim
    for c in a.cells():
        assert a.dim_of(c) == b.dim_of(c)
        assert a.facets(c) == b.facets(c)
        assert cofacets(a, c) == cofacets(b, c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_superlevel_complex_is_the_bruteforce_filter(data):
    n, p, radius = data.draw(st.sampled_from(HEIGHT_TRUNCATIONS))
    trunc = height_truncation(n, p, radius)
    h = HeightForm(tuple(data.draw(rationals) for _ in range(n - 1)))
    levels = sorted({height_at(h, trunc.root_values(v)) for (v,) in trunc.complex.cells(0)})
    between = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    r = data.draw(st.sampled_from(levels + between + [levels[0] - 1, levels[-1] + 1]))
    keep = [c for c in trunc.complex.cells() if all(height_at(h, trunc.root_values(v)) >= r for v in c)]
    assert_same_complex(superlevel_complex(trunc, h, r), rebuilt(trunc.complex, keep))


def test_height_filtration_checks_that_facets_come_first():
    # the edge (0, 1) is given the facets (2,) and (3,), which are not its
    # vertices; the filtration rejects them when they enter after the edge
    cx = CellComplex([((2,), 0, ()), ((3,), 0, ()), ((0, 1), 1, [(2,), (3,)])])
    h = HeightForm((1,))
    early = SimpleNamespace(complex=cx, exponents=[(0, 0), (0, 0), (0, 1), (0, 1)])
    assert HeightFiltration(early, h).cells == [(2,), (3,), (0, 1)]
    late = SimpleNamespace(complex=cx, exponents=[(0, 1), (0, 1), (0, 0), (0, 0)])
    with pytest.raises(BuildingError, match="comes after it"):
        HeightFiltration(late, h)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_restrict_is_the_rebuilt_subcomplex(data):
    n, p, radius = data.draw(st.sampled_from(HEIGHT_TRUNCATIONS))
    cx = height_truncation(n, p, radius).complex
    seeds = data.draw(st.lists(st.sampled_from(cx.cells()), max_size=8))
    keys = face_closure(cx, seeds)
    sub = cx.restrict(keys)
    # a subcomplex owns its table of cell dimensions and shares its parent's facets
    assert vars(sub).keys() == {"_dim", "_facets", "_sorted"}
    assert sub._facets is cx._facets and sub._dim is not cx._dim
    ref = rebuilt(cx, keys)
    assert_same_complex(sub, ref)
    # the exports read the shared tables through the subcomplex's own cells
    assert sub.to_json() == ref.to_json()
    assert sub.to_dot() == ref.to_dot()
    # a restriction of a restriction
    inner = face_closure(cx, data.draw(st.lists(st.sampled_from(sorted(keys)), max_size=4)) if keys else [])
    nested, nested_ref = sub.restrict(inner), rebuilt(cx, inner)
    assert_same_complex(nested, nested_ref)
    assert nested.to_json() == nested_ref.to_json()
    assert nested.to_dot() == nested_ref.to_dot()
    # a cell of the parent outside the subcomplex is not one of its cells
    outside = [c for c in cx.cells() if c not in keys]
    if outside:
        cell = data.draw(st.sampled_from(outside))
        for part in (sub, nested):
            for query in (part.facets, partial(cofacets, part), part.dim_of):
                with pytest.raises(KeyError):
                    query(cell)
        with pytest.raises(KeyError):
            sub.restrict(keys | face_closure(cx, [cell]))
    # dropping one facet of a cell of positive dimension breaks face-closure
    top = [c for c in keys if cx.dim_of(c) > 0]
    if top:
        cell = data.draw(st.sampled_from(sorted(top)))
        facet = data.draw(st.sampled_from(sorted(cx.facets(cell))))
        with pytest.raises(ValueError):
            cx.restrict(keys - {facet})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(HEIGHT_TRUNCATIONS), st.data())
def test_retraction_preimage_is_the_bruteforce_filter(case, data):
    # SL_2 at p = 2, 3 and SL_3 at p = 2: raw image sets, which need not have
    # a face-closed preimage, and their closures in the apartment
    trunc = height_truncation(*case)
    images = sorted({trunc.retract_cell(c) for c in trunc.complex.cells()})
    chosen = set(data.draw(st.lists(st.sampled_from(images), max_size=10)))
    if data.draw(st.booleans()):
        chosen = set().union(*(trunc.geometry.closure(c) for c in chosen))
    keep = [c for c in trunc.complex.cells() if trunc.retract_cell(c) in chosen]
    kept = set(keep)
    if all(trunc.complex.facets(c) <= kept for c in keep):
        assert_same_complex(retraction_preimage(trunc, chosen), rebuilt(trunc.complex, keep))
    else:
        with pytest.raises(ValueError):
            retraction_preimage(trunc, chosen)


def test_retraction_preimage_full_and_edge():
    p = 2
    trunc = grow_truncation(2, p, 3)
    g = trunc.geometry
    all_images = {trunc.retract_cell(c) for c in trunc.complex.cells()}
    full = retraction_preimage(trunc, all_images)
    assert len(full.cells()) == len(trunc.complex.cells())
    # one closed apartment edge on the sigma-op side of the base vertex
    edge = next(
        c
        for c in trunc.apartment_cells()
        if len(c) == 2
        and {root_value(g, trunc.vertex_retraction_point(v), 0) for v in c} == {0, -1}
    )
    target = {trunc.retract_cell(edge)}
    for v in edge:
        target.add(trunc.retract_cell((v,)))
    pre = retraction_preimage(trunc, target)
    edges = set(pre.cells(1))
    # independent oracle: the preimage edges are exactly the unipotent
    # translates x(c) . edge over canonical residues c mod p(Z local at p)
    expected = set()
    for s in range(0, 4):
        for m in range(p ** (s + 1)):
            if s > 0 and m % p == 0:
                continue
            u = x_elem(2, (1,), Fraction(m, p**s))
            moved = trunc.act_on_cell(u, edge)
            if moved in trunc.complex:
                expected.add(moved)
    assert edges == expected
    assert edge in edges
    assert len(edges) > 1  # branching on the sigma side of the base vertex


def test_preimage_of_upper_complex_connected():
    # the d = 1 instance of the positive-direction certificate
    p = 2
    trunc = grow_truncation(2, p, 5)
    from sigmabuild.windows import HeightForm, Window, upper_complex

    window = Window(trunc.datum, [-5], [4], trunc.geometry)
    h = HeightForm((Fraction(-1),))
    for r in (-2, -1, 0):
        up = upper_complex(window, h, r)
        pre = retraction_preimage(trunc, up)
        # d = 1: the certificate is (d-2)-connectedness, i.e. nonemptiness
        assert len(pre.cells()) > 0
        # the apartment part of the upper complex is all there
        for cell in up:
            assert cell in {trunc.retract_cell(c) for c in pre.cells()}


def test_common_subsector_of_translated_tips():
    # opposite sectors from two apartment tips share a full sector tail
    p = 2
    trunc = grow_truncation(2, p, 5)
    g = trunc.geometry

    def sector_vertices(tip_exp):
        out = set()
        for cell in trunc.apartment_cells():
            if len(cell) != 1:
                continue
            exps = diagonal_exponents(trunc.vertices[cell[0]], p)
            if exps[0] - exps[1] >= tip_exp:
                out.add(cell)
        return out

    from_base = sector_vertices(0)
    from_shifted = sector_vertices(2)
    common = from_base & from_shifted
    # the intersection contains the whole deeper ray (a subsector)
    assert common == from_shifted
    assert len(common) >= 3


def test_retracted_star_galleries_stay_minimal_sl3():
    # images under the retraction of minimal galleries in a vertex star that
    # end at the projection chamber are minimal galleries of the apartment
    p = 2
    trunc = grow_truncation(3, p, 3)  # the star has spherical diameter 3
    g = trunc.geometry
    sigma = g.base_chamber_at_infinity()
    base_cell = (trunc.base_vertex,)
    star_chambers = sorted(
        c for c in trunc.complex.cells(2) if trunc.base_vertex in c
    )
    assert len(star_chambers) == 21  # flags of F_2^3
    # the projection chamber: the apartment chamber over pr at the retracted vertex
    target_cox = g.project_toward(trunc.retract_cell(base_cell), sigma)
    targets = [c for c in star_chambers if trunc.retract_cell(c) == target_cox
               and all(diagonal_exponents(trunc.vertices[v], p) is not None for v in c)]
    assert len(targets) == 1
    target = targets[0]
    def star_neighbors(c):
        return panel_neighbors(trunc.complex, c) & set(star_chambers)

    dist = gallery_distances(star_neighbors, target)  # BFS distances within the star
    checked = 0
    for start in star_chambers:
        stack = [(start, (start,))]
        while stack:
            cur, path = stack.pop()
            if cur == target:
                checked += 1
                images = [trunc.retract_cell(c) for c in path]
                # the image is a gallery: consecutive images panel-adjacent...
                for a, b in zip(images, images[1:]):
                    assert a != b
                    assert len(g.facets(a) & g.facets(b)) == 1
                # ... and minimal: length equals the wall distance of the ends
                assert len(images) - 1 == g.wall_distance(images[0], images[-1])
                continue
            for nb in star_neighbors(cur):
                if dist.get(nb, -1) == dist[cur] - 1:
                    stack.append((nb, path + (nb,)))
    assert checked >= len(star_chambers)


# --- cone chains ---------------------------------------------------------------


def test_standard_opposite_sector_is_ray():
    trunc = grow_truncation(2, 2, 4)
    cells = standard_opposite_sector_cells(trunc)
    vert_vals = sorted(
        root_value(trunc.geometry, trunc.vertex_retraction_point(c[0]), 0)
        for c in cells
        if len(c) == 1
    )
    assert vert_vals == sorted(-k for k in range(0, 6))


def tree_cone(trunc, h, r):
    sectors = [identity_element(2), x_elem(2, (1,), 1)]
    return cone_chain(trunc, sectors, h, r)


def test_cone_chain_tree():
    p = 2
    trunc = grow_truncation(2, p, 6)
    h = HeightForm((Fraction(-1),))
    cc = tree_cone(trunc, h, 3)
    # branching: base vertex in both sectors, everything else in one
    base_cell = (trunc.base_vertex,)
    assert cc.branching[base_cell] == 2
    assert all(
        b == 1 for cell, b in cc.branching.items() if cell != base_cell
    )
    # the chain is the union of both rays up to height 3: 3 + 3 edges
    assert len(cc.chain.support) == 6
    # non-vanishing boundary: the two extremal vertices
    assert len(cc.boundary.support) == 2
    for v in cc.boundary.support:
        val = vertex_height(trunc, h, v[0])
        assert cc.band[0] <= val <= cc.band[1]


def test_cone_chain_band_certificate():
    p = 2
    trunc = grow_truncation(2, p, 6)
    h = HeightForm((Fraction(-1),))
    for r in (2, 3, 4):
        cc = tree_cone(trunc, h, r)
        assert cc.boundary
        for v in cc.boundary.support:
            val = vertex_height(trunc, h, v[0])
            assert cc.band[0] <= val <= cc.band[1]


def test_cone_chain_p3():
    p = 3
    trunc = grow_truncation(2, p, 5)
    h = HeightForm((Fraction(-1),))
    cc = cone_chain(trunc, [identity_element(2), x_elem(2, (1,), 1)], h, 3)
    assert len(cc.boundary.support) == 2
    base_cell = (trunc.base_vertex,)
    assert cc.branching[base_cell] == 2
    for v in cc.boundary.support:
        val = vertex_height(trunc, h, v[0])
        assert cc.band[0] <= val <= cc.band[1]


def test_cone_chain_not_realizable():
    trunc = grow_truncation(2, 2, 2)
    h = HeightForm((Fraction(-1),))
    with pytest.raises(BuildingError):
        # radius too small to hold the sectors up to the requested level
        cone_chain(trunc, [identity_element(2), x_elem(2, (1,), 1)], h, 10)


def test_negative_direction_certificate():
    p = 2
    trunc = grow_truncation(2, p, 6)
    h = HeightForm((Fraction(-1),))
    r = 4
    cc = tree_cone(trunc, h, r)
    # s is above the lowest chamber of the cone chain, s + t below the band
    s, t = 1, 2
    assert cc.band[0] >= s + t
    small = superlevel_complex(trunc, h, s + t)
    big = superlevel_complex(trunc, h, s)
    # the boundary cycle lives in the small superlevel complex
    for v in cc.boundary.support:
        assert v in small
    big_cc = ChainComplexF2(big)
    assert not big_cc.bounds(cc.boundary)
    ok, witness = induced_map_trivial(small, big, 0)
    assert not ok
    assert witness is not None
