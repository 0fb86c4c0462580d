"""F2 chain complexes: boundary formula, reduced Betti numbers, induced maps."""

import gc
import random
import time
import tracemalloc
import weakref
from functools import cache

import pytest
from geometry_oracle import cofacets
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmabuild.building import grow_truncation, height_eval, retraction_preimage, superlevel_complex
from sigmabuild.complexes import CellComplex, simplicial_complex
from sigmabuild.homology import (
    ChainComplexF2,
    F2Chain,
    HomologyError,
    betti_vector,
    bounds,
    induced_map_trivial,
)
from sigmabuild.root_system import build_root_system
from sigmabuild.windows import HeightForm, Window, upper_complex


def graph(n, edges, faces=()):
    """Vertices 0..n-1, the edges ("e", i) on the given vertex pairs, then 2-cells on edge indices."""
    return CellComplex(
        [(("v", i), 0, ()) for i in range(n)]
        + [(("e", i), 1, [("v", a), ("v", b)]) for i, (a, b) in enumerate(edges)]
        + [(("f", j), 2, [("e", i) for i in face]) for j, face in enumerate(faces)]
    )


def path_graph(n):
    return graph(n + 1, [(i, i + 1) for i in range(n)])


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def filled_cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)], [range(n)])


def test_cells_lists_are_copies_of_one_sort():
    cx = filled_cycle(4)
    edges = cx.cells(1)
    assert edges == [("e", i) for i in range(4)]
    edges.clear()
    everything = cx.cells()
    everything.reverse()
    assert cx.cells(1) == [("e", i) for i in range(4)]
    assert cx.cells() == sorted(everything)
    assert cx.cells(3) == []


def test_keys_that_do_not_compare_are_a_value_error():
    # each degree sorts, but a vertex "a" and the edge ("e", 0) do not compare
    cx = CellComplex([("a", 0, ()), ("b", 0, ()), (("e", 0), 1, ["a", "b"])])
    assert (cx.cells(0), cx.cells(1)) == (["a", "b"], [("e", 0)])
    for query in (cx.cells, cx.to_json):
        with pytest.raises(ValueError, match="not totally ordered"):
            query()
    mixed = CellComplex([("a", 0, ()), (0, 0, ())])
    with pytest.raises(ValueError, match="not totally ordered"):
        mixed.cells(0)


def test_simplicial_complex_facets_drop_one_vertex():
    cx = simplicial_complex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    assert cx.dim_of((0, 1, 2)) == 2
    assert cx.facets((0, 1, 2)) == {(1, 2), (0, 2), (0, 1)}
    assert cx.facets((0,)) == frozenset()
    assert cofacets(cx, (0,)) == {(0, 1), (0, 2)}
    assert betti_vector(cx) == [0, 0, 0]
    with pytest.raises(ValueError):
        simplicial_complex([(0, 1)])  # not face-closed


def test_boundary_single_edge():
    cx = path_graph(1)
    cc = ChainComplexF2(cx)
    b = cc.boundary(F2Chain(1, {("e", 0)}))
    assert b.support == {("v", 0), ("v", 1)}


def test_boundary_hexagon_cycle_vanishes():
    cc = ChainComplexF2(cycle_graph(6))
    z = F2Chain(1, {("e", i) for i in range(6)})
    assert not cc.boundary(z)


def test_betti_two_points():
    cx = CellComplex([("a", 0, ()), ("b", 0, ())])
    assert betti_vector(cx)[0] == 1  # reduced


def test_betti_hexagon():
    cx = cycle_graph(6)
    assert betti_vector(cx) == [0, 1]


def test_betti_path_contractible():
    assert betti_vector(path_graph(5)) == [0, 0]


def test_betti_filled_hexagon():
    assert betti_vector(filled_cycle(6)) == [0, 0, 0]


def test_boundary_of_boundary_checked():
    cx = graph(3, [(0, 1), (1, 2), (0, 2)], [range(3)])
    ChainComplexF2(cx)  # no assertion error
    assert betti_vector(cx) == [0, 0, 0]


def test_betti_independent_of_insertion_order():
    rng = random.Random(4)
    edges = [(i, (i + 1) % 6) for i in range(6)]
    for _ in range(5):
        perm = edges[:]
        rng.shuffle(perm)
        cx = CellComplex(
            [(("v", i), 0, ()) for i in range(6)] + [(("e", a, b), 1, [("v", a), ("v", b)]) for a, b in perm]
        )
        assert betti_vector(cx) == [0, 1]


def test_induced_map_trivial_equal_contractible():
    cx = path_graph(4)
    for k in range(2):
        ok, _ = induced_map_trivial(cx, cx, k)
        assert ok


def test_induced_map_hexagon_in_filled():
    small = cycle_graph(6)
    big = filled_cycle(6)
    ok, _ = induced_map_trivial(small, big, 1)
    assert ok
    # inside itself the hexagon cycle does not bound
    ok, witness = induced_map_trivial(small, small, 1)
    assert not ok
    assert len(witness.support) == 6


def test_induced_map_degree0_components():
    # two points in a path: the difference cycle bounds once they are connected
    big = path_graph(3)
    small = CellComplex([(("v", 0), 0, ()), (("v", 3), 0, ())])
    ok, _ = induced_map_trivial(small, big, 0)
    assert ok
    # but not inside the disconnected complex itself
    ok, witness = induced_map_trivial(small, small, 0)
    assert not ok
    assert witness.support == {("v", 0), ("v", 3)}


def test_induced_map_monotone_under_enlargement():
    rng = random.Random(12)
    # nested triples: small cycle, cycle + chord, filled
    small = cycle_graph(4)
    mid = cycle_graph(4)
    big = filled_cycle(4)
    t_mid, _ = induced_map_trivial(small, mid, 1)
    t_big, _ = induced_map_trivial(small, big, 1)
    assert (not t_mid) or t_big  # enlarging can only turn false into true


def other_edge():
    # the edge key ("e", 0) joins v0 and v2 here, but v0 and v1 in path_graph(2)
    return CellComplex([(("v", 0), 0, ()), (("v", 2), 0, ()), (("e", 0), 1, [("v", 0), ("v", 2)])])


@pytest.mark.parametrize("small", [other_edge, lambda: path_graph(3)], ids=["other-facets", "missing-cell"])
def test_induced_map_rejects_a_small_complex_that_is_not_a_subcomplex(small):
    for k in range(2):
        with pytest.raises(HomologyError, match="not a cell of the big one"):
            induced_map_trivial(small(), path_graph(2), k)


def test_chain_complex_numbers_each_degree_in_the_given_order():
    cx = filled_cycle(4)
    order = [("f", 0)] + [("e", i) for i in (2, 0, 3, 1)] + [("v", i) for i in (3, 1, 0, 2)]
    cc = ChainComplexF2(cx, order=order)
    assert cc.cells == {0: [("v", i) for i in (3, 1, 0, 2)], 1: [("e", i) for i in (2, 0, 3, 1)], 2: [("f", 0)]}
    assert [cc.betti(k, cc.lengths) for k in range(3)] == [0, 0, 0]
    assert cc.boundary(F2Chain(2, {("f", 0)})).support == {("e", i) for i in range(4)}
    for bad in (order[1:], order + [("v", 0)], order[:-1] + [("v", 9)]):
        with pytest.raises(HomologyError):
            ChainComplexF2(cx, order=bad)
    # prefixes: the open square, the square less edge e1, and two vertices
    assert [cc.betti(k, (4, 4)) for k in range(2)] == [0, 1]
    assert [cc.betti(k, (4, 3)) for k in range(2)] == [0, 0]
    assert cc.betti(0, (2,)) == 1
    assert cc.prefix_map_trivial((4, 4), (4, 4, 1), 1) == (True, None)
    trivial, witness = cc.prefix_map_trivial((4, 4), (4, 4), 1)
    assert not trivial and witness.support == {("e", i) for i in range(4)}
    with pytest.raises(HomologyError, match=r"cell \('e', 1\) of the small complex"):
        cc.prefix_map_trivial((4, 4), (4, 3), 0)


def test_degree_zero_reduction_keeps_no_kernel_combos():
    # every vertex's column is the augmentation 1, so the combo of kernel
    # column j is bit j plus bit 0: kept, 30,000 isolated vertices would
    # hold about 60 MB of combos
    cx = graph(30_000, [])
    tracemalloc.start()
    try:
        assert betti_vector(cx) == [29_999]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# --- laws of the cached column reduction on truncation and window complexes ---

TRUNCATIONS = ((2, 2, 3), (2, 3, 2), (3, 2, 2))
WINDOWS = (("A", 2), ("C", 1))


@cache
def sample_complexes():
    """Truncations, a mid-level superlevel complex of each, and two alcove windows."""
    out = []
    for n, p, radius in TRUNCATIONS:
        trunc = grow_truncation(n, p, radius)
        h = HeightForm((-1,) * (n - 1))
        levels = sorted({height_eval(trunc, h, v)[0] for v in trunc.complex.cells(0)})
        out.append(ChainComplexF2(trunc.complex))
        out.append(ChainComplexF2(superlevel_complex(trunc, h, levels[len(levels) // 2])))
    for family, radius in WINDOWS:
        out.append(ChainComplexF2(Window.radius(build_root_system(family, 2), radius).complex()))
    return out


def test_sample_complexes_have_homology():
    assert any(any(cc.betti(k, cc.lengths) for k in range(cc.top + 1)) for cc in sample_complexes())


def kernel_basis(cc, k):
    """A basis of the k-cycles of a chain complex (reduced: degree 0 uses the
    augmentation), from a column reduction of its boundary rows."""
    pivots, basis = {}, []
    for j, col in enumerate(cc.bnd[k]):
        combo = 1 << j
        while col and col.bit_length() - 1 in pivots:
            row, used = pivots[col.bit_length() - 1]
            col, combo = col ^ row, combo ^ used
        if col:
            pivots[col.bit_length() - 1] = col, combo
        else:
            basis.append(cc.from_bits(k, combo))
    return basis


def test_kernel_basis_size_and_cycles():
    for cc in sample_complexes():
        for k in range(cc.top + 1):
            basis = kernel_basis(cc, k)
            assert len(basis) == len(cc.cells[k]) - cc.rank(k, cc.lengths)
            for z in basis:
                if k == 0:
                    assert len(z.support) % 2 == 0  # reduced: the augmentation vanishes
                else:
                    assert not cc.boundary(z)


def test_reduced_euler_characteristic():
    for cc in sample_complexes():
        chi = -1 + sum((-1) ** k * len(cc.cells[k]) for k in range(cc.top + 1))
        assert chi == sum((-1) ** k * cc.betti(k, cc.lengths) for k in range(cc.top + 1))


# --- induced maps against the two-complex reference ------------------------------


def reference_induced_map(small, big, k):
    """Reduce small's own chain complex, then test each of its cycles in big's."""
    small_cc = ChainComplexF2(small)
    if k > small_cc.top:
        return True, None
    big_cc = ChainComplexF2(big)
    for cycle in kernel_basis(small_cc, k):
        if not big_cc.bounds(cycle, big_cc.lengths):
            return False, cycle
    return True, None


def assert_valid_witness(small, big, k, witness):
    """An independent check: a k-cycle of small (facet parity) that does not bound in big."""
    assert witness.dim == k and witness.support
    assert all(c in small and small.dim_of(c) == k for c in witness.support)
    parity = {}
    for c in witness.support:
        for f in small.facets(c) if k else ("augmentation",):
            parity[f] = parity.get(f, 0) ^ 1
    assert not any(parity.values())
    big_cc = ChainComplexF2(big)
    assert not big_cc.bounds(witness, big_cc.lengths)


def count_builds(monkeypatch):
    """Record the complex and the order of every ChainComplexF2 built from now on."""
    builds = []
    init = ChainComplexF2.__init__

    def counting_init(self, complex_, order=None):
        builds.append((complex_, order))
        init(self, complex_, order)

    monkeypatch.setattr(ChainComplexF2, "__init__", counting_init)
    return builds


def levels_of(trunc, h):
    return sorted({height_eval(trunc, h, v)[0] for v in trunc.complex.cells(0)})


SUPERLEVEL_TRUNCATIONS = ((2, 2, 6, (-1,)), (2, 3, 4, (-1,)), (3, 2, 3, (-1, -2)), (3, 2, 3, (-1, -1)))


@pytest.mark.parametrize("n, p, radius, coeffs", SUPERLEVEL_TRUNCATIONS)
def test_induced_map_matches_reference_on_superlevel_pairs(monkeypatch, n, p, radius, coeffs):
    trunc = grow_truncation(n, p, radius)
    h = HeightForm(coeffs)
    complexes = [superlevel_complex(trunc, h, r) for r in levels_of(trunc, h)]
    verdicts = set()
    with monkeypatch.context() as m:
        builds = count_builds(m)
        got = {
            (i, j, k): induced_map_trivial(small, big, k)
            for i, big in enumerate(complexes)
            for j, small in enumerate(complexes[i:], i)
            for k in range(n)
        }
    # one chain complex for the truncation and the form, in filtration order,
    # built on the first query; none per superlevel complex or per query
    assert builds == [(trunc.complex, trunc.height_filtration(h).cells)]
    for (i, j, k), (trivial, witness) in got.items():
        small, big = complexes[j], complexes[i]
        assert trivial == reference_induced_map(small, big, k)[0]
        if trivial:
            assert witness is None
        else:
            assert_valid_witness(small, big, k, witness)
        verdicts.add(trivial)
    # both verdicts occur, so witnesses were checked too
    assert verdicts == {True, False}


def test_betti_and_induced_map_share_one_chain_complex(monkeypatch):
    trunc = grow_truncation(2, 3, 3)
    h = HeightForm((-1,))
    builds = count_builds(monkeypatch)
    big = superlevel_complex(trunc, h, -1)
    small = superlevel_complex(trunc, h, 1)
    assert builds == []  # recording a prefix builds nothing
    assert betti_vector(big) == [2, 0]
    for k in (0, 1):
        induced_map_trivial(small, big, k)
    assert betti_vector(small) == [8, 0]
    assert builds == [(trunc.complex, trunc.height_filtration(h).cells)]
    # the chain complex lives with the filtration, not with the superlevel
    # complexes, and their prefix records do not keep them alive
    builds.clear()
    ref = weakref.ref(big)
    del big
    gc.collect()
    assert ref() is None
    assert betti_vector(superlevel_complex(trunc, h, -1)) == [2, 0]
    assert builds == []


# --- the persistent reduction against one chain complex per superlevel complex ----

CROSS_CHECK_TRUNCATIONS = ((2, 2, 5), (2, 3, 3), (3, 2, 2), (3, 3, 1))
# per rank: all-negative, one positive coefficient, one zero coefficient (flat edges)
CROSS_CHECK_HEIGHTS = {2: ((-1,), (1,), (0,)), 3: ((-1, -2), (1, -2), (0, -1))}


@pytest.mark.parametrize("n, p, radius", CROSS_CHECK_TRUNCATIONS)
def test_persistent_reduction_matches_per_level_chain_complexes(n, p, radius):
    trunc = grow_truncation(n, p, radius)
    verdicts = set()
    for coeffs in CROSS_CHECK_HEIGHTS[n]:
        h = HeightForm(coeffs)
        complexes = [superlevel_complex(trunc, h, r) for r in levels_of(trunc, h)]
        for cx in complexes:
            cc = ChainComplexF2(cx)
            assert betti_vector(cx) == [cc.betti(k, cc.lengths) for k in range(cc.top + 1)]
        for i, big in enumerate(complexes):
            for small in complexes[i:]:
                for k in range(n):
                    trivial, witness = induced_map_trivial(small, big, k)
                    assert trivial == reference_induced_map(small, big, k)[0]
                    if not trivial:
                        assert_valid_witness(small, big, k, witness)
                    verdicts.add(trivial)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, p, radius", CROSS_CHECK_TRUNCATIONS)
def test_bounds_in_a_prefix_matches_its_own_chain_complex(monkeypatch, n, p, radius):
    trunc = grow_truncation(n, p, radius)
    rng = random.Random(n * 100 + p * 10 + radius)
    answers = set()
    for coeffs in CROSS_CHECK_HEIGHTS[n]:
        h = HeightForm(coeffs)
        complexes = [superlevel_complex(trunc, h, r) for r in levels_of(trunc, h)]
        own = [ChainComplexF2(cx) for cx in complexes]
        for i, big in enumerate(complexes):
            for small_cc in own[i:]:
                for k in range(small_cc.top + 1):
                    cycles = kernel_basis(small_cc, k)
                    chains = cycles + [a + b for a, b in zip(cycles, cycles[1:])]
                    # a chain that need not be a cycle bounds in neither
                    chains.append(F2Chain(k, rng.sample(small_cc.cells[k], min(3, len(small_cc.cells[k])))))
                    with monkeypatch.context() as m:
                        builds = count_builds(m)
                        got = [bounds(big, z) for z in chains]
                    # only the filtration's own chain complex, on the first query
                    assert builds in ([], [(trunc.complex, trunc.height_filtration(h).cells)])
                    assert got == [own[i].bounds(z, own[i].lengths) for z in chains]
                    answers.update(got)
    assert answers == {True, False}


def test_superlevel_map_into_a_smaller_level_is_rejected():
    trunc = grow_truncation(3, 2, 2)
    h = HeightForm((-1, -2))
    levels = levels_of(trunc, h)
    for s, t in ((levels[0], levels[1]), (levels[1], levels[-1])):
        low, high = superlevel_complex(trunc, h, s), superlevel_complex(trunc, h, t)
        for k in range(3):
            with pytest.raises(HomologyError, match="not a cell of the big one"):
                induced_map_trivial(low, high, k)


def general_pairs():
    """(small, big) pairs that are not two prefixes of one filtration: levels
    of two forms, the same level of two identical truncations, and the
    (core, preimage) pairs of certify's SL3 connectivity check, with the
    preimage's cells within the core's depth between them."""
    trunc, twin = grow_truncation(3, 2, 2), grow_truncation(3, 2, 2)
    h, g = HeightForm((-1, -2)), HeightForm((-1, -1))
    pairs = []
    for s in levels_of(trunc, h):
        small = superlevel_complex(trunc, h, s)
        # the same level of an identical truncation, and the whole of it
        pairs.append((small, superlevel_complex(twin, h, s)))
        pairs.append((small, superlevel_complex(twin, h, levels_of(twin, h)[0])))
        # every level of another form that contains it
        for t in levels_of(trunc, g):
            big = superlevel_complex(trunc, g, t)
            if all(c in big for c in small.cells()):
                pairs.append((small, big))
    trunc3 = grow_truncation(3, 2, 3)
    window3 = Window(trunc3.datum, [-4] * 2, [3] * 2, trunc3.geometry)
    for coeffs in ((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -2)):
        for r in (-4, -3, -2):
            pre = retraction_preimage(trunc3, upper_complex(window3, HeightForm(coeffs), r))
            core = pre.restrict(v for v in pre.cells(0) if trunc3.cell_distance[v] <= 2)
            pairs.append((core, pre))
            # and through the cells within the same depth
            mid = pre.restrict(c for c in pre.cells() if trunc3.cell_distance[c] <= 2)
            pairs += [(core, mid), (mid, pre)]
    return pairs


def test_general_pairs_give_the_reference_verdicts_and_witnesses():
    verdicts = set()
    for small, big in general_pairs():
        for k in range(3):
            trivial, witness = induced_map_trivial(small, big, k)
            ref_trivial, ref_witness = reference_induced_map(small, big, k)
            assert trivial == ref_trivial
            if trivial:
                assert witness is None
            else:
                assert witness.support == ref_witness.support
                assert_valid_witness(small, big, k, witness)
            verdicts.add(trivial)
    assert verdicts == {True, False}


def small_first(small, big):
    """Big's cells of each degree, small's first, both sorted."""
    return [
        sorted(small.cells(k)) + sorted(set(big.cells(k)) - set(small.cells(k)))
        for k in range(big.dim + 1)
    ]


def test_chain_complex_builds_per_query(monkeypatch):
    pairs = general_pairs()
    builds = count_builds(monkeypatch)
    # a general pair (a level in its twin, in another form's level, a core
    # in its preimage): big's chain complex, small's cells first
    for small, big in (pairs[0], pairs[2], pairs[-3]):
        builds.clear()
        induced_map_trivial(small, big, 0)
        assert len(builds) == 1 and builds[0][0] is big
        order = builds[0][1]
        by_degree = [[c for c in order if big.dim_of(c) == k] for k in range(big.dim + 1)]
        assert by_degree == small_first(small, big)
    # prefixes of one filtration: only its one chain complex
    trunc = grow_truncation(3, 2, 2)
    h = HeightForm((-1, -2))
    levels = levels_of(trunc, h)
    builds.clear()
    for r in levels:
        induced_map_trivial(superlevel_complex(trunc, h, r), superlevel_complex(trunc, h, levels[0]), 1)
    assert builds == [(trunc.complex, trunc.height_filtration(h).cells)]
    # an unrecorded complex: its own sorted chain complex, once, for every query on it
    builds.clear()
    cx = filled_cycle(6)
    assert betti_vector(cx) == [0, 0, 0]
    assert bounds(cx, F2Chain(1, {("e", i) for i in range(6)}))
    assert induced_map_trivial(cx, cx, 1) == (True, None)
    assert builds == [(cx, None)]


def test_betti_sweep_over_the_levels_of_a_large_tree_budget():
    # SL2 p=2 r12, 32,763 cells: 3.6 s with one chain complex per level
    trunc = grow_truncation(2, 2, 12)
    h = HeightForm((-1,))
    complexes = [superlevel_complex(trunc, h, r) for r in levels_of(trunc, h)]
    assert len(complexes) == 26
    t0 = time.perf_counter()
    bettis = [betti_vector(cx) for cx in complexes]
    assert time.perf_counter() - t0 < 0.5
    # a forest: no cycles, and one more component than b0 at the top level
    assert all(b[1:] in ([], [0]) for b in bettis)
    assert bettis[0] == [0, 0] and bettis[-1] == [len(complexes[-1]) - 1]


def test_superlevel_sweep_over_the_levels_of_a_large_tree_budget():
    # SL2 p=2 r12: 1.65-1.78 s when each restriction re-checked face closure
    # on copied key sets and copied its facet and cofacet dicts; 1.0-1.2 s
    # with one subset test per cell of each prefix, 0.19-0.22 s with the
    # closure checked once, when the filtration is built (2-vCPU VM)
    trunc = grow_truncation(2, 2, 12)
    h = HeightForm((-1,))
    levels = levels_of(trunc, h)
    t0 = time.perf_counter()
    complexes = [superlevel_complex(trunc, h, r) for r in levels]
    assert time.perf_counter() - t0 < 0.5
    assert len(complexes) == 26
    # each level has a vertex at its own height, so the sets strictly shrink
    assert all(len(a) > len(b) for a, b in zip(complexes, complexes[1:]))
    assert len(complexes[0]) == len(trunc.complex)
