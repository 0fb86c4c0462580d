"""The acceptance gate: every certification criterion at its stated tolerance.

Each test runs one criterion and prints its pass/fail line; criterion 9 runs
the full certification twice and compares the reports byte for byte.  The
positive-direction certificate always runs its SL_3 instance; its connectivity
check is compared with a union-find oracle on the same preimages.
"""

import json
import time
from fractions import Fraction

from geometry_oracle import face_closure

from sigmabuild.acceptance import (
    certify,
    core_connected,
    criterion_building,
    criterion_characters,
    criterion_coxeter,
    criterion_negative_direction,
    criterion_positive_direction,
    criterion_sigma,
    criterion_spherical,
    criterion_steinberg,
)
from sigmabuild.building import grow_truncation, retraction_preimage
from sigmabuild.windows import HeightForm, Window, upper_complex


def _report(entry, elapsed=None, budget=None):
    status = "PASS" if entry["passed"] else "FAIL"
    extra = f"  ({elapsed:.2f}s / budget {budget}s)" if elapsed is not None else ""
    print(f"[{status}] {entry['name']}{extra}")
    if budget is not None:
        assert elapsed <= budget, f"{entry['name']} exceeded its runtime budget"
    return entry["passed"]


def _timed(fn, budget):
    t0 = time.perf_counter()
    entry = fn()
    return entry, time.perf_counter() - t0, budget


def test_criterion_1_steinberg_relations():
    entry, dt, budget = _timed(lambda: criterion_steinberg(seed=42, trials=200), 0.25)
    assert _report(entry, dt, budget)


def test_criterion_2_character_machinery():
    entry, dt, budget = _timed(lambda: criterion_characters(seed=42), 0.25)
    assert _report(entry, dt, budget)


def test_criterion_3_coxeter_window_suite():
    entry, dt, budget = _timed(lambda: criterion_coxeter(seed=42), 1)
    assert entry["details"]["deconstructions_certified"] == 20
    assert _report(entry, dt, budget)


def test_criterion_4_spherical_suite():
    entry, dt, budget = _timed(criterion_spherical, 2)
    # chamber count equals the closed form (q^2+q+1)(q+1) for q = 2
    assert entry["details"]["fano_chambers"] == 21
    assert entry["details"]["thickness"] == [3, 3]
    assert _report(entry, dt, budget)


def test_criterion_5_building_suite():
    # 0.07-0.12 s growing each vertex by a Hermite reduction, 0.04-0.05 s from
    # its neighbours' keys (2-vCPU VM)
    entry, dt, budget = _timed(lambda: criterion_building(seed=42), 0.5)
    assert _report(entry, dt, budget)


def test_criterion_6_negative_direction():
    entry, dt, budget = _timed(criterion_negative_direction, 1)
    assert entry["details"]["boundary_nonzero"]
    assert entry["details"]["boundary_in_band"]
    assert entry["details"]["induced_map_nontrivial"]
    assert _report(entry, dt, budget)


def test_criterion_7_positive_direction():
    entry, dt, budget = _timed(criterion_positive_direction, 2)
    assert entry["details"]["sl3_cases"] == 15
    assert entry["details"]["sl3_preimages_connected_with_margin"] is True
    assert _report(entry, dt, budget)


def union_find_core_connected(trunc, pre, depth):
    """Every cell of `pre` within `depth` lies in the component of the base vertex."""
    parent = {c: c for c in pre.cells()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in parent:
        for f in pre.facets(c):
            parent[find(c)] = find(f)
    base = (trunc.base_vertex,)
    if base not in parent:
        return False
    return all(find(c) == find(base) for c in parent if trunc.cell_distance[c] <= depth)


def test_core_connected_matches_union_find():
    # the 15 SL_3 preimages of the positive-direction certificate, depth 3 - 1
    trunc = grow_truncation(3, 2, 3)
    window = Window(trunc.datum, [-4, -4], [3, 3], trunc.geometry)
    reachable = frozenset(trunc.retract_cell(c) for c in trunc.complex.cells())
    cases = 0
    for lam in [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -2)]:
        h = HeightForm(tuple(Fraction(x) for x in lam))
        for r in (-4, -3, -2):
            pre = retraction_preimage(trunc, upper_complex(window, h, r) & reachable)
            assert core_connected(trunc, pre, 2) == union_find_core_connected(trunc, pre, 2)
            cases += 1
    assert cases == 15
    # planted: the closed base chamber plus one vertex off it, isolated
    base_chamber = next(c for c, d in trunc.chambers.items() if d == 0)
    closed = face_closure(trunc.complex, [base_chamber])
    far = next(c for c in trunc.complex.cells(0) if trunc.cell_distance[c] == 2)
    pre = trunc.complex.restrict(closed | {far})
    # the vertex is in the depth-2 core, but outside the depth-1 one
    for depth, expected in ((2, False), (1, True)):
        assert union_find_core_connected(trunc, pre, depth) is expected
        assert core_connected(trunc, pre, depth) is expected
    # planted: a connected chamber without the base vertex
    other = next(c for c in trunc.chambers if trunc.base_vertex not in c)
    pre = trunc.complex.restrict(face_closure(trunc.complex, [other]))
    assert union_find_core_connected(trunc, pre, 2) is False
    assert core_connected(trunc, pre, 2) is False


def test_criterion_8_sigma_reproduction():
    entry, dt, budget = _timed(criterion_sigma, 1)
    assert _report(entry, dt, budget)


def test_criterion_9_certify_determinism():
    first = certify(suite="all", seed=42, with_timings=False)
    second = certify(suite="all", seed=42, with_timings=False)
    b1 = json.dumps(first, sort_keys=True).encode()
    b2 = json.dumps(second, sort_keys=True).encode()
    assert b1 == b2
    assert first["passed"]
    print("[PASS] certify-determinism (byte-identical reports)")
