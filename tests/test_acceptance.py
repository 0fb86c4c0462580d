"""The acceptance gate: every certification criterion at its stated tolerance.

Each test runs one criterion and prints its pass/fail line; criterion 9 runs
the full certification twice and compares the reports byte for byte.  The SL_3
instance of the positive-direction certificate honors SIGMABUILD_SKIP_SL3 (it
is then reported as "not run" rather than passed).
"""

import json
import os
import time

from sigmabuild.acceptance import (
    certify,
    criterion_building,
    criterion_characters,
    criterion_coxeter,
    criterion_negative_direction,
    criterion_positive_direction,
    criterion_sigma,
    criterion_spherical,
    criterion_steinberg,
)

RUN_SL3 = os.environ.get("SIGMABUILD_SKIP_SL3", "") == ""


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
    entry, dt, budget = _timed(lambda: criterion_steinberg(seed=42, trials=200), 2)
    assert _report(entry, dt, budget)


def test_criterion_2_character_machinery():
    entry, dt, budget = _timed(lambda: criterion_characters(seed=42), 2)
    assert _report(entry, dt, budget)


def test_criterion_3_coxeter_window_suite():
    entry, dt, budget = _timed(lambda: criterion_coxeter(seed=42), 20)
    assert entry["details"]["deconstructions_certified"] == 20
    assert _report(entry, dt, budget)


def test_criterion_4_spherical_suite():
    entry, dt, budget = _timed(criterion_spherical, 120)
    # chamber count equals the closed form (q^2+q+1)(q+1) for q = 2
    assert entry["details"]["fano_chambers"] == 21
    assert entry["details"]["thickness"] == [3, 3]
    assert _report(entry, dt, budget)


def test_criterion_5_building_suite():
    entry, dt, budget = _timed(lambda: criterion_building(seed=42), 10)
    assert _report(entry, dt, budget)


def test_criterion_6_negative_direction():
    entry, dt, budget = _timed(criterion_negative_direction, 10)
    assert entry["details"]["boundary_nonzero"]
    assert entry["details"]["boundary_in_band"]
    assert entry["details"]["induced_map_nontrivial"]
    assert _report(entry, dt, budget)


def test_criterion_7_positive_direction():
    entry, dt, budget = _timed(lambda: criterion_positive_direction(run_sl3=RUN_SL3), 60)
    if not RUN_SL3:
        assert entry["details"]["sl3_preimages_connected_with_margin"] == "not run"
        print("[NOT RUN] positive-direction: SL3 instance skipped by flag")
    assert _report(entry, dt, budget)


def test_criterion_8_sigma_reproduction():
    entry, dt, budget = _timed(criterion_sigma, 1)
    assert _report(entry, dt, budget)


def test_criterion_9_certify_determinism():
    first = certify(suite="all", seed=42, run_sl3=RUN_SL3, with_timings=False)
    second = certify(suite="all", seed=42, run_sl3=RUN_SL3, with_timings=False)
    b1 = json.dumps(first, sort_keys=True).encode()
    b2 = json.dumps(second, sort_keys=True).encode()
    assert b1 == b2
    assert first["passed"]
    print("[PASS] certify-determinism (byte-identical reports)")
