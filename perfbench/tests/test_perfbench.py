"""Self-tests of the benchmark: its output checks, its tracer and its metric list.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def traced_pass(workload, spans, seed=1):
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "traced", str(spans)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


# --- output checks reject wrong answers ---------------------------------------------


def test_verdict_check_rejects_flipped_kind():
    from sigmabuild.sigma import SigmaContext, finiteness_type, sigma_verdict

    flipped = {
        checks.CERTAIN_IN: checks.CERTAIN_OUT,
        checks.CERTAIN_OUT: checks.CERTAIN_IN,
        checks.CONJECTURAL_IN: checks.CERTAIN_IN,
    }
    seen = set()
    for inst in workloads.gen_verdict(3):
        if inst["op"] in seen or inst["op"] == "f-infinity" and len(inst["positive"]) > 6:
            continue
        seen.add(inst["op"])
        ctx = SigmaContext.for_sl(inst["n"], inst["primes"])
        if inst["op"] == "character":
            verdict = sigma_verdict(ctx, inst["chi"], inst["k"])
        else:
            verdict = finiteness_type(ctx, inst["generators"], inst["k"])
        assert checks.verdict(inst, verdict) == []
        wrong = dataclasses.replace(verdict, kind=flipped[verdict.kind])
        assert checks.verdict(inst, wrong)
    assert seen == {"f-infinity", "support", "character"}


def test_support_check_rejects_a_witness_outside_the_span():
    from sigmabuild.sigma import SigmaContext, finiteness_type

    inst = next(
        i
        for i in workloads.gen_verdict(5)
        if i["op"] == "support" and len(i["generators"]) > 1 and sum(map(bool, i["planted"])) == 2
    )
    verdict = finiteness_type(SigmaContext.for_sl(inst["n"], inst["primes"]), inst["generators"], inst["k"])
    assert checks.verdict(inst, verdict) == []
    first = next(i for i, c in enumerate(verdict.witness) if c)
    moved = tuple(c + (i == first) for i, c in enumerate(verdict.witness))
    assert checks.verdict(inst, dataclasses.replace(verdict, witness=moved))


@pytest.mark.parametrize("n, p, radius, coeffs", [(2, 2, 3, (1,)), (3, 2, 2, (1, 2))])
def test_superlevel_check_rejects_off_by_one_betti(n, p, radius, coeffs):
    from sigmabuild.building import HeightSpec, grow_truncation, superlevel_complex
    from sigmabuild.homology import betti_vector, induced_map_trivial

    trunc = grow_truncation(n, p, radius)
    assert checks.truncation(trunc, n, p, radius) == []
    spec = HeightSpec(p, tuple(Fraction(c) for c in coeffs))
    big = superlevel_complex(trunc, spec, 1)
    small = superlevel_complex(trunc, spec, 2)
    betti = betti_vector(big)
    trivial, witness = induced_map_trivial(small, big, 0)
    assert checks.superlevel(n, big, small, betti, 0, trivial, witness) == []
    for d in range(len(betti)):
        for delta in (1, -1):
            off = list(betti)
            off[d] += delta
            assert checks.superlevel(n, big, small, off, 0, trivial, witness), (d, delta)
    assert checks.superlevel(n, big, small, betti, 0, not trivial, witness)


def test_certify_check_rejects_one_changed_byte():
    from sigmabuild.acceptance import certify
    from sigmabuild.complexes import dumps_json

    report = certify("all", 42)
    body = (dumps_json(report) + "\n").encode()
    assert checks.certify_report(report, body, 42) == []
    for i in (0, len(body) // 2, len(body) - 1):
        changed = body[:i] + bytes([body[i] ^ 1]) + body[i + 1:]
        assert checks.certify_report(report, changed, 42)


# --- tracer ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["tree-homology", "verdict"])
def test_traced_counts_repeat_and_self_times_fit_in_wall(workload, tmp_path):
    from tracer import read_spans

    first = traced_pass(workload, tmp_path / "first.bin")
    second = traced_pass(workload, tmp_path / "second.bin")
    names, spans = read_spans(tmp_path / "first.bin")
    assert len(spans) == first["spans"]
    # every span ends after it starts and lies inside its parent
    for name, parent, start, end in spans:
        assert start <= end and name < len(names)
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
    counted = [
        name
        for name, unit, _, _ in layers.METRICS
        if name.endswith(".calls") or name in ("building.chambers", "building.cells")
    ]
    assert {n: first["layers"][n] for n in counted} == {n: second["layers"][n] for n in counted}
    assert any(first["layers"][n] for n in counted)
    for result in (first, second):
        # self times are raw seconds, so they are compared with the raw wall time
        total_self = sum(result["layers"][f"{layer}.self_s"] for layer in layers.LAYERS)
        assert 0 < total_self <= result["raw_wall_s"]


def test_tracer_rebinds_aliases_and_patches_methods():
    from tracer import Tracer

    import sigmabuild.coxeter
    import sigmabuild.linalg
    import sigmabuild.sigma

    # wrappers pass calls straight through while the tracer is disabled, so
    # installing them here leaves the other tests of this process unaffected
    saved = sigmabuild.linalg.feasible_point
    tracer = Tracer()
    tracer.install()
    assert sigmabuild.coxeter.feasible_point is sigmabuild.linalg.feasible_point
    assert sigmabuild.sigma.feasible_point is sigmabuild.linalg.feasible_point
    assert sigmabuild.linalg.feasible_point is not saved
    assert "linalg.dot" not in tracer.names
    tracer.enabled = True
    sigmabuild.sigma.finiteness_type(sigmabuild.sigma.SigmaContext.for_sl(3, (5,)), [(1, -1)], 2)
    tracer.enabled = False
    summary = tracer.summary()
    assert summary["sigma.finiteness_type"]["calls"] == 1
    assert summary["linalg.feasible_point"]["calls"] == 4
    assert tracer.counters["sigma.finiteness_type.feasible_point"] == 4
    assert tracer.span_count() == sum(v["calls"] for v in summary.values())


# --- metric list and BENCHMARK.json agree ------------------------------------------


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [m[:3] for m in layers.METRICS] + list(layers.TRACE_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"
    ]


def test_session_scales_times_by_the_interpolated_kernel_time():
    from session import REFERENCE_KERNEL_S, Session

    s = Session()
    s.kernel = [(0.0, REFERENCE_KERNEL_S), (10.0, 2 * REFERENCE_KERNEL_S)]
    s.ops = [("a", 4.0, 2.0, []), ("b", 20.0, 1.0, ["wrong"])]
    s.calibrate = lambda force=False: None
    result = s.result()
    # midpoint 5.0: the host ran at 1/1.5 of the reference speed
    assert [op[0] for op in result["ops"]] == ["a", "b"]
    assert [op[1] for op in result["ops"]] == pytest.approx([2.0 / 1.5, 0.5])
    assert result["ops"][1][2] == ["wrong"]
    assert result["raw_wall_s"] == 3.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(40))) == (75.0, 29)
    assert run.tail(list(range(8))) == (100.0, 7)
