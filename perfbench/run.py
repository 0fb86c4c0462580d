"""sigmabuild benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; sigmabuild is imported from its `src/`.
Every pass runs in a fresh worker process (see worker.py) until --seconds
have passed.  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of traced passes, which alternate with untraced ones to
give the tracing overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from session import REFERENCE_KERNEL_S  # noqa: E402

WORKLOADS = ("certify", "tree-homology", "verdict", "alcove")
SETUP_SPAWNS = 8  # set-up samples per run at least, one per pass included
DEADLINE_S = 165  # no pass may start that would end after this


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, mode, timeout, spans=None):
    """Run one worker; return (set-up seconds, its parsed result line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if spans:
        cmd.append(str(spans))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    # set-up time at the reference host speed, by the kernel timed right after it
    return setup * REFERENCE_KERNEL_S / result["kernel_s"][0], result


def tail(samples):
    """(percentile, value): the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists and the maximum
    is reported as p100.
    """
    s = sorted(samples)
    if len(s) < 11:
        return 100.0, s[-1]
    return 100.0 * (len(s) - 10) / len(s), s[-11]


def measure(args):
    """Run passes while the next one would end by --seconds plus half a pass.

    Untraced runs also start set-up-only workers, one before each pass and
    more at the end, so set-up samples spread over the whole run.  All times
    are corrected for host speed (see session.py).
    """
    start = time.perf_counter()
    left = lambda: DEADLINE_S - (time.perf_counter() - start)  # noqa: E731
    setups, plain, traced = [], [], []
    spans = ROOT / ".perfbench" / f"spans-{args.workload}.bin"
    spans.parent.mkdir(exist_ok=True)
    modes = ("pass", "traced") if args.trace else ("setup", "pass")
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            setup, result = spawn(
                args.workload, args.seed, mode, left(), spans if mode == "traced" else None
            )
            setups.append(setup)
            if mode != "setup":
                (traced if mode == "traced" else plain).append(result)
        longest = max(longest, time.perf_counter() - t0)
        # a long pass may overrun --seconds by half its length, so that
        # certify (a 10-15 s pass) gets two passes in a 28 s run
        elapsed = time.perf_counter() - start
        if elapsed + longest / 2 > args.seconds or elapsed + longest > DEADLINE_S:
            break
    while not args.trace and len(setups) < SETUP_SPAWNS:
        setups.append(spawn(args.workload, args.seed, "setup", left())[0])
    return setups, plain, traced


def summarize(args, setups, plain, traced):
    runs = plain + traced
    kinds = [[op[0] for op in r["ops"]] for r in runs]
    problems = [(op[0], p) for r in runs for op in r["ops"] for p in op[2]]
    attempted = sum(len(k) for k in kinds)
    failed = sum(1 for r in runs for op in r["ops"] if op[2])
    consistent = all(k == kinds[0] for k in kinds) and len({r["digest"] for r in runs}) == 1
    if not consistent:
        problems.append(("run", "passes of one seed disagree in their operations or outputs"))
    for kind, p in problems[:10]:
        print(f"FAILED {kind}: {p}", file=sys.stderr)

    walls = [r["wall_s"] for r in plain]
    raw_walls = [r["raw_wall_s"] for r in plain]
    kernel_ms = 1000 * statistics.median(k for r in runs for k in r["kernel_s"])
    lines = [f"{args.workload} seed {args.seed}: {len(plain)} passes, {len(kinds[0])} ops per pass"]
    if not args.trace:
        # one latency per op: its median over the passes, which run identical inputs
        per_op = [1000 * statistics.median(op[1] for op in ops) for ops in zip(*(r["ops"] for r in plain))]
        pct, tail_ms = tail(per_op)
        out = {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (statistics.median(per_op), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
        notes = {
            "wall_s": f"median of {len(plain)} passes; raw {statistics.median(raw_walls):.4f} s",
            "op_p50_ms": f"median of n={len(per_op)} per-op medians",
            "op_tail_ms": f"p{pct:.1f} of n={len(per_op)} per-op medians over {len(plain)} passes",
            "setup_s": f"median of {len(setups)} process starts",
            "peak_rss_mb": f"median of {len(plain)} passes",
        }
    else:
        out = {
            name: (statistics.median(r["layers"][name] for r in traced), unit)
            for name, unit in layers.units().items()
            if not name.startswith("trace.")
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        out["trace.overhead"] = (traced_wall / statistics.median(walls) - 1, "ratio")
        out["trace.spans"] = (statistics.median(r["spans"] for r in traced), "count")
        notes = {"trace.overhead": f"traced wall_s {traced_wall:.4f} s over {len(traced)} passes"}
    lines.append(
        f"times are at the reference host speed: calibration kernel {1000 * REFERENCE_KERNEL_S:g} ms"
        f" (measured here: median {kernel_ms:.3f} ms)"
    )
    for name, (value, unit) in out.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:42s} {value:14.6g} {unit}{note}")
    lines.append(
        f"{'error_rate':42s} {failed / attempted:14.6g}   ({failed} failed / {attempted} attempted)"
    )
    print("\n".join(lines))
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sigmabuild" / "__init__.py").is_file():
        print(f"no sigmabuild sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = summarize(args, *measure(args))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
