"""One benchmark process: set up, report ready, run one pass, report the result.

    python3 perfbench/worker.py <workload> <seed> <setup|pass|traced> [spans-file]

Set-up is the interpreter start, `import sigmabuild.cli` (which imports every
module) from the checkout's `src/`, and the seeded input generation.  The
worker then prints "ready".  A `setup` worker then times the calibration
kernel (see session.py) once and exits.  Otherwise the worker runs one pass
and prints one JSON line: the wall time of the timed operations, each
operation's latency and problems, the kernel times, peak RSS, an output digest
and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# traced operations run slower; their limit grows by this factor
TRACED_LIMIT_SCALE = 10.0


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sigmabuild.cli  # noqa: F401  (imports every module: part of set-up)

    if Path(sigmabuild.__file__).resolve().parent != src / "sigmabuild":
        raise SystemExit(f"sigmabuild imported from {sigmabuild.__file__}, not {src}")
    from session import Session, kernel_seconds
    from workloads import WORKLOADS

    generate, run = WORKLOADS[workload]
    inputs = generate(seed)
    print("ready", flush=True)
    if mode == "setup":
        print(json.dumps({"kernel_s": [kernel_seconds()]}), flush=True)
        return

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    session = Session(tracer, TRACED_LIMIT_SCALE if tracer else 1.0)
    run(inputs, session)
    out = session.result()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        import layers

        out["layers"] = layers.compute(tracer.summary(), tracer.counters)
        out["spans"] = tracer.span_count()
        if len(argv) > 3:
            tracer.write(argv[3])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
