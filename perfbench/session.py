"""Timing of one pass, corrected for the speed of the host.

The host this benchmark was written on (a 2-vCPU Intel Xeon VM at 2.1 GHz)
drifts by about ±20% in speed over minutes, and CPU time drifts with wall time.
A run of 30 s cannot average that out.  So the session times a fixed
calibration kernel about once a second, between operations and outside their
timed regions.  The kernel uses only the standard library: exact Fraction
arithmetic and tuple-keyed dict inserts, like the program.

Each operation time is then scaled by REFERENCE_KERNEL_S / (the kernel time
interpolated at the operation's midpoint).  Reported times are therefore
seconds at the host speed at which the kernel takes REFERENCE_KERNEL_S.  On
that host, work items of 0.06-0.2 s (FM verdicts, truncation growth, window
builds) were timed between two kernel timings for 100 s.  Their IQR/median
was 0.24-0.32 raw and 0.11-0.12 after scaling.  Raw times are kept beside
the corrected ones.
"""

import hashlib
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# median kernel time on the host above; it only fixes the unit of the output
REFERENCE_KERNEL_S = 0.005
CALIBRATE_EVERY_S = 1.0


def _kernel():
    x = Fraction(0)
    for i in range(1, 700):
        x += Fraction(i, i + 1) * Fraction(3, 7)
    table = {}
    for i in range(10000):
        table[(i, i * 7)] = x
    return table


def kernel_seconds():
    """The kernel's time now: the fastest of three runs, to skip interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Session:
    """Times the operations of one pass; the tracer, if any, records only inside them."""

    def __init__(self, tracer=None, limit_scale=1.0):
        self.tracer = tracer
        self.limit_scale = limit_scale
        self.ops = []  # (kind, start, raw seconds, problems)
        self.kernel = []  # (time, kernel seconds)
        self._digest = hashlib.sha256()

    def calibrate(self, force=False):
        if force or not self.kernel or perf_counter() - self.kernel[-1][0] >= CALIBRATE_EVERY_S:
            seconds = kernel_seconds()
            self.kernel.append((perf_counter(), seconds))

    def call(self, fn, *args):
        """Run fn(*args) timed; return (result, start, seconds, error)."""
        self.calibrate()
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.enabled = False
        return result, t0, dt, error

    def record(self, kind, start, seconds, problems, limit):
        if seconds > limit * self.limit_scale:
            problems = problems + [f"overran its {limit} s limit"]
        self.ops.append((kind, start, seconds, problems))

    def op(self, kind, limit, fn, args, check):
        """One timed operation; check(result) -> problems runs untimed."""
        result, t0, dt, error = self.call(fn, *args)
        problems = [error] if error else check(result)
        self.record(kind, t0, dt, problems, limit)
        return None if error else result

    def digest(self, *values):
        """Fold a summary of an output into the pass digest (same seed, same digest)."""
        self._digest.update(repr(values).encode())

    def kernel_at(self, t):
        """Kernel time interpolated linearly between the calibrations around t."""
        times = [k[0] for k in self.kernel]
        i = bisect_left(times, t)
        if i == 0:
            return self.kernel[0][1]
        if i == len(times):
            return self.kernel[-1][1]
        (ta, ca), (tb, cb) = self.kernel[i - 1], self.kernel[i]
        return ca + (cb - ca) * (t - ta) / (tb - ta)

    def result(self):
        self.calibrate(force=True)
        ops = [
            (kind, dt * REFERENCE_KERNEL_S / self.kernel_at(t0 + dt / 2), problems)
            for kind, t0, dt, problems in self.ops
        ]
        return {
            "wall_s": sum(op[1] for op in ops),
            "raw_wall_s": sum(op[2] for op in self.ops),
            "ops": ops,
            "kernel_s": [k[1] for k in self.kernel],
            "digest": self._digest.hexdigest(),
        }
