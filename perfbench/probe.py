"""Machine-speed probes: fixed reference work timed between requests.

On shared virtual machines CPU speed drifts by tens of percent over seconds
to minutes, and a whole run can land in a slow phase.  So each worker times
a small fixed probe, written here and independent of stjac, before its first
request and after every request.  metrics.calibrated divides a request's
latency by the machine's slowdown at that moment (probe time over its
reference time), giving what it would have taken at reference speed.

Each probe mimics the work its workload spends most time on: the Jacobi-sum
histogram pattern over a dlog-table-sized array (fresh arrays, two gathers,
modular arithmetic, a bincount), exact Fraction polynomial products, or a
mix of both.

The probe runs in its own process, pinned with the worker to one CPU, so
its allocations never reach the worker's peak RSS and it sees the same CPU
the requests ran on:

    python3 perfbench/probe.py KIND    # one timing per line read on stdin
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# timings per reading; a sweep has few, long requests, so each reading counts
REPEATS = {"hist": 1, "frac": 3, "mix": 15}


class Probe:
    def __init__(self, kind: str):
        import numpy as np

        self.np = np
        self.kind = kind
        rng = np.random.default_rng(12345)
        # a dlog-table-sized permutation for count-1e6, a small one for sweeps
        self.table = rng.permutation(1_100_000 if kind == "hist" else 20_000).astype(np.int64)
        self.poly = [Fraction(k * k - 7, 2 * k + 1) for k in range(16)]

    def _hist(self, rounds: int) -> None:
        np, t = self.np, self.table
        n = len(t) - 1
        for a in range(1, rounds + 1):
            x = np.arange(2, n + 1, dtype=np.int64)
            e = (a * t[x] + (n // 2) * t[n + 2 - x]) % n
            np.bincount(e, minlength=n).astype(np.int64)

    def _frac(self, rounds: int) -> None:
        a = self.poly
        for _ in range(rounds):
            prod = [Fraction(0)] * (2 * len(a) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(a):
                    prod[i + j] += ai * bj

    def _once(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "hist":
            self._hist(1)
        elif self.kind == "frac":
            self._frac(2)
        else:
            self._hist(4)
            self._frac(1)
        return time.perf_counter() - t0

    def run(self) -> float:
        """Seconds the probe takes now: the median of REPEATS timings."""
        return statistics.median(self._once() for _ in range(REPEATS[self.kind]))


class ProbeProcess:
    """A Probe in a child process on the worker's CPU; use as a context manager."""

    def __init__(self, kind: str):
        try:  # one CPU for worker and probe: the probe must see the same one
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except (AttributeError, OSError):
            pass
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), kind],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(kind: str) -> None:
    probe = Probe(kind)
    probe.run()  # first-touch and import costs stay out of every timing
    for _ in sys.stdin:
        print(probe.run(), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1])
