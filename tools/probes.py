"""Asymptotic probes of stjac, each in a fresh process under a wall-clock cap.

    python tools/probes.py                          # the default probes, JSON on stdout
    python tools/probes.py --cap 60 --out probes.json
    python tools/probes.py --only st0:additive:6:3  # one probe
    python tools/probes.py --only st0pool:5 st0survey:200

A probe is named KIND:FIELD:..., mostly KIND:FAMILY:D:..., with stjac
imported from the ``src`` next to this script:
- st0:FAMILY:D:C, ``identify_st0`` of y^2 = x^D + C (additive) or
  y^2 = x^D + C*x (linear);
- st0pool:WARM, ``identify_st0`` of each of the 18 curves of perfbench's
  st0-curves with each of its twists 1, 2, 3, 5, -1, 1/2, -3/5, both
  read from ``perfbench/workloads.py`` in its order (``st0_pool``), 126
  calls in one pass: what a process that scans the twists reuses; one
  cold pass, then WARM warm passes in the same process.  Both are CPU time
  (``time.process_time``): ``first_s`` is the cold pass, ``seconds`` the
  WARM warm passes and ``per_call_s`` their time per call, which a pair
  compares without the harness of perfbench.  Every pass must name the
  same tori; ``names_sha256`` is the SHA-256 of their
  ``TorusId.to_dict()``s;
- st0survey:D, ``identify_st0`` at c = 3 of every additive x^d + 3 and
  every odd linear x^d + 3x, d in 3..D, in one process: the cold scan over
  d.  ``seconds`` is its CPU time, ``slowest`` the five slowest calls as
  [family, d, CPU seconds], ``names_sha256`` the SHA-256 of every
  ``TorusId.to_dict()`` in order, and ``closed_form_misses`` each
  [family, d, dimension, closed form] whose dimension is not phi(M)/2
  (additive) or phi(M)/4 (linear, d >= 5), M = ``congruence_modulus``:
  reported, never raised;
- sweep:FAMILY:D:C:HI, ``trace_sweep`` of that curve over the primes in
  [3, HI] in one process; C may be a comma list, such as
  sweep:additive:9:1,2,3,5,-1,1/2,-3/5:1000000, whose twists are swept in
  turn in the one process, as a scan over twists runs (``_sweeps``);
- count:FAMILY:D:C:P, ``count_formula`` of that curve at the prime P,
  field included;
- kernel:FAMILY:D:P, ``relation_report`` at P for c = 1, as ``stjac kernel``
  runs it: carry matrix, saturated kernel and the check of each relation.

Each probe runs REPEATS = 3 times, each time as the only child of a fresh
measuring process, which waits for it and reads its peak resident set and
its CPU time (ru_utime + ru_stime) from ``resource.getrusage(RUSAGE_CHILDREN)``,
and its wall time.  ``runs`` records every run's status, wall time, CPU
time and seconds.  When every run is ok the record reports the fastest:
its result, so ``result.seconds`` is the minimum, the least wall time, the
least CPU time and the largest peak.  A run still going at
the cap is killed and ends the repeats; the probe is then recorded with
status "timeout" and the cap as its time: a value, not an error.  A run
that fails ends them too, with status "error".  ``wall_s`` and ``cpu_s``
count the start of the interpreter and the import; ``result.seconds`` is
the probed call.

The default probes are the large-degree walls: st0 of x^420, x^600 and
x^840 (congruence modulus 420, 600, 840) and of the linear x^211 and x^421
(moduli 420 and 840); the kernels of x^420 at p = 421 and of the linear
x^421 at p = 2521, where k reaches 127; the counts of x^397+1 at
p = 2383 and x^2000+3 at p = 1008001, where the count sums hundreds of
Jacobi sums, of x^360+3 at p = 1008001, where M = 360 takes the M x 2
table (M^2 > 2^14), and of x^12+3 at 50000017, the first good prime from
5*10^7, where the O(p) passes dominate; and the sweep of x^9+1 to 10^5,
3*10^5 and 10^6, where the top of the remainder tree grows
quadratically; and the sweeps of the genus-200 x^401+1 and the genus-100
linear x^201+x to 160000, where every prime of the first and about 30 % of
the second lie at or below 4g^2: there the Weil bound leaves the residue
of t_p mod p ambiguous, and the interval of the point count fixes t_p.
A sweep's result holds its moments and the SHA-256 of its (p, t_p)
pairs, so two checkouts can be compared by answer as well as by time; a
comma list of twists holds each twist's seconds and moments, their sum as
``seconds`` and one SHA-256 over the pairs of every twist in order.

``tools/pairs.py --base REV --workload KIND:FIELDS`` pairs one probe
between REV and the working tree, one ``--measure`` run per side and pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import runpy
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFAULT = (
    "st0:additive:420:3",
    "st0:additive:600:3",
    "st0:additive:840:3",
    "st0:linear:211:3",
    "st0:linear:421:3",
    "kernel:additive:420:421",
    "kernel:linear:421:2521",
    "count:additive:397:1:2383",
    "count:additive:2000:3:1008001",
    "count:additive:360:3:1008001",
    "count:additive:12:3:50000017",
    "sweep:additive:9:1:100000",
    "sweep:additive:9:1:300000",
    "sweep:additive:9:1:1000000",
    "sweep:additive:401:1:160000",
    "sweep:linear:201:1:160000",
)


REPEATS = 3  # runs of each probe, each in a fresh process

# the fields after KIND of each probe kind
FIELDS = {"st0": 3, "st0pool": 1, "st0survey": 1, "sweep": 4, "count": 4, "kernel": 3}

# the keys of a probe's result that are times, not answers
TIMES = {"seconds", "first_s", "per_call_s", "slowest", "twist_seconds"}


def st0_pool() -> tuple[tuple, tuple]:
    """The curves and twists of an st0pool probe, in order: the pool of
    perfbench's st0-curves and its ``C_VALUES``, read from
    ``perfbench/workloads.py`` next to this script."""
    workloads = runpy.run_path(str(SRC.parent / "perfbench" / "workloads.py"))
    return workloads["WORKLOADS"]["st0-curves"].curves, workloads["C_VALUES"]


def run_probe(name: str, src: Path = SRC) -> dict:
    """Run one probe in this process, with stjac from ``src``, and return a
    summary of its answer."""
    kind, *fields = name.split(":")
    if FIELDS.get(kind) != len(fields):
        raise ValueError(f"unknown probe kind {kind!r} in {name!r}")
    sys.path.insert(0, str(src))
    from fractions import Fraction

    from stjac.ffield import make_field
    from stjac.groupid import identify_st0
    from stjac.pointcount import congruence_modulus, count_formula, curve
    from stjac.primes import euler_phi
    from stjac.stmatrix import relation_report

    import stjac
    if Path(stjac.__file__).parents[1] != src.resolve():
        raise RuntimeError(f"stjac came from {stjac.__file__}, not from {src}")
    if kind == "st0pool":
        pool, twists = st0_pool()
        specs = [curve(family, d, Fraction(c)) for family, d in pool for c in twists]
        start = time.process_time()
        names = [identify_st0(spec).to_dict() for spec in specs]
        first = time.process_time() - start
        warm = int(fields[0])
        start = time.process_time()
        for _ in range(warm):
            if [identify_st0(spec).to_dict() for spec in specs] != names:
                raise RuntimeError(f"a warm pass of {name} names other tori")
        seconds = time.process_time() - start
        return {"seconds": seconds, "first_s": first, "per_call_s": seconds / (warm * len(specs)),
                "calls": len(specs), "warm_passes": warm,
                "names_sha256": hashlib.sha256(json.dumps(names).encode()).hexdigest()}
    if kind == "st0survey":
        top = int(fields[0])
        specs = [curve("additive", d, 3) for d in range(3, top + 1)] + [
            curve("linear", d, 3) for d in range(3, top + 1, 2)]
        names, times, misses = [], [], []
        for spec in specs:
            start = time.process_time()
            tid = identify_st0(spec)
            times.append([spec.family, spec.d, time.process_time() - start])
            names.append(tid.to_dict())
            phi = euler_phi(congruence_modulus(spec))
            closed = phi // 2 if spec.family == "additive" else phi // 4 if spec.d >= 5 else None
            if closed is not None and tid.dimension != closed:
                misses.append([spec.family, spec.d, tid.dimension, closed])
        return {"seconds": sum(t for *_, t in times), "calls": len(specs),
                "slowest": sorted(times, key=lambda t: -t[2])[:5],
                "names_sha256": hashlib.sha256(json.dumps(names).encode()).hexdigest(),
                "closed_form_misses": misses}
    family, d = fields[0], int(fields[1])
    start = time.perf_counter()
    if kind == "kernel":
        mat, kern, relations = relation_report(int(fields[2]), d, family)
        kinds = [r.kind for r in relations]
        return {"seconds": time.perf_counter() - start, "rank": kern.rank,
                "saturated": kern.saturated, "columns": len(mat.cols),
                "relations": {k: kinds.count(k) for k in sorted(set(kinds))}}
    if kind == "sweep":
        return _sweeps(family, d, fields[2].split(","), int(fields[3]))
    spec = curve(family, d, Fraction(fields[2]))
    if kind == "count":
        p = int(fields[3])
        count = count_formula(make_field(p), spec)
        return {"seconds": time.perf_counter() - start, "count": count, "t_p": p + 1 - count}
    tid = identify_st0(spec)
    return {"seconds": time.perf_counter() - start, "dimension": tid.dimension,
            "classes": len(tid.classes), "primes_used": list(tid.primes_used)}


def _sweeps(family: str, d: int, twists: list[str], top: int) -> dict:
    """``trace_sweep`` of y^2 = x^d + c (or + c*x) over [3, top] for each c
    of ``twists`` in turn, in this process.  One c gives its seconds, its
    moments and the SHA-256 of its [p, t_p] pairs; several give the sum of
    their seconds, each c's seconds (``twist_seconds``) and moments, and
    one SHA-256 of the list of every c's pairs, in order."""
    from fractions import Fraction

    from stjac.pointcount import curve, trace_sweep

    times, moments, pairs = [], [], []
    for c in twists:
        start = time.perf_counter()
        res = trace_sweep(curve(family, d, Fraction(c)), 3, top)
        times.append(time.perf_counter() - start)
        moments.append(res.moments)
        pairs.append([[s.p, s.t_p] for s in res.samples])

    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()

    if len(twists) == 1:
        return {"seconds": times[0], "moments": moments[0], "samples_sha256": digest(pairs[0])}
    return {"seconds": sum(times), "twist_seconds": times, "moments": moments,
            "samples_sha256": digest(pairs)}


def measure(name: str, cap: float, src: Path = SRC) -> dict:
    """Run one probe as the only child of this process, under the cap."""
    start = time.perf_counter()
    record = {"probe": name, "cap_s": cap}
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--run", name, "--src", str(src)],
            capture_output=True, text=True, timeout=cap,
        )
    except subprocess.TimeoutExpired:
        record.update(status="timeout", wall_s=cap, result=None)
    else:
        wall = time.perf_counter() - start
        if proc.returncode:
            error = (proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode])[-1]
            record.update(status="error", wall_s=wall, result=None, error=error)
        else:
            record.update(status="ok", wall_s=wall, result=json.loads(proc.stdout))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in kilobytes on Linux
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    return record


def measure_fresh(name: str, cap: float) -> dict:
    """``measure`` in a fresh measuring process, so that the peak RSS of its
    children is this run's alone."""
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", name, "--cap", str(cap)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def summarize(records: list[dict]) -> dict:
    """The record of the fastest run when every run is ok, else the last."""
    runs = [{"status": r["status"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
             "seconds": r["result"]["seconds"] if r["result"] else None} for r in records]
    if records[-1]["status"] != "ok":
        return {**records[-1], "runs": runs}
    best = min(records, key=lambda r: r["result"]["seconds"])
    return {**best, "wall_s": min(r["wall_s"] for r in records),
            "cpu_s": min(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in records), "runs": runs}


def repeat(name: str, cap: float) -> dict:
    """Measure one probe up to REPEATS times, each in a fresh measuring
    process, until a run is not ok; report the fastest when all are."""
    records = []
    while len(records) < REPEATS and all(r["status"] == "ok" for r in records):
        records.append(measure_fresh(name, cap))
    return summarize(records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", default=list(DEFAULT), metavar="PROBE")
    ap.add_argument("--cap", type=float, default=60.0, help="seconds per run of a probe")
    ap.add_argument("--out", default=None, help="also write the JSON here")
    ap.add_argument("--run", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--measure", default=None, help=argparse.SUPPRESS)
    ap.add_argument("--src", type=Path, default=SRC, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:
        print(json.dumps(run_probe(args.run, args.src)))
        return 0
    if args.measure:
        print(json.dumps(measure(args.measure, args.cap, args.src)))
        return 0
    probes = []
    for name in args.only:
        probes.append(repeat(name, args.cap))
        print(json.dumps(probes[-1]), file=sys.stderr)
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "cap_s": args.cap, "probes": probes}
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
