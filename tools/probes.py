"""Asymptotic probes of stjac, each in a fresh process under a wall-clock cap.

    python tools/probes.py                          # the default probes, JSON on stdout
    python tools/probes.py --cap 60 --out probes.json
    python tools/probes.py --only st0:additive:6:3  # one probe
    python tools/probes.py --base HEAD~1 --only st0:additive:420:3
    python tools/probes.py --base HEAD~1 --only st0scan:additive:40
    python tools/probes.py --base HEAD~1 --only st0pool:5
    python tools/probes.py --base HEAD~1 --only st0survey:200

A probe is named KIND:FIELD:..., mostly KIND:FAMILY:D:..., with stjac
imported from the ``src`` next to this script:
- st0:FAMILY:D:C, ``identify_st0`` of y^2 = x^D + C (additive) or
  y^2 = x^D + C*x (linear);
- st0scan:FAMILY:D, ``identify_st0`` of that curve for each of the
  TWISTS = 1, 2, 3, 5, -1, 1/2, -3/5 in turn, in one process: what a
  process that scans the twists of a curve reuses.  ``first_s`` is the
  first (cold) twist's time, ``rest_s`` that of the six warm ones, and
  ``seconds`` their sum;
- st0pool:WARM, ``identify_st0`` of each of the 18 curves of perfbench's
  st0-curves (POOL) with each of the TWISTS, 126 calls in one pass: one
  cold pass, then WARM warm passes in the same process.  Both are CPU time
  (``time.process_time``): ``first_s`` is the cold pass, ``seconds`` the
  WARM warm passes and ``per_call_s`` their time per call, which a
  ``--base`` pair compares without the harness of perfbench.  Every pass
  must name the same tori; ``names_sha256`` is the SHA-256 of their
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
  [3, HI] in one process;
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
x^421 at p = 2521, where k reaches 127; the counts of
x^397+1 at p = 2383 and x^2000+3 at p = 1008001, where the count sums
hundreds of Jacobi sums, and of x^12+3 at 50000017, the first good prime
from 5*10^7, where the O(p) passes dominate; and the sweep of x^9+1 to
10^5, 3*10^5 and 10^6, where the top of the remainder tree grows
quadratically; and the sweeps of the genus-200 x^401+1 and the genus-100
linear x^201+x to 160000, where every prime of the first and about 30 % of
the second lie at or below 4g^2: there the Weil bound leaves the residue
of t_p mod p ambiguous, and the interval of the point count fixes t_p.  A sweep's result holds its moments and the SHA-256 of its
(p, t_p) pairs, so two checkouts can be compared by answer as well as by
time.

With ``--base REV`` each probe is paired: REV's ``src`` is exported with
``git archive`` into a temporary directory, and the repeats alternate
between REV and the working tree's ``src`` (REV first in the first,
third, ... pair), each run in a fresh process, so drift of the machine
falls on both sides.  The record holds each side's fastest run and
largest peak RSS, the ratio change/base of each pair's seconds, their
median and how many pairs favour the change, the same three for each
pair's CPU time (``cpu_ratios``, ``median_cpu_ratio``,
``favour_change_cpu``), and whether both sides gave the same answers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
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
    "count:additive:12:3:50000017",
    "sweep:additive:9:1:100000",
    "sweep:additive:9:1:300000",
    "sweep:additive:9:1:1000000",
    "sweep:additive:401:1:160000",
    "sweep:linear:201:1:160000",
)


REPEATS = 3  # runs of each probe, each in a fresh process

# the fields after KIND of each probe kind
FIELDS = {"st0": 3, "st0scan": 2, "st0pool": 1, "st0survey": 1, "sweep": 4, "count": 4,
          "kernel": 3}

# the twists of an st0scan or st0pool probe, in order
TWISTS = ("1", "2", "3", "5", "-1", "1/2", "-3/5")

# the curves of an st0pool probe: the pool of perfbench's st0-curves
POOL = tuple(("additive", d) for d in (6, 8, 9, 10, 12, 14, 16, 18, 20, 24, 30, 36, 40)) + tuple(
    ("linear", d) for d in (5, 7, 9, 11, 13))

# the keys of a probe's result that are times, not answers
TIMES = {"seconds", "first_s", "rest_s", "per_call_s", "slowest"}


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
    from stjac.pointcount import congruence_modulus, count_formula, curve, trace_sweep
    from stjac.primes import euler_phi
    from stjac.stmatrix import relation_report

    import stjac
    if Path(stjac.__file__).parents[1] != src.resolve():
        raise RuntimeError(f"stjac came from {stjac.__file__}, not from {src}")
    if kind == "st0pool":
        specs = [curve(family, d, Fraction(c)) for family, d in POOL for c in TWISTS]
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
    if kind == "st0scan":
        tids = [identify_st0(curve(family, d, Fraction(TWISTS[0])))]
        first = time.perf_counter() - start
        tids += [identify_st0(curve(family, d, Fraction(c))) for c in TWISTS[1:]]
        seconds = time.perf_counter() - start
        if any(tid != tids[0] for tid in tids):
            raise RuntimeError(f"the twists of {name} name different tori")
        return {"seconds": seconds, "first_s": first, "rest_s": seconds - first,
                "twists": len(tids), "dimension": tids[0].dimension,
                "classes": len(tids[0].classes), "primes_used": list(tids[0].primes_used)}
    if kind == "kernel":
        mat, kern, relations = relation_report(int(fields[2]), d, family)
        kinds = [r.kind for r in relations]
        return {"seconds": time.perf_counter() - start, "rank": kern.rank,
                "saturated": kern.saturated, "columns": len(mat.cols),
                "relations": {k: kinds.count(k) for k in sorted(set(kinds))}}
    spec = curve(family, d, Fraction(fields[2]))
    if kind == "count":
        p = int(fields[3])
        count = count_formula(make_field(p), spec)
        return {"seconds": time.perf_counter() - start, "count": count, "t_p": p + 1 - count}
    if kind == "sweep":
        res = trace_sweep(spec, 3, int(fields[3]))
        seconds = time.perf_counter() - start
        pairs = json.dumps([[s.p, s.t_p] for s in res.samples], separators=(",", ":"))
        return {"seconds": seconds, "moments": res.moments,
                "samples_sha256": hashlib.sha256(pairs.encode()).hexdigest()}
    tid = identify_st0(spec)
    return {"seconds": time.perf_counter() - start, "dimension": tid.dimension,
            "classes": len(tid.classes), "primes_used": list(tid.primes_used)}


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


def measure_fresh(name: str, cap: float, src: Path = SRC) -> dict:
    """``measure`` in a fresh measuring process, so that the peak RSS of its
    children is this run's alone."""
    proc = subprocess.run(
        [sys.executable, __file__, "--measure", name, "--cap", str(cap), "--src", str(src)],
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


def paired(name: str, cap: float, base: Path) -> dict:
    """Alternate up to REPEATS pairs of runs of one probe between the
    ``src`` at ``base`` and this tree's, until a run is not ok."""
    sides = {"base": [], "change": []}
    srcs = {"base": base, "change": SRC}
    for i in range(REPEATS):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            sides[side].append(measure_fresh(name, cap, srcs[side]))
        if any(r[-1]["status"] != "ok" for r in sides.values()):
            break
    base_runs, change_runs = sides["base"], sides["change"]
    ok = [(b, c) for b, c in zip(base_runs, change_runs) if b["result"] and c["result"]]
    ratios = [c["result"]["seconds"] / b["result"]["seconds"] for b, c in ok]
    cpu_ratios = [c["cpu_s"] / b["cpu_s"] for b, c in ok]
    answers = [{k: v for k, v in (r["result"] or {}).items() if k not in TIMES}
               for r in base_runs + change_runs]
    return {
        "probe": name, "cap_s": cap, "pairs": len(base_runs),
        "base": summarize(base_runs), "change": summarize(change_runs),
        "ratios": ratios, "median_ratio": statistics.median(ratios) if ratios else None,
        "favour_change": sum(r < 1 for r in ratios),
        "cpu_ratios": cpu_ratios,
        "median_cpu_ratio": statistics.median(cpu_ratios) if cpu_ratios else None,
        "favour_change_cpu": sum(r < 1 for r in cpu_ratios),
        "same_answers": all(a == answers[0] for a in answers),
    }


def export_src(rev: str, dest: str) -> Path:
    """Write REV's ``src`` into dest with ``git archive``; return its path."""
    repo = SRC.parent
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", default=list(DEFAULT), metavar="PROBE")
    ap.add_argument("--cap", type=float, default=60.0, help="seconds per run of a probe")
    ap.add_argument("--out", default=None, help="also write the JSON here")
    ap.add_argument("--base", default=None, metavar="REV",
                    help="pair each probe's runs between REV's src and this tree's")
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
    with tempfile.TemporaryDirectory(prefix="probes-base-") as tmp:
        base = export_src(args.base, tmp) if args.base else None
        for name in args.only:
            probes.append(paired(name, args.cap, base) if base else repeat(name, args.cap))
            print(json.dumps(probes[-1]), file=sys.stderr)
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "cap_s": args.cap, "probes": probes}
    if args.base:
        doc["base"] = args.base
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
