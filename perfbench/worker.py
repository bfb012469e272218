"""Run one workload in this process and print its raw results as one JSON line.

run.py starts a fresh process for every workload run and for every set-up
sample, so peak RSS (a lifetime high-water mark) and import cost belong to
that workload alone.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads as wl
from probe import ProbeProcess

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class Runner:
    """Turns request dicts into stjac calls.

    Library functions are looked up on their module at call time, so the
    tracer's rebinding applies to the benchmark's own calls too.
    """

    def __init__(self, kind: str):
        from stjac import ffield, groupid, pointcount

        self.kind = kind
        self.ffield, self.groupid, self.pointcount = ffield, groupid, pointcount

    def prepare(self, req: dict) -> tuple:
        spec = self.pointcount.CurveSpec(req["family"], req["d"], Fraction(req["c"]))
        if self.kind == "count":
            return spec, req["p"]
        if self.kind == "sweep":
            return spec, wl.SWEEP_RANGE[0], req.get("hi", wl.SWEEP_RANGE[1])
        return (spec,)

    def call(self, args: tuple):
        if self.kind == "count":
            spec, p = args
            return self.pointcount.count_formula(self.ffield.make_field(p), spec)
        if self.kind == "sweep":
            spec, lo, hi = args
            return self.pointcount.trace_sweep(spec, lo, hi, workers=1)
        return self.groupid.identify_st0(args[0])

    def units(self, out) -> int:
        return len(out.samples) if self.kind == "sweep" else 1


def setup(workload: wl.Workload) -> tuple[float, Runner]:
    """Import stjac from this checkout and run the warm-up request."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stjac

    if Path(stjac.__file__).resolve().parent != SRC / "stjac":
        raise SystemExit(f"perfbench: imported stjac from {stjac.__file__}, not {SRC}")
    runner = Runner(workload.kind)
    runner.call(runner.prepare(workload.warmup))
    return time.perf_counter() - t0, runner


def _timed(fn, *args) -> dict:
    t0 = time.perf_counter()
    try:
        out, error = fn(*args), None
    except Exception as exc:  # a failed request is a result, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    return {"latency_s": time.perf_counter() - t0, "out": out, "error": error}


def measure(runner: Runner, rounds: list[list[tuple]], probe) -> list[dict]:
    """Closed loop: each request starts when the previous one returned.

    The probe runs before the first request and after every request; a
    request's probe_s is the mean of the probes on either side of it.
    """
    results = []
    before = probe.run()
    for r, reqs in enumerate(rounds):
        for args in reqs:
            res = _timed(runner.call, args)
            after = probe.run()
            results.append({"round": r, "probe_s": (before + after) / 2, **res})
            before = after
    return results


def measure_traced(runner: Runner, rounds: list[list[tuple]], tracer):
    """Run every request untraced and traced, alternating which goes first
    so neither side inherits warmer caches; returns (plain, traced)."""
    plain, traced = [], []
    for r, reqs in enumerate(rounds):
        for args in reqs:
            i = len(plain)
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if side:
                    with tracer:
                        res = _timed(tracer.run_request, i, runner.call, args)
                    traced.append({"round": r, **res})
                else:
                    plain.append({"round": r, **_timed(runner.call, args)})
    return plain, traced


def check(runner: Runner, requests: list[dict], results: list[dict]) -> list[str]:
    """Compare every successful output with an independent oracle."""
    ff, pc = runner.ffield, runner.pointcount
    bad = []
    if runner.kind == "count":
        for req, res in zip(requests, results):
            if res["error"] is None:
                spec, p = runner.prepare(req)
                expect = pc.count_bruteforce(ff.make_field(p), spec)
                if res["out"] != expect:
                    bad.append(f"{wl.describe(req)}: formula {res['out']} != brute force {expect}")
    elif runner.kind == "sweep":
        keys = {}
        for req, res in zip(requests, results):
            if res["error"] is not None:
                continue
            key = (req["family"], req["d"], req["c"])
            primes = wl.good_primes(*key, *wl.SWEEP_RANGE)
            samples = res["out"].samples
            if [s.p for s in samples] != primes:
                bad.append(f"{wl.describe(req)}: sampled primes differ from the good primes")
                continue
            spec = runner.prepare(req)[0]
            keys.setdefault(key, (spec, []))[1].append({s.p: s for s in samples})
        # one field per prime, shared by every curve sampled at it
        for p in wl.primes_between(*wl.SWEEP_RANGE):
            fld = None
            for key, (spec, runs) in keys.items():
                if p not in runs[0]:
                    continue
                fld = fld or ff.make_field(p)
                expect = pc.count_bruteforce(fld, spec)
                for by_p in runs:
                    s = by_p[p]
                    if s.count != expect or s.t_p != p + 1 - expect:
                        bad.append(f"{key} p={p}: count {s.count} != brute force {expect}")
    else:
        for req, res in zip(requests, results):
            if res["error"] is not None:
                continue
            out = res["out"]
            key = (req["family"], req["d"])
            expect = (*wl.ST0_PINNED[key], wl.first_generic_primes(*key))
            got = (out.name, out.dimension, tuple(out.primes_used))
            if got != expect:
                bad.append(f"{wl.describe(req)}: {got} != pinned {expect}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    setup_s, runner = setup(workload)
    if args.setup_only:
        with ProbeProcess(workload.probe) as probe:
            setup_probe_s = statistics.median(probe.run() for _ in range(3))
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    rounds = workload.trace_rounds if args.trace else wl.rounds_for(workload, args.seconds)
    sched = wl.schedule(workload, args.seed, rounds)
    prepared = [[runner.prepare(req) for req in reqs] for reqs in sched]
    requests = [req for reqs in sched for req in reqs]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = measure_traced(runner, prepared, tracer)
    else:
        with ProbeProcess(workload.probe) as probe:
            setup_probe_s = statistics.median(probe.run() for _ in range(3))
            plain = measure(runner, prepared, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {
        "setup_s": setup_s,
        "setup_probe_s": None if args.trace else setup_probe_s,
        "rounds": rounds,
        "backend": sys.modules["stjac._accel"].BACKEND,
        "numpy": sys.modules["numpy"].__version__,
        "peak_rss_mb": peak_rss_mb,
    }
    problems = check(runner, requests, plain)

    if tracer is not None:
        for req, a, b in zip(requests, plain, traced):
            if (a["out"], a["error"]) != (b["out"], b["error"]):
                problems.append(f"{wl.describe(req)}: traced output differs from untraced")
        try:
            summary = tracer.summary()
        except AssertionError as exc:
            problems.append(f"trace: {exc}")
            summary = None
        if args.spans_out:
            tracer.dump(args.spans_out)
        overhead = sum(r["latency_s"] for r in traced) / sum(r["latency_s"] for r in plain) - 1
        doc["trace"] = {"summary": summary, "overhead": overhead, "patched": tracer.last_patched}
        plain = traced

    doc["problems"] = problems
    doc["requests"] = [
        {
            "round": res["round"],
            "input": req,
            "latency_s": res["latency_s"],
            "probe_s": res.get("probe_s"),
            "ok": res["error"] is None,
            "error": res["error"],
            "units": runner.units(res["out"]) if res["error"] is None else 0,
        }
        for req, res in zip(requests, plain)
    ]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
