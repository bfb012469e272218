"""stjac benchmark: three closed-loop workloads, each checked against an oracle.

    python3 perfbench/run.py --workload count-1e6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Each workload runs in a fresh worker process (worker.py); set-up time is
the median over SETUP_RUNS fresh processes, each importing stjac and running
one warm-up request.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (spans recorded around every public stjac function, see
tracing.py).  The run's inputs, environment and full results are printed
above that line and written to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3
TIME_LIMIT_S = 170  # a run must end within 180 s


def _python(script: Path, args: list[str], deadline: float, echo: bool = False) -> dict:
    """Run a fresh python process and parse its last stdout line as JSON;
    with echo, print the lines before it."""
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {script.name} {' '.join(args)} exited {proc.returncode}")
    *lines, last = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines))
    return json.loads(last)


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return git.stdout.strip() or None


def environment(worker: dict) -> dict:
    """What a result depends on besides the code; compare.py checks backends."""
    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stjac").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "backend": worker["backend"],
        "numba_importable": numba_ok,
        "STJAC_BACKEND": os.environ.get("STJAC_BACKEND"),
    }


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    worker = HERE / "worker.py"
    setup = [
        _python(worker, ["--workload", workload.name, "--setup-only"], deadline)
        for _ in range(SETUP_RUNS - 1)
    ]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    wargs = ["--workload", workload.name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        wargs += ["--spans-out", str(OUT / f"{stem}.spans.json.gz")]
    res = _python(worker, wargs, deadline)
    setup.append({"setup_s": res["setup_s"], "setup_probe_s": res["setup_probe_s"]})
    env = environment(res)
    reqs = res["requests"]
    failed = sum(1 for q in reqs if not q["ok"])

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    for r in range(res["rounds"]):
        line = "; ".join(wl.describe(q["input"]) for q in reqs if q["round"] == r)
        print(f"inputs round {r}: {line}")
    for problem in res["problems"]:
        print(f"CHECK FAILED {problem}")
    for q in reqs:
        if not q["ok"]:
            print(f"failed request {wl.describe(q['input'])}: {q['error']}")

    if args.trace:
        trace = res["trace"]
        values = metrics.per_layer(trace["summary"], trace["overhead"]) if trace["summary"] else {}
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        print(f"{'span':36} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'errors':>6}")
        for name, agg in (trace["summary"] or {"spans": {}})["spans"].items():
            print(f"{name:36} {agg['calls']:>8} {agg['busy_s']:>10.4f} "
                  f"{agg['self_s']:>10.4f} {agg['errors']:>6}")
        print(f"traced bindings ({len(trace['patched'])}): {', '.join(trace['patched'])}")
        raw = None
    else:
        e2e = metrics.end_to_end(reqs, res["rounds"], setup, res["peak_rss_mb"],
                                 wl.PROBE_REFERENCE_S[workload.probe], workload.probe_window)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        values = {name: e2e[name] for name in units}
        raw = {name: e2e["raw"][name] for name in units}
        tail = e2e["_tail"]
        notes = {
            "units_per_s": f"{workload.unit}, median of {res['rounds']} rounds",
            "request_p50_s": f"Harrell-Davis, {tail['samples']} successful requests",
            "request_tail_s": f"p{tail['percentile']:g} (Harrell-Davis), "
                              f"{tail['beyond']} of {tail['samples']} samples beyond",
            "setup_s": f"median of {len(setup)} processes",
            "peak_rss_mb": "ru_maxrss of the worker after the timed loop",
        }
        print(f"{'metric':16} {'calibrated':>12} {'raw':>12}")
        for name in units:
            print(f"{name:16} {values[name]:>12.6g} {raw[name]:>12.6g} "
                  f"{units[name]:5} {notes[name]}")
        print(f"{'failed_frac':16} {e2e['failed_frac']:>12.6g} {'':5} {failed} of {len(reqs)} requests")

    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "setup_samples": setup, "metrics": values,
         "raw_metrics": raw, **res},
        indent=1,
    ))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": len(reqs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process of this script."""
    deadline = time.monotonic() + 3 * TIME_LIMIT_S
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        res = _python(Path(__file__), ["--workload", name, "--seed", str(args.seed),
                                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      deadline, echo=True)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}\n")
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stjac" / "__init__.py").is_file():
        print(f"perfbench: no stjac sources at {ROOT / 'src' / 'stjac'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
