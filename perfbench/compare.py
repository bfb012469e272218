"""Compare two sets of untraced benchmark results, workload by workload.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the perfbench/out/*-trace0.json files of one side
(move them aside between the two sets of runs).  For every workload and
end-to-end metric it prints each side's quartiles and the change of the
medians, flagged when it is worse than the metric's bound.  It refuses
(exit 2) to compare runs whose kernel backend differs, since their timings
would measure different code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import metrics

BACKEND_KEYS = ("backend", "numba_importable", "STJAC_BACKEND")


def load(directory: str) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*-trace0.json"))]
    if not runs:
        raise SystemExit(f"compare: no untraced results in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    before, after = load(args.before), load(args.after)
    backends = {json.dumps([r["env"][k] for k in BACKEND_KEYS]) for r in before + after}
    if len(backends) > 1:
        print(f"compare: refusing, the runs differ in backend: {sorted(backends)}", file=sys.stderr)
        return 2
    print(f"{'workload / metric':32} {'before q1 | med | q3':>34} {'after q1 | med | q3':>34} {'change':>8}")
    for workload in sorted({r["workload"] for r in before + after}):
        for name, unit, better, bound in metrics.END_TO_END:
            sides = [[r["metrics"][name] for r in runs if r["workload"] == workload]
                     for runs in (before, after)]
            if not all(sides):
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(sides[0]), quartiles(sides[1])
            change = b2 / a2 - 1
            worse = change if better == "lower" else -change
            flag = f"worse than bound {bound}" if worse > bound else ""
            print(f"{workload + ' / ' + name:32} {a1:10.4g} {a2:10.4g} {a3:10.4g}  "
                  f"{b1:10.4g} {b2:10.4g} {b3:10.4g}  {change:+8.2%} {unit} "
                  f"(n={len(sides[0])}/{len(sides[1])}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
