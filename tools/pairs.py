"""Paired perfbench runs of a base revision against this tree, in one JSON schema.

    python tools/pairs.py --base HEAD~1 --workload count-1e6 --pairs 10 --aa 6 --out BENCH.json
    python tools/pairs.py --base HEAD~1 --workload sweep-2e4 --pairs 6 --out BENCH.json
    python tools/pairs.py --base HEAD --workload st0-curves --pairs 4   # A/A: HEAD against HEAD

The base side is REV's ``src`` and ``perfbench``, exported with ``git
archive``; the change side is the same two directories of the working
tree, tracked and untracked files alike, minus what git ignores.  Each
pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once per side, each side in a fresh export, in one of two directories,
``a`` and ``b``, under one temporary root.  The tree in ``a`` runs first,
and the two sides trade directories every pair, so over an even number of
pairs both the side that runs first and the directory each side runs in
alternate.  Pair i takes seed SEED + i.  Then ``--aa M`` pairs run the
base against a second export of the base in the change's place, in the
same way, with seeds SEED + N + j: an A/A series of identical code.

The output holds, per workload, each run's seed, directory, order,
request counts and the SHA-256 of the ``src/stjac`` it imported, and per
end-to-end metric (unit, better direction and bound from BENCHMARK.json):
- each side's calibrated and raw values, run by run;
- the side medians, the base side's IQR and the change of the medians;
- each pair's relative change (change / base - 1), their median and how
  many pairs favour the change;
- the A/A series' pair changes, their median and their range [min, max];
- the verdict: "resolved" when the median pair change lies outside the A/A
  range and the A/A series holds at least as many pairs as the change
  series, "A/A too short" when it lies outside a shorter series' range,
  "not resolved" when it lies inside, "no A/A" without a series;
- the same pair changes, A/A range and verdict on the raw values, and the
  pairs whose calibrated and raw changes favour different sides.

A line per metric on stderr gives both verdicts and those pairs.

With ``--out FILE`` the workload is merged into FILE when it exists (same
schema and base), so one file collects several workloads; ``--probes
FILE`` embeds a ``tools/probes.py --base`` record under "probes".
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "stjac-pairs/1"
TREES = ("src", "perfbench")


def archive_rev(rev: str) -> bytes:
    """REV's ``src`` and ``perfbench`` as a tar."""
    return subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *TREES],
                          capture_output=True, check=True).stdout


def archive_worktree() -> bytes:
    """The working tree's ``src`` and ``perfbench`` as a tar, without ignored files."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard",
         *TREES], capture_output=True, check=True).stdout.decode().split("\0")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name in filter(None, names):
            if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
                tar.add(ROOT / name, arcname=name)
    return buf.getvalue()


def extract(tar: bytes, dest: Path) -> Path:
    """A fresh copy of the tar in dest, whatever dest held before."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return dest


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in tree: request counts,
    calibrated and raw end-to-end metrics and the SHA-256 of its stjac."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    out = json.loads(path.read_text())
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "values": {name: m["value"] for name, m in last["metrics"].items()},
            "raw": out["raw_metrics"], "src_sha256": out["env"]["src_sha256"]}


def series(tars: dict[str, bytes], workload: str, seeds: list[int], seconds: float,
           root: Path, runner=perfbench) -> list[dict]:
    """One pair per seed between the two tars (keys: base side first); the
    tree in ``a`` runs first and the sides trade directories every pair."""
    first, second = tars
    runs = []
    for i, seed in enumerate(seeds):
        order = (first, second) if i % 2 == 0 else (second, first)
        pair = {"seed": seed, "first": order[0], "dirs": {}}
        for slot, side in zip("ab", order):
            pair["dirs"][side] = slot
            pair[side] = runner(extract(tars[side], root / slot), workload, seed, seconds)
        runs.append(pair)
        print(json.dumps(pair), file=sys.stderr)
    return runs


def _runs_record(runs: list[dict], sides: tuple[str, str]) -> dict:
    """Order, directories, request counts and stjac hashes of one series."""
    return {
        "pairs": [{"seed": r["seed"], "first": r["first"], "dirs": r["dirs"]} for r in runs],
        **{key: {s: [r[s][key] for r in runs] for s in sides} for key in ("attempted", "failed")},
        "correct": all(r[s]["correct"] for r in runs for s in sides),
        "src_sha256": {s: sorted({r[s]["src_sha256"] for r in runs}) for s in sides},
    }


def _pair_changes(runs: list[dict], sides: tuple[str, str], name: str,
                  key: str = "values") -> list[float]:
    """change / base - 1 of each pair, on the calibrated values or ("raw") the raw ones."""
    base, other = sides
    return [r[other][key][name] / r[base][key][name] - 1 for r in runs]


def verdict(median_change: float, aa_changes: list[float], pairs: int) -> str:
    """Whether a median pair change over ``pairs`` pairs stands out of the A/A
    range: a range from fewer pairs is narrower by chance, so it resolves nothing."""
    if not aa_changes:
        return "no A/A"
    if min(aa_changes) <= median_change <= max(aa_changes):
        return "not resolved"
    return "resolved" if len(aa_changes) >= pairs else "A/A too short"


def summarize(runs: list[dict], aa: list[dict], spec: dict) -> dict:
    """The schema's record of one workload: its two series and, per metric,
    the values, medians, wins, A/A range and verdict."""
    record = {**_runs_record(runs, ("base", "change")),
              "aa": _runs_record(aa, ("base", "copy")), "metrics": {}}
    for name, (unit, better, bound) in spec.items():
        sign = 1 if better == "higher" else -1
        values = {s: [r[s]["values"][name] for r in runs] for s in ("base", "change")}
        changes, raw = (_pair_changes(runs, ("base", "change"), name, key)
                        for key in ("values", "raw"))
        aa_changes, aa_raw = (_pair_changes(aa, ("base", "copy"), name, key)
                              for key in ("values", "raw"))
        median_change, raw_median = statistics.median(changes), statistics.median(raw)
        base_median, change_median = (statistics.median(v) for v in values.values())
        iqr = None
        if len(runs) > 1:
            q1, _, q3 = statistics.quantiles(values["base"], n=4)
            iqr = (q3 - q1) / base_median
        record["metrics"][name] = {
            "unit": unit, "better": better, "bound": bound,
            **{s: {"values": values[s], "raw": [r[s]["raw"][name] for r in runs]}
               for s in ("base", "change")},
            "base_median": base_median,
            "change_median": change_median,
            "median_change_frac": change_median / base_median - 1,
            "base_iqr_frac": iqr,
            "pair_changes": changes,
            "median_pair_change": median_change,
            "wins_change": sum(sign * c > 0 for c in changes),
            "aa": {
                **{s: [r[s]["values"][name] for r in aa] for s in ("base", "copy")},
                "pair_changes": aa_changes,
                "median_pair_change": statistics.median(aa_changes) if aa else None,
                "range": [min(aa_changes), max(aa_changes)] if aa else None,
                "raw_pair_changes": aa_raw,
                "raw_range": [min(aa_raw), max(aa_raw)] if aa else None,
            },
            "verdict": verdict(median_change, aa_changes, len(runs)),
            "raw_pair_changes": raw,
            "raw_median_pair_change": raw_median,
            "raw_verdict": verdict(raw_median, aa_raw, len(runs)),
            "disagreeing_pairs": [i for i, (c, r) in enumerate(zip(changes, raw)) if c * r < 0],
        }
    return record


def end_to_end_spec() -> dict:
    """name -> (unit, better, bound) of the end-to-end metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, metavar="REV")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--aa", type=int, default=0, help="pairs of the A/A series")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--probes", default=None, help="embed this tools/probes.py --base JSON")
    ap.add_argument("--out", default=None, help="merge the record into this JSON file")
    args = ap.parse_args(argv)
    base_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                              capture_output=True, text=True, check=True).stdout.strip()
    out = Path(args.out) if args.out else None
    doc = json.loads(out.read_text()) if out and out.exists() else {
        "schema": SCHEMA, "base": base_sha, "workloads": {}}
    if doc.get("schema") != SCHEMA or doc.get("base") != base_sha:
        raise SystemExit(f"pairs: {out} holds another schema or base")
    base = archive_rev(base_sha)
    seeds = list(range(args.seed, args.seed + args.pairs + args.aa))
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        root = Path(tmp)
        runs = series({"base": base, "change": archive_worktree()}, args.workload,
                      seeds[:args.pairs], args.seconds, root)
        aa = series({"base": base, "copy": base}, args.workload, seeds[args.pairs:],
                    args.seconds, root)
    doc["machine"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(),
                      "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    record = summarize(runs, aa, end_to_end_spec())
    record["command"] = (f"tools/pairs.py --base {args.base} --workload {args.workload} "
                         f"--pairs {args.pairs} --aa {args.aa} --seed {args.seed} "
                         f"--seconds {args.seconds:g}")
    doc["workloads"][args.workload] = record
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name}: {m['median_pair_change']:+.1%} {m['verdict']}, "
              f"raw {m['raw_median_pair_change']:+.1%} {m['raw_verdict']}; "
              f"pairs disagreeing: {m['disagreeing_pairs']}", file=sys.stderr)
    if args.probes:
        doc.setdefault("probes", []).append(json.loads(Path(args.probes).read_text()))
    text = json.dumps(doc, indent=1)
    if out:
        out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
