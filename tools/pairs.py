"""Paired runs of a base revision against this tree, perfbench or probe, in one JSON schema.

    python tools/pairs.py --base HEAD~1 --workload count-1e6 --pairs 10 --aa 6 --out BENCH.json
    python tools/pairs.py --base HEAD~1 --workload count:additive:397:1:2383 --pairs 10
    python tools/pairs.py --base HEAD --workload st0:additive:840:3 --pairs 4  # A/A on a clean tree
    python tools/pairs.py --base HEAD~1 --workload count-1e6 st0:additive:840:3 --pairs 10 --aa 4

A workload is a perfbench workload or a probe, named as ``tools/probes.py
--only`` names it (KIND:FIELDS); ``--workload`` takes one or more, mixed,
and runs them in the order given, each with its own series.  The base side
is REV's ``src``, ``perfbench`` and ``tools``, exported with ``git
archive``; the change side is the same three directories of the working
tree, tracked and untracked files alike, minus what git ignores.  Each
side is archived once, when the invocation starts, so every workload runs
the same two trees.  Each pair runs the workload once per
side, each side in a fresh export, in one of two directories, ``a`` and
``b``, under one temporary root.  The tree in ``a`` runs first, and the
two sides trade directories every pair, so over an even number of pairs
both the side that runs first and the directory each side runs in
alternate.  Pair i of the k-th workload (k from 0) takes seed
SEED + k*(N + M) + i.  Then ``--aa M`` pairs run the base against a second
export of the base in the change's place, in the same way, with seeds
SEED + k*(N + M) + N + j: an A/A series of identical code.

A perfbench run is ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``; its metrics are the end-to-end metrics of BENCHMARK.json,
calibrated and raw.  A probe run is that tree's ``tools/probes.py
--measure NAME --src <tree>/src``, under the probe's default cap (the seed
and ``--seconds`` do not apply); its metrics are the probed call's
``seconds``, the CPU time ``cpu_s`` and the ``peak_rss_mb`` of the probe's
process, lower is better and none has a bound.  A probe has no
calibration, so its raw values are its values, and its answer (the result
without its times) must be the same in every run of both sides.  A run
that fails stops the harness.

The output holds, per workload and series, each run's seed, directory,
order, request counts (one per probe run) and the SHA-256 of the
``src/stjac`` it imported, the answer of its first run and whether every
run gave it (perfbench checks its own answers: its answer is null), and
per metric (unit, better direction and bound):
- each side's values and raw values, run by run;
- the side medians, the base side's IQR and the change of the medians;
- each pair's relative change (change / base - 1), their median and how
  many pairs favour the change (a tie favours neither side);
- the A/A series' pair changes, their median and their range [min, max],
  as context;
- the verdict: "resolved" when the change wins at least nine tenths of the
  pairs and its median is better than the base median by more than the
  base IQR; "regressed" when it loses at least nine tenths of the pairs
  and its median is worse than the base median by more than the metric's
  bound, a fraction of the base median (the base IQR for a probe, which
  has no bound); else "not resolved";
- the same pair changes, wins and verdict on the raw values, and the pairs
  whose calibrated and raw changes favour different sides.

Each workload's record keeps the command that reruns it alone.  A line
per workload and metric on stderr gives both verdicts and those pairs.
With ``--out FILE`` the workloads are merged into FILE when it exists
(same schema and base), each as soon as it finishes.  The exit status is
1 when the answers of any probe differ.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import runpy
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "stjac-pairs/1"
TREES = ("src", "perfbench", "tools")
# name -> (unit, better, bound) of a probe's metrics
PROBE_SPEC = {"seconds": ("s", "lower", None), "cpu_s": ("s", "lower", None),
              "peak_rss_mb": ("MB", "lower", None)}
# the keys of a probe's result that are times, not answers
TIMES = runpy.run_path(str(ROOT / "tools" / "probes.py"))["TIMES"]


def archive_rev(rev: str) -> bytes:
    """REV's trees as a tar."""
    return subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *TREES],
                          capture_output=True, check=True).stdout


def archive_worktree() -> bytes:
    """The working tree's trees as a tar, without ignored files."""
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


def src_sha256(tree: Path) -> str:
    """The SHA-256 of tree's ``src/stjac``, as ``perfbench/run.py`` records it."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "stjac").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


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
            "raw": out["raw_metrics"], "src_sha256": out["env"]["src_sha256"], "answer": None}


def probe(tree: Path, name: str, seed: int, seconds: float) -> dict:
    """One ``tools/probes.py --measure`` run of the probe in tree: its
    seconds, CPU time and peak RSS, its answer and the SHA-256 of its stjac."""
    proc = subprocess.run(
        [sys.executable, "tools/probes.py", "--measure", name, "--src", str(tree / "src")],
        cwd=tree, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    if out["status"] != "ok":
        raise RuntimeError(f"{name} in {tree}: {out['status']} {out.get('error', '')}")
    result = out["result"]
    values = {"seconds": result["seconds"], "cpu_s": out["cpu_s"],
              "peak_rss_mb": out["peak_rss_mb"]}
    return {"correct": True, "attempted": 1, "failed": 0, "values": values, "raw": values,
            "src_sha256": src_sha256(tree),
            "answer": {k: v for k, v in result.items() if k not in TIMES}}


def series(tars: dict[str, bytes], workload: str, seeds: list[int], seconds: float,
           root: Path, runner) -> list[dict]:
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
    """Order, directories, request counts, stjac hashes and answers of one series."""
    answers = [r[s]["answer"] for r in runs for s in sides]
    return {
        "pairs": [{"seed": r["seed"], "first": r["first"], "dirs": r["dirs"]} for r in runs],
        **{key: {s: [r[s][key] for r in runs] for s in sides} for key in ("attempted", "failed")},
        "correct": all(r[s]["correct"] for r in runs for s in sides),
        "src_sha256": {s: sorted({r[s]["src_sha256"] for r in runs}) for s in sides},
        "answer": answers[0] if answers else None,
        "same_answers": all(a == answers[0] for a in answers),
    }


def _pair_changes(runs: list[dict], sides: tuple[str, str], name: str,
                  key: str = "values") -> list[float]:
    """change / base - 1 of each pair, on the calibrated values or ("raw") the raw ones."""
    base, other = sides
    return [r[other][key][name] / r[base][key][name] - 1 for r in runs]


def _iqr(values: list[float]) -> float | None:
    """q3 - q1 of the values, or None for fewer than two."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], change: list[float], wins: int, sign: int, losses: int = 0,
            bound: float | None = None) -> str:
    """The verdict on one metric: "resolved" when the change won at least
    nine tenths of the pairs and its median is better (sign 1: higher) than
    the base median by more than the base IQR; "regressed" when it lost at
    least nine tenths of the pairs and its median is worse by more than
    bound times the base median (by more than the base IQR without a
    bound); else "not resolved"."""
    spread = _iqr(base)
    if spread is None:
        return "not resolved"
    base_median = statistics.median(base)
    gain = sign * (statistics.median(change) - base_median)
    if 10 * wins >= 9 * len(base) and gain > spread:
        return "resolved"
    margin = spread if bound is None else bound * abs(base_median)
    if 10 * losses >= 9 * len(base) and -gain > margin:
        return "regressed"
    return "not resolved"


def summarize(runs: list[dict], aa: list[dict], spec: dict) -> dict:
    """The schema's record of one workload: its two series and, per metric,
    the values, medians, wins, A/A range and verdict."""
    record = {**_runs_record(runs, ("base", "change")),
              "aa": _runs_record(aa, ("base", "copy")), "metrics": {}}
    for name, (unit, better, bound) in spec.items():
        sign = 1 if better == "higher" else -1
        sides = {s: {key: [r[s][key][name] for r in runs] for key in ("values", "raw")}
                 for s in ("base", "change")}
        changes, raw = (_pair_changes(runs, ("base", "change"), name, key)
                        for key in ("values", "raw"))
        aa_changes, aa_raw = (_pair_changes(aa, ("base", "copy"), name, key)
                              for key in ("values", "raw"))
        wins, raw_wins = (sum(sign * c > 0 for c in cs) for cs in (changes, raw))
        losses, raw_losses = (sum(sign * c < 0 for c in cs) for cs in (changes, raw))
        base_median, change_median = (statistics.median(sides[s]["values"]) for s in sides)
        iqr = _iqr(sides["base"]["values"])
        record["metrics"][name] = {
            "unit": unit, "better": better, "bound": bound, **sides,
            "base_median": base_median,
            "change_median": change_median,
            "median_change_frac": change_median / base_median - 1,
            "base_iqr_frac": None if iqr is None else iqr / base_median,
            "pair_changes": changes,
            "median_pair_change": statistics.median(changes),
            "wins_change": wins,
            "aa": {
                **{s: [r[s]["values"][name] for r in aa] for s in ("base", "copy")},
                "pair_changes": aa_changes,
                "median_pair_change": statistics.median(aa_changes) if aa else None,
                "range": [min(aa_changes), max(aa_changes)] if aa else None,
                "raw_pair_changes": aa_raw,
                "raw_range": [min(aa_raw), max(aa_raw)] if aa else None,
            },
            "verdict": verdict(sides["base"]["values"], sides["change"]["values"], wins, sign,
                               losses, bound),
            "raw_pair_changes": raw,
            "raw_median_pair_change": statistics.median(raw),
            "raw_wins_change": raw_wins,
            "raw_verdict": verdict(sides["base"]["raw"], sides["change"]["raw"], raw_wins, sign,
                                   raw_losses, bound),
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
    ap.add_argument("--workload", required=True, nargs="+",
                    help="perfbench workloads or KIND:FIELDS probes, one or more")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--aa", type=int, default=0, help="pairs of the A/A series")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", default=None, help="merge the records into this JSON file")
    args = ap.parse_args(argv)
    base_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                              capture_output=True, text=True, check=True).stdout.strip()
    out = Path(args.out) if args.out else None
    doc = json.loads(out.read_text()) if out and out.exists() else {
        "schema": SCHEMA, "base": base_sha, "workloads": {}}
    if doc.get("schema") != SCHEMA or doc.get("base") != base_sha:
        raise SystemExit(f"pairs: {out} holds another schema or base")
    doc["machine"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(),
                      "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    base, change = archive_rev(base_sha), archive_worktree()
    differ = []
    for k, workload in enumerate(args.workload):
        runner, spec = (probe, PROBE_SPEC) if ":" in workload else (perfbench, end_to_end_spec())
        seed = args.seed + k * (args.pairs + args.aa)
        seeds = list(range(seed, seed + args.pairs + args.aa))
        with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
            root = Path(tmp)
            runs = series({"base": base, "change": change}, workload, seeds[:args.pairs],
                          args.seconds, root, runner)
            aa = series({"base": base, "copy": base}, workload, seeds[args.pairs:],
                        args.seconds, root, runner)
        record = summarize(runs, aa, spec)
        record["command"] = (f"tools/pairs.py --base {args.base} --workload {workload} "
                             f"--pairs {args.pairs} --aa {args.aa} --seed {seed} "
                             f"--seconds {args.seconds:g}")
        doc["workloads"][workload] = record
        for name, m in record["metrics"].items():
            print(f"{workload} {name}: {m['median_pair_change']:+.1%}, {m['wins_change']} of "
                  f"{args.pairs} pairs, {m['verdict']}; raw {m['raw_median_pair_change']:+.1%}, "
                  f"{m['raw_wins_change']} of {args.pairs} pairs, {m['raw_verdict']}; "
                  f"pairs disagreeing: {m['disagreeing_pairs']}", file=sys.stderr)
        if not (record["same_answers"] and record["aa"]["same_answers"]):
            differ.append(workload)
        if out:  # each finished workload is kept, should a later one fail
            out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))
    for workload in differ:
        print(f"{workload}: the answers differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
