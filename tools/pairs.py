"""Paired runs of a base revision against this tree, perfbench or probe, in one JSON schema.

    python tools/pairs.py --base HEAD~1 --workload count-1e6 --pairs 10 --aa 6 --out BENCH.json
    python tools/pairs.py --base HEAD~1 --workload count:additive:397:1:2383 --pairs 10
    python tools/pairs.py --base HEAD --workload st0:additive:840:3 --pairs 4  # A/A on a clean tree
    python tools/pairs.py --base HEAD~1 --workload count-1e6 st0:additive:840:3 --pairs 10 --aa 4

A workload is a perfbench workload or a probe, named as ``tools/probes.py
--only`` names it (KIND:FIELDS); ``--workload`` takes one or more, mixed,
and runs them in the order given, each with its own series.  Both sides
are exported by one function, ``archive``: ``git archive`` of a tree's
``src``, ``perfbench`` and ``tools``.  The base side is REV's tree.  The
change side is a tree written from a throwaway index (``snapshot``) that
holds those three directories of the working tree: HEAD's files as they
are now, a deleted one left out and one that an ignore rule matches kept,
and the untracked files that git does not ignore; the real index and the
working tree are left as they were.  When the three tree ids of both sides agree, the
change side runs the base's tar bytes.  Each side is archived once, when
the invocation starts, so every workload runs the same two trees.  Each
pair runs the workload once per side, each side in a fresh extract, in
one of two directories, ``a`` and ``b``, under one temporary root.  The
tree in ``a`` runs first, and the two sides trade directories every pair,
so over an even number of pairs both the side that runs first and the
directory each side runs in alternate.  Pair i of the k-th workload (k
from 0) takes seed SEED + k*(N + M) + i.  Then ``--aa M`` pairs run the
base against a second extract of the base in the change's place, in the
same way, with seeds SEED + k*(N + M) + N + j: an A/A series of identical
code.

A perfbench run is ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``; its metrics are the end-to-end metrics of BENCHMARK.json,
each calibrated (NAME) and raw (NAME:raw).  A probe run is
``tools/probes.py --measure NAME --src <tree>/src`` under a cap of
``PROBE_CAP`` seconds (the seed and ``--seconds`` do not apply).  Both sides run the
probes.py next to this script, so a probe has one definition, which a base
that predates it runs too, and only the stjac differs.  Its metrics are the
probed call's ``seconds``, the CPU time ``cpu_s`` and the ``peak_rss_mb``
of the probe's process, lower is better and none has a bound.  A probe has
no calibration, so it has no NAME:raw, and its answer (the result without
its times) must be the same in every run of both sides.  A run that fails
stops the harness.

The output holds, per workload, both sides' tree ids, and per series each
run's seed, directory, order, request counts (one per probe run) and the
SHA-256 of the ``src/stjac`` it imported, the answer of its first run and
whether every run gave it (perfbench checks its own answers: its answer is
null).  Every metric, raw twins included, gets its record from one
function, ``metric``: unit, better direction and bound;
- each side's values, run by run;
- the side medians, the base side's IQR and the change of the medians;
- each pair's relative change (change / base - 1), their median and how
  many pairs favour the change (a tie favours neither side);
- the A/A series' values, pair changes, their median and their range
  [min, max], as context;
- the verdict: "resolved" when the change wins at least nine tenths of the
  pairs and its median is better than the base median by more than the
  base IQR; "regressed" when it loses at least nine tenths of the pairs
  and its median is worse than the base median by more than the metric's
  bound, a fraction of the base median (the base IQR for a probe, which
  has no bound); else "not resolved".
A calibrated metric also lists the pairs whose calibrated and raw changes
favour different sides.

Each workload's record keeps the command that reruns it alone.  A line
per workload and metric on stderr gives its verdict.  With ``--out FILE``
the workloads are merged into FILE when it exists (same schema and base),
each as soon as it finishes.  The exit status is 1 when the answers of
any probe differ.
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
SCHEMA = "stjac-pairs/2"
TREES = ("src", "perfbench", "tools")
# name -> (unit, better, bound) of a probe's metrics
PROBE_SPEC = {"seconds": ("s", "lower", None), "cpu_s": ("s", "lower", None),
              "peak_rss_mb": ("MB", "lower", None)}
# both sides run this probes.py, so a probe that the change adds pairs too
PROBES = ROOT / "tools" / "probes.py"
# a run past the cap stops the harness, so the cap only ends a hung run;
# it lies above probes.py's default of 60 s, which several sweeps to 10^6
# in one process pass at a parent with no binomial table
PROBE_CAP = 600
# the keys of a probe's result that are times, not answers
TIMES = runpy.run_path(str(PROBES))["TIMES"]


def git(*args: str, env: dict | None = None) -> str:
    """The stdout of one git command in ROOT, stripped."""
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def archive(treeish: str) -> bytes:
    """TREEISH's trees as a tar, by ``git archive``."""
    return subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", treeish, *TREES],
                          capture_output=True, check=True).stdout


def snapshot() -> str:
    """The id of a tree that holds the working tree's trees: HEAD's files as
    they are now (an ignore rule does not drop a tracked file) and the
    untracked files that git does not ignore.  It is written from a
    throwaway index, so the real index and the working tree are untouched."""
    with tempfile.TemporaryDirectory(prefix="pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "--", *TREES, env=env)
        return git("write-tree", env=env)


def tree_ids(treeish: str) -> dict[str, str]:
    """name -> id of each of TREEISH's trees."""
    return {name: git("rev-parse", f"{treeish}:{name}") for name in TREES}


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
    """One untraced ``perfbench/run.py`` run in tree: request counts, the
    end-to-end metrics, each calibrated (NAME) and raw (NAME:raw), and the
    SHA-256 of its stjac."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    out = json.loads(path.read_text())
    values = {name: m["value"] for name, m in last["metrics"].items()}
    values.update((f"{name}:raw", v) for name, v in out["raw_metrics"].items())
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "values": values, "src_sha256": out["env"]["src_sha256"], "answer": None}


def probe(tree: Path, name: str, seed: int, seconds: float) -> dict:
    """One ``--measure`` run of the probe on the stjac of tree, by the
    ``tools/probes.py`` next to this script: its seconds, CPU time and peak
    RSS, its answer and the SHA-256 of its stjac."""
    proc = subprocess.run(
        [sys.executable, str(PROBES), "--measure", name, "--src", str(tree / "src"),
         "--cap", str(PROBE_CAP)],
        cwd=tree, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    if out["status"] != "ok":
        raise RuntimeError(f"{name} in {tree}: {out['status']} {out.get('error', '')}")
    result = out["result"]
    values = {"seconds": result["seconds"], "cpu_s": out["cpu_s"],
              "peak_rss_mb": out["peak_rss_mb"]}
    return {"correct": True, "attempted": 1, "failed": 0, "values": values,
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


def _pair_changes(runs: list[dict], sides: tuple[str, str], name: str) -> list[float]:
    """change / base - 1 of each pair."""
    base, other = sides
    return [r[other]["values"][name] / r[base]["values"][name] - 1 for r in runs]


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


def metric(runs: list[dict], aa: list[dict], name: str, unit: str, better: str,
           bound: float | None) -> dict:
    """The record of one metric: each side's values, the side medians, the
    base IQR, the pair changes, their median and wins, the A/A series'
    values, pair changes, median and range, and the verdict."""
    sign = 1 if better == "higher" else -1
    base, change = ([r[s]["values"][name] for r in runs] for s in ("base", "change"))
    changes = _pair_changes(runs, ("base", "change"), name)
    aa_changes = _pair_changes(aa, ("base", "copy"), name)
    wins = sum(sign * c > 0 for c in changes)
    losses = sum(sign * c < 0 for c in changes)
    base_median, change_median = statistics.median(base), statistics.median(change)
    iqr = _iqr(base)
    return {
        "unit": unit, "better": better, "bound": bound, "base": base, "change": change,
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
        },
        "verdict": verdict(base, change, wins, sign, losses, bound),
    }


def summarize(runs: list[dict], aa: list[dict], spec: dict) -> dict:
    """The schema's record of one workload: its two series and the
    ``metric`` record of each metric of spec; a calibrated metric with a
    raw twin also lists the pairs whose two changes favour different sides."""
    metrics = {name: metric(runs, aa, name, *spec[name]) for name in spec}
    for name, record in metrics.items():
        if f"{name}:raw" in metrics:
            raw = metrics[f"{name}:raw"]["pair_changes"]
            record["disagreeing_pairs"] = [
                i for i, (c, r) in enumerate(zip(record["pair_changes"], raw)) if c * r < 0]
    return {**_runs_record(runs, ("base", "change")), "aa": _runs_record(aa, ("base", "copy")),
            "metrics": metrics}


def end_to_end_spec() -> dict:
    """name -> (unit, better, bound) of the end-to-end metrics in
    BENCHMARK.json, each followed by its raw twin NAME:raw."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] + suffix: (m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"] for suffix in ("", ":raw")}


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
    base_sha = git("rev-parse", args.base)
    out = Path(args.out) if args.out else None
    doc = json.loads(out.read_text()) if out and out.exists() else {
        "schema": SCHEMA, "base": base_sha, "workloads": {}}
    if doc.get("schema") != SCHEMA or doc.get("base") != base_sha:
        raise SystemExit(f"pairs: {out} holds another schema or base")
    doc["machine"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(),
                      "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    change_tree = snapshot()
    trees = {"base": tree_ids(base_sha), "change": tree_ids(change_tree)}
    base = archive(base_sha)
    change = base if trees["change"] == trees["base"] else archive(change_tree)
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
        record = {**summarize(runs, aa, spec), "trees": trees}
        record["command"] = (f"tools/pairs.py --base {args.base} --workload {workload} "
                             f"--pairs {args.pairs} --aa {args.aa} --seed {seed} "
                             f"--seconds {args.seconds:g}")
        doc["workloads"][workload] = record
        for name, m in record["metrics"].items():
            disagree = (f"; pairs disagreeing: {m['disagreeing_pairs']}"
                        if "disagreeing_pairs" in m else "")
            print(f"{workload} {name}: {m['median_pair_change']:+.1%}, {m['wins_change']} of "
                  f"{args.pairs} pairs, {m['verdict']}{disagree}", file=sys.stderr)
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
