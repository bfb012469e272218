"""tools/pairs.py on stub runners, without perfbench: the order and the
directories of each pair, the JSON record of a perfbench workload and of a
probe, the verdict rule on calibrated and raw values, the merge of
several workloads into one file and several workloads in one invocation;
the export of both sides, in a git repository of the test's own; then a
real A/A pairing of one probe, and a real probe run on a tree with no
probes.py of its own."""

import importlib.util
import io
import json
import shutil
import subprocess
import tarfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("stjac_pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)
needs_git = pytest.mark.skipif(not (SCRIPT.parents[1] / ".git").exists(),
                               reason="--base needs a git checkout")

# name -> (unit, better, bound) of every end-to-end metric, calibrated and raw
FULL = pairs.end_to_end_spec()
CALIBRATED = [name for name in FULL if not name.endswith(":raw")]
SPEC = {name: FULL[name] for name in ("units_per_s", "units_per_s:raw", "request_p50_s",
                                      "request_p50_s:raw")}
# the stub's directory offset: every run in directory b reads 5 % slower
OFFSET_B = 0.95


def _tar(speed: float) -> bytes:
    """A tree whose only file, src/stjac/speed.py, holds the stub's speed."""
    data = str(speed).encode()
    info = tarfile.TarInfo("src/stjac/speed.py")
    info.size = len(data)
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _speed(tree):
    """The tree's speed (100 without one), minus the offset of directory b."""
    speed_file = tree / "src" / "stjac" / "speed.py"
    speed = float(speed_file.read_text()) if speed_file.exists() else 100.0
    return speed, speed * (OFFSET_B if tree.name == "b" else 1)


def stub(tree, workload, seed, seconds):
    """A perfbench run that reads the tree's speed and pays the offset of b;
    each raw value is twice its calibrated one."""
    speed, units = _speed(tree)
    values = {name: units if FULL[name][1] == "higher" else 1 / units for name in CALIBRATED}
    values.update((f"{name}:raw", 2 * v) for name, v in list(values.items()))
    return {"correct": True, "attempted": 7, "failed": 0, "values": values,
            "src_sha256": f"speed {speed}", "answer": None}


def probe_stub(tree, name, seed, seconds):
    """A probe run that reads the tree's speed and pays the offset of b."""
    _, units = _speed(tree)
    values = {"seconds": 1 / units, "cpu_s": 1.2 / units, "peak_rss_mb": 50.0}
    return {"correct": True, "attempted": 1, "failed": 0, "values": values,
            "src_sha256": pairs.src_sha256(tree), "answer": {"count": 1988}}


def _series(tmp_path, base, other, speeds, seeds, runner=stub):
    tars = {base: _tar(speeds[0]), other: _tar(speeds[1])}
    return pairs.series(tars, "count-1e6", seeds, 1.0, tmp_path, runner)


def test_pairs_alternate_order_and_trade_directories(tmp_path):
    runs = _series(tmp_path, "base", "change", (100, 120), [7, 8, 9, 10])
    assert [r["seed"] for r in runs] == [7, 8, 9, 10]
    assert [r["first"] for r in runs] == ["base", "change"] * 2
    # the side that runs first runs in a, and the sides trade directories every pair
    assert [r["dirs"] for r in runs] == [{"base": "a", "change": "b"},
                                         {"change": "a", "base": "b"}] * 2
    assert [r["change"]["values"]["units_per_s"] for r in runs] == pytest.approx(
        [120 * OFFSET_B, 120] * 2)


def test_record_schema_and_verdicts(tmp_path):
    aa = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    for speed, verdict in ((120, "resolved"), (102, "not resolved")):
        runs = _series(tmp_path, "base", "change", (100, speed), [1, 2, 3, 4])
        record = pairs.summarize(runs, aa, SPEC)
        series_keys = {"pairs", "attempted", "failed", "correct", "src_sha256", "answer",
                       "same_answers"}
        assert set(record) == series_keys | {"aa", "metrics"}
        assert set(record["aa"]) == series_keys
        assert record["src_sha256"] == {"base": ["speed 100.0"], "change": [f"speed {speed:.1f}"]}
        assert record["attempted"] == {"base": [7] * 4, "change": [7] * 4}
        assert record["answer"] is None and record["same_answers"] is True
        assert list(record["metrics"]) == list(SPEC)
        units, raw = (record["metrics"][name] for name in ("units_per_s", "units_per_s:raw"))
        assert units["better"] == raw["better"] == "higher"
        keys = {"unit", "better", "bound", "base", "change", "base_median", "change_median",
                "median_change_frac", "base_iqr_frac", "pair_changes", "median_pair_change",
                "wins_change", "aa", "verdict"}
        # the calibrated entry alone lists the pairs its raw twin disagrees with
        assert set(units) == keys | {"disagreeing_pairs"} and set(raw) == keys
        assert set(units["aa"]) == set(raw["aa"]) == {"base", "copy", "pair_changes",
                                                      "median_pair_change", "range"}
        assert raw["change"] == [2 * v for v in units["change"]]
        # identical code reads -5 % and +5.3 % by directory; the swap cancels that
        for metric in (units, raw):
            assert metric["aa"]["range"] == pytest.approx([OFFSET_B - 1, 1 / OFFSET_B - 1])
            assert abs(metric["aa"]["median_pair_change"]) < 0.01
        assert units["median_pair_change"] == pytest.approx(
            (speed / 100 * OFFSET_B + speed / 100 / OFFSET_B) / 2 - 1)
        # the base runs read 100 in a and 95 in b: quartiles 95 and 100
        assert units["base_iqr_frac"] == pytest.approx(5 / 97.5)
        assert units["verdict"] == raw["verdict"] == verdict
        assert raw["pair_changes"] == pytest.approx(units["pair_changes"])
        assert units["disagreeing_pairs"] == []
        # a lower p50 is a win for the change, as a higher rate is
        p50 = record["metrics"]["request_p50_s"]
        assert p50["verdict"] == verdict
        assert units["wins_change"] == p50["wins_change"] == (4 if speed == 120 else 2)
        assert raw["wins_change"] == units["wins_change"]
        # the A/A series is context: without one the verdicts are the same
        bare = pairs.summarize(runs, [], SPEC)["metrics"]
        assert [bare[name]["verdict"] for name in SPEC] == [verdict] * 4
        assert bare["units_per_s"]["aa"]["range"] is None


def test_a_metric_and_its_raw_twin_come_from_one_function(tmp_path, monkeypatch):
    runs = _series(tmp_path, "base", "change", (100, 120), [1, 2, 3, 4])
    aa = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    expected = {name: pairs.metric(runs, aa, name, *SPEC[name]) for name in SPEC}
    called, real = [], pairs.metric
    monkeypatch.setattr(pairs, "metric", lambda runs, aa, name, *spec: called.append(name) or real(
        runs, aa, name, *spec))
    metrics = pairs.summarize(runs, aa, SPEC)["metrics"]
    assert called == list(SPEC)
    assert metrics["units_per_s:raw"] == expected["units_per_s:raw"]
    assert metrics["units_per_s"] == {**expected["units_per_s"], "disagreeing_pairs": []}
    # the raw twin reads the raw values, twice the calibrated ones
    assert metrics["units_per_s:raw"]["base_median"] == pytest.approx(
        2 * metrics["units_per_s"]["base_median"])
    # a probe records each metric once: its raw values are its values
    called.clear()
    probe_runs = _series(tmp_path, "base", "change", (100, 120), [1, 2], runner=probe_stub)
    metrics = pairs.summarize(probe_runs, [], pairs.PROBE_SPEC)["metrics"]
    assert called == list(metrics) == list(pairs.PROBE_SPEC)
    assert not any(name.endswith(":raw") for name in probe_runs[0]["change"]["values"])
    assert all("disagreeing_pairs" not in m for m in metrics.values())


def test_perfbench_runs_record_calibrated_and_raw_values(tmp_path):
    # a stand-in perfbench/run.py that writes what the real one does: the
    # calibrated metrics on its last stdout line, the raw ones in its out file
    calibrated = {name: 10.0 + i for i, name in enumerate(CALIBRATED)}
    raw = {name: 100.0 + i for i, name in enumerate(CALIBRATED)}
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(f"""import json, pathlib, sys
out = pathlib.Path("perfbench/out")
out.mkdir()
(out / "count-1e6-seed3-trace0.json").write_text(json.dumps(
    {{"raw_metrics": {raw!r}, "env": {{"src_sha256": "sha"}}}}))
print("a line of the report")
print(json.dumps({{"correct": True, "attempted": 7, "failed": 1,
                  "metrics": {{k: {{"value": v}} for k, v in {calibrated!r}.items()}}}}))
""")
    run = pairs.perfbench(tmp_path, "count-1e6", 3, 1.0)
    assert run == {"correct": True, "attempted": 7, "failed": 1, "src_sha256": "sha",
                   "answer": None, "values": {**calibrated, **{f"{k}:raw": v
                                                               for k, v in raw.items()}}}
    assert set(run["values"]) == set(FULL)


def test_the_verdict_is_wins_and_medians_apart_by_the_base_iqr():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert pairs._iqr(base) == pytest.approx(2)
    for shift, wins, verdict in ((3, 10, "resolved"), (3, 9, "resolved"),
                                 (3, 8, "not resolved"), (1.5, 10, "not resolved")):
        change = [v + shift for v in base]
        assert pairs.verdict(base, change, wins, 1) == verdict, (shift, wins)
        # the same numbers are a loss where lower is better
        assert pairs.verdict(base, change, wins, -1) == "not resolved"
        lower = [v - shift for v in base]
        assert pairs.verdict(base, lower, wins, -1) == verdict, (shift, wins)
    # one pair has no IQR and resolves nothing
    assert pairs.verdict([100], [200], 1, 1) == "not resolved"
    # a loss in nine tenths of the pairs beyond the bound, a fraction of the
    # base median, regresses; without a bound the base IQR is the margin
    for shift, losses, bound, verdict in ((-15, 10, 0.1, "regressed"), (-15, 9, 0.1, "regressed"),
                                          (-15, 8, 0.1, "not resolved"),
                                          (-5, 10, 0.1, "not resolved"),
                                          (-3, 10, None, "regressed"),
                                          (-1.5, 10, None, "not resolved")):
        change = [v + shift for v in base]
        assert pairs.verdict(base, change, 0, 1, losses, bound) == verdict, (shift, losses)
        lower = [v - shift for v in base]
        assert pairs.verdict(base, lower, 0, -1, losses, bound) == verdict, (shift, losses)


def test_one_wild_aa_pair_decides_no_verdict(tmp_path):
    # the A/A range is context, not a term of the verdict: one wild A/A pair
    # does not hide a change that won every pair, and a tight A/A range does
    # not let through a change that won half the pairs
    runs = _series(tmp_path, "base", "change", (100, 120), [1, 2, 3, 4])
    small = _series(tmp_path, "base", "change", (100, 102), [1, 2, 3, 4])
    wild = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    wild[2]["copy"]["values"] = {k: v * 1.6 if FULL[k][1] == "higher" else v / 1.6
                                 for k, v in wild[2]["base"]["values"].items()}
    tight = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    for r in tight:
        r["copy"]["values"] = dict(r["base"]["values"])
    units = pairs.summarize(runs, wild, SPEC)["metrics"]["units_per_s"]
    aa_low, aa_high = units["aa"]["range"]
    assert aa_low < units["median_pair_change"] < aa_high == pytest.approx(0.6)
    assert (units["wins_change"], units["verdict"]) == (4, "resolved")
    units = pairs.summarize(small, tight, SPEC)["metrics"]["units_per_s"]
    assert units["aa"]["range"] == [0, 0] and units["median_pair_change"] > 0.02
    assert (units["wins_change"], units["verdict"]) == (2, "not resolved")


def test_raw_verdict_and_disagreeing_pairs(tmp_path):
    runs = _series(tmp_path, "base", "change", (100, 120), [1, 2, 3, 4])
    aa = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    # the calibration reads pair 1 as a 10 % loss, its raw values as a win
    base, kept = runs[1]["base"]["values"], dict(runs[1]["change"]["values"])
    runs[1]["change"]["values"].update(
        (k, base[k] * 0.9 if FULL[k][1] == "higher" else base[k] / 0.9) for k in CALIBRATED)
    metrics = pairs.summarize(runs, aa, SPEC)["metrics"]
    units, raw = metrics["units_per_s"], metrics["units_per_s:raw"]
    assert units["pair_changes"][1] == pytest.approx(-0.1)
    assert raw["pair_changes"][1] > 0.2
    # three of four pairs are too few wins for the calibrated verdict
    assert (units["verdict"], raw["verdict"]) == ("not resolved", "resolved")
    assert units["disagreeing_pairs"] == [1]
    assert (units["wins_change"], raw["wins_change"]) == (3, 4)
    # raw values that tie in every pair: a tie favours neither side, so the
    # raw verdict reads nothing and no pair disagrees
    runs[1]["change"]["values"] = kept
    for r in runs:
        r["change"]["values"].update((f"{k}:raw", r["base"]["values"][f"{k}:raw"])
                                     for k in CALIBRATED)
    metrics = pairs.summarize(runs, aa, SPEC)["metrics"]
    for name in ("units_per_s", "request_p50_s"):
        metric, raw = metrics[name], metrics[f"{name}:raw"]
        assert (metric["verdict"], raw["verdict"]) == ("resolved", "not resolved"), name
        assert raw["pair_changes"] == [0, 0, 0, 0] and raw["wins_change"] == 0
        assert metric["disagreeing_pairs"] == []


def test_probe_series_record(tmp_path):
    runs = _series(tmp_path, "base", "change", (100, 125), [1, 2], runner=probe_stub)
    aa = _series(tmp_path, "base", "copy", (100, 100), [3, 4], runner=probe_stub)
    record = pairs.summarize(runs, aa, pairs.PROBE_SPEC)
    assert record["pairs"] == [{"seed": 1, "first": "base", "dirs": {"base": "a", "change": "b"}},
                               {"seed": 2, "first": "change",
                                "dirs": {"change": "a", "base": "b"}}]
    assert [p["dirs"] for p in record["aa"]["pairs"]] == [{"base": "a", "copy": "b"},
                                                          {"copy": "a", "base": "b"}]
    # cpu_s next to seconds, each lower-is-better and unbounded, and no raw twin
    assert list(record["metrics"]) == ["seconds", "cpu_s", "peak_rss_mb"]
    for name, metric in record["metrics"].items():
        assert (metric["better"], metric["bound"]) == ("lower", None), name
        assert "disagreeing_pairs" not in metric
    assert record["metrics"]["cpu_s"]["change"] == pytest.approx(
        [1.2 / (125 * OFFSET_B), 1.2 / 125])
    # each side's stjac is hashed from its tree: two hashes, one in an A/A
    sha = {s: record["src_sha256"][s] for s in ("base", "change")}
    assert len(sha["base"]) == len(sha["change"]) == 1 and sha["base"] != sha["change"]
    assert record["aa"]["src_sha256"] == {"base": sha["base"], "copy": sha["base"]}
    assert record["answer"] == record["aa"]["answer"] == {"count": 1988}
    assert record["same_answers"] is record["aa"]["same_answers"] is True
    runs[1]["base"]["answer"] = {"count": 1989}
    assert pairs.summarize(runs, aa, pairs.PROBE_SPEC)["same_answers"] is False


def test_losses_beyond_the_bound_regress(tmp_path):
    # ten losses of ten: 30 % slower is beyond every end-to-end bound, 10 %
    # slower is within each; a probe has no bound and uses the base IQR
    aa = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    seeds = list(range(1, 11))
    for speed, verdict in ((70, "regressed"), (90, "not resolved")):
        runs = _series(tmp_path, "base", "change", (100, speed), seeds)
        metrics = pairs.summarize(runs, aa, FULL)["metrics"]
        for name in ("units_per_s", "request_p50_s", "request_tail_s", "setup_s"):
            for metric in (metrics[name], metrics[f"{name}:raw"]):
                assert metric["wins_change"] == 0, name
                assert metric["verdict"] == verdict, name
    runs = _series(tmp_path, "base", "change", (100, 70), seeds, runner=probe_stub)
    seconds = pairs.summarize(runs, [], pairs.PROBE_SPEC)["metrics"]["seconds"]
    assert seconds["verdict"] == "regressed"


@needs_git
def test_main_merges_workloads_into_one_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pairs, "perfbench", stub)
    out = tmp_path / "bench.json"
    for workload in ("count-1e6", "sweep-2e4"):
        assert pairs.main(["--base", "HEAD", "--workload", workload, "--pairs", "2", "--aa", "2",
                           "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # one stderr line per workload and metric, raw twins included
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("{")]
    assert len(lines) == 2 * len(FULL)
    assert lines[:2] == ["count-1e6 units_per_s: +0.1%, 1 of 2 pairs, not resolved; "
                         "pairs disagreeing: []",
                         "count-1e6 units_per_s:raw: +0.1%, 1 of 2 pairs, not resolved"]
    assert doc["schema"] == pairs.SCHEMA
    assert set(doc["workloads"]) == {"count-1e6", "sweep-2e4"}
    for record in doc["workloads"].values():
        assert set(record["metrics"]) == set(FULL)
        assert record["src_sha256"] == {"base": ["speed 100.0"], "change": ["speed 100.0"]}
        assert record["command"].startswith("tools/pairs.py --base HEAD")
    out.write_text(json.dumps({**doc, "base": "0" * 40}))
    with pytest.raises(SystemExit, match="another schema or base"):
        pairs.main(["--base", "HEAD", "--workload", "st0-curves", "--pairs", "1",
                    "--out", str(out)])


@needs_git
def test_main_runs_a_probe_name_as_a_probe(monkeypatch, capsys):
    monkeypatch.setattr(pairs, "probe", probe_stub)
    assert pairs.main(["--base", "HEAD", "--workload", "count:additive:397:1:2383",
                       "--pairs", "2"]) == 0
    record = json.loads(capsys.readouterr().out)["workloads"]["count:additive:397:1:2383"]
    assert set(record["metrics"]) == set(pairs.PROBE_SPEC)
    # answers that differ between runs make the exit status 1
    monkeypatch.setattr(pairs, "probe", lambda tree, *a: {**probe_stub(tree, *a),
                                                          "answer": tree.name})
    assert pairs.main(["--base", "HEAD", "--workload", "count:additive:397:1:2383",
                       "--pairs", "2"]) == 1
    assert "the answers differ" in capsys.readouterr().err


@needs_git
def test_main_runs_several_workloads_from_one_archive_per_side(tmp_path, monkeypatch, capsys):
    # perfbench workloads and probes mixed in one invocation: each side is
    # archived once, and each workload gets its own record, seeds and lines
    archives, seen = [], []
    real_archive = pairs.archive
    monkeypatch.setattr(pairs, "archive", lambda treeish: archives.append(treeish) or real_archive(
        treeish))

    def runner(stub_runner):
        return lambda tree, workload, seed, seconds: (
            seen.append((workload, seed)) or stub_runner(tree, workload, seed, seconds))

    monkeypatch.setattr(pairs, "perfbench", runner(stub))
    monkeypatch.setattr(pairs, "probe", runner(probe_stub))
    out = tmp_path / "bench.json"
    workloads = ["count-1e6", "count:additive:397:1:2383", "st0-curves"]
    assert pairs.main(["--base", "HEAD", "--workload", *workloads, "--pairs", "2", "--aa", "1",
                       "--seed", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == workloads
    # the base first; a change tree equal to the base's runs the base's bytes
    trees = doc["workloads"]["count-1e6"]["trees"]
    assert all(record["trees"] == trees for record in doc["workloads"].values())
    assert archives[0] == doc["base"]
    assert len(archives) == (1 if trees["change"] == trees["base"] else 2)
    # three runs a side per workload (two pairs and one A/A pair), seeds apart
    for k, workload in enumerate(workloads):
        seeds = [seed for w, seed in seen if w == workload]
        assert seeds == [s for s in range(10 + 3 * k, 13 + 3 * k) for _ in range(2)], workload
        record = doc["workloads"][workload]
        assert record["command"].endswith(f"--workload {workload} --pairs 2 --aa 1 "
                                          f"--seed {10 + 3 * k} --seconds 20")
    assert set(doc["workloads"]["count:additive:397:1:2383"]["metrics"]) == set(pairs.PROBE_SPEC)
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("{")]
    assert [ln.split(" ")[0] for ln in lines] == (
        ["count-1e6"] * len(FULL) + ["count:additive:397:1:2383"] * len(pairs.PROBE_SPEC)
        + ["st0-curves"] * len(FULL))
    # one probe whose answers differ makes the exit status 1, and every
    # workload is still recorded
    monkeypatch.setattr(pairs, "probe", lambda tree, *a: {**probe_stub(tree, *a),
                                                          "answer": tree.name})
    assert pairs.main(["--base", "HEAD", "--workload", *workloads, "--pairs", "2"]) == 1
    captured = capsys.readouterr()
    assert list(json.loads(captured.out)["workloads"]) == workloads
    assert captured.err.splitlines()[-1] == "count:additive:397:1:2383: the answers differ"


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository of the test's own, as pairs.ROOT, with one commit
    of src, perfbench, tools and one file outside them; perfbench/pinned.log
    is tracked although the ignore rule matches it."""
    root = tmp_path / "repo"
    files = {"src/stjac/speed.py": "100", "src/stjac/kept.py": "", "perfbench/run.py": "",
             "tools/probes.py": "", "README.md": "", ".gitignore": "*.log\n",
             "perfbench/pinned.log": "tracked"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "add", "-f", "perfbench/pinned.log")
    _git(root, "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
         "commit", "-q", "-m", "base")
    monkeypatch.setattr(pairs, "ROOT", root)
    return root


def _tar_files(tar: bytes) -> dict[str, str]:
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        return {m.name: t.extractfile(m).read().decode() for m in t.getmembers() if m.isfile()}


def test_a_snapshot_exports_the_present_files_that_git_does_not_ignore(repo):
    # a modified file, an untracked one, an ignored one, a deleted tracked
    # one, and a change outside src, perfbench and tools; the tracked file
    # that the ignore rule matches stays
    (repo / "src/stjac/speed.py").write_text("120")
    (repo / "tools/new.py").write_text("new")
    (repo / "src/stjac/trace.log").write_text("ignored")
    (repo / "src/stjac/kept.py").unlink()
    (repo / "README.md").write_text("changed")
    status = _git(repo, "status", "--porcelain")
    index = (repo / ".git" / "index").read_bytes()
    tree = pairs.snapshot()
    # the real index and the working tree's status are as they were
    assert (repo / ".git" / "index").read_bytes() == index
    assert _git(repo, "status", "--porcelain") == status
    assert _tar_files(pairs.archive(tree)) == {
        "src/stjac/speed.py": "120", "perfbench/run.py": "", "perfbench/pinned.log": "tracked",
        "tools/probes.py": "", "tools/new.py": "new"}
    assert pairs.tree_ids(tree)["perfbench"] == pairs.tree_ids("HEAD")["perfbench"]
    assert pairs.tree_ids(tree)["src"] != pairs.tree_ids("HEAD")["src"]


def test_identical_trees_run_the_same_tar_bytes(repo, monkeypatch, capsys):
    # on a clean tree the change side is the base's export, byte for byte;
    # a modified file gives a second export, of the working tree
    tars, archives = [], []
    real_series, real_archive = pairs.series, pairs.archive
    monkeypatch.setattr(pairs, "series", lambda t, *a: tars.append(dict(t)) or real_series(t, *a))
    monkeypatch.setattr(pairs, "archive", lambda treeish: archives.append(treeish) or real_archive(
        treeish))
    monkeypatch.setattr(pairs, "probe", probe_stub)
    argv = ["--base", "HEAD", "--workload", "count:additive:397:1:2383", "--pairs", "2"]
    head = _git(repo, "rev-parse", "HEAD")
    assert pairs.main(argv) == 0
    record = json.loads(capsys.readouterr().out)["workloads"]["count:additive:397:1:2383"]
    ids = {name: _git(repo, "rev-parse", f"HEAD:{name}") for name in pairs.TREES}
    assert record["trees"] == {"base": ids, "change": ids}
    assert archives == [head] and tars[0]["change"] == tars[0]["base"] == real_archive(head)
    assert record["src_sha256"]["change"] == record["src_sha256"]["base"]
    (repo / "src/stjac/speed.py").write_text("120")
    tars.clear()
    archives.clear()
    assert pairs.main(argv) == 0
    record = json.loads(capsys.readouterr().out)["workloads"]["count:additive:397:1:2383"]
    assert record["trees"]["base"] == ids and record["trees"]["change"]["src"] != ids["src"]
    assert archives[0] == head and len(archives) == 2
    assert _tar_files(tars[0]["change"])["src/stjac/speed.py"] == "120"
    assert record["src_sha256"]["change"] != record["src_sha256"]["base"]


@needs_git
def test_base_pairs_agree_on_the_same_commit(capsys):
    assert pairs.main(["--base", "HEAD", "--workload", "st0:additive:6:3", "--pairs", "2",
                       "--aa", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    record = doc["workloads"]["st0:additive:6:3"]
    assert list(record["metrics"]) == list(pairs.PROBE_SPEC)
    assert record["correct"] and record["aa"]["correct"]
    assert record["attempted"] == {"base": [1, 1], "change": [1, 1]}
    # the change side is the working tree's stjac, and both sides of the
    # A/A series are the base's
    base_sha = record["src_sha256"]["base"]
    assert record["src_sha256"]["change"] == [pairs.src_sha256(pairs.ROOT)]
    assert record["aa"]["src_sha256"] == {"base": base_sha, "copy": base_sha}
    assert record["answer"] == {"dimension": 1, "classes": 1, "primes_used": [7, 13, 19]}
    assert record["same_answers"] and record["aa"]["same_answers"]
    for name, metric in record["metrics"].items():
        for side in ("base", "change"):
            assert all(v > 0 for v in metric[side]), (name, side)
        assert metric["verdict"] in ("resolved", "not resolved", "regressed")
    # the probed call runs inside the process whose CPU time is measured
    seconds, cpu = (record["metrics"][k]["base"] for k in ("seconds", "cpu_s"))
    assert all(s < c for s, c in zip(seconds, cpu))
    assert all(10 < mb < 1000 for mb in record["metrics"]["peak_rss_mb"]["base"])


def test_both_sides_run_the_probes_next_to_the_harness(tmp_path):
    # a tree that holds only src, and so no probes.py of its own, still
    # runs a probe: the one definition next to tools/pairs.py
    shutil.copytree(pairs.ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = pairs.probe(tmp_path, "sweep:additive:9:1,-1:500", 1, 0)
    assert run["src_sha256"] == pairs.src_sha256(pairs.ROOT)
    assert set(run["answer"]) == {"moments", "samples_sha256"}
    assert len(run["answer"]["moments"]) == 2 and run["values"]["seconds"] > 0
