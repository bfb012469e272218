"""tools/pairs.py on a stub runner, without perfbench: the order and the
directories of each pair, the JSON record of a workload, the verdict rule
on calibrated and raw values, and the merge of several workloads into one
file."""

import importlib.util
import io
import json
import tarfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("stjac_pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# name -> (unit, better, bound) of every end-to-end metric
FULL = pairs.end_to_end_spec()
SPEC = {name: FULL[name] for name in ("units_per_s", "request_p50_s")}
# the stub's directory offset: every run in directory b reads 5 % slower
OFFSET_B = 0.95


def _tar(speed: float) -> bytes:
    """A tree whose only file, src/speed, holds the stub's speed."""
    data = str(speed).encode()
    info = tarfile.TarInfo("src/speed")
    info.size = len(data)
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def stub(tree, workload, seed, seconds):
    """A perfbench run that reads the tree's speed (100 without one) and
    pays the offset of directory b."""
    speed_file = tree / "src" / "speed"
    speed = float(speed_file.read_text()) if speed_file.exists() else 100.0
    units = speed * (OFFSET_B if tree.name == "b" else 1)
    values = {name: units if better == "higher" else 1 / units
              for name, (_, better, _) in FULL.items()}
    return {"correct": True, "attempted": 7, "failed": 0, "values": values,
            "raw": {k: 2 * v for k, v in values.items()}, "src_sha256": f"speed {speed}"}


def _series(tmp_path, base, other, speeds, seeds):
    tars = {base: _tar(speeds[0]), other: _tar(speeds[1])}
    return pairs.series(tars, "count-1e6", seeds, 1.0, tmp_path, runner=stub)


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
        assert set(record) == {"pairs", "attempted", "failed", "correct", "src_sha256", "aa",
                               "metrics"}
        assert set(record["aa"]) == {"pairs", "attempted", "failed", "correct", "src_sha256"}
        assert record["src_sha256"] == {"base": ["speed 100.0"], "change": [f"speed {speed:.1f}"]}
        assert record["attempted"] == {"base": [7] * 4, "change": [7] * 4}
        assert set(record["metrics"]) == set(SPEC)
        units = record["metrics"]["units_per_s"]
        assert units["better"] == "higher"
        assert set(units) == {"unit", "better", "bound", "base", "change", "base_median",
                              "change_median", "median_change_frac", "base_iqr_frac",
                              "pair_changes", "median_pair_change", "wins_change", "aa",
                              "verdict", "raw_pair_changes", "raw_median_pair_change",
                              "raw_verdict", "disagreeing_pairs"}
        assert set(units["aa"]) == {"base", "copy", "pair_changes", "median_pair_change", "range",
                                    "raw_pair_changes", "raw_range"}
        assert units["change"]["raw"] == [2 * v for v in units["change"]["values"]]
        # identical code reads -5 % and +5.3 % by directory; the swap cancels that
        assert units["aa"]["range"] == pytest.approx([OFFSET_B - 1, 1 / OFFSET_B - 1])
        assert abs(units["aa"]["median_pair_change"]) < 0.01
        assert units["median_pair_change"] == pytest.approx(
            (speed / 100 * OFFSET_B + speed / 100 / OFFSET_B) / 2 - 1)
        assert units["verdict"] == units["raw_verdict"] == verdict
        assert units["raw_pair_changes"] == pytest.approx(units["pair_changes"])
        assert units["disagreeing_pairs"] == []
        # a lower p50 is a win for the change, as a higher rate is
        p50 = record["metrics"]["request_p50_s"]
        assert p50["verdict"] == verdict
        assert units["wins_change"] == p50["wins_change"] == (4 if speed == 120 else 2)
    assert pairs.summarize(runs, [], SPEC)["metrics"]["units_per_s"]["verdict"] == "no A/A"


def test_a_shorter_aa_series_resolves_nothing(tmp_path):
    # an A/A range from fewer pairs than the change series is narrower by
    # chance: a change outside it reads "A/A too short", one inside it
    # "not resolved", and only an A/A series at least as long resolves
    runs = _series(tmp_path, "base", "change", (100, 120), [1, 2, 3, 4])
    small = _series(tmp_path, "base", "change", (100, 102), [1, 2, 3, 4])
    for aa_seeds, verdict in (([11, 12], "A/A too short"), ([11, 12, 13, 14], "resolved"),
                              ([11, 12, 13, 14, 15, 16], "resolved")):
        aa = _series(tmp_path, "base", "copy", (100, 100), aa_seeds)
        for name in SPEC:
            metric = pairs.summarize(runs, aa, SPEC)["metrics"][name]
            assert metric["verdict"] == metric["raw_verdict"] == verdict, (aa_seeds, name)
            assert pairs.summarize(small, aa, SPEC)["metrics"][name]["verdict"] == "not resolved"


def test_raw_verdict_and_disagreeing_pairs(tmp_path):
    runs = _series(tmp_path, "base", "change", (100, 120), [1, 2, 3, 4])
    aa = _series(tmp_path, "base", "copy", (100, 100), [11, 12, 13, 14])
    # the calibration reads pair 1 as a 10 % loss, its raw values as a win
    base = runs[1]["base"]["values"]
    runs[1]["change"]["values"] = {k: v * 0.9 if FULL[k][1] == "higher" else v / 0.9
                                   for k, v in base.items()}
    units = pairs.summarize(runs, aa, SPEC)["metrics"]["units_per_s"]
    assert units["pair_changes"][1] == pytest.approx(-0.1)
    assert units["raw_pair_changes"][1] > 0.2
    assert units["verdict"] == units["raw_verdict"] == "resolved"
    assert units["disagreeing_pairs"] == [1]
    assert units["wins_change"] == 3
    # raw values that tie in every pair: the raw verdict alone reads nothing,
    # and a tie favours neither side, so no pair disagrees
    for r in runs:
        r["change"]["raw"] = dict(r["base"]["raw"])
    for name in SPEC:
        metric = pairs.summarize(runs, aa, SPEC)["metrics"][name]
        assert (metric["verdict"], metric["raw_verdict"]) == ("resolved", "not resolved"), name
        assert metric["raw_pair_changes"] == [0, 0, 0, 0]
        assert metric["disagreeing_pairs"] == []


@pytest.mark.skipif(not (SCRIPT.parents[1] / ".git").exists(), reason="--base needs a git checkout")
def test_main_merges_workloads_into_one_file(tmp_path, monkeypatch, capsys):
    series = pairs.series
    monkeypatch.setattr(pairs, "series", lambda *a: series(*a, runner=stub))
    out = tmp_path / "bench.json"
    for workload in ("count-1e6", "sweep-2e4"):
        pairs.main(["--base", "HEAD", "--workload", workload, "--pairs", "2", "--aa", "2",
                    "--out", str(out)])
    doc = json.loads(out.read_text())
    # one stderr line per workload and metric, with both verdicts
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("{")]
    assert len(lines) == 2 * len(FULL)
    assert lines[0] == ("count-1e6 units_per_s: +0.1% not resolved, raw +0.1% not resolved; "
                        "pairs disagreeing: []")
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
