"""tools/probes.py: its JSON schema on one tiny probe of each kind (st0,
st0pool, st0survey, sweep, count, kernel) and on a sweep over several
twists, the best of its repeated runs, a cap it cannot meet and a probe
that raises.  tests/test_pairs.py pairs a probe between two trees."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stjac.ffield import make_field
from stjac.groupid import identify_st0
from stjac.pointcount import count_formula, curve, good_primes, trace_sweep
from stjac.stmatrix import relation_report

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "probes.py"


def _load(name, path):
    """The module at path, run under a name of its own (a dataclass needs
    its module in sys.modules while it is made)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


probes = _load("stjac_probes", SCRIPT)
KEYS = {"probe", "cap_s", "status", "wall_s", "cpu_s", "result", "peak_rss_mb", "runs"}
RUN_KEYS = {"status", "wall_s", "cpu_s", "seconds"}


def _probe(*args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_probe_json_schema(tmp_path):
    out = tmp_path / "probes.json"
    doc = _probe("--only", "st0:additive:6:3", "--cap", "60", "--out", str(out))
    assert json.loads(out.read_text()) == doc
    assert set(doc) == {"python", "machine", "cap_s", "probes"} and doc["cap_s"] == 60
    (probe,) = doc["probes"]
    assert set(probe) == KEYS
    assert probe["probe"] == "st0:additive:6:3" and probe["status"] == "ok"
    # three runs, each in a fresh process; the record is the fastest
    runs = probe["runs"]
    assert len(runs) == 3 and all(set(r) == RUN_KEYS for r in runs)
    assert all(r["status"] == "ok" and 0 < r["seconds"] < r["wall_s"] for r in runs)
    # the child's CPU time includes its start and import, as its wall time does
    assert all(r["seconds"] < r["cpu_s"] for r in runs)
    assert probe["result"]["seconds"] == min(r["seconds"] for r in runs)
    assert probe["wall_s"] == min(r["wall_s"] for r in runs)
    assert probe["cpu_s"] == min(r["cpu_s"] for r in runs)
    result = probe["result"]
    assert set(result) == {"seconds", "dimension", "classes", "primes_used"}
    assert result["dimension"] == 1 and result["primes_used"] == [7, 13, 19]
    assert 0 < result["seconds"] < probe["wall_s"] < 60
    assert 10 < probe["peak_rss_mb"] < 1000


def test_st0pool_probe_json_schema():
    doc = _probe("--only", "st0pool:2", "--cap", "60")
    (probe,) = doc["probes"]
    assert set(probe) == KEYS and len(probe["runs"]) == 3
    assert all(set(r) == RUN_KEYS for r in probe["runs"])
    assert probe["probe"] == "st0pool:2" and probe["status"] == "ok"
    result = probe["result"]
    assert set(result) == {"seconds", "first_s", "per_call_s", "calls", "warm_passes",
                           "names_sha256"}
    # the cold pass and the warm passes are CPU times of their own
    assert 0 < result["first_s"] and 0 < result["seconds"] < probe["cpu_s"]
    assert result["per_call_s"] == pytest.approx(result["seconds"] / (2 * 126))
    assert result["calls"] == 126 and result["warm_passes"] == 2
    # the pool is perfbench's st0-curves pool, each curve with every twist,
    # in the order the probe has always taken them
    workloads = _load("perfbench_workloads", SCRIPT.parents[1] / "perfbench" / "workloads.py")
    pool, twists = probes.st0_pool()
    assert sorted(pool) == sorted(workloads.ST0_PINNED) and len(pool) == 18
    additive = (6, 8, 9, 10, 12, 14, 16, 18, 20, 24, 30, 36, 40)
    assert pool == tuple(("additive", d) for d in additive) + tuple(
        ("linear", d) for d in (5, 7, 9, 11, 13))
    assert twists == workloads.C_VALUES == ("1", "2", "3", "5", "-1", "1/2", "-3/5")
    names = [identify_st0(curve(family, d, Fraction(c))).to_dict()
             for family, d in pool for c in twists]
    assert result["names_sha256"] == hashlib.sha256(json.dumps(names).encode()).hexdigest()


def test_st0survey_probe_json_schema():
    doc = _probe("--only", "st0survey:12", "st0survey:12", "--cap", "60")
    first, second = doc["probes"]
    for probe in (first, second):
        assert set(probe) == KEYS and len(probe["runs"]) == 3
        assert probe["probe"] == "st0survey:12" and probe["status"] == "ok"
        result = probe["result"]
        assert set(result) == {"seconds", "calls", "slowest", "names_sha256",
                               "closed_form_misses"}
        # additive d = 3..12 and linear d = 3, 5, ..., 11
        assert result["calls"] == 15 and 0 < result["seconds"] < probe["cpu_s"]
        times = [t for *_, t in result["slowest"]]
        assert len(times) == 5 and times == sorted(times, reverse=True)
        assert result["closed_form_misses"] == []
    assert first["result"]["names_sha256"] == second["result"]["names_sha256"]
    names = [identify_st0(curve(family, d, 3)).to_dict()
             for family, ds in (("additive", range(3, 13)), ("linear", range(3, 13, 2)))
             for d in ds]
    assert first["result"]["names_sha256"] == hashlib.sha256(json.dumps(names).encode()).hexdigest()


def test_sweep_probe_json_schema():
    doc = _probe("--only", "sweep:additive:9:1:2000", "--cap", "60")
    (probe,) = doc["probes"]
    assert set(probe) == KEYS and len(probe["runs"]) == 3
    assert probe["probe"] == "sweep:additive:9:1:2000" and probe["status"] == "ok"
    result = probe["result"]
    assert set(result) == {"seconds", "moments", "samples_sha256"}
    assert 0 < result["seconds"] < probe["wall_s"] < 60
    spec = curve("additive", 9, 1)
    assert result["moments"]["n_samples"] == len(good_primes(spec, 3, 2000)) == 301
    pairs = [[s.p, s.t_p] for s in trace_sweep(spec, 3, 2000).samples]
    digest = hashlib.sha256(json.dumps(pairs, separators=(",", ":")).encode()).hexdigest()
    assert result["samples_sha256"] == digest


def test_sweep_probe_over_several_twists_json_schema():
    # the twists run in turn in one process: each twist's seconds and
    # moments, their sum and one hash over every twist's pairs in order
    doc = _probe("--only", "sweep:additive:9:1,-1,1/2:2000", "--cap", "60")
    (probe,) = doc["probes"]
    assert set(probe) == KEYS and len(probe["runs"]) == 3
    assert probe["probe"] == "sweep:additive:9:1,-1,1/2:2000" and probe["status"] == "ok"
    result = probe["result"]
    assert set(result) == {"seconds", "twist_seconds", "moments", "samples_sha256"}
    assert "twist_seconds" in probes.TIMES and "moments" not in probes.TIMES
    assert len(result["twist_seconds"]) == 3 and all(t > 0 for t in result["twist_seconds"])
    assert result["seconds"] == pytest.approx(sum(result["twist_seconds"]))
    assert 0 < result["seconds"] < probe["wall_s"] < 60
    results = [trace_sweep(curve("additive", 9, Fraction(c)), 3, 2000) for c in ("1", "-1", "1/2")]
    assert result["moments"] == [res.moments for res in results]
    pairs = [[[s.p, s.t_p] for s in res.samples] for res in results]
    digest = hashlib.sha256(json.dumps(pairs, separators=(",", ":")).encode()).hexdigest()
    assert result["samples_sha256"] == digest


def test_count_and_kernel_probe_json_schema():
    doc = _probe("--only", "count:linear:7:2:97", "kernel:additive:12:13", "--cap", "60")
    count, kernel = doc["probes"]
    for probe in (count, kernel):
        assert set(probe) == KEYS and len(probe["runs"]) == 3
        assert probe["status"] == "ok" and 0 < probe["result"]["seconds"] < probe["wall_s"] < 60
    assert count["probe"] == "count:linear:7:2:97"
    expected = count_formula(make_field(97), curve("linear", 7, 2))
    assert count["result"] == {"seconds": count["result"]["seconds"], "count": expected,
                               "t_p": 98 - expected}
    assert kernel["probe"] == "kernel:additive:12:13"
    mat, kern, relations = relation_report(13, 12, "additive")
    kinds = [r.kind for r in relations]
    assert kernel["result"] == {
        "seconds": kernel["result"]["seconds"], "rank": kern.rank, "saturated": kern.saturated,
        "columns": len(mat.cols), "relations": {k: kinds.count(k) for k in set(kinds)},
    }
    assert kern.rank > 0


def test_probe_past_its_cap_and_a_failing_probe_are_values():
    # a run that times out or fails ends the repeats
    doc = _probe("--only", "st0:additive:6:3", "st0:additive:1:3", "--cap", "0.01")
    late, bad = doc["probes"]
    assert late["status"] == "timeout" and late["wall_s"] == 0.01 and late["result"] is None
    assert late["runs"] == [{"status": "timeout", "wall_s": 0.01, "cpu_s": late["cpu_s"],
                             "seconds": None}]
    assert bad["status"] in ("timeout", "error") and len(bad["runs"]) == 1
    doc = _probe("--only", "st0:additive:1:3", "--cap", "60")
    (bad,) = doc["probes"]
    assert bad["status"] == "error" and "Error" in bad["error"] and bad["result"] is None
    assert [r["status"] for r in bad["runs"]] == ["error"]
