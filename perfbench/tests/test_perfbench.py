"""Tests of the benchmark itself: inputs, statistics, oracles and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from probe import ProbeProcess  # noqa: E402
import workloads as wl  # noqa: E402
from stjac import cyclo, groupid, pointcount, stmatrix  # noqa: E402
from stjac.primes import is_prime  # noqa: E402


# -- inputs ---------------------------------------------------------------


def test_count_pool_is_distinct_split_primes():
    pool = wl.count_pool()
    assert len(pool) == len(set(pool)) == 76
    assert all(is_prime(p) and p % 720 == 1 and 10**6 <= p <= 12 * 10**5 for p in pool)
    assert wl.WORKLOADS["count-1e6"].warmup["p"] not in pool


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_schedule_is_seeded_and_balanced(name):
    workload = wl.WORKLOADS[name]
    rounds = wl.rounds_for(workload, 20)
    first = wl.schedule(workload, 7, rounds)
    assert first == wl.schedule(workload, 7, rounds)
    assert first != wl.schedule(workload, 8, rounds)
    for reqs in first:
        curves = [(q["family"], q["d"]) for q in reqs if q != wl.ST0_FIXED]
        assert sorted(curves) == sorted(workload.curves)
        assert all(q["c"] in wl.C_VALUES for q in reqs if q != wl.ST0_FIXED)
        assert (wl.ST0_FIXED in reqs) == (workload.kind == "st0")
    if workload.kind == "count":
        primes = [q["p"] for reqs in first for q in reqs]
        assert len(primes) == len(set(primes))
    # over 7 rounds every curve meets every twist once
    seven = wl.schedule(workload, 7, 7)
    for curve in workload.curves:
        twists = [q["c"] for reqs in seven for q in reqs
                  if (q["family"], q["d"]) == curve and q != wl.ST0_FIXED]
        assert sorted(twists) == sorted(wl.C_VALUES)


def test_rounds_depend_on_seconds_only():
    count = wl.WORKLOADS["count-1e6"]
    assert wl.rounds_for(count, 10**6) == len(wl.count_pool()) // len(count.curves) == 10
    assert wl.rounds_for(count, 20) == 8
    assert wl.rounds_for(wl.WORKLOADS["st0-curves"], 20) == 7
    assert wl.rounds_for(wl.WORKLOADS["sweep-2e4"], 20) == 1
    assert wl.rounds_for(wl.WORKLOADS["sweep-2e4"], 1) == 1


def test_independent_oracle_pieces_match_library():
    for family, d in wl.WORKLOADS["st0-curves"].curves:
        assert wl.first_generic_primes(family, d) == tuple(
            groupid.generic_primes(family, d, 3)
        )
    for family, d in wl.WORKLOADS["count-1e6"].curves:
        p = wl.count_pool()[0]
        assert wl.column_count(p, d, family) == len(pointcount.contributing_ms(p, d, family))
    spec = pointcount.curve("additive", 10, Fraction(-3, 5))
    assert wl.good_primes("additive", 10, "-3/5", 3, 500) == [
        p for p in wl.primes_between(3, 500) if pointcount.good_reduction(p, spec)
    ]


# -- statistics -----------------------------------------------------------


def test_tail_rule():
    assert metrics.tail(list(range(70)))[::2] == (75.0, 17)
    assert metrics.tail(list(range(144)))[::2] == (90.0, 14)
    assert metrics.tail(list(range(300)))[::2] == (95.0, 15)
    assert metrics.tail([3.0, 1.0, 2.0, 4.0, 6.0, 5.0])[::2] == (75.0, 1)


def test_harrell_davis_matches_scipy():
    hd = pytest.importorskip("scipy.stats.mstats").hdquantiles
    values = [((7 * k) % 11) ** 1.5 for k in range(37)]
    for q in (0.5, 0.75, 0.9):
        assert metrics.hd_quantile(values, q) == pytest.approx(float(hd(values, [q])[0]), rel=1e-12)
    assert metrics.hd_quantile([2.5] * 9, 0.9) == pytest.approx(2.5)


def test_calibration_divides_out_the_probed_slowdown():
    reqs = [{"latency_s": 1.0, "probe_s": p} for p in (1.0, 2.0, 4.0)]
    assert metrics.calibrated(reqs, 2.0, 0) == [2.0, 1.0, 0.5]
    assert metrics.calibrated(reqs, 2.0, 1) == [4 / 3, 1.0, 2 / 3]
    assert metrics.calibrated(reqs, 2.0, None) == [1.0, 1.0, 1.0]


def test_end_to_end_takes_round_medians_and_counts_failures():
    reqs = [
        {"round": 0, "latency_s": 1.0, "probe_s": 0.5, "units": 2, "ok": True},
        {"round": 0, "latency_s": 1.0, "probe_s": 0.5, "units": 0, "ok": False},
        {"round": 1, "latency_s": 2.0, "probe_s": 0.5, "units": 2, "ok": True},
        {"round": 2, "latency_s": 1.0, "probe_s": 0.5, "units": 2, "ok": True},
    ]
    setups = [{"setup_s": s, "setup_probe_s": 0.5} for s in (0.3, 0.1, 0.2)]
    e2e = metrics.end_to_end(reqs, 3, setups, 50.0, 0.25, 0)
    assert e2e["raw"]["units_per_s"] == 1.0  # rounds give 1.0, 1.0, 2.0
    assert e2e["units_per_s"] == 2.0  # the machine ran at half speed
    assert e2e["failed_frac"] == 0.25
    assert e2e["setup_s"] == 0.1 and e2e["raw"]["setup_s"] == 0.2
    assert e2e["_tail"] == {"percentile": 75.0, "beyond": 0, "samples": 3}


def test_probe_process_times_fixed_work_and_stops():
    for kind in wl.PROBE_REFERENCE_S:
        with ProbeProcess(kind) as probe:
            assert all(0 < probe.run() < 2.0 for _ in range(2))
        assert probe.proc.returncode == 0


# -- oracles --------------------------------------------------------------


def _results(runner, reqs):
    return [{"round": 0, **worker._timed(runner.call, runner.prepare(q))} for q in reqs]


def test_checks_accept_right_and_reject_wrong_outputs():
    count = worker.Runner("count")
    reqs = [{"family": "additive", "d": 12, "c": "1/2", "p": 2161},
            {"family": "linear", "d": 7, "c": "-3/5", "p": 2161}]
    res = _results(count, reqs)
    assert worker.check(count, reqs, res) == []
    res[1]["out"] += 1
    assert len(worker.check(count, reqs, res)) == 1

    st0 = worker.Runner("st0")
    reqs = [{"family": "additive", "d": 18, "c": "2"}, dict(wl.ST0_FIXED)]
    res = _results(st0, reqs)
    assert res[1]["error"].startswith("ZeroDivisionError")  # the known defect
    assert worker.check(st0, reqs, res) == []
    res[0]["out"] = groupid.identify_st0(pointcount.curve("additive", 10, 1))
    assert len(worker.check(st0, reqs, res)) == 1


def test_sweep_check_compares_every_sample(monkeypatch):
    monkeypatch.setattr(wl, "SWEEP_RANGE", (3, 400))
    sweep = worker.Runner("sweep")
    reqs = [{"family": "additive", "d": 6, "c": "3"}, {"family": "linear", "d": 5, "c": "1"}]
    res = _results(sweep, reqs)
    assert worker.check(sweep, reqs, res) == []
    out = res[0]["out"]
    wrong = out.samples[5].__class__(p=out.samples[5].p, count=0, t_p=0, x_p=0.0)
    res[0]["out"] = out.__class__(
        spec=out.spec, samples=out.samples[:5] + (wrong,) + out.samples[6:],
        moments=out.moments, class_counts=out.class_counts,
    )
    assert len(worker.check(sweep, reqs, res)) == 1


# -- tracing --------------------------------------------------------------


def _snapshot():
    return {
        (id(owner), attr): value
        for owner in tracing._binding_owners()
        for attr, value in vars(owner).items()
    }


def test_install_rebinds_every_import_and_uninstall_restores():
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracer:
        wrapped = lambda v: hasattr(tracing._raw(v), "__perfbench_original__")  # noqa: E731
        for owner, attr in [
            (pointcount, "jacobi_sum_compact"),
            (stmatrix, "jacobi_sum_compact"),
            (pointcount, "make_field"),
            (stmatrix, "make_field"),
            (groupid, "make_field"),
            (groupid, "build_matrix"),
            (stmatrix, "is_root_of_unity"),
            (sys.modules["stjac"], "identify_st0"),
        ]:
            assert wrapped(getattr(owner, attr)), (owner.__name__, attr)
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "lift", "from_int_coeffs"):
            assert wrapped(vars(cyclo.CycloElt)[attr]), attr
        assert isinstance(vars(cyclo.CycloElt)["from_int_coeffs"], staticmethod)
        targets = {id(tracing._resolve(m, p)) for m, p in tracing.SPANS.values()}
        leftover = [k for k, v in before.items() if id(v) in targets and k not in
                    {(id(o), a) for o, a, _ in tracer._patches}]
        assert leftover == []
    assert _snapshot() == before


def _run_all(runner, args_list, tracer=None):
    outs = []
    for i, args in enumerate(args_list):
        try:
            outs.append(runner.call(args) if tracer is None
                        else tracer.run_request(i, runner.call, args))
        except Exception as exc:
            outs.append(f"{type(exc).__name__}: {exc}")
    return outs


def test_traced_outputs_match_and_spans_are_consistent():
    cases = [
        ("count", [{"family": "additive", "d": 12, "c": "1/2", "p": 2161}]),
        ("sweep", [{"family": "additive", "d": 9, "c": "1", "hi": 300}]),
        ("st0", [{"family": "additive", "d": 10, "c": "-1"}, dict(wl.ST0_FIXED)]),
    ]
    tracer = tracing.Tracer()
    for kind, reqs in cases:
        runner = worker.Runner(kind)
        args = [runner.prepare(q) for q in reqs]
        plain = _run_all(runner, args)
        with tracer:
            traced = _run_all(runner, args, tracer)
        assert traced == plain
    assert plain[1].startswith("ZeroDivisionError")

    summary = tracer.summary()
    spans, counts = summary["spans"], summary["counters"]
    assert all(s["calls"] > 0 for name, s in spans.items() if name != "cyclo.CycloElt.add")
    for s in spans.values():
        assert 0 <= s["self_s"] <= s["busy_s"]
    # every child lies inside its parent, in the same request
    for i, par in enumerate(tracer.parent):
        if par >= 0:
            assert tracer.start[par] <= tracer.start[i] <= tracer.end[i] <= tracer.end[par]
            assert tracer.request[par] == tracer.request[i]
        else:
            assert tracer.names[tracer.name_id[i]] == tracing.REQUEST
    fields = spans["ffield.make_field"]["calls"]
    assert counts["ffield.make_field.table_bytes"] > 8 * 3 * fields
    assert counts["pointcount.count_formula.columns"] == spans["charsums.jacobi_sum_compact"][
        "calls"] - spans["stmatrix.frobenius_factor"]["calls"] + spans["stmatrix.frobenius_factor"]["errors"]
    assert counts["_accel.char_pair_histogram.elements"] > 0
    verified = sum(counts[f"stmatrix.verify_relation.{k}"] for k in ("exact", "torsion", "fail"))
    assert verified == spans["stmatrix.verify_relation"]["calls"] - spans["stmatrix.verify_relation"]["errors"]
    # x^10-1 builds 4 matrices for 3 primes; x^6+7 fails after its first
    assert counts["stmatrix.build_matrix.useful_ratio"] == 4 / 5
    assert counts["spans.errors"] >= 3  # frobenius_factor, verify_relation, identify_st0
    values = metrics.per_layer(summary, 0.1)
    assert list(values) == [name for name, _, _ in metrics.PER_LAYER]


def test_summary_rejects_negative_self_time():
    tracer = tracing.Tracer()
    with tracer:
        tracer.run_request(0, pointcount.curve, "additive", 6, 1)
    tracer.end[0] = tracer.start[0]  # the request now ends before it began
    tracer.start[0] += 1
    with pytest.raises(AssertionError):
        tracer.summary()


# -- contract -------------------------------------------------------------


def test_benchmark_json_lists_the_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        metrics.PER_LAYER
    )


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-1e6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
