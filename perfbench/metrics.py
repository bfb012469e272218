"""Metric definitions and the statistics behind them (standard library only).

BENCHMARK.json lists the same metrics; perfbench/tests/test_perfbench.py checks that
the two agree.
"""

from __future__ import annotations

import math
import statistics

from tracing import COUNTERS, SPANS

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("units_per_s", "1/s", "higher", 0.22),
    ("request_p50_s", "s", "lower", 0.24),
    ("request_tail_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Spans every workload calls.  Only these get time metrics in the per-layer
# list of BENCHMARK.json, so no reported time is a constant zero; the full table of
# every span (calls, busy_s, self_s, errors) is printed and written out by
# every traced run.
TIMED_SPANS = (
    "ffield.make_field",
    "_accel.dlog_table",
    "_accel.char_pair_histogram",
    "charsums.jacobi_sum_compact",
    "cyclo.CycloElt.mul",
    "cyclo.CycloElt.lift",
    "cyclo.CycloElt.from_int_coeffs",
)

_COUNTER_UNITS = {
    "ffield.make_field.table_bytes": ("B", "lower"),
    "_accel.char_pair_histogram.elements": ("count", "lower"),
    "_accel.char_pair_histogram.bytes_computed": ("B", "lower"),
    "pointcount.count_formula.columns": ("count", "lower"),
    "cyclo.max_conductor": ("count", "lower"),
    "stmatrix.build_matrix.cells": ("count", "lower"),
    "stmatrix.build_matrix.useful_ratio": ("ratio", "higher"),
    "stmatrix.verify_relation.exact": ("count", "higher"),
    "stmatrix.verify_relation.torsion": ("count", "higher"),
    "stmatrix.verify_relation.fail": ("count", "lower"),
    "spans.errors": ("count", "lower"),
}

PER_LAYER = (
    *((f"{s}.calls", "count", "lower") for s in SPANS),
    *((f"{s}.{k}", "s", "lower") for s in TIMED_SPANS for k in ("busy_s", "self_s")),
    *((c, *_COUNTER_UNITS[c]) for c in COUNTERS),
    ("trace_overhead_frac", "frac", "lower"),
)

# Tail percentiles tried from the top; the first with >= 10 samples beyond
# it is reported.  Below 40 samples none qualifies, and p75 is reported
# with the (fewer than 10) samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A weighted mean of all order statistics, steadier than any single one
    on the lumpy, mixed-curve latency distributions of these workloads.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by the ladder rule above."""
    n = len(values)
    for q in TAIL_LADDER:
        beyond = n - math.ceil(q / 100 * n)
        if beyond >= TAIL_MIN_BEYOND or q == TAIL_LADDER[-1]:
            return q, hd_quantile(values, q / 100), beyond


def _figures(requests, rounds, latency) -> dict:
    per_round = []
    for r in range(rounds):
        reqs = [i for i, q in enumerate(requests) if q["round"] == r]
        units = sum(requests[i]["units"] for i in reqs)
        per_round.append(units / sum(latency[i] for i in reqs))
    lat = [latency[i] for i, q in enumerate(requests) if q["ok"]]
    q, tail_value, beyond = tail(lat)
    return {
        "units_per_s": statistics.median(per_round),
        "request_p50_s": hd_quantile(lat, 0.5),
        "request_tail_s": tail_value,
        "_tail": {"percentile": q, "beyond": beyond, "samples": len(lat)},
    }


def calibrated(requests, reference_s: float, window) -> list[float]:
    """Latencies at reference machine speed (see probe.py).

    A request's slowdown is the median of the probes within `window`
    requests of it divided by reference_s; window None takes every probe of
    the run, for requests that outlast the machine's steady spells.
    """
    probes = [q["probe_s"] for q in requests]
    out = []
    for i, q in enumerate(requests):
        near = probes if window is None else probes[max(0, i - window) : i + window + 1]
        out.append(q["latency_s"] * reference_s / statistics.median(near))
    return out


def end_to_end(requests, rounds, setups, peak_rss_mb, reference_s, window) -> dict:
    """End-to-end figures of one untraced run: calibrated, and raw under "raw".

    requests: dicts with latency_s, probe_s, units, ok and round; setups:
    dicts with setup_s and setup_probe_s, one per fresh process, calibrated
    like the requests.  units_per_s is the median over rounds of (units in the round / its
    busy time); every round holds the same mix, so the median damps a stall
    in one round.  Latencies are those of successful requests, and their
    quantiles are Harrell-Davis estimates; failures are counted.
    """
    if not any(q["ok"] for q in requests):
        raise ValueError("no request succeeded")
    out = _figures(requests, rounds, calibrated(requests, reference_s, window))
    out["raw"] = _figures(requests, rounds, [q["latency_s"] for q in requests])
    out["setup_s"] = statistics.median(s["setup_s"] * reference_s / s["setup_probe_s"] for s in setups)
    out["raw"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    out["peak_rss_mb"] = out["raw"]["peak_rss_mb"] = peak_rss_mb
    out["failed_frac"] = sum(1 for q in requests if not q["ok"]) / len(requests)
    return out


def per_layer(summary: dict, overhead: float) -> dict:
    spans, counters = summary["spans"], summary["counters"]
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace_overhead_frac":
            out[name] = overhead
        elif name in counters:
            out[name] = counters[name]
        else:
            span, key = name.rsplit(".", 1)
            out[name] = spans[span][key]
    return out
