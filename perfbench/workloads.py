"""Workload definitions and seeded input generation (standard library only).

Every workload is a closed loop: one caller in one single-threaded process
sends the next request only after the previous one returned.  Requests are
grouped into rounds; a round holds every curve of the workload's pool once,
in a seeded order and with a seeded twist c, so every run measures the same
mix of work whatever the seed.  The amount of work is fixed by --seconds
(``rounds_for``), never by how fast the machine happens to be, so a slower
or faster commit measures exactly the same requests.

Nothing here imports stjac: the inputs and the independent parts of the
oracles (prime lists, good reduction, generic primes) are computed from
first principles so they cannot share a bug with the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Machine-speed probe seconds at reference speed (see probe.py): the median
# on the machine the benchmark was calibrated on, a 2-core Intel Xeon VM
# with CPython 3.11 and numpy 2.4.
PROBE_REFERENCE_S = {"hist": 0.0403, "frac": 0.0031, "mix": 0.0024}

# Twists drawn for every request (balanced over rounds, see schedule).
C_VALUES = ("1", "2", "3", "5", "-1", "1/2", "-3/5")

ADDITIVE = "additive"
LINEAR = "linear"

SWEEP_RANGE = (3, 20000)
COUNT_MODULUS = 720  # p = 1 mod 720 splits every curve of the count pool
COUNT_RANGE = (10**6, 12 * 10**5)

# Acceptance-curve tori, d=18 pinned to the documented 3-torus (the test
# target U(1)_2^4 is unattainable, see README).  d in {30, 36, 40} and the
# linear d in {5, 11, 13} are recorded from the seed commit as golden values;
# the linear 7 and 9 values are the ones tests/test_groupid.py asserts.
ST0_PINNED = {
    (ADDITIVE, 6): ("U(1)_2", 1),
    (ADDITIVE, 8): ("U(1)_2 x U(1)", 2),
    (ADDITIVE, 9): ("U(1) x U(1) x U(1)", 3),
    (ADDITIVE, 10): ("U(1)_2 x U(1)_2", 2),
    (ADDITIVE, 12): ("U(1)_3 x U(1)_2", 2),
    (ADDITIVE, 14): ("U(1)_2 x U(1)_2 x U(1)_2", 3),
    (ADDITIVE, 16): ("U(1)_2 x U(1)_2 x U(1)_2 x U(1)", 4),
    (ADDITIVE, 18): ("U(1) x U(1) x U(1)", 3),
    (ADDITIVE, 20): ("U(1)_4 x U(1)_2 x U(1)_2 x U(1)", 4),
    (ADDITIVE, 24): ("U(1)_4 x U(1)_3 x U(1)_2 x U(1)_2", 4),
    (ADDITIVE, 30): (" x ".join(["U(1)"] * 4), 4),
    (ADDITIVE, 36): (" x ".join(["U(1)"] * 6), 6),
    (ADDITIVE, 40): (" x ".join(["U(1)"] * 8), 8),
    (LINEAR, 5): ("U(1)_2", 1),
    (LINEAR, 7): ("U(1)_3", 1),
    (LINEAR, 9): ("U(1)_2 x U(1)_2", 2),
    (LINEAR, 11): ("U(1)_4 x U(1)", 2),
    (LINEAR, 13): ("U(1)_4 x U(1)_2", 2),
}

# x^6 + 7: c vanishes at the generic prime 7, which identify_st0 does not
# guard against today; the request stays in every round and counts as failed.
ST0_FIXED = {"family": ADDITIVE, "d": 6, "c": "7"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "count" | "sweep" | "st0"
    curves: tuple[tuple[str, int], ...]
    round_seconds: float  # nominal length of one round on the seed commit
    trace_rounds: int  # rounds measured (twice) by a traced run
    unit: str  # what units_per_s counts
    probe: str  # machine-speed probe kind, see probe.py
    probe_window: int | None  # requests either side whose probes calibrate one; None: all
    warmup: dict  # fixed, seed-independent warm-up request


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="count-1e6",
            kind="count",
            curves=tuple((ADDITIVE, d) for d in (9, 10, 12, 18, 24))
            + tuple((LINEAR, d) for d in (7, 9)),
            round_seconds=2.5,
            trace_rounds=2,
            unit="point counts per second",
            probe="hist",
            probe_window=10,
            # the first prime = 1 mod 720 above the pool: the allocator has
            # seen the largest arrays of the run before timing starts
            warmup={"family": ADDITIVE, "d": 12, "c": "1", "p": 1203121},
        ),
        Workload(
            name="sweep-2e4",
            kind="sweep",
            curves=tuple((ADDITIVE, d) for d in (6, 9, 10, 12))
            + tuple((LINEAR, d) for d in (5, 7)),
            round_seconds=18.0,
            trace_rounds=1,
            unit="primes sampled per second",
            probe="mix",
            probe_window=None,  # a sweep lasts seconds: calibrate by the whole run
            # a short sweep: the full one would bury import cost in setup_s
            warmup={"family": ADDITIVE, "d": 6, "c": "1", "hi": 2000},
        ),
        Workload(
            name="st0-curves",
            kind="st0",
            curves=tuple((ADDITIVE, d) for d in (6, 8, 9, 10, 12, 14, 16, 18, 20, 24))
            + tuple((ADDITIVE, d) for d in (30, 36, 40))
            + tuple((LINEAR, d) for d in (5, 7, 9, 11, 13)),
            round_seconds=2.8,
            trace_rounds=3,
            unit="curves identified per second",
            probe="frac",
            probe_window=0,
            warmup={"family": ADDITIVE, "d": 10, "c": "1"},
        ),
    )
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a plain Eratosthenes sieve."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def count_pool() -> list[int]:
    """Distinct primes p = 1 mod 720 in [10^6, 1.2*10^6], ascending."""
    lo, hi = COUNT_RANGE
    start = lo + (1 - lo) % COUNT_MODULUS
    return [p for p in range(start, hi + 1, COUNT_MODULUS) if is_prime(p)]


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds one run measures: --seconds worth at the nominal round length,
    capped by the distinct primes available to count-1e6."""
    rounds = max(1, round(seconds / workload.round_seconds))
    if workload.kind == "count":
        rounds = min(rounds, len(count_pool()) // len(workload.curves))
    return rounds


def schedule(workload: Workload, seed: int, rounds: int) -> list[list[dict]]:
    """The requests of each round.  Same (workload, seed) -> same inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    primes = count_pool() if workload.kind == "count" else []
    rng.shuffle(primes)
    # c is balanced: curve k gets C_VALUES[(offset_k + round) % 7], so over
    # any 7 rounds every curve meets every twist once (c moves the cost of
    # the relation checks), and seeds differ only in offsets and order
    offsets = {curve: rng.randrange(len(C_VALUES)) for curve in workload.curves}
    out = []
    for r in range(rounds):
        curves = list(workload.curves)
        rng.shuffle(curves)
        reqs = [
            {"family": f, "d": d, "c": C_VALUES[(offsets[f, d] + r) % len(C_VALUES)]}
            for f, d in curves
        ]
        if workload.kind == "count":
            for req in reqs:
                req["p"] = primes.pop()  # never reused within a run
        if workload.kind == "st0":
            reqs.insert(rng.randrange(len(reqs) + 1), dict(ST0_FIXED))
        out.append(reqs)
    return out


def describe(req: dict) -> str:
    head = f"x^{req['d']}"
    tail = f"({req['c']})*x" if req["family"] == LINEAR else f"({req['c']})"
    text = f"y^2={head}+{tail}"
    if "p" in req:
        text += f" p={req['p']}"
    return text


# -- independent oracle pieces ------------------------------------------


def good_primes(family: str, d: int, c: str, lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi] at which the curve has good reduction:
    p must not divide 2 * deg * num(c) * den(c), deg = d (additive) or d-1."""
    q = Fraction(c)
    degree = d if family == ADDITIVE else d - 1
    bad = 2 * degree * q.numerator * q.denominator
    return [p for p in primes_between(max(3, lo), hi) if bad % p]


def generic_modulus(family: str, d: int) -> int:
    return math.lcm(2, d) if family == ADDITIVE else 2 * (d - 1)


def first_generic_primes(family: str, d: int, count: int = 3) -> tuple[int, ...]:
    """Every prime p = 1 mod the generic modulus splits the curve fully."""
    mod = generic_modulus(family, d)
    found = []
    p = mod + 1
    while len(found) < count:
        if is_prime(p):
            found.append(p)
        p += mod
    return tuple(found)


def column_count(p: int, d: int, family: str) -> int:
    """Characters in the point-count formula at p (formula columns)."""
    n = p - 1
    if family == ADDITIVE:
        return math.gcd(d, n) - 1
    mod = 2 * (d - 1)
    return sum(1 for t in range(1, mod, 2) if (t * n) % mod == 0)
