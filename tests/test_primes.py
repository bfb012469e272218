import math
import tracemalloc

import numpy as np

from stjac import pointcount, primes
from stjac.ffield import P_MAX
from stjac.pointcount import curve, good_primes
from stjac.primes import divisors, euler_phi, factorize, is_prime, mobius, prime_range, v2


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(104729)
    assert not is_prime(104729 * 104723)
    assert is_prime(2**31 - 1)


def test_prime_range_matches_is_prime():
    assert prime_range(3, 100) == [n for n in range(3, 101) if is_prime(n)]
    assert prime_range(10, 10) == []


def _full_sieve(lo, hi):
    """Reference: one bool per integer up to hi."""
    if hi < 2 or hi < lo:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(p) for p in np.nonzero(sieve)[0] if p >= lo]


def test_segmented_prime_range_matches_full_sieve():
    ranges = [(0, 0), (-5, 1), (-5, 2), (2, 2), (2, 3), (4, 4), (17, 17), (18, 18), (5, 3),
              (1, 50), (3, 10**5), (49, 49), (48, 53), (10**6, 10**6 + 1000),
              (10**7 - 500, 10**7 + 500), (10**7, 10**7)]
    # windows that end next to the square of a sieving prime
    ranges += [(lo, q * q + e) for q in (2, 3, 5, 7, 11, 13) for e in (-1, 0, 1)
               for lo in (0, q * q - 3)]
    ranges += [(lo, hi) for lo in range(4) for hi in range(5)]
    for lo, hi in ranges:
        assert prime_range(lo, hi) == _full_sieve(lo, hi), (lo, hi)
    assert all(type(p) is int for p in prime_range(3, 100))
    # the full sieve to P_MAX would take 2 GB; its top window against is_prime
    top = [n for n in range(P_MAX - 300, P_MAX + 1) if is_prime(n)]
    assert prime_range(P_MAX - 300, P_MAX) == top and top[-1] == P_MAX


def test_good_primes_enter_prime_range_once(monkeypatch):
    # the sieve finds its own sieving primes below the public name, so a
    # wrapper around prime_range sees one call, not one per recursion level
    calls = []
    real = primes.prime_range

    def counted(lo, hi):
        calls.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(primes, "prime_range", counted)
    monkeypatch.setattr(pointcount, "prime_range", counted)
    spec = curve("additive", 9, 1)
    got = good_primes(spec, 3, 10**6)
    assert calls == [(3, 10**6)]
    assert got == [p for p in real(3, 10**6) if p != 3]


def test_prime_range_window_costs_the_window(deadline):
    # the full sieve allocated one bool per integer up to hi (1 GB here)
    tracemalloc.start()
    try:
        with deadline(2):
            window = prime_range(10**9, 10**9 + 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window == [n for n in range(10**9, 10**9 + 1001) if is_prime(n)]
    assert len(window) == 49
    assert peak <= 1 << 20


def test_factorize_roundtrip():
    for n in list(range(1, 200)) + [2**10 * 3**4 * 101]:
        f = factorize(n)
        prod = 1
        for q, e in f.items():
            assert is_prime(q)
            prod *= q**e
        assert prod == n


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(18) == 6
    assert euler_phi(192) == 64
    # phi(n) = # units mod n
    for n in range(1, 60):
        import math

        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        # the Moebius function sums to 0 over the divisors of every n > 1
        assert sum(mobius(k) for k in divisors(n)) == (n == 1)
    assert [mobius(n) for n in (1, 2, 6, 12, 30)] == [1, -1, 1, 0, -1]


def test_v2():
    assert v2(1) == 0
    assert v2(12) == 2
    assert v2(64) == 6
