"""Prime and integer helpers, deterministic at desk scale."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

# Deterministic Miller-Rabin witness set for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Ladder primes stay below 2^31, so a product of two residues fits in int64.
SPLIT_PRIME_BOUND = 2**31

_ladders: dict[int, list[int]] = {}  # L -> the primes of its ladder found so far


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ladder_prime(L: int, i: int) -> int | None:
    """The i-th prime l = 1 (mod L) below 2^31, counting down from the top
    (for L = 2, the i-th odd prime below 2^31), or None if there are fewer.

    Each L keeps one ladder per process, walked down from its lowest prime
    found so far, so a cold call far down is one walk and no recursion.
    """
    found = _ladders.setdefault(L, [])
    top = found[-1] // L - 1 if found else (SPLIT_PRIME_BOUND - 2) // L
    walk = (j * L + 1 for j in range(top, 0, -1) if is_prime(j * L + 1))
    found.extend(islice(walk, max(0, i + 1 - len(found))))
    return found[i] if i < len(found) else None


def prime_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    return _segment(max(lo, 2), hi)


def _segment(lo: int, hi: int) -> list[int]:
    """The primes of [lo, hi] for lo >= 2, by a segmented sieve: one bool per
    integer of the window, struck out by the primes up to sqrt(hi), which
    this sieve finds on [2, sqrt(hi)].  A narrow window of large primes
    costs about sqrt(hi) and not hi.  The recursion stays below the public
    name, so a caller that wraps ``prime_range`` sees one call.
    """
    if hi < lo:
        return []
    seg = np.ones(hi - lo + 1, dtype=bool)
    for q in _segment(2, math.isqrt(hi)):
        seg[max(q * q, -(-lo // q) * q) - lo :: q] = False
    return (np.flatnonzero(seg) + lo).tolist()


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 5
    while f * f <= n:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for q, e in factorize(n).items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for q, e in factorize(n).items():
        phi *= (q - 1) * q ** (e - 1)
    return phi


def mobius(n: int) -> int:
    """Moebius function: 0 unless n >= 1 is squarefree, else (-1)^(number of primes)."""
    f = factorize(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v2(0) is undefined")
    return (n & -n).bit_length() - 1
