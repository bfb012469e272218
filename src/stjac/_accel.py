"""Hot numeric kernels, written as whole-array numpy passes.

There is one backend, ``BACKEND = "numpy"``.  Every kernel is one O(p)
vectorized pass; the Python-level loops are O(sqrt(p)) at most.

Range: the callers keep p <= ``ffield.P_MAX`` = 2^31 - 1, so a dlog value
(< n = p - 1) fits in int32, and a product a * dlog (< n^2) or of two
residues mod p (< p^2 < 2^62) fits in int64.  ``step_factorials`` serves
the Hasse-Witt trace of the sweep; the other kernels serve Jacobi sums.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"


def dlog_table(p: int, g: int) -> np.ndarray:
    """dlog[x] = e with g^e = x mod p for units x; dlog[0] = -1.

    Baby-step blocks keep the Python-level loop at O(sqrt(p)).
    """
    dlog = np.full(p, -1, dtype=np.int64)
    block_len = max(1, math.isqrt(p - 1))
    block = np.empty(block_len, dtype=np.int64)
    v = 1
    for i in range(block_len):
        block[i] = v
        v = (v * g) % p
    stride = v  # g^block_len
    offsets = np.arange(block_len, dtype=np.int64)
    acc = 1
    for start in range(0, p - 1, block_len):
        count = min(block_len, p - 1 - start)
        values = (acc * block[:count]) % p
        dlog[values] = start + offsets[:count]
        acc = (acc * stride) % p
    return dlog


def char_pair_histogram(u: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Histogram over e of a*u(x) + b*u(1-x) mod n, x in F_p minus {0, 1}.

    ``u`` is any nonnegative integer table indexed by x in F_p (p = n + 1):
    the dlog table itself, or its residues mod some M (int64 or int32); a,
    b >= 0.  The bins stop at the largest reachable key, n if it can wrap:
    residues mod M with a = M, b = 1 give M^2 bins and no n-length array.
    """
    p, bins = n + 1, min(n, (a + b) * int(u[2:].max()) + 1)
    chunk = max(1 << 16, bins)
    hist = np.zeros(bins, dtype=np.int64)
    for s in range(2, p, chunk):
        e = min(s + chunk, p)
        # x = s .. e-1 reads u[s:e]; 1 - x = p+1-s .. p+2-e reads a reversed view
        keys = (a * u[s:e] + b * u[p + 2 - e : p + 2 - s][::-1]) % n
        hist += np.bincount(keys, minlength=bins)
    return hist


def step_factorials(p: int, h: int, step: int) -> list[int]:
    """(k*step)! mod p for k = 0 .. h // step, with step | h and h < p.

    The factors 1..h form h // step rows of length step; each row is
    multiplied out by halving its width in place, and the few row
    products are chained into prefix products in Python.
    """
    rows = np.arange(1, h + 1, dtype=np.int64).reshape(h // step, step)
    while rows.shape[1] > 1:
        # column i takes column i + keep; an odd middle column waits a round
        keep, half = (rows.shape[1] + 1) // 2, rows.shape[1] // 2
        left = rows[:, :half]
        left *= rows[:, keep:]
        left %= p
        rows = rows[:, :keep]
    out = [1]
    for r in rows[:, 0].tolist():
        out.append(out[-1] * r % p)
    return out


def affine_count(p: int, d: int, c: int, linear: bool) -> int:
    """Number of (x, y) in F_p^2 with y^2 = x^d + c (or + c*x)."""
    y = np.arange(p, dtype=np.int64)
    nsq = np.bincount((y * y) % p, minlength=p).astype(np.int64)
    x = np.arange(p, dtype=np.int64)
    v = np.ones(p, dtype=np.int64)
    base = x.copy()
    e = d
    while e:
        if e & 1:
            v = (v * base) % p
        base = (base * base) % p
        e >>= 1
    f = (v + c * x) % p if linear else (v + c) % p
    return int(nsq[f].sum())
