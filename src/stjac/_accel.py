"""Hot numeric kernels.

There is one backend, ``BACKEND = "numpy"``.  The Jacobi-sum and counting
kernels are whole-array passes, O(p) each, in chunks of about 2^16
elements.  Range: the callers keep p <= ``ffield.P_MAX`` = 2^31 - 1, so a
dlog table (residues mod m | p - 1) needs at most int32, and the kernels
form every product a * dlog (< n^2, n = p - 1) and every product of two
residues mod p (< p^2 < 2^62) in int64.
``prefix_factorials`` serves the Hasse-Witt traces of a sweep on Python
ints: one remainder tree for all the factorials of all the primes.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# elements per chunk of the O(p) passes
_CHUNK = 1 << 16


def dlog_table(p: int, g: int, m: int) -> np.ndarray:
    """r[x] = (dlog x) mod m for units x, with g^(dlog x) = x mod p; r[0] = -1.

    m must divide p - 1; m = p - 1 gives the full table.  The dtype is the
    smallest signed one that holds m - 1.  The powers g^e come in chunks of
    about 2^16 whose length is a multiple of m when m is that small, so the
    label e mod m of column j of every chunk is j mod m.
    """
    n = p - 1
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if m - 1 <= np.iinfo(t).max)
    r = np.full(p, -1, dtype=dtype)
    chunk = min(n, m * -(-_CHUNK // m)) if m <= _CHUNK else _CHUNK
    # powers[j] = g^j mod p for j < chunk, by doubling; products stay < p^2 < 2^62
    powers = np.empty(chunk, dtype=np.int64)
    powers[0] = 1
    k, gk = 1, g % p
    while k < chunk:
        t = min(k, chunk - k)
        np.multiply(powers[:t], gk, out=powers[k : k + t])
        powers[k : k + t] %= p
        k += t
        gk = gk * gk % p
    labels = (np.arange(chunk) % m).astype(dtype) if m <= _CHUNK else None
    stride = pow(g, chunk, p)
    acc = 1
    for start in range(0, n, chunk):
        count = min(chunk, n - start)
        values = powers[:count] * acc
        # x - (x // p) * p: numpy divides by a scalar without a hardware
        # division per element, which x % p does not
        values -= values // p * p
        if labels is None:
            r[values] = np.arange(start, start + count) % m
        else:
            r[values] = labels[:count]
        acc = acc * stride % p
    return r


def char_pair_histogram(u: np.ndarray, a: int, b: int, n: int, bins: int) -> np.ndarray:
    """Histogram over e of a*u(x) + b*u(1-x) mod n, x in F_p minus {0, 1}.

    ``u`` is a table of ``dlog_table`` (p = n + 1): the full one, or the
    residues mod some M; a, b >= 0.  ``bins`` must exceed every key: n for
    the full table, M^2 for residues mod M with a = M, b = 1 (then no
    n-length array is built).  The keys are int64, so a*u(x) (< n^2 < 2^62)
    cannot wrap; they are reduced mod n only when the dtype of u lets them
    reach n.  There is at least one chunk, since p >= 3.
    """
    p = n + 1
    # entries of u are below 2^(bits - 1); keys below n need no reduction
    reduce = (a + b) << (8 * u.itemsize - 1) > n
    chunk = max(_CHUNK, bins)
    hist = 0
    for s in range(2, p, chunk):
        e = min(s + chunk, p)
        # x = s .. e-1 reads u[s:e]; 1 - x = p+1-s .. p+2-e reads a reversed view
        keys = u[s:e].astype(np.int64)
        keys *= a
        rev = u[p + 2 - e : p + 2 - s][::-1]
        keys += rev if b == 1 else b * rev.astype(np.int64)
        if reduce:
            keys %= n
        hist = hist + np.bincount(keys, minlength=bins)
    return hist


def prefix_factorials(xs: list[int], ms: list[int]) -> list[int]:
    """[x_i! mod m_i] for ascending xs >= 0 and moduli m_i >= 1.

    One accumulating remainder tree (Costa-Gerbicz-Harvey 2014): leaf i
    holds m_i and A_i = prod of t over x_{i-1} < t <= x_i, so x_i! is
    A_1...A_i.  Walking down from the root, each node carries the product
    of the A left of it modulo the product of its own moduli; a right child
    takes v * A_left mod M_right.  Every modulus divides the root modulus,
    so a leaf whose A would be wider than it is folded modulo it: a narrow
    window of large x does not pay for the exact (x_1)!.
    """
    if not xs:
        return []
    mods = _product_levels(ms)
    cap = math.prod(mods[-1])
    leaves, prev = [], 0
    for x in xs:
        leaves.append(_interval_product(prev, x, cap))
        prev = x
    prods = _product_levels(leaves)
    vals = [1]
    while mods:
        # the (at most two) nodes of the top level are the root's children
        mod, prod = mods.pop(), prods.pop()
        down = []
        for i, v in enumerate(vals):
            down.append(v % mod[2 * i])
            if 2 * i + 1 < len(mod):
                down.append(v * prod[2 * i] % mod[2 * i + 1])
        vals = down
    return [v * a % m for v, a, m in zip(vals, prod, mod)]


def _product_levels(values: list[int]) -> list[list[int]]:
    """Product-tree levels, leaves first, up to a level of at most two nodes.

    Node i of a level is the product of nodes 2i and 2i + 1 below it; an
    odd last node moves up alone.
    """
    levels = [values]
    while len(values) > 2:
        up = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            up.append(values[-1])
        levels.append(up)
        values = up
    return levels


def _interval_product(lo: int, hi: int, cap: int) -> int:
    """prod of t over lo < t <= hi; folded modulo cap in chunks when the
    exact product would be wider than the cap."""
    width = hi.bit_length()
    bits = cap.bit_length()
    if (hi - lo) * width <= bits:
        return _range_product(lo, hi)
    # chunks as wide as the cap, but at least 2^10 bits: the cap of one
    # prime is a few hundred bits, and narrow chunks cost a Python step each
    chunk = max(bits, 1 << 10) // width
    acc = 1
    for s in range(lo, hi, chunk):
        acc = acc * _range_product(s, min(s + chunk, hi)) % cap
    return acc


def _range_product(lo: int, hi: int) -> int:
    """prod of t over lo < t <= hi, split in halves so the operands stay balanced."""
    if hi - lo <= 32:
        return math.prod(range(lo + 1, hi + 1))
    mid = (lo + hi) // 2
    return _range_product(lo, mid) * _range_product(mid, hi)


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
