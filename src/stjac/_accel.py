"""Hot numeric kernels.

There is one backend, ``BACKEND = "numpy"``.  The Jacobi-sum and counting
kernels are whole-array passes, O(p) each, in chunks of about 2^15
elements: a chunk of the walk (int64 powers and the scratch of their
reduction) then stays in a 2 MB L2 next to a p/2-byte table near p = 10^6.
A dlog table holds y <= (p-1)/2 only: the walk over g^e, e < (p-1)/2,
meets each pair {y, p - y} once and writes the smaller, and
dlog(-y) = dlog y + (p-1)/2 gives the other.  The histogram pass of a
point count reads that half forward, as the pairs (dlog x, dlog(x-1)) for
2 <= x <= (p-1)/2, dlog(1-x) being dlog(x-1) + (p-1)/2: into the M x M
joint table of (dlog x, dlog(1-x)) mod M when M^2 <= p - 1 (plus its
transpose, the images 1 - x), and otherwise into the M x 2 table of
(dlog x mod M, parity of dlog(1-x)), counted twice over the same pairs.
Range: the callers keep p <= ``ffield.P_MAX`` = 2^31 - 1, so a
dlog table (residues mod m | p - 1) needs at most int32, a histogram key
(< m*k <= 2(p - 1)) at most int64, and the kernels form every product of
two residues mod p (< p^2 < 2^62) in int64.  Tables and keys take the
smallest signed type that holds their largest value.
``prefix_factorials`` serves the Hasse-Witt traces of a sweep: one
remainder tree on Python ints for all the factorials of all the primes,
whose leaves are bundles of nearby requests, each finished by one ``%``
and int64 products: every modulus is below 2^31.
``pow_mod`` is the elementwise power with which the traces combine them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BACKEND = "numpy"

# elements per chunk of the O(p) passes
_CHUNK = 1 << 15
# leaves of the remainder tree: bundles of at most _BUNDLE requests within
# _BUNDLE_WIDTH of the bundle's first x, finished in int64
_BUNDLE = 16
_BUNDLE_WIDTH = 64


def dlog_table(p: int, g: int, m: int) -> np.ndarray:
    """r[y] = (dlog y) mod m for 1 <= y <= h = (p - 1)/2, with g^(dlog y) = y
    mod p; r[0] = -1.

    m must divide p - 1; m = p - 1 gives the full logs.  The table holds
    h + 1 entries: g^h = -1, so dlog(p - y) = dlog y + h, which is how
    ``ffield.PrimeField.dlog`` reads the other half.  The walk over e < h
    visits each pair {y, p - y} once, as v = g^e, and writes min(v, p - v)
    with the label e mod m, or (e + h) mod m when v > h.  The dtype is the
    smallest signed one that holds m - 1.  The powers g^e come in chunks of
    about 2^15 (see the module docstring) whose length is a multiple of m
    when m is that small, so the label e mod m of column j of every chunk
    is j mod m, and (e + h) mod m is (j + s) mod m, s = h mod m.
    """
    h = (p - 1) // 2
    s = h % m
    dtype = np.min_scalar_type(-m)  # the smallest signed type that holds m - 1
    unsigned = dtype.str.replace("i", "u")
    r = np.empty(h + 1, dtype=dtype)
    r[0] = -1
    # labels are written unsigned: j + s < 2m - 1 fits that width, and a
    # scatter of the table's own dtype does not cast
    out = r.view(unsigned)
    chunk = min(h, m * -(-_CHUNK // m) if m <= _CHUNK else _CHUNK)
    # powers[j] = g^j mod p for j < chunk, by doubling; products stay < p^2 < 2^62
    powers = np.empty(chunk, dtype=np.int64)
    spare = np.empty(chunk, dtype=np.int64)  # the quotients of _reduce, then min(v, p - v)
    powers[0] = 1
    k, gk = 1, g % p
    while k < chunk:
        t = min(k, chunk - k)
        block = powers[k : k + t]
        np.multiply(powers[:t], gk, out=block)
        _reduce(block, p, spare[:t])
        k += t
        gk = gk * gk % p
    # tile[j] = j mod m
    tile = np.tile(np.arange(m, dtype=unsigned), -(-chunk // m)) if m <= _CHUNK else None
    stride = pow(g, chunk, p)
    for start in range(0, h, chunk):
        count = min(chunk, h - start)
        values = powers[:count]
        if start:  # g^(start + j) = g^(start - chunk + j) * g^chunk, in place
            values *= stride
            _reduce(values, p, spare[:count])
        if tile is None:
            labels = (np.arange(start, start + count) + s * (values > h)) % m
        elif s:
            labels = np.multiply(values > h, s, dtype=unsigned)
            labels += tile[:count]
            np.minimum(labels, labels - m, out=labels)  # mod m: below m, labels - m wraps above
        else:
            labels = tile[:count]
        y = np.subtract(p, values, out=spare[:count])
        out[np.minimum(y, values, out=y)] = labels
    return r


def _reduce(x: np.ndarray, p: int, q: np.ndarray) -> None:
    """x %= p in place for x >= 0, as x - (x // p) * p, with q (x's length)
    for the quotients: numpy divides by a scalar without a hardware
    division per element, which x % p does not."""
    np.floor_divide(x, p, out=q)
    q *= p
    x -= q


def char_pair_histogram(u: np.ndarray, m: int, k: int, n: int) -> np.ndarray:
    """Histogram of k*u(x) + (u(1-x) mod k) over x in F_p minus {0, 1}, p = n + 1.

    ``u`` is the half table of dlog y mod m of ``dlog_table`` (m | n,
    y <= h = n/2), and k is m or 2; the m*k bins read as an m x k table.
    With s = h mod m (0 or m/2, as m | 2h), dlog(-y) = dlog y + h reads
    every x from the half: for x = 2 .. h, u(x) is an entry and
    u(1 - x) = u(p - (x-1)) = u(x-1) + s; their images x' = 1 - x run over
    h + 2 .. p - 1, with u(x') = u(x-1) + s and u(1 - x') = u(x); and
    x = h + 1 = 1/2, its own image, has u(x) = u(1-x) = u(h) + s.  So one
    forward pass over x = 2 .. h reads the pairs (u(x), u(x-1)) from two
    contiguous slices.  k = m gives the joint table H[i][j] = #{x : u(x) = i,
    u(1-x) = j}: the pass counts (u(x), u(x-1)), rolls the columns by s and
    adds the transpose, the images x'.  k = 2 gives H[i][t] = #{x : u(x) = i,
    u(1-x) = t mod 2} (for even m, t is the parity of dlog(1-x)): the pass
    counts (u(x), u(x-1) mod 2), whose two columns roll by s, a swap when s
    is odd (s = m/2, so m is even and (w + s) mod m has the parity of w + s), and
    (u(x-1), u(x) mod 2), whose rows roll by s.  Keys take the smallest
    signed type that holds m*k - 1.
    """
    h = n // 2
    s = h % m
    joint = k == m
    bins = m * k
    dtype = np.min_scalar_type(-bins)  # the smallest signed type that holds m*k - 1
    chunk = max(_CHUNK, bins)
    hist = np.zeros(bins, dtype=np.int64)
    images = np.zeros(bins, dtype=np.int64)  # k = 2: (u(x-1), u(x) mod 2)
    for a in range(2, h + 1, chunk):
        e = min(a + chunk, h + 1)
        x, prev = u[a:e], u[a - 1 : e - 1]  # u(x) and u(x-1) for x = a .. e-1
        keys = x.astype(dtype)
        keys *= k
        if joint:
            keys += prev
        else:
            keys += prev & 1
            images += np.bincount(prev.astype(dtype) * 2 + (x & 1), minlength=bins)
        hist += np.bincount(keys, minlength=bins)
    # u(1-x) = u(x-1) + s: the columns roll by s (for k = 2, a swap when s is
    # odd) and the rows of the images by s, by gathers (np.roll costs ~5 us)
    half = hist.reshape(m, k)[:, (np.arange(k) - s) % k]
    hist = (half + (half.T if joint else images.reshape(m, 2)[(np.arange(m) - s) % m])).ravel()
    w = (int(u[h]) + s) % m  # x = h + 1 = 1/2
    hist[k * w + w % k] += 1
    return hist


def prefix_factorials(xs: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """[x_i! mod m_i] for int64 arrays of ascending xs in [0, 2^62) and
    moduli 1 <= m_i < 2^31, as an int64 array.

    The requests are cut into bundles (``_bundle_starts``): at most
    ``_BUNDLE`` consecutive requests whose x lie within ``_BUNDLE_WIDTH`` of
    the bundle's first x.  One accumulating remainder tree over the bundles
    (``_tree_factorials``) gives V_b = (x_b)! mod M_b, x_b the first x of
    bundle b and M_b the product of its moduli.  Each request then finishes
    (``_finish``): V_b mod m_i by Python's ``%``, times, in int64, the at
    most ``_BUNDLE_WIDTH`` integers of (x_b, x_i].  A modulus of 2^31 or
    more raises ValueError.
    """
    if not len(xs):
        return ms[:0].copy()
    if ms.max() >= 1 << 31:
        raise ValueError(f"moduli must be below 2^31, got {ms.max()}")
    starts = _bundle_starts(xs)
    bounds = [*starts, len(ms)]
    ml = ms.tolist()
    vals = _tree_factorials(
        xs[starts].tolist(), [math.prod(ml[s:t]) for s, t in itertools.pairwise(bounds)]
    )
    bundle = np.repeat(np.arange(len(starts)), np.diff(bounds))
    return _finish(vals, bundle, xs[starts][bundle], xs, ms)


def _bundle_starts(x: np.ndarray) -> list[int]:
    """First request of each bundle, greedily in x order.

    A bundle ends after ``_BUNDLE`` requests and before the first x more
    than ``_BUNDLE_WIDTH`` past its first x.
    """
    i = np.arange(len(x))
    nxt = np.minimum(i + _BUNDLE, np.searchsorted(x, x + _BUNDLE_WIDTH, side="right")).tolist()
    starts, s = [], 0
    while s < len(nxt):
        starts.append(s)
        s = nxt[s]
    return starts


def _finish(
    vals: list[int], bundle: np.ndarray, first: np.ndarray, x: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """vals[bundle_i] * prod of t over first_i < t <= x_i, mod m_i.

    m_i < 2^31 and x_i - first_i <= ``_BUNDLE_WIDTH``.  V mod m is Python's
    ``%`` on an object array.  The gap products multiply in int64 by
    (first mod m) + k < 2^31 + ``_BUNDLE_WIDTH``, over the requests sorted by
    gap, longest first, so step k touches only those whose gap is at least k.
    """
    r = (np.array(vals, dtype=object)[bundle] % m.astype(object)).astype(np.int64)
    gap = x - first
    order = np.argsort(gap, kind="stable")[::-1]
    gap = gap[order]
    counts = np.searchsorted(-gap, -np.arange(1, gap[0] + 1), side="right").tolist()
    acc, mod = r[order], m[order]
    base = first[order] % mod
    for k, c in enumerate(counts, 1):
        f = base[:c] + k
        f *= acc[:c]
        np.remainder(f, mod[:c], out=acc[:c])
    r[order] = acc
    return r


def _tree_factorials(xs: list[int], ms: list[int]) -> list[int]:
    """[x_i! mod m_i] for ascending xs >= 0, on Python ints.

    One accumulating remainder tree (Costa-Gerbicz-Harvey 2014): leaf i
    holds m_i and A_i = prod of t over x_{i-1} < t <= x_i, so x_i! is
    A_1...A_i.  Walking down from the root, each node carries the product
    of the A left of it modulo the product of its own moduli; a right child
    takes v * A_left mod M_right.  Every modulus divides the root modulus,
    so a leaf whose A would be wider than it is folded modulo it: a narrow
    window of large x does not pay for the exact (x_1)!.
    """
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
                # reduce both factors first: v is as wide as both moduli, and
                # the A of a subtree is wider than a modulus
                right = mod[2 * i + 1]
                down.append(v % right * (prod[2 * i] % right) % right)
        vals = down
    return [v * a % m for v, a, m in zip(vals, prod, mod)]


def pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod m elementwise, by square-and-multiply over the bits of exp.

    int64 arrays with 0 <= base < mod <= 2^31 and exp >= 0, so every
    product of two residues stays below 2^62.
    """
    result = np.ones_like(base)
    for bit in range(int(exp.max(initial=0)).bit_length()):
        if bit:
            base = base * base % mod
        result = np.where(exp >> bit & 1, result * base % mod, result)
    return result


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
