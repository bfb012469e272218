"""Exact integer linear algebra on small dense matrices, in Python ints.

``hnf_rows`` is the one elimination loop: kernels are read off the HNF
of [A^T | I] and Smith forms off alternating HNFs of A and A^T.  On a
2-core Xeon under CPython 3.11 the saturated kernel of the 18432 x 38
carry matrix of x^40 at p = 50321 takes about 1 s, and the Smith form of
a random matrix up to 8 x 8 with entries in [-9, 9] under 1 ms.
"""

from __future__ import annotations

import math


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_rows(rows) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows: pivots positive, each entry above a pivot
    reduced into [0, pivot).  The result is the canonical basis of the
    row lattice, so two lattices are equal iff their HNFs are equal.
    """
    mat = [list(map(int, r)) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return []
    m, n = len(mat), len(mat[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, m):
            q, rem = divmod(mat[i][col], mat[r][col])
            if rem:
                g, s, t = xgcd(mat[r][col], mat[i][col])
                u, v = mat[r][col] // g, mat[i][col] // g
                mat[r], mat[i] = (
                    [s * x + t * y for x, y in zip(mat[r], mat[i])],
                    [-v * x + u * y for x, y in zip(mat[r], mat[i])],
                )
            elif q:
                # a dividing pivot keeps its row; snf_invariant_factors needs that
                mat[i] = [y - q * x for x, y in zip(mat[r], mat[i])]
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return mat[:r]


def rank(rows) -> int:
    return len(hnf_rows(rows))


def kernel_basis(rows) -> list[list[int]]:
    """Canonical (HNF) basis of the saturated right kernel {v : rows @ v = 0}.

    The rows of [rows^T | I_n] span {(rows @ u, u) : u in Z^n}, so the rows
    of its HNF whose first m entries vanish span exactly the integer kernel,
    i.e. Z^n / kernel is torsion-free.  With that prefix dropped they are
    already the HNF of the kernel.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[int(row[j]) for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return [h[m:] for h in hnf_rows(aug) if not any(h[:m])]


def snf_invariant_factors(rows) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Row HNFs of the matrix and of its transpose alternate until it is
    diagonal (Kannan-Bachem 1979).  This ends: the leading pivot moves only
    to proper divisors until it divides its row, and from then on
    ``hnf_rows`` leaves that row and column alone.  Pairwise (gcd, lcm)
    then orders the diagonal by divisibility.
    """
    mat = hnf_rows(rows)
    while any(x for i, row in enumerate(mat) for j, x in enumerate(row) if i != j):
        mat = hnf_rows(zip(*mat))
    factors = [row[i] for i, row in enumerate(mat)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors
