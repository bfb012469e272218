"""Exact integer linear algebra on dense matrices, in Python ints and, modulo
primes below 2^31, in int64 arrays.

``hnf_rows`` is the one elimination without a modulus, and it takes only
echelon bases (InputError on rows that share a leading column): a kernel
puts its lifted echelon basis in canonical form with it, and a Smith form
starts from it.  It only reduces above its pivots, so no transformation
matrix is carried along and no entry grows.  Everything else eliminates
modulo primes l < 2^31 (``_rref_mod``).  A kernel groups equal columns,
takes the kernel of the distinct columns from a reduced row echelon form
modulo primes (rational reconstruction, then an exact check over Z),
saturates it by congruences modulo the common denominator and lifts it
back.  A rank is certified the same way on the transpose: rank_l <=
rank_Q, and the kernel vectors, checked exactly, prove equality.  A Smith
form splits off the unit pivots of an HNF and works modulo the product of
the others (Domich-Kannan-Trotter 1987).

The HNF basis of a kernel is memoized per process, the last 256, and
handed out as the immutable tuple of int tuples itself (``kernel_basis``,
in ``_kernel_hnf``).  Nothing else is kept: each rank, Smith form and
elimination is computed per call (a carry matrix keeps its own rank).

Measured on a 2-core Xeon under CPython 3.11 and numpy 2.4, the saturated
kernel of the distinct carry rows takes 0.8 ms for x^40 at p = 41 (16 x 38),
0.03 s for x^300 at p = 601 (80 x 298), 0.16 s for x^420 at p = 421
(96 x 418), 0.28 s for x^600 at p = 601 (160 x 598) and 1.5 s for x^840 at
p = 2521 (192 x 838); their ranks take 0.4 ms, 0.01 s, 0.02 s, 0.05 s and
0.09 s.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import chain, count

import numpy as np

from .errors import InputError
from .primes import ladder_prime


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
    """Row-style Hermite normal form of an echelon basis: nonzero rows with
    pairwise distinct leading columns, in any order (InputError otherwise).

    Sorts the rows by leading column, makes each pivot positive and reduces
    each entry above a pivot into [0, pivot), with no elimination below a
    pivot: the canonical basis of the row lattice.
    """
    pairs = sorted((_lead(row), row) for row in ([int(x) for x in r] for r in rows) if any(row))
    leads, mat = [col for col, _ in pairs], [row for _, row in pairs]
    if len(set(leads)) < len(leads):
        raise InputError("rows that share a leading column are not an echelon basis")
    for r, col in enumerate(leads):
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
    return mat


def _lead(row) -> int:
    return next(j for j, x in enumerate(row) if x)


def _echelon_mod(rows, d: int) -> list[list[int]]:
    """Upper triangular basis of the lattice spanned by ``rows`` and d*Z^n.

    Row i has its pivot, a divisor of d, at column i.  Every other entry
    stays in [0, d): adding a multiple of d*e_j keeps a vector in the
    lattice.  Each column combines the rows that reach it with the
    implicit row d*e_col; a pivot g | d leaves the row
    d*e_col - (d/g)*pivot behind, which the later columns must see.  A
    dividing pivot keeps its row (``snf_invariant_factors`` needs that to
    end).  Entries above the pivots are not reduced.
    """
    n = len(rows[0])
    work = [[x % d for x in row] for row in rows]
    echelon = []
    for col in range(n):
        pivot, rest = None, []
        for row in work:
            if not row[col]:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                q, rem = divmod(row[col], pivot[col])
                if rem:
                    g, s, t = xgcd(pivot[col], row[col])
                    u, v = pivot[col] // g, row[col] // g
                    pivot, row = (
                        [(s * x + t * y) % d for x, y in zip(pivot, row)],
                        [(-v * x + u * y) % d for x, y in zip(pivot, row)],
                    )
                else:
                    row = [(y - q * x) % d for x, y in zip(pivot, row)]
                rest.append(row)
        if pivot is None:
            pivot = [0] * n
        g, s, _ = xgcd(pivot[col], d)
        rest.append([-(d // g) * x % d for x in pivot])
        pivot = [s * x % d for x in pivot]
        pivot[col] = g
        echelon.append(pivot)
        work = [row for row in rest if any(row)]
    return echelon


def _rref_mod(mat, ell: int) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and rows of the reduced row echelon form of mat mod ell.

    One int64 array takes one whole-array update per pivot: entries stay
    below ell < 2^31, so a product of two is below 2^62.
    """
    a = np.array([[x % ell for x in row] for row in mat], dtype=np.int64)
    pivots = []
    for col in range(a.shape[1]):
        r = len(pivots)
        if r == len(a):
            break
        below = a[r:, col].nonzero()[0]
        if not len(below):
            continue
        piv = r + below[0]
        top = a[piv] * pow(int(a[piv, col]), -1, ell) % ell
        a[piv] = a[r]
        # row r needs no zero factor: top overwrites it below
        a -= a[:, col, None] * top
        a %= ell
        a[r] = top
        pivots.append(col)
    return pivots, a[: len(pivots)].tolist()


def _rational(x: int, m: int) -> tuple[int, int] | None:
    """(a, b) with a = b*x mod m, |a|, b <= sqrt(m/2) and gcd(a, b) = 1, if any."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _rational_kernel(
    mat: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The RREF of ker_Q(mat) as (free columns, denominators, numerators).

    Eliminating the columns right to left writes each free column f as a
    combination of the pivot columns to its right, so the vectors
    e_f - sum_i R[i, f] e_(pivot i), f ascending, are the RREF of the
    kernel: vector i is nums[i] / dens[i], with 1 at free[i] and 0 at
    every other free column.  R comes from RREFs modulo primes l < 2^31,
    combined by CRT while their pivots agree and read back by rational
    reconstruction.  A prime with fewer or later pivots than over Q is
    unlucky: it is skipped, or replaced by the next prime with more or
    earlier ones.  Nothing is returned unchecked: mat @ nums[i] = 0 must
    hold over Z.  That suffices, because rank_Q >= rank_l: q - rank_l
    independent kernel vectors then span ker_Q.
    """
    q = len(mat[0])
    flipped = [row[::-1] for row in mat]
    best = None
    for ell in map(partial(ladder_prime, 2), count()):
        pivots, red = _rref_mod(flipped, ell)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, residues, modulus = key, red, ell
        elif key != best:
            continue
        else:
            inv = pow(modulus, -1, ell)
            residues = [
                [x + (y - x) * inv % ell * modulus for x, y in zip(rx, ry)]
                for rx, ry in zip(residues, red)
            ]
            modulus *= ell
        kernel = _reconstruct(q, pivots, residues, modulus)
        if kernel is not None and _annihilates(mat, kernel[2]):
            return kernel


def _annihilates(mat, vectors) -> bool:
    """mat @ v = 0 over Z for every v: one int64 product when no sum of
    products can reach 2^63, else one over Python ints."""
    if not vectors:
        return True
    top = max(map(abs, chain.from_iterable(mat))) * max(map(abs, chain.from_iterable(vectors)))
    dtype = np.int64 if top * len(mat[0]) < 2**63 else object
    return not (np.array(mat, dtype=dtype) @ np.array(vectors, dtype=dtype).T).any()


def _reconstruct(q, pivots, residues, modulus):
    """``_rational_kernel``'s vectors from RREF residues of the flipped matrix, or None."""
    free, dens, nums = [], [], []
    for c in reversed(range(q)):
        if c in pivots:
            continue
        fracs = {}
        for i, col in enumerate(pivots):
            if residues[i][c]:
                frac = _rational(modulus - residues[i][c], modulus)
                if frac is None:
                    return None
                fracs[q - 1 - col] = frac
        den = math.lcm(*(b for _, b in fracs.values()))
        vec = [0] * q
        vec[q - 1 - c] = den
        for j, (a, b) in fracs.items():
            vec[j] = a * (den // b)
        free.append(q - 1 - c)
        dens.append(den)
        nums.append(tuple(vec))
    return tuple(free), tuple(dens), tuple(nums)


def rank(rows) -> int:
    """Rank over Q, certified: the number of distinct rows minus the number
    of kernel vectors ``_rational_kernel`` returns for the transpose.

    A repeated row or column adds nothing to a rank, so the transpose is
    taken of the distinct rows and columns: its rows are the distinct
    columns, its columns the distinct rows.  Its rank modulo l is at most
    its rank over Q, and the q - rank_l kernel vectors, independent (each
    is 1 at its own free column) and checked exactly over Z, prove the
    reverse.  ``kernel_basis`` eliminates the distinct columns of the rows
    instead, so a count of its vectors can be checked against this rank.
    """
    rows = list(dict.fromkeys(tuple(map(int, row)) for row in rows))
    if not rows or not rows[0]:
        return 0
    free, _, _ = _rational_kernel(tuple(dict.fromkeys(zip(*rows))))
    return len(rows) - len(free)


def _saturated_kernel(mat) -> list:
    """Echelon basis of ker(mat) in Z^q, from the RREF E of ker_Q(mat).

    An element of ker_Q is y @ E with y its entries at the free columns,
    so the integer kernel is Y @ E, Y = {y in Z^k : y @ E in Z^q}.  With D
    the common denominator of E, Y is cut out by congruences modulo D on
    the free coordinates, and it contains D*Z^k.  An echelon basis of Y is
    read off one of [D*E at the pivot columns | I_k] and D*Z^(r+k), taken
    modulo D, as the rows that vanish on the first block.  Its product
    with E is an echelon basis of the integer kernel, with the pivots at
    E's: y @ E is y at the free columns.
    """
    free, dens, nums = _rational_kernel(mat)
    d = math.lcm(*dens)
    if d == 1:
        return list(nums)
    others = sorted(set(range(len(mat[0]))) - set(free))
    k = len(free)
    aug = [
        [v[c] * (d // den) for c in others] + [int(i == j) for j in range(k)]
        for i, (den, v) in enumerate(zip(dens, nums))
    ]
    ys = [h[len(others):] for h in _echelon_mod(aug, d)[len(others):]]
    scaled = [[x * (d // den) for x in v] for den, v in zip(dens, nums)]
    return [[x // d for x in row] for row in _times(ys, scaled)]


def _times(left, right) -> list[list[int]]:
    """The product left @ right, skipping zero entries of left (kernel
    vectors are supported on the pivots and one free column)."""
    out = []
    for v in left:
        acc = [0] * len(right[0])
        for x, row in zip(v, right):
            if x:
                acc = [a + x * y for a, y in zip(acc, row)]
        out.append(acc)
    return out


def kernel_basis(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical (HNF) basis of the saturated right kernel {v : rows @ v = 0}.

    Equal columns are grouped: A = B @ S, with B the distinct columns in
    order of their last appearance and S: Z^n -> Z^q adding up each group,
    so ker A = S^-1(ker B).  S is onto, so Z^n / ker A = Z^q / ker B and a
    saturated ker B lifts to a saturated ker A: each vector of ker B put on
    the last column of every group, and e_j - e_j' for each column j and
    the next column j' of its group, which span ker S.  Lifted from an
    echelon basis of ker B, that basis is an echelon basis too: its leading
    columns are ker B's free columns and the non-last columns of each
    group, so ``hnf_rows`` takes it.

    Memoized per matrix for the last 256 (``_kernel_hnf``): rows that
    compare equal get the same tuple of int tuples.  They have equal int
    parts, so a key may keep entries that are not ints; each entry goes
    through ``int`` before any arithmetic.
    """
    return _kernel_hnf(tuple(map(tuple, rows)))


@lru_cache(maxsize=256)
def _kernel_hnf(rows: tuple[tuple, ...]) -> tuple[tuple[int, ...], ...]:
    if not rows or not rows[0]:
        return ()
    cols = list(zip(*(map(int, row) for row in rows)))
    last = {col: j for j, col in enumerate(cols)}
    reps = sorted(last.values())
    basis = []
    for v in _saturated_kernel(tuple(zip(*(cols[j] for j in reps)))):
        lifted = [0] * len(cols)
        for j, x in zip(reps, v):
            lifted[j] = x
        basis.append(lifted)
    following = {}
    for j in reversed(range(len(cols))):
        if cols[j] in following:
            diff = [0] * len(cols)
            diff[j], diff[following[cols[j]]] = 1, -1
            basis.append(diff)
        following[cols[j]] = j
    return tuple(map(tuple, hnf_rows(basis)))


def snf_invariant_factors(rows) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of the lattice that an echelon
    basis spans, as ``hnf_rows`` takes it (InputError otherwise).

    Starts from their row HNF V.  A unit pivot's column is a unit vector
    there, so column operations split it off as a factor 1; when every
    pivot is 1, that is all.  The rows with larger pivots, without the
    unit-pivot columns, have the same remaining factors, and their column
    lattice contains D*Z^r', D the product of those pivots (their pivot
    columns are triangular with determinant D).  So its Smith form is
    taken modulo D: row echelon forms of the matrix and its transpose
    alternate until it is diagonal (Kannan-Bachem 1979).  This ends: the
    leading pivot moves only to proper divisors until it divides its row,
    and from then on ``_echelon_mod`` leaves that row and column alone.
    Pairwise (gcd, lcm) then orders the diagonal by divisibility.
    """
    mat = hnf_rows(rows)
    leads = list(map(_lead, mat))
    units = {col for col, row in zip(leads, mat) if row[col] == 1}
    rest = [[x for j, x in enumerate(row) if j not in units]
            for col, row in zip(leads, mat) if col not in units]
    if not rest:
        return [1] * len(mat)
    # a row of rest starts with its pivot
    d = math.prod(next(filter(None, row)) for row in rest)
    mat = _echelon_mod(list(zip(*rest)), d)
    while any(x for i, row in enumerate(mat) for j, x in enumerate(row) if i != j):
        mat = _echelon_mod(list(zip(*mat)), d)
    factors = [row[i] for i, row in enumerate(mat)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = math.gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return [1] * len(units) + factors
