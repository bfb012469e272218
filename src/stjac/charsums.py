"""Gauss sums (floating-point diagnostics) and exact Jacobi sums.

Gauss sums live in Q(zeta_{p(p-1)}) and are only ever needed here as
numerical cross-checks, so they stay complex doubles.  Jacobi sums lie in
Z[zeta_{p-1}] and are computed exactly from the defining character sum
J(A, B) = sum_x A(x) B(1-x), never from Gauss-sum quotients.

``jacobi_sum_compact`` returns the value in the smallest cyclotomic field
containing it (conductor (p-1)/gcd(a, b, p-1)), which is what keeps the
point-count and relation-check pipelines cheap; ``jacobi_sum`` lifts the
same value to the full conductor p-1.

Its histogram comes from one O(p) pass per field, not per character: the
first call builds the joint table of (dlog x, dlog(1-x)) mod M, with M the
lcm of 2 and both character orders, caches it on the field, and every later
call whose orders divide M folds it in O(M^2).  That pass reads only the
field's table of dlog residues mod M (one byte per x for M <= 128), never
the full dlog table; the joint table is symmetric under x -> 1 - x, so
when M^2 < p - 1 it reads only x <= (p-1)/2.  A joint table exists only
when M^2 <= p - 1; otherwise (small p, or characters of large order) the
call makes its own O(p) pass over the full dlog table.
"""

from __future__ import annotations

import math

import numpy as np

from . import _accel
from .cyclo import CycloElt, embed
from .errors import DegenerateCharactersError
from .ffield import CharExponent, PrimeField


def gauss_sum(fld: PrimeField, a: CharExponent) -> complex:
    """Floating-point Gauss sum sum_x T^a(x) e^(2 pi i x / p)."""
    p, n = fld.p, fld.n
    x = np.arange(1, p)
    angles = (a % n) * fld.dlog[1:].astype(np.int64) % n / n + x / p
    return complex(np.exp(2j * np.pi * angles).sum())


def _joint_table(fld: PrimeField, need: int) -> np.ndarray | None:
    """Cached joint histogram of (dlog x, dlog(1-x)) mod some M with need | M.

    Built on first use with one chunked pass over the field's dlog residues
    mod need (no full table).  x -> 1 - x maps the table to its transpose,
    so when need^2 < n the kernel reads only x <= (p-1)/2, adds the
    transpose and counts the fixed point x = 1/2 once.  The kernel key
    need*u(x) + u(1-x) stays below need^2, so it is injective exactly when
    need^2 <= n, and the kernel returns exactly need^2 bins; above that
    there is no table and the caller takes the direct pass over the full
    table.
    """
    for m, table in fld.joint.items():
        if m % need == 0:
            return table
    n = fld.n
    if need * need > n:
        return None
    table = _accel.char_pair_histogram(fld.dlog_mod(need), need, 1, n, need * need)
    table = table.reshape(need, need)
    table.flags.writeable = False
    fld.joint[need] = table
    return table


def jacobi_sum_compact(fld: PrimeField, a: CharExponent, b: CharExponent) -> CycloElt:
    """J(T^a, T^b) in its minimal cyclotomic field.

    T^a(x) T^b(1-x) depends only on dlog x and dlog(1-x) modulo any M that
    both orders n/gcd(a, n) and n/gcd(b, n) divide, so the histogram over
    e = a*i + b*s (mod n) is a fold of the field's cached M x M joint table.
    """
    n = fld.n
    a %= n
    b %= n
    g = math.gcd(a, b, n)
    need = math.lcm(2, n // math.gcd(a, n), n // math.gcd(b, n))
    table = _joint_table(fld, need)
    if table is None:
        hist = _accel.char_pair_histogram(fld.dlog, a, b, n, n)
        compact = hist[::g] if g > 1 else hist
    else:
        i = np.arange(len(table), dtype=np.int64)
        idx = ((a * i[:, None] + b * i[None, :]) % n) // g
        # float64 weights sum exactly: every bin total is at most p < 2^53
        compact = np.bincount(
            idx.ravel(), weights=table.ravel(), minlength=n // g
        ).astype(np.int64)
    return CycloElt.from_int_coeffs(n // g, compact.tolist())


def jacobi_sum(fld: PrimeField, a: CharExponent, b: CharExponent) -> CycloElt:
    """Exact J(T^a, T^b) as an element of Z[zeta_{p-1}]."""
    return jacobi_sum_compact(fld, a, b).lift(fld.n)


def gauss_jacobi_check(
    fld: PrimeField, a: CharExponent, b: CharExponent, tol: float = 1e-6
) -> bool:
    """Numeric check of J(A, B) = g(A) g(B) / g(AB) at the identity embedding.

    J is embedded from its compact field, zeta_{(p-1)/g} -> e^(2 pi i g/(p-1)),
    which is the identity embedding of Z[zeta_{p-1}] restricted to it.
    """
    n = fld.n
    a %= n
    b %= n
    if a == 0 or b == 0 or (a + b) % n == 0:
        raise DegenerateCharactersError(
            "the identity needs A, B and AB all nontrivial"
        )
    lhs = embed(jacobi_sum_compact(fld, a, b), 1)
    rhs = gauss_sum(fld, a) * gauss_sum(fld, b) / gauss_sum(fld, a + b)
    return abs(lhs - rhs) <= tol
