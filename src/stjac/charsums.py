"""Exact Jacobi sums J(T^a, phi), phi the quadratic character: the only
character sums the pipeline computes.

J(T^a, phi) lies in Z[zeta_{p-1}] and is computed exactly from the
character sum, never from Gauss sums.
``jacobi_sum_compact(fld, a, shift)`` folds it in O(M) from one cached
vector per field (``_phi_profile``, one O(p) pass over the dlog residues
mod M), into its smallest cyclotomic field, of conductor M = ``conductor``;
the fold is cached per field and Galois orbit of exponents, and each call
rotates it by the twist shift: zeta_M^shift * J is a rotation of the same
coefficients, not a product.
"""

from __future__ import annotations

import math

import numpy as np

from . import _accel
from .cyclo import CycloElt
from .ffield import CharExponent, PrimeField


def conductor(fld: PrimeField, a: CharExponent) -> int:
    """Conductor N = (p-1)/gcd(a, (p-1)/2) = lcm(2, ord T^a) of J(T^a, phi).

    It is also the modulus of the dlog residues that J(T^a, phi) and the
    twist T^a(-c) * phi(c) read.
    """
    return fld.n // math.gcd(a, fld.n // 2)


def _phi_profile(fld: PrimeField, need: int) -> np.ndarray:
    """Cached D over dlog x mod some even M with need | M: D[i] = sum of
    phi(1 - x) over the x in F_p minus {0, 1} with dlog x = i (mod M).

    M is even, so phi(1 - x) = (-1)^(dlog(1-x) mod M) and J(T^a, phi) =
    sum_i D[i] zeta_{p-1}^(a*i).  Built on first use by one
    ``_accel.char_pair_histogram`` pass over the dlog residues mod need
    (one byte per y <= (p-1)/2 for need <= 128): the need x need joint table of
    (dlog x, dlog(1-x)) when need^2 <= p - 1, else the need x 2 table of
    (dlog x, parity of dlog(1-x)); D is that table against the signs
    (-1)^j of its columns.
    """
    for m, profile in fld.joint.items():
        if m % need == 0:
            return profile
    n = fld.n
    k = need if need * need <= n else 2
    table = _accel.char_pair_histogram(fld.dlog_mod(need), need, k, n)
    profile = table.reshape(need, k) @ (1 - 2 * (np.arange(k) % 2))
    profile.flags.writeable = False
    fld.joint[need] = profile
    return profile


def jacobi_sum_compact(fld: PrimeField, a: CharExponent, shift: int = 0) -> CycloElt:
    """zeta_N^shift * J(T^a, phi) in the minimal cyclotomic field of
    J(T^a, phi), of conductor N = ``conductor(fld, a)``.

    T^a(x) depends only on dlog x mod ord T^a, so the cached D folds to
    that period, and its entry i is the coefficient of zeta_{p-1}^(a*i),
    that is of zeta_N^(a*i/h) with h = (p-1)/N = gcd(a, (p-1)/2).  That
    fold, N coefficients over the exponents mod N before any reduction by
    Phi_N, is kept per field for the Galois-orbit representative
    g = gcd(a, p-1) alone (``PrimeField.folds``), so the fold runs once
    per field and orbit and a field keeps at most one vector per divisor
    of p - 1.  Any other a is u*g with u a unit mod N (a/g, plus (p-1)/g
    when a/g is even, for N = 2(p-1)/g), and J(T^a, phi) = sigma_u(J(T^g, phi))
    moves the coefficient at exponent j to u*j, exactly, before any
    reduction.  The factor zeta_N^shift (a Frobenius twist, see
    ``pointcount.twist_exponent``) rotates the coefficients by shift, and
    each call reduces the rotated vector once.
    """
    n = fld.n
    a %= n
    g = math.gcd(a, n)
    N = conductor(fld, g)
    fold = fld.folds.get(g)
    if fold is None:
        order = n // g
        coeffs = np.zeros(N, dtype=np.int64)
        coeffs[g * np.arange(order) // (n // N)] = (
            _phi_profile(fld, N).reshape(-1, order).sum(axis=0))
        fold = fld.folds[g] = tuple(coeffs.tolist())
    if a != g:
        u = a // g + n // g * (a // g % 2 == 0)
        moved = np.zeros(N, dtype=np.int64)
        moved[u * np.arange(N) % N] = fold
        fold = tuple(moved.tolist())
    shift %= N
    return CycloElt.from_int_coeffs(N, fold[N - shift:] + fold[:N - shift])
