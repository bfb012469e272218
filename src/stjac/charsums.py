"""Gauss sums (floating-point diagnostics) and exact Jacobi sums.

Gauss sums live in Q(zeta_{p(p-1)}) and are only ever needed here as
numerical cross-checks, so they stay complex doubles.  Jacobi sums lie in
Z[zeta_{p-1}] and are computed exactly from character sums, never from
Gauss-sum quotients.

The pipeline only ever asks for J(T^a, phi), phi the quadratic character.
``jacobi_sum_compact(fld, a, shift)`` folds it in O(M) from one cached
vector per field (``_phi_profile``, one O(p) pass over the dlog residues
mod M), into its smallest cyclotomic field, of conductor M = lcm(2, ord T^a),
already multiplied by zeta_M^shift: the twist of a Frobenius term is an
offset in the same scatter, not a product.
``jacobi_sum(fld, a, b)``, the general J(T^a, T^b) lifted to conductor
p - 1, is computed independently from the defining sum J(A, B) =
sum_x A(x) B(1-x) over the full dlog table: the reference for the tests.
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


def _phi_profile(fld: PrimeField, need: int) -> np.ndarray:
    """Cached D over dlog x mod some even M with need | M: D[i] = sum of
    phi(1 - x) over the x in F_p minus {0, 1} with dlog x = i (mod M).

    M is even, so phi(1 - x) = (-1)^(dlog(1-x) mod M) and J(T^a, phi) =
    sum_i D[i] zeta_{p-1}^(a*i).  Built on first use by one
    ``_accel.char_pair_histogram`` pass over the dlog residues mod need
    (one byte per x for need <= 128): the need x need joint table of
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
    J(T^a, phi), of conductor N = (p-1)/gcd(a, (p-1)/2) = lcm(2, ord T^a).

    T^a(x) depends only on dlog x mod ord T^a, so the cached D folds to
    that period, and its entry i is the coefficient of zeta_{p-1}^(a*i),
    that is of zeta_N^(a*i/g) with g = gcd(a, (p-1)/2).  The factor
    zeta_N^shift (a Frobenius twist, see ``pointcount.twist_exponent``)
    only moves each entry to exponent a*i/g + shift mod N.
    """
    n = fld.n
    a %= n
    order = n // math.gcd(a, n)
    profile = _phi_profile(fld, math.lcm(2, order))
    g = math.gcd(a, n // 2)
    conductor = n // g
    coeffs = np.zeros(conductor, dtype=np.int64)
    exps = (a * np.arange(order) % n // g + shift) % conductor
    coeffs[exps] = profile.reshape(-1, order).sum(axis=0)
    return CycloElt.from_int_coeffs(conductor, coeffs.tolist())


def _defining_sum(fld: PrimeField, a: CharExponent, b: CharExponent) -> CycloElt:
    """J(T^a, T^b) from the defining sum, in Z[zeta_N], N = (p-1)/gcd(a, b, p-1).

    The histogram of a*dlog x + b*dlog(1-x) mod p - 1 over x in F_p minus
    {0, 1}, with the full table widened to int64 so that a*dlog x
    (< (p-1)^2) cannot wrap.
    """
    n = fld.n
    a %= n
    b %= n
    g = math.gcd(a, b, n)
    u = fld.dlog.astype(np.int64)
    x = np.arange(2, fld.p)
    keys = (a * u[x] + b * u[fld.p + 1 - x]) % n
    return CycloElt.from_int_coeffs(n // g, np.bincount(keys // g, minlength=n // g).tolist())


def jacobi_sum(fld: PrimeField, a: CharExponent, b: CharExponent) -> CycloElt:
    """Exact J(T^a, T^b) as an element of Z[zeta_{p-1}], from the defining sum."""
    return _defining_sum(fld, a, b).lift(fld.n)


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
    lhs = embed(_defining_sum(fld, a, b), 1)
    rhs = gauss_sum(fld, a) * gauss_sum(fld, b) / gauss_sum(fld, a + b)
    return abs(lhs - rhs) <= tol
