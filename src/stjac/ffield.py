"""Arithmetic in F_p with a fixed generator of the character group.

The generator is always the smallest primitive root of p, so every table,
matrix and kernel built downstream is deterministic.  Characters are the
maps T^a : x -> zeta_{p-1}^(a * dlog x), extended by zero at x = 0 for
every a including a = 0; a character is handled through its exponent a
only, and nothing here computes in Z[zeta].  Discrete logs are read from
tables of dlog y mod m over half of F_p, y <= (p-1)/2, each built on first
use, so a field holds only the residues that its callers asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import EvenOrTooSmallError, NotPrimeError, PrimeTooLargeError
from .primes import factorize, is_prime

# A character exponent is a plain integer a modulo p-1: a = 0 is the
# trivial character, a = (p-1)/2 the quadratic character.
CharExponent = int

# Largest supported prime: dlog values (< p - 1) then fit in int32 and every
# product a * dlog (< (p - 1)^2) in int64, which the character sums rely on.
P_MAX = 2**31 - 1


@dataclass(frozen=True, eq=False)
class PrimeField:
    """Odd prime p with its smallest primitive root and cached dlog residues.

    ``residues`` caches read-only tables m -> dlog y mod m over
    0 <= y <= (p-1)/2 (``dlog_mod``), each built on first use; the full
    logs are the entry m = p - 1, and ``dlog`` reads any unit from them.
    ``joint`` caches the profiles of the Jacobi sums J(T^a, phi): M -> the
    length-M vector D[i] = sum of phi(1 - x) over the x in F_p minus {0, 1}
    with dlog x = i (mod M), M even; it serves every a with
    lcm(2, ord T^a) | M.  ``folds`` caches, per divisor g of p - 1 (the
    representative gcd(a, p - 1) of a Galois orbit of exponents a), the N
    coefficients of J(T^g, phi) over the exponents of zeta_N, N its
    conductor, folded from a profile and not yet reduced by Phi_N; every a
    of the orbit reads it (``charsums.jacobi_sum_compact``).

    A field holds only data that depends on p alone, and on g for a fold,
    so ``groupid.identify_st0`` shares one field per generic prime across
    the process: a twist scan builds each table and each fold once.  The
    Frobenius terms of a relation check, keyed by c, are built per check
    and kept in no field.  ``make_field`` itself builds a fresh field.
    """

    p: int
    generator: int
    residues: dict = field(default_factory=dict, repr=False)
    joint: dict = field(default_factory=dict, repr=False)
    folds: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        """Order p - 1 of the character group."""
        return self.p - 1

    def dlog_mod(self, m: int) -> np.ndarray:
        """Read-only table of dlog y mod m for a divisor m of p - 1, over
        0 <= y <= (p-1)/2 (``_accel.dlog_table``); entry 0 is -1."""
        table = self.residues.get(m)
        if table is None:
            table = _accel.dlog_table(self.p, self.generator, m)
            table.flags.writeable = False
            self.residues[m] = table
        return table

    def dlog_residues(self, m: int) -> np.ndarray:
        """A table of dlog x mod some multiple of m (m | p - 1): any cached
        one, else the table mod m, built here."""
        for k, table in self.residues.items():
            if k % m == 0:
                return table
        return self.dlog_mod(m)

    def dlog(self, y: int, m: int) -> int:
        """dlog y mod m for a unit y in [1, p - 1] and m | p - 1, from any
        cached table mod a multiple of m (``dlog_residues``).  A table stops
        at h = (p-1)/2, and dlog(p - y) = dlog y + h, as g^h = -1."""
        h = self.p // 2
        table = self.dlog_residues(m)
        return (int(table[y]) if y <= h else int(table[self.p - y]) + h) % m

    def __repr__(self):
        return f"PrimeField(p={self.p}, generator={self.generator})"


def reduce_mod(c, p: int) -> int:
    """Image of an int or Fraction c in F_p (inverts the denominator mod p)."""
    if c.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def smallest_primitive_root(p: int) -> int:
    cofactors = [(p - 1) // q for q in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, e, p) != 1 for e in cofactors):
            return g
        g += 1


def check_p_max(p: int) -> None:
    """Reject p above P_MAX, before anything of size p is allocated."""
    if p > P_MAX:
        raise PrimeTooLargeError(f"p must be at most P_MAX = 2^31 - 1, got {p}")


def check_prime(p: int) -> None:
    """Reject any p that is not an odd prime <= P_MAX, before any work of
    size p; a p with no ``__index__``, such as 11.0, is NotPrimeError."""
    if not hasattr(type(p), "__index__"):
        raise NotPrimeError(f"p must be an odd prime, got {p!r}")
    if p < 3 or p % 2 == 0:
        raise EvenOrTooSmallError(f"p must be an odd prime >= 3, got {p}")
    check_p_max(p)
    if not is_prime(p):
        raise NotPrimeError(f"p must be an odd prime, got {p}")


def make_field(p: int) -> PrimeField:
    """Field data for an odd prime p: its generator; no table is built yet."""
    check_prime(p)
    return PrimeField(p=p, generator=smallest_primitive_root(p))

