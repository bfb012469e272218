"""Exact arithmetic in the cyclotomic integers Z[zeta_n].

An element is stored by its int coordinates in the power basis
1, z, ..., z^(phi(n)-1) reduced modulo the n-th cyclotomic polynomial.
That basis is an integral basis of Z[zeta_n], so every Jacobi sum,
Frobenius term and product of them has int coordinates, and the ring
operations (sum, product, non-negative power, Galois action, lift) never
leave Python ints.  There is no division: the only scalars are ints, and
a caller that needs w / q for an int q divides the coordinates exactly.
The representation is canonical, so equality is coefficient-wise
equality.  Conversion between conductors goes through ``lift`` (n must
divide the target conductor).

``is_root_of_unity`` is a table lookup: the roots of unity in Z[zeta_n]
are the +-zeta_n^k, whose coordinates are rows of ``_reduction_rows``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import NotCoprimeError
from .primes import divisors, euler_phi, mobius


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree.

    For n > 1, Phi_n = prod over d | n of (1 - x^d)^mu(n/d), taken as a
    power series truncated at degree phi(n): each factor is one in-place
    pass that multiplies by (1 - x^d) or divides by it.
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    if n == 1:
        return (-1, 1)
    deg = euler_phi(n)
    c = [1] + [0] * deg
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            for i in range(deg, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:
            for i in range(d, deg + 1):
                c[i] += c[i - d]
    return tuple(c)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer rows giving x^k mod Phi_n for k = 0 .. max(n-1, 2*phi-2)."""
    phi_poly = cyclotomic_poly(n)
    deg = len(phi_poly) - 1
    top = max(n - 1, 2 * deg - 2)
    rows = []
    row = [0] * deg
    row[0] = 1
    for _ in range(top + 1):
        rows.append(tuple(row))
        carry = row[deg - 1]
        row = [0] + row[: deg - 1]
        if carry:
            for i in range(deg):
                row[i] -= carry * phi_poly[i]
    return tuple(rows)


def _reduce_mod_phi(coeffs: list, n: int) -> list:
    """Reduce an arbitrary-degree coefficient list into the power basis."""
    rows = _reduction_rows(n)
    deg = len(cyclotomic_poly(n)) - 1
    out = list(coeffs[:deg]) + [0] * max(0, deg - len(coeffs))
    for k in range(deg, len(coeffs)):
        c = coeffs[k]
        if c:
            row = rows[k]
            for i in range(deg):
                if row[i]:
                    out[i] = out[i] + c * row[i]
    return out


@dataclass(frozen=True)
class CycloElt:
    """Element of Z[zeta_n] in the canonical power basis mod Phi_n."""

    n: int
    coeffs: tuple[int, ...]

    @staticmethod
    def _make(n: int, coeffs) -> "CycloElt":
        deg = len(cyclotomic_poly(n)) - 1
        cs = tuple(coeffs)
        if len(cs) < deg:
            cs += (0,) * (deg - len(cs))
        assert len(cs) == deg
        return CycloElt(n, cs)

    @staticmethod
    def from_int_coeffs(n: int, coeffs) -> "CycloElt":
        """Build from an integer coefficient list of any degree (reduced here)."""
        return CycloElt._make(n, _reduce_mod_phi([int(c) for c in coeffs], n))

    @staticmethod
    def zero(n: int) -> "CycloElt":
        return CycloElt._make(n, [])

    @staticmethod
    def one(n: int) -> "CycloElt":
        return CycloElt._make(n, [1])

    @staticmethod
    def from_int(n: int, k: int) -> "CycloElt":
        return CycloElt._make(n, [k])

    @staticmethod
    def zeta_pow(n: int, k: int) -> "CycloElt":
        """zeta_n^k as an exact element."""
        return CycloElt._make(n, _reduction_rows(n)[k % n])

    @staticmethod
    def zeta(n: int) -> "CycloElt":
        return CycloElt.zeta_pow(n, 1)

    # -- ring structure -------------------------------------------------

    def _check(self, other: "CycloElt") -> None:
        if self.n != other.n:
            raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        return CycloElt._make(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check(other)
        return CycloElt._make(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return CycloElt(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloElt._make(self.n, [a * other for a in self.coeffs])
        if not isinstance(other, CycloElt):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycloElt._make(self.n, _reduce_mod_phi(prod, self.n))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycloElt":
        """Left-to-right square-and-multiply: bit_length + popcount - 2 products."""
        if k < 0:
            raise ValueError("negative powers leave Z[zeta]")
        if k == 0:
            return CycloElt.one(self.n)
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def galois(self, u: int) -> "CycloElt":
        """Image under zeta_n -> zeta_n^u, for u coprime to n."""
        if math.gcd(u, self.n) != 1:
            raise NotCoprimeError(f"galois index {u} not coprime to {self.n}")
        scattered = [0] * self.n
        for i, c in enumerate(self.coeffs):
            if c:
                scattered[(i * u) % self.n] += c
        return CycloElt._make(self.n, _reduce_mod_phi(scattered, self.n))

    def conj(self) -> "CycloElt":
        """Complex conjugation zeta -> zeta^(-1)."""
        if self.n <= 2:
            return self
        return self.galois(self.n - 1)

    def lift(self, m: int) -> "CycloElt":
        """The same value viewed in Z[zeta_m]; requires n | m."""
        if m % self.n:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        if m == self.n:
            return self
        step = m // self.n
        scattered = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                scattered[i * step] = c
        return CycloElt._make(m, _reduce_mod_phi(scattered, m))

    # -- predicates and conversions -------------------------------------

    def _coerce(self, other):
        """An int as an element of Z[zeta_n], a CycloElt as is, else NotImplemented."""
        if isinstance(other, int):
            return CycloElt.from_int(self.n, other)
        return other if isinstance(other, CycloElt) else NotImplemented

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloElt.from_int(self.n, other)
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def integer_value(self) -> int:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"CycloElt(n={self.n}, coeffs={[str(c) for c in self.coeffs]})"


def embed(w: CycloElt, k: int = 1) -> complex:
    """Floating-point image of w under zeta_n -> exp(2*pi*i*k/n).

    Diagnostic only; k must be coprime to the conductor so the image is a
    primitive root of unity.
    """
    if math.gcd(k, w.n) != 1:
        raise NotCoprimeError(f"embedding index {k} not coprime to {w.n}")
    z = cmath.exp(2j * cmath.pi * k / w.n)
    acc = 0j
    for c in reversed(w.coeffs):
        acc = acc * z + complex(c)
    return acc


@lru_cache(maxsize=None)
def _zeta_exponents(n: int) -> dict[tuple[int, ...], int]:
    """Coordinates of zeta_n^k -> k, for 0 <= k < n."""
    rows = _reduction_rows(n)
    return {rows[k]: k for k in range(n)}


def is_root_of_unity(w: CycloElt) -> int | None:
    """Least N with w^N = 1, or None if w is not a root of unity.

    The roots of unity in Z[zeta_n] are s*zeta_n^k with s = +-1, i.e.
    exp(2*pi*i*e/(2n)) with e = 2k + n*(1-s)/2, of order 2n / gcd(e, 2n).
    Every other element, zero included, matches no entry of the table.
    """
    n = w.n
    exponents = _zeta_exponents(n)
    k = exponents.get(w.coeffs)
    if k is not None:
        e = 2 * k
    else:
        k = exponents.get(tuple(-c for c in w.coeffs))
        if k is None:
            return None
        e = 2 * k + n
    return 2 * n // math.gcd(e, 2 * n)


def conductor_join(values: list[int]) -> int:
    """lcm of a list of conductors (at least 1)."""
    return reduce(math.lcm, values, 1)


__all__ = [
    "CycloElt",
    "cyclotomic_poly",
    "embed",
    "is_root_of_unity",
    "conductor_join",
    "euler_phi",
]
