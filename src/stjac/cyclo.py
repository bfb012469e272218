"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored by its coordinates in the power basis
1, z, ..., z^(phi(n)-1) reduced modulo the n-th cyclotomic polynomial.
That basis is an integral basis of Z[zeta_n], so an algebraic integer
(every Jacobi sum, Frobenius term and product of them) has int
coordinates and its arithmetic never leaves Python ints.  A coordinate
is a Fraction only when it is not integral (``inv``, division by a
scalar, ``from_rational``); one with denominator 1 is stored as its int.
The representation is canonical, so equality is coefficient-wise
equality.  Conversion between conductors goes through ``lift`` (n must
divide the target conductor).

``is_root_of_unity`` is a table lookup: the roots of unity in Q(zeta_n)
are the +-zeta_n^k, whose coordinates are rows of ``_reduction_rows``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import NotCoprimeError
from .primes import divisors, euler_phi


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact polynomial division over Z (den monic up to sign of lead 1)."""
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c == 0:
            continue
        assert c % lead == 0
        f = c // lead
        q[k] = f
        for i, d in enumerate(den):
            num[k + i] -= f * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, computed as
    (x^n - 1) / prod(Phi_d for proper divisors d of n)."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        num, rem = _poly_divmod_int(num, list(cyclotomic_poly(d)))
        assert not rem
    return tuple(num)


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


def _canon(c) -> int | Fraction:
    """An int stays an int; anything else is a Fraction, or its int if integral."""
    if type(c) is int:
        return c
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class CycloElt:
    """Element of Q(zeta_n) in the canonical power basis mod Phi_n."""

    n: int
    coeffs: tuple[int | Fraction, ...]

    @staticmethod
    def _make(n: int, coeffs) -> "CycloElt":
        deg = len(cyclotomic_poly(n)) - 1
        cs = [_canon(c) for c in coeffs]
        if len(cs) < deg:
            cs += [0] * (deg - len(cs))
        assert len(cs) == deg
        return CycloElt(n, tuple(cs))

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
    def from_rational(n: int, q) -> "CycloElt":
        return CycloElt._make(n, [q])

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
        self._check(other)
        return CycloElt._make(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return CycloElt._make(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return CycloElt(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElt._make(self.n, [a * other for a in self.coeffs])
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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / q)
        return self * other.inv()

    def __pow__(self, k: int) -> "CycloElt":
        if k < 0:
            return self.inv() ** (-k)
        result = CycloElt.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inv(self) -> "CycloElt":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        phi_poly = [Fraction(c) for c in cyclotomic_poly(self.n)]
        # Fraction coordinates: 1 / int would be a float in the division below
        r0, r1 = phi_poly, _poly_trim([Fraction(c) for c in self.coeffs])
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r1 is a nonzero constant since Phi_n is irreducible over Q
        c = r1[0]
        return CycloElt._make(self.n, _reduce_mod_phi([x / c for x in s1], self.n))

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
        """The same value viewed in Q(zeta_m); requires n | m."""
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
        if isinstance(other, (int, Fraction)):
            return CycloElt.from_rational(self.n, other)
        return other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElt.from_rational(self.n, other)
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.coeffs[0])

    def __repr__(self):
        return f"CycloElt(n={self.n}, coeffs={[str(c) for c in self.coeffs]})"


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out) or [Fraction(0)]


def _poly_sub(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out) or [Fraction(0)]


def _poly_divmod_frac(num: list, den: list) -> tuple[list, list]:
    num = list(num)
    dn = len(den) - 1
    q = [Fraction(0)] * max(1, len(num) - dn)
    inv_lead = 1 / den[-1]
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn]
        if c:
            f = c * inv_lead
            q[k] = f
            for i, d in enumerate(den):
                num[k + i] -= f * d
    rem = _poly_trim(num[:dn]) or [Fraction(0)]
    return _poly_trim(q) or [Fraction(0)], rem


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

    The roots of unity in Q(zeta_n) are s*zeta_n^k with s = +-1, i.e.
    exp(2*pi*i*e/(2n)) with e = 2k + n*(1-s)/2, of order 2n / gcd(e, 2n).
    Zero and non-integral elements match no entry of the table.
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
