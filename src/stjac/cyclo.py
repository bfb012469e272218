"""Exact arithmetic in the cyclotomic integers Z[zeta_n].

An element is stored by its int coordinates in the power basis
1, z, ..., z^(phi(n)-1) reduced modulo the n-th cyclotomic polynomial.
That basis is an integral basis of Z[zeta_n], so every Jacobi sum,
Frobenius term and product of them has int coordinates, and the ring
operations (sum, product, Galois action, lift) never leave Python ints;
there are no powers.  There is no division: the only scalars are ints, and
a caller that needs w / q for an int q divides the coordinates exactly.
The representation is canonical, so equality is coefficient-wise
equality.  Conversion between conductors goes through ``lift`` (n must
divide the target conductor).

Every coordinate list enters the ring through ``_reduce_mod_phi``: a fold
by x^(n/2) = -1 (even n) or x^n = 1 (odd n), then long division by the
monic Phi_n over its nonzero terms, so no conductor keeps more than those
terms cached.  ``is_root_of_unity`` needs no table either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NotCoprimeError
from .primes import divisors, euler_phi, mobius


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, computed on each call.

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
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero terms (i, c) of Phi_n below x^phi(n)."""
    phi = cyclotomic_poly(n)
    return len(phi) - 1, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(cs: list[int], n: int) -> tuple[int, ...]:
    """The phi(n) power-basis coordinates of sum cs[k] x^k (cs is consumed).

    Exponents fold first: mod x^n - 1 for odd n, and mod x^(n/2) + 1 for
    even n, which Phi_n divides, so x^(n/2) = -1.  Then long division by
    the monic Phi_n, from the top coefficient down, subtracts
    c * x^(k - phi) * Phi_n over Phi_n's nonzero terms only; after an even
    fold it runs over the n/2 - phi(n) top coefficients alone.
    """
    deg, terms = _phi_terms(n)
    h, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
    if len(cs) > h:
        for k in range(h, len(cs)):
            cs[k % h] += sign ** (k // h) * cs[k]
        del cs[h:]
    cs.extend([0] * (deg - len(cs)))
    for k in range(len(cs) - 1, deg - 1, -1):
        c = cs[k]
        if c:
            base = k - deg
            for i, t in terms:
                cs[base + i] -= c * t
    return tuple(cs[:deg])


@dataclass(frozen=True)
class CycloElt:
    """Element of Z[zeta_n] in the canonical power basis mod Phi_n."""

    n: int
    coeffs: tuple[int, ...]

    @staticmethod
    def from_int_coeffs(n: int, coeffs) -> "CycloElt":
        """Build from an integer coefficient list of any degree (reduced here)."""
        return CycloElt(n, _reduce_mod_phi(list(map(int, coeffs)), n))

    @staticmethod
    def zero(n: int) -> "CycloElt":
        return CycloElt(n, _reduce_mod_phi([], n))

    @staticmethod
    def from_int(n: int, k: int) -> "CycloElt":
        return CycloElt(n, _reduce_mod_phi([k], n))

    @staticmethod
    def zeta_pow(n: int, k: int) -> "CycloElt":
        """zeta_n^k as an exact element."""
        return CycloElt(n, _reduce_mod_phi([0] * (k % n) + [1], n))

    # -- ring structure -------------------------------------------------

    def _check(self, other: "CycloElt") -> None:
        if self.n != other.n:
            raise ValueError(f"conductor mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycloElt.from_int(self.n, other)
        elif not isinstance(other, CycloElt):
            return NotImplemented
        self._check(other)
        return CycloElt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloElt(self.n, tuple(a * other for a in self.coeffs))
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
        return CycloElt(self.n, _reduce_mod_phi(prod, self.n))

    __rmul__ = __mul__

    def galois(self, u: int) -> "CycloElt":
        """Image under zeta_n -> zeta_n^u, for u coprime to n."""
        if math.gcd(u, self.n) != 1:
            raise NotCoprimeError(f"galois index {u} not coprime to {self.n}")
        scattered = [0] * self.n
        for i, c in enumerate(self.coeffs):
            if c:
                scattered[(i * u) % self.n] += c
        return CycloElt(self.n, _reduce_mod_phi(scattered, self.n))

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
        return CycloElt(m, _reduce_mod_phi(scattered, m))

    # -- predicates and conversions -------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            # the int k is (k, 0, ..., 0): phi(n) >= 1, so Phi_n never reduces it
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        if not isinstance(other, CycloElt):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def integer_value(self) -> int:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"CycloElt(n={self.n}, coeffs={[str(c) for c in self.coeffs]})"


def is_root_of_unity(w: CycloElt) -> int | None:
    """Least N with w^N = 1, or None if w is not a root of unity.

    The roots of unity in Z[zeta_n] are s*zeta_n^k with s = +-1, i.e.
    exp(2*pi*i*e/(2n)) with e = 2k + n*(1-s)/2, of order 2n / gcd(e, 2n).
    For k < phi(n) the coordinates of s*zeta_n^k are s at position k and
    0 elsewhere, and multiplying by zeta_n^phi(n) fewer than n/phi(n) times
    moves any k below phi(n); each such step is one long division.  The
    walk decides both ways: a single +-1 coordinate at k after the shift
    means w * zeta_n^shift = +-zeta_n^k, so w is a root of unity, and a
    non-root never takes that shape, so it is rejected after at most
    ceil(n/phi(n)) - 1 long divisions.
    """
    n, cs = w.n, w.coeffs
    phi = len(cs)
    for shift in range(0, n, phi):
        if shift:
            cs = _reduce_mod_phi([0] * phi + list(cs), n)
        support = [i for i, c in enumerate(cs) if c]
        if len(support) == 1 and cs[support[0]] in (1, -1):
            k = (support[0] - shift) % n
            e = 2 * k + (0 if cs[support[0]] == 1 else n)
            return 2 * n // math.gcd(e, 2 * n)
    return None
