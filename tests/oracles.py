"""Independent reference implementations that the tests compare the library against.

* ``enumerated_dlog``: dlog x for every unit x, by stepping through g^e;
  the character and Gauss sums below read it, never a library table.
* ``direct_jacobi``: J(T^a, T^b) from the defining sum over the enumerated
  logs, in its compact field, the one defining-sum reference; the general
  pair in Z[zeta_{p-1}] is ``direct_jacobi(...).lift(p - 1)``.
* ``char_eval``: T^a(x) as an exact element of Z[zeta_{p-1}].
* ``gauss_sum``, ``embed``, ``gauss_jacobi_check``: floating-point Gauss
  sums and complex embeddings, for J(A, B) = g(A) g(B) / g(AB).
* ``carry``: the scalar rule that ``stmatrix.build_matrix`` broadcasts.
* ``split_by_recursion``: ``splitjac.split_full`` by recursing the lemmas.
* ``count_affine``: the affine points of y^2 = F(x) over F_p for any F, by
  brute force.
* ``hnf``: the row-style Hermite normal form of any integer matrix, from
  sympy's ``hermite_normal_form``, not ``stjac.intlinalg.hnf_rows``.
* ``kernel_basis``: the saturated kernel read off one ``hnf`` of
  [A^T | I], with no grouping of columns and no modular elimination.
* ``rank``: the rank over Q as the number of rows of one ``hnf``, with no
  modulus.
* ``power``: w^k in Z[zeta] by square-and-multiply.
* ``verify_relation`` decides a kernel relation by the product itself: it
  multiplies the Frobenius terms in Z[zeta], divides by p^k once and asks
  ``is_root_of_unity``.  The library decides the same question by residues
  modulo split primes (``stjac.stmatrix.verify_relation``); the two share
  only ``frobenius_factor``, read through the ``stmatrix`` module so that a
  test that patches it patches both.
"""

from __future__ import annotations

import cmath
import functools
import math
import weakref
from fractions import Fraction

import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form

from stjac import stmatrix
from stjac.cyclo import CycloElt, is_root_of_unity
from stjac.errors import NotCoprimeError, NotInKernelError, RelationVerificationError
from stjac.ffield import PrimeField
from stjac.pointcount import ADDITIVE, LINEAR, CurveSpec
from stjac.splitjac import Factor, IsogenyFactorization
from stjac.stmatrix import CarryMatrix, RelationResult

# -- character sums --------------------------------------------------------


@functools.lru_cache(maxsize=2)
def enumerated_dlog(p: int, g: int) -> np.ndarray:
    """dlog x for every unit x of F_p, from g^e enumerated one by one; -1 at 0.

    The defining-sum oracles read this table, not the library's: a library
    table holds x <= (p-1)/2 only and comes from a chunked walk.
    """
    full = [-1] * p
    x = 1
    for e in range(p - 1):
        full[x] = e
        x = x * g % p
    return np.array(full, dtype=np.int64)


@functools.lru_cache(maxsize=1)
def _dlog_pairs(p: int, g: int):
    """(dlog x, dlog(1-x)) over x in F_p minus {0, 1}, from the enumerated logs."""
    u = enumerated_dlog(p, g)
    x = np.arange(2, p)
    return u[x], u[(1 - x) % p]


def direct_jacobi(fld: PrimeField, a: int, b: int) -> CycloElt:
    """J(T^a, T^b) from the defining sum, folded to the compact field of
    conductor (p-1)/gcd(a, b, p-1)."""
    n = fld.n
    a %= n
    b %= n
    g = math.gcd(a, b, n)
    u, v = _dlog_pairs(fld.p, fld.generator)
    hist = np.bincount((a * u + b * v) % n, minlength=n)
    return CycloElt.from_int_coeffs(n // g, hist[::g].tolist())


def char_eval(fld: PrimeField, a: int, x: int) -> CycloElt:
    """Value of the character T^a at x, as an exact element of Z[zeta_{p-1}].

    Every character (the trivial one included) takes the value 0 at x = 0.
    """
    x %= fld.p
    if x == 0:
        return CycloElt.zero(fld.n)
    return CycloElt.zeta_pow(fld.n, a * int(enumerated_dlog(fld.p, fld.generator)[x]) % fld.n)


def gauss_sum(fld: PrimeField, a: int) -> complex:
    """Floating-point Gauss sum sum_x T^a(x) e^(2 pi i x / p)."""
    p, n = fld.p, fld.n
    x = np.arange(1, p)
    angles = (a % n) * enumerated_dlog(p, fld.generator)[1:] % n / n + x / p
    return complex(np.exp(2j * np.pi * angles).sum())


def embed(w: CycloElt, k: int = 1) -> complex:
    """Floating-point image of w under zeta_n -> exp(2*pi*i*k/n).

    k must be coprime to the conductor so the image is a primitive root of
    unity.
    """
    if math.gcd(k, w.n) != 1:
        raise NotCoprimeError(f"embedding index {k} not coprime to {w.n}")
    z = cmath.exp(2j * cmath.pi * k / w.n)
    acc = 0j
    for c in reversed(w.coeffs):
        acc = acc * z + complex(c)
    return acc


def gauss_jacobi_check(
    fld: PrimeField, a: int, b: int, tol: float = 1e-6, value: CycloElt | None = None
) -> bool:
    """Numeric check of J(A, B) = g(A) g(B) / g(AB) at the identity embedding.

    J is ``value`` when given, else ``direct_jacobi(fld, a, b)``.  It is
    embedded from its own conductor N | p-1, zeta_N -> e^(2 pi i/N), which is
    the identity embedding of Z[zeta_{p-1}] restricted to Z[zeta_N].
    """
    n = fld.n
    a %= n
    b %= n
    if a == 0 or b == 0 or (a + b) % n == 0:
        raise ValueError("the identity needs A, B and AB all nontrivial")
    lhs = embed(direct_jacobi(fld, a, b) if value is None else value, 1)
    rhs = gauss_sum(fld, a) * gauss_sum(fld, b) / gauss_sum(fld, a + b)
    return abs(lhs - rhs) <= tol


# -- carry matrices and splittings -------------------------------------------


def carry(k: int, a: int, n: int) -> int:
    """1 iff the angles of T^a and phi at embedding k sum to at least 2*pi."""
    return 1 if (k * a) % n + (k * (n // 2)) % n >= n else 0


def split_by_recursion(g: int, c=Fraction(1)) -> IsogenyFactorization:
    """The splitting of ``splitjac.split_full``, by recursing the even/odd lemmas."""
    if g < 2:
        raise ValueError("needs g >= 2")
    c = Fraction(c)
    linear: list[Factor] = []
    cur = g
    while cur % 2:
        linear.append(CurveSpec(LINEAR, cur + 2, c))
        cur = (cur - 1) // 2
    factors = [(CurveSpec(ADDITIVE, cur + 1, c), 2)] + [(f, 1) for f in linear]
    return IsogenyFactorization(
        source=CurveSpec(ADDITIVE, 2 * g + 2, c), factors=tuple(factors)
    )


def count_affine(coeffs, p: int) -> int:
    """#{(x, y) in F_p^2 : y^2 = F(x)}, F = sum of coeffs[i] x^i (ints,
    reduced mod p here), by brute force over F_p in numpy: O(p deg F)."""
    x = np.arange(p, dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    for a in reversed(coeffs):  # Horner; v * x < p^2 < 2^62
        v = (v * x + a % p) % p
    square_roots = np.bincount(x * x % p, minlength=p)
    return int(square_roots[v].sum())


# -- lattices ----------------------------------------------------------------


def hnf(rows) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix: its nonzero rows,
    pivots positive, each entry above a pivot reduced into [0, pivot).

    sympy's HNF is column-style with its pivots at the bottom right: the
    columns of H span the columns of the input.  Taken of the transpose
    with the columns reversed, then transposed back with its rows and
    columns reversed, it is the row HNF, the canonical basis of the row
    lattice.
    """
    rows = [[ZZ(int(x)) for x in row[::-1]] for row in rows if any(row)]
    if not rows:
        return []
    cohen = hermite_normal_form(DomainMatrix(rows, (len(rows), len(rows[0])), ZZ).transpose())
    return [[int(x) for x in row[::-1]] for row in cohen.transpose().to_list()[::-1]]


def kernel_basis(rows) -> list[list[int]]:
    """Canonical (HNF) basis of the saturated right kernel {v : rows @ v = 0}.

    The rows of [rows^T | I_n] span {(rows @ u, u) : u in Z^n}, so the rows
    of its HNF whose first m entries vanish span exactly the integer kernel,
    i.e. Z^n / kernel is torsion-free.  With that prefix dropped they are
    already the HNF of the kernel.  Its entries grow in the elimination:
    on a 2-core Xeon under CPython 3.11 and sympy 1.14 it takes 5.8 s on
    the carry rows of x^300 at p = 601 (80 x 298) and did not finish in 4
    minutes on those of x^420 at p = 421 (96 x 418); a row HNF by xgcd row
    operations in pure Python took about 1 s and did not finish in 15
    minutes on them.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[int(row[j]) for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return [h[m:] for h in hnf(aug) if not any(h[:m])]


def rank(rows) -> int:
    """Rank over Q: the HNF of the distinct columns has one row per unit of
    rank (a repeated column adds nothing).  Its entries grow: it takes
    0.19 s on the carry rows of x^300 at p = 601 and 0.31 s on those of
    x^420 at p = 421, and did not finish in 4 minutes on those of x^600 at
    p = 601 (a row HNF by xgcd row operations in pure Python did not
    finish in 17 minutes on them)."""
    return len(hnf(zip(*dict.fromkeys(zip(*rows)))))


# -- relations in Z[zeta] ----------------------------------------------------


def power(w: CycloElt, k: int) -> CycloElt:
    """w^k for an int k >= 0, by left-to-right square-and-multiply."""
    if k < 0:
        raise ValueError("negative powers leave Z[zeta]")
    if k == 0:
        return CycloElt.from_int(w.n, 1)
    result = w
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * w
    return result


# field -> {(a, c): (w, conj(w))}, dropped with the field
_PAIRS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _frobenius_pair(fld: PrimeField, a: int, c) -> tuple[CycloElt, CycloElt]:
    """(w, conj(w)) for w = frobenius_factor(fld, a, c), built once per field.

    Only the representative g = gcd(a, p-1) of a's Galois orbit calls
    ``frobenius_factor``.  For a unit u = a/g mod (p-1)/g, sigma_u maps
    T^g to T^a, fixes phi (u is odd) and phi(c) = +-1, so sigma_u(w_g) = w_a;
    w_a and w_g share the conductor (p-1)/gcd(g, (p-1)/2).  Every pair,
    derived ones included, is cached after checking w * conj(w) = p, the
    identity that lets ``verify_relation`` invert w without a division in
    Z[zeta].
    """
    cache = _PAIRS.setdefault(fld, {})
    pair = cache.get((a, c))
    if pair is None:
        n = fld.n
        g = math.gcd(a, n)
        if g == a:
            w = stmatrix.frobenius_factor(fld, a, c)
            wbar = w.conj()
        else:
            u = a // g
            while math.gcd(u, n) != 1:
                u += n // g
            w_g, wbar_g = _frobenius_pair(fld, g, c)
            w, wbar = w_g.galois(u % w_g.n), wbar_g.galois(u % w_g.n)
        if w * wbar != fld.p:
            raise RelationVerificationError(
                f"the term of column {a} at p={fld.p} has w * conj(w) != p"
            )
        pair = cache[(a, c)] = (w, wbar)
    return pair


def _divide_exact(w: CycloElt, q: int) -> CycloElt | None:
    """w / q when q divides every coordinate of w, else None."""
    quotients = []
    for c in w.coeffs:
        quo, rem = divmod(c, q)
        if rem:
            return None
        quotients.append(quo)
    return CycloElt(w.n, tuple(quotients))


def verify_relation(
    fld: PrimeField, mat: CarryMatrix, v, c=Fraction(1)
) -> RelationResult:
    """W = prod_a w_a^(v_a) computed exactly in Z[zeta], then classified.

    Every factor satisfies w * conj(w) = p, so w^-1 = conj(w)/p: the whole
    product stays in Z[zeta] and is divided by p^k once at the end; a
    remainder there means W is not an algebraic integer, hence not a root
    of unity.
    """
    v = [int(x) for x in v]
    if len(v) != len(mat.cols):
        raise NotInKernelError("vector length does not match the column count")
    support = [(j, x) for j, x in enumerate(v) if x]
    if any(sum(row[j] * x for j, x in support) for row in mat.distinct_rows):
        raise NotInKernelError(f"{v} is not in the kernel of the carry matrix")
    if not support:
        return RelationResult(kind="exact", order=1)
    terms = [(_frobenius_pair(fld, mat.cols[j], c), x) for j, x in support]
    conductor = math.lcm(2, *(w.n for (w, _), _ in terms))
    factors = [
        (power(w, x) if x > 0 else power(wbar, -x)).lift(conductor) for (w, wbar), x in terms
    ]
    p_power = sum(-x for _, x in support if x < 0)
    value = _divide_exact(math.prod(factors[1:], start=factors[0]), fld.p**p_power)
    if value is None:
        return RelationResult(kind="fail", order=None)
    if value == 1:
        return RelationResult(kind="exact", order=1)
    order = is_root_of_unity(value)
    if order is None:
        return RelationResult(kind="fail", order=None)
    return RelationResult(kind="torsion", order=order)
