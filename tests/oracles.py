"""Independent reference implementations that the tests compare the library against.

``verify_relation`` decides a kernel relation by the product itself: it
multiplies the Frobenius terms in Z[zeta], divides by p^k once and asks
``is_root_of_unity``.  The library decides the same question by residues
modulo split primes (``stjac.stmatrix.verify_relation``); the two share
only ``frobenius_factor``, read through the ``stmatrix`` module so that a
test that patches it patches both.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction

from stjac import stmatrix
from stjac.cyclo import CycloElt, conductor_join, is_root_of_unity
from stjac.errors import NotInKernelError, RelationVerificationError
from stjac.ffield import PrimeField
from stjac.stmatrix import CarryMatrix, RelationResult

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
    conductor = conductor_join([w.n for (w, _), _ in terms] + [2])
    factors = [(w**x if x > 0 else wbar**-x).lift(conductor) for (w, wbar), x in terms]
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
