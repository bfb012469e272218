"""Torus identification from carry matrices.

Each column of a carry matrix is the valuation vector (weight) of one
Frobenius character.  The identity component of the Sato-Tate group is the
torus whose character lattice is the column lattice modulo the all-ones
vector (the cyclotomic direction), so:

  * dimension = rank_Z(columns together with the all-ones vector) - 1;
  * columns that agree are the same character weight; columns that are
    complements (entrywise 1 - w) are inverse weights, so they pair off
    into classes with equal plus and minus counts;
  * a class of plus-count k contributes a U(1)_k factor (the circle
    embedded diagonally in k conjugate blocks) whenever the class
    representatives form a basis of the weight lattice; otherwise the
    torus is reported abstractly as U(1) x ... x U(1).

All of this depends only on the set of distinct carry rows (HNF bases are
canonical), which every generic prime shares, so ``identify_st0`` names
the torus once, from its first prime; the other primes are evidence.  The
ranks are ``intlinalg.rank``: modular elimination, certified exactly, and
memoized there.  ``weight_classes`` and ``generic_primes`` are memoized
per process, the last 256 entries of each, and hand out the immutable
value itself: tuples that no caller can change.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import (
    InconsistentAcrossPrimesError,
    NoGenericPrimeError,
    RelationVerificationError,
    StjacError,
)
from .ffield import PrimeField, make_field
from .intlinalg import rank
from .pointcount import CurveSpec, congruence_modulus
from .primes import is_prime
from .stmatrix import (
    CarryMatrix,
    build_matrix,
    right_kernel,
    validate_matrix,
    verify_relation,
)

GENERIC_PRIME_BOUND = 20000


@dataclass(frozen=True)
class WeightClass:
    """One character weight up to sign, with its multiplicities."""

    weight: tuple[int, ...]
    plus: int
    minus: int


@lru_cache(maxsize=256)
def weight_classes(mat: CarryMatrix) -> tuple[tuple[WeightClass, ...], tuple[int, ...]]:
    """Group columns by weight modulo sign and the all-ones direction.

    Returns (classes, degenerate) where degenerate lists the exponents of
    constant columns (weight 0 or the cyclotomic weight itself); those
    carry no torus data and are reported separately.  Complementary
    columns are *equal* modulo the all-ones vector up to sign, and the
    orientation with first entry 0 (valuation 0 at the identity embedding
    k = 1) is taken as the plus side: a class counts the columns equal to
    its plus weight as plus and their complements as minus.  StjacError
    names the smallest plus weight whose counts differ.

    Memoized per matrix for the last 256; every call gets the same tuples.
    """
    degenerate = []
    counts: dict[tuple[int, ...], int] = {}
    for a, col in zip(mat.cols, zip(*mat.entries)):
        if len(set(col)) == 1:
            degenerate.append(a)
        else:
            counts[col] = counts.get(col, 0) + 1
    classes = []
    plus_sides = {col if col[0] == 0 else tuple(1 - e for e in col) for col in counts}
    for weight in sorted(plus_sides):
        plus, minus = counts.get(weight, 0), counts.get(tuple(1 - e for e in weight), 0)
        if plus != minus:
            raise StjacError(
                f"unpaired weight class {weight}: plus={plus}, minus={minus}"
            )
        classes.append(WeightClass(weight=weight, plus=plus, minus=minus))
    classes.sort(key=lambda cl: (-cl.plus, cl.weight))
    return tuple(classes), tuple(degenerate)


def torus_dimension(mat: CarryMatrix) -> int:
    """Rank of the column lattice together with the all-ones vector, minus 1.

    That is the rank of the transpose: the distinct rows, each extended by
    one entry 1 (a repeated row adds nothing to a rank).  Not memoized
    itself: the rank is (``intlinalg._rank``, keyed by those rows), so a
    matrix asked for again costs building its key.
    """
    return rank([(*row, 1) for row in mat.distinct_rows]) - 1


def torus_name(classes: Sequence[WeightClass], dimension: int) -> str:
    """Canonical name: U(1)_k factors by descending k, or the abstract torus.

    The concrete product is used only when the class representatives are a
    lattice basis of the weight lattice, which (since every column is a
    signed representative modulo the cyclotomic direction) happens exactly
    when the representatives are independent and match the dimension.  The
    rank that decides it is memoized (``intlinalg._rank``).
    """
    if classes and len(classes) == dimension:
        reps = [list(cl.weight) for cl in classes]
        ones = [1] * len(classes[0].weight)
        if rank(reps + [ones]) == dimension + 1:
            ks = sorted((cl.plus for cl in classes), reverse=True)
            return " x ".join("U(1)" if k == 1 else f"U(1)_{k}" for k in ks)
    return " x ".join(["U(1)"] * dimension)


@dataclass(frozen=True)
class TorusId:
    """Identified identity component: canonical name plus the weight data."""

    name: str
    dimension: int
    classes: tuple[WeightClass, ...]
    primes_used: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "classes": [
                {"weight": list(cl.weight), "plus": cl.plus, "minus": cl.minus}
                for cl in self.classes
            ],
            "primes_used": list(self.primes_used),
        }


@lru_cache(maxsize=256, typed=True)
def generic_primes(family: str, d: int, count: int) -> tuple[int, ...]:
    """First `count` primes where the contributing set is fully split: the
    primes p = 1 + j*M up to ``GENERIC_PRIME_BOUND``, M =
    ``congruence_modulus``, in order.

    Memoized per arguments for the last 256 calls; every call gets the
    same tuple.
    """
    if count < 1:
        raise ValueError(f"the number of primes must be at least 1, got {count}")
    m = congruence_modulus(CurveSpec(family, d))
    found = tuple(islice(filter(is_prime, range(m + 1, GENERIC_PRIME_BOUND + 1, m)), count))
    if len(found) < count:
        raise NoGenericPrimeError(
            f"only {len(found)} generic primes below {GENERIC_PRIME_BOUND} for d={d} ({family})"
        )
    return found


@lru_cache(maxsize=256)
def _shared_field(p: int) -> PrimeField:
    """One field per prime for the process: its generator and the dlog and
    Jacobi-profile tables it builds depend on p alone."""
    return make_field(p)


def identify_st0(spec: CurveSpec, num_primes: int = 3) -> TorusId:
    """Identity component of the Sato-Tate group of Jac(curve).

    Each of the first `num_primes` generic primes builds and validates its
    carry matrix (which never depends on c) and confirms the kernel
    lattice, every basis vector an exact or finite-order relation twisted
    by c, in its own field with one batched ``verify_relation`` call.  The
    kernel comes from the first prime, and every later prime must
    reproduce that prime's set of distinct rows (else
    InconsistentAcrossPrimesError).

    Only the twist T^a(-c) * phi(c) of each Frobenius term depends on c,
    so everything keyed by p or by the matrix is memoized per process, the
    last 256 entries of each, and handed out as the immutable value
    itself: ``generic_primes``; ``build_matrix``, with its validation
    (``CarryMatrix.violations``); ``weight_classes``; the field of each
    prime, with its dlog and Jacobi-profile tables and the fold of
    J(T^a, phi) for each exponent a (``_shared_field``); the
    twist-independent part of each relation check, one plan per matrix
    and kernel (``stmatrix._relation_plan``: the membership product, the
    touched column orbits, the split primes and their powers of p); and
    the kernel's HNF and each rank (``intlinalg._kernel_hnf`` and
    ``intlinalg._rank``), which ``torus_dimension`` and ``torus_name``
    read.  A process that scans the twists of one (d, family) does that
    work once, and the rebuild of the first prime's matrix below is a
    cache hit.  What a warm call still computes is what c fixes and the
    checks: each Frobenius term, a rotation of its cached fold reduced
    mod Phi_N, with its w * conj(w) = p check and its residues, and
    ``right_kernel``'s Smith-form check and rank comparison on the
    memoized kernel.  A one-shot call gains only the hit.
    """
    primes = generic_primes(spec.family, spec.d, num_primes)
    for p in primes:
        mat = build_matrix(p, spec.d, spec.family)
        bad = validate_matrix(mat)
        if bad:
            raise StjacError(f"carry matrix at p={p} failed checks: {bad}")
        if p == primes[0]:
            rows, kern = set(mat.distinct_rows), right_kernel(mat)
        elif set(mat.distinct_rows) != rows:
            raise InconsistentAcrossPrimesError(
                f"prime {p} gives other carry rows than prime {primes[0]}"
            )
        if not kern.basis:
            continue
        if not verify_relation(_shared_field(p), mat, kern.basis, spec.c).ok:
            raise RelationVerificationError(
                f"the kernel lattice of rank {kern.rank} failed exact verification at p={p}"
            )
    first = build_matrix(primes[0], spec.d, spec.family)
    classes, degenerate = weight_classes(first)
    if degenerate:
        raise StjacError(f"degenerate columns {list(degenerate)} at p={primes[0]}")
    dim = torus_dimension(first)
    if not 1 <= dim <= spec.genus:
        raise StjacError(f"dimension {dim} out of range at p={primes[0]}")
    return TorusId(
        name=torus_name(classes, dim),
        dimension=dim,
        classes=classes,
        primes_used=primes,
    )
