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
ranks are ``intlinalg.rank``: modular elimination, certified exactly.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class WeightClass:
    """One character weight up to sign, with its multiplicities."""

    weight: tuple[int, ...]
    plus: int
    minus: int


def weight_classes(mat: CarryMatrix) -> tuple[list[WeightClass], list[int]]:
    """Group columns by weight modulo sign and the all-ones direction.

    Returns (classes, degenerate) where degenerate lists the exponents of
    constant columns (weight 0 or the cyclotomic weight itself); those
    carry no torus data and are reported separately.  Complementary
    columns are *equal* modulo the all-ones vector up to sign, and the
    orientation with first entry 0 (valuation 0 at the identity embedding
    k = 1) is taken as the plus side: a class counts the columns equal to
    its plus weight as plus and their complements as minus.  StjacError
    names the smallest plus weight whose counts differ.

    Memoized per matrix, like ``torus_dimension``; each call gets new lists.
    """
    classes, degenerate = _weight_classes(mat)
    return list(classes), list(degenerate)


@lru_cache(maxsize=256)
def _weight_classes(mat: CarryMatrix) -> tuple[tuple[WeightClass, ...], tuple[int, ...]]:
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


@lru_cache(maxsize=256)
def torus_dimension(mat: CarryMatrix) -> int:
    """Rank of the column lattice together with the all-ones vector, minus 1.

    That is the rank of the transpose: the distinct rows, each extended by
    one entry 1 (a repeated row adds nothing to a rank).  Memoized for the
    last 256 matrices, keyed by the frozen matrix itself (equal matrices
    share an entry, an altered copy gets its own); the matrix never depends
    on the twist c.
    """
    return rank([(*row, 1) for row in mat.distinct_rows]) - 1


def torus_name(classes: list[WeightClass], dimension: int) -> str:
    """Canonical name: U(1)_k factors by descending k, or the abstract torus.

    The concrete product is used only when the class representatives are a
    lattice basis of the weight lattice, which (since every column is a
    signed representative modulo the cyclotomic direction) happens exactly
    when the representatives are independent and match the dimension.
    Memoized per (classes, dimension) for the last 256 pairs.
    """
    return _torus_name(tuple(classes), dimension)


@lru_cache(maxsize=256)
def _torus_name(classes: tuple[WeightClass, ...], dimension: int) -> str:
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


def generic_primes(family: str, d: int, count: int, bound: int = 20000) -> list[int]:
    """First `count` primes where the contributing set is fully split: the
    primes p = 1 + j*M up to `bound`, M = ``congruence_modulus``, in order.

    Memoized per arguments for the last 256 calls; each call gets a new list.
    """
    return list(_generic_primes(family, d, count, bound))


@lru_cache(maxsize=256, typed=True)
def _generic_primes(family: str, d: int, count: int, bound: int) -> tuple[int, ...]:
    if count < 1:
        raise ValueError(f"the number of primes must be at least 1, got {count}")
    m = congruence_modulus(CurveSpec(family, d))
    found = tuple(islice(filter(is_prime, range(m + 1, bound + 1, m)), count))
    if len(found) < count:
        raise NoGenericPrimeError(
            f"only {len(found)} generic primes below {bound} for d={d} ({family})"
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
    last 256 entries of each: ``generic_primes``; ``build_matrix``, its
    validation (``CarryMatrix.violations``), ``torus_dimension``,
    ``weight_classes`` and ``torus_name``; the field of each prime, with
    its dlog and Jacobi-profile tables (``_shared_field``); and the
    twist-independent part of each relation check, one plan per matrix
    and kernel (``stmatrix._relation_plan``: the membership product, the
    touched column orbits and the split primes); and the modular
    eliminations behind the kernel and its rank
    (``intlinalg._rational_kernel``).  A process that scans the twists of
    one (d, family) does that work once, and the rebuild of the first
    prime's matrix below is a cache hit.  The Frobenius terms, their
    residues and the w * conj(w) = p check are keyed by c, which has no
    bound, so they are computed on every call.  So is ``right_kernel``:
    its lift, HNF, Smith-form saturation check and rank comparison run
    per call, on memoized eliminations.  A one-shot call gains only the
    hit.
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
        raise StjacError(f"degenerate columns {degenerate} at p={primes[0]}")
    dim = torus_dimension(first)
    if not 1 <= dim <= spec.genus:
        raise StjacError(f"dimension {dim} out of range at p={primes[0]}")
    return TorusId(
        name=torus_name(classes, dim),
        dimension=dim,
        classes=tuple(classes),
        primes_used=tuple(primes),
    )
