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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InconsistentAcrossPrimesError,
    NoGenericPrimeError,
    RelationVerificationError,
    StjacError,
)
from .ffield import make_field
from .intlinalg import rank
from .pointcount import CurveSpec, is_generic_prime
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
    orientation with first entry 0 (valuation 0 at the identity embedding)
    is taken as the plus side.
    """
    degenerate = []
    counts: dict[tuple[int, ...], int] = {}
    for j, a in enumerate(mat.cols):
        col = mat.column(j)
        if len(set(col)) == 1:
            degenerate.append(a)
        else:
            counts[col] = counts.get(col, 0) + 1
    classes = []
    seen = set()
    for col, plus in sorted(counts.items()):
        if col in seen:
            continue
        comp = tuple(1 - e for e in col)
        if col[0] != 0:
            col, comp = comp, col
            plus = counts.get(col, 0)
        minus = counts.get(comp, 0)
        seen.update({col, comp})
        if plus != minus:
            raise StjacError(
                f"unpaired weight class {col}: plus={plus}, minus={minus}"
            )
        classes.append(WeightClass(weight=col, plus=plus, minus=minus))
    classes.sort(key=lambda cl: (-cl.plus, cl.weight))
    return classes, degenerate


def torus_dimension(mat: CarryMatrix) -> int:
    """Rank of the column lattice together with the all-ones vector, minus 1.

    That is the rank of the transpose: the distinct rows, each extended by
    one entry 1 (a repeated row adds nothing to a rank).
    """
    return rank([(*row, 1) for row in mat.distinct_rows]) - 1


def torus_name(classes: list[WeightClass], dimension: int) -> str:
    """Canonical name: U(1)_k factors by descending k, or the abstract torus.

    The concrete product is used only when the class representatives are a
    lattice basis of the weight lattice, which (since every column is a
    signed representative modulo the cyclotomic direction) happens exactly
    when the representatives are independent and match the dimension.
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
    weight_matrix: dict
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
    """First `count` primes where the contributing set is fully split."""
    if count < 1:
        raise ValueError(f"the number of primes must be at least 1, got {count}")
    spec = CurveSpec(family, d)
    found = []
    for p in range(3, bound + 1, 2):
        if is_generic_prime(p, spec) and is_prime(p):
            found.append(p)
            if len(found) == count:
                return found
    raise NoGenericPrimeError(
        f"only {len(found)} generic primes below {bound} for d={d} ({family})"
    )


def identify_st0(spec: CurveSpec, num_primes: int = 3) -> TorusId:
    """Identity component of the Sato-Tate group of Jac(curve).

    For each of the first `num_primes` generic primes: build and validate
    the carry matrix, confirm every kernel basis vector as an exact or
    finite-order relation (with the curve's own twist by c), and extract
    (dimension, weight classes).  All primes must agree before the torus
    is named; the matrix itself never depends on c.
    """
    primes = generic_primes(spec.family, spec.d, num_primes)
    results = []
    for p in primes:
        mat = build_matrix(p, spec.d, spec.family)
        bad = validate_matrix(mat)
        if bad:
            raise StjacError(f"carry matrix at p={p} failed checks: {bad}")
        fld = make_field(p)
        kern = right_kernel(mat)
        for vec in kern.basis:
            res = verify_relation(fld, mat, vec, spec.c)
            if not res.ok:
                raise RelationVerificationError(
                    f"kernel vector {vec} failed exact verification at p={p}"
                )
        classes, degenerate = weight_classes(mat)
        if degenerate:
            raise StjacError(f"degenerate columns {degenerate} at p={p}")
        dim = torus_dimension(mat)
        if not 1 <= dim <= spec.genus:
            raise StjacError(f"dimension {dim} out of range at p={p}")
        results.append((p, classes, dim, torus_name(classes, dim)))
    _, classes0, dim0, name0 = results[0]
    for p, classes, dim, name in results[1:]:
        same = (
            dim == dim0
            and name == name0
            and sorted((cl.plus, cl.minus) for cl in classes)
            == sorted((cl.plus, cl.minus) for cl in classes0)
        )
        if not same:
            raise InconsistentAcrossPrimesError(
                f"prime {p} gives ({dim}, {name}), expected ({dim0}, {name0})"
            )
    first = build_matrix(primes[0], spec.d, spec.family)
    weight_matrix = {
        "p": primes[0],
        "exponents": list(first.cols),
        "weights": [list(first.column(j)) for j in range(len(first.cols))],
    }
    return TorusId(
        name=name0,
        dimension=dim0,
        classes=tuple(classes0),
        weight_matrix=weight_matrix,
        primes_used=tuple(primes),
    )
