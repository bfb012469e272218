"""Stickelberger carry matrices, their integer kernels, and exact relation checks.

The carry matrix encodes the prime-over-p valuations of the Jacobi sums
J(T^a, phi): rows are indexed by the units k mod p-1 (one per embedding of
the character group into the circle), columns by the contributing character
exponents a with the exponent (p-1)/2 removed, and

    entry(k, a) = 1  iff  (k*a mod p-1) + (k*(p-1)/2 mod p-1) >= p-1,

i.e. iff adding the two character angles wraps past a full turn.  The
column lattice modulo the all-ones vector is the character lattice of the
identity component of the Sato-Tate group; kernel vectors of the matrix
are candidate multiplicative relations among the Frobenius characters and
are confirmed exactly in Q(zeta_{p-1}) (in practice inside the much
smaller subfield actually containing the Jacobi sums).

A relation check builds the Frobenius term w_a of a column from the term
of its Galois-orbit representative, sigma_u(w_g) = w_a with g = gcd(a, p-1),
and checks w * conj(w) = p on every term it caches; the representative's
term is one twisted scatter, ``jacobi_sum_compact(fld, g, k)``.  A kernel
depends only on the set of distinct rows, which every generic prime
shares, so ``groupid.identify_st0`` computes it once, at its first prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .charsums import jacobi_sum_compact
from .cyclo import CycloElt, conductor_join, is_root_of_unity
from .errors import NoColumnsError, NotInKernelError, RelationVerificationError, StjacError
from .ffield import PrimeField, check_prime, make_field, reduce_mod
from .intlinalg import kernel_basis, rank, snf_invariant_factors
from .pointcount import (
    ADDITIVE,
    CurveSpec,
    contributing_ms,
    index_modulus,
    is_generic_prime,
    twist_exponent,
)


def st_columns(p: int, d: int, family: str) -> tuple[int, ...]:
    """Contributing exponents with a = (p-1)/2 removed.

    The removed column's character times phi is trivial, so its Jacobi sum
    degenerates and carries no torus data.  The prime is generic exactly
    when 2*genus columns remain.
    """
    half = (p - 1) // 2
    return tuple(a for a in contributing_ms(p, d, family) if a != half)


def carry(k: int, a: int, n: int) -> int:
    """1 iff the angles of T^a and phi at embedding k sum to at least 2*pi."""
    return 1 if (k * a) % n + (k * (n // 2)) % n >= n else 0


@dataclass(frozen=True)
class CarryMatrix:
    p: int
    d: int
    family: str
    rows: tuple[int, ...]  # units mod p-1, ascending
    cols: tuple[int, ...]  # exponents a, ascending
    entries: tuple[tuple[int, ...], ...]
    is_generic: bool  # as computed by is_generic_prime

    @property
    def n(self) -> int:
        return self.p - 1

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    @cached_property
    def distinct_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows without repeats, in order of first appearance.

        A row depends only on k mod the congruence modulus, so there are
        far fewer distinct rows than units mod p-1; a kernel, a rank and a
        set of row equations depend only on the set of rows.
        """
        return tuple(dict.fromkeys(self.entries))

    def grid(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)

    def to_dict(self) -> dict:
        k = index_modulus(self.family, self.d)
        return {
            "p": self.p,
            "d": self.d,
            "family": self.family,
            "rows": list(self.rows),
            "columns": [{"index": a * k // self.n, "exponent": a} for a in self.cols],
            "entries": [list(r) for r in self.entries],
            "generic": self.is_generic,
        }


def build_matrix(p: int, d: int, family: str = ADDITIVE) -> CarryMatrix:
    """Carry matrix at the odd prime p; NoColumnsError when no character contributes."""
    check_prime(p)
    n = p - 1
    cols = st_columns(p, d, family)
    if not cols:
        raise NoColumnsError(f"no contributing characters for d={d} at p={p}")
    units = tuple(k for k in range(1, n) if math.gcd(k, n) == 1)
    entries = tuple(tuple(carry(k, a, n) for a in cols) for k in units)
    return CarryMatrix(
        p=p, d=d, family=family, rows=units, cols=cols, entries=entries,
        is_generic=is_generic_prime(p, CurveSpec(family, d)),
    )


def _position_table(keys: np.ndarray, n: int) -> np.ndarray:
    """pos[x] = index of x in ``keys`` (distinct residues mod n), else -1."""
    pos = np.full(n, -1, dtype=np.int64)
    pos[keys] = np.arange(len(keys))
    return pos


def validate_matrix(mat: CarryMatrix) -> list[str]:
    """Names of violated structural checks (expected empty).

    Checks: every row and column is half zeros / half ones; conjugate rows
    k and p-1-k are complementary; the simultaneous Galois action on rows
    and columns fixes the table.
    """
    violations = []
    n = mat.n
    ent = np.array(mat.entries, dtype=np.int8).reshape(len(mat.rows), len(mat.cols))
    nrows, ncols = ent.shape
    if np.any(ent.sum(axis=1) * 2 != ncols):
        violations.append("row_balance")
    if np.any(ent.sum(axis=0) * 2 != nrows):
        violations.append("column_balance")
    rows = np.array(mat.rows, dtype=np.int64)
    exps = np.array(mat.cols, dtype=np.int64)
    row_of = _position_table(rows, n)
    col_of = _position_table(exps, n)
    if np.any(ent[row_of[n - rows]] != 1 - ent):
        violations.append("conjugate_complement")
    for u in (1, *_unit_generators(mat.rows, n)):
        # entry(k*u, a/u) = entry(k, a): unit u moves row k*u and column a/u.
        # This is a group action, so a table (and a column set) fixed by a
        # generating set of units is fixed by every unit; u = 1 checks each
        # column against the column its label names.
        cols_u = col_of[pow(u, -1, n) * exps % n]
        if np.any(cols_u < 0) or np.any(ent[np.ix_(row_of[rows * u % n], cols_u)] != ent):
            violations.append("galois_stability")
            break
    return violations


def _unit_generators(units: tuple[int, ...], n: int) -> list[int]:
    """Units that generate the group the given units generate mod n.

    Each unit outside the span of the earlier generators becomes one, so
    there are at most log2(len(units)) of them.
    """
    span, gens = {1}, []
    for u in units:
        if u in span:
            continue
        gens.append(u)
        grown, power = set(span), u
        while power not in span:
            grown.update(s * power % n for s in span)
            power = power * u % n
        span = grown
    return gens


@dataclass(frozen=True)
class KernelLattice:
    """Saturated right kernel of a carry matrix, in canonical HNF form."""

    basis: tuple[tuple[int, ...], ...]
    rank: int
    saturated: bool

    def to_list(self) -> list[list[int]]:
        return [list(v) for v in self.basis]


def right_kernel(mat: CarryMatrix) -> KernelLattice:
    rows = mat.distinct_rows
    basis = kernel_basis(rows)
    sat = all(f == 1 for f in snf_invariant_factors(basis)) if basis else True
    expected = len(mat.cols) - rank(rows)
    if len(basis) != expected:
        raise StjacError(
            f"kernel rank {len(basis)} at p={mat.p} is not columns - rank = {expected}"
        )
    return KernelLattice(
        basis=tuple(tuple(v) for v in basis), rank=len(basis), saturated=sat
    )


@dataclass(frozen=True)
class RelationResult:
    """Outcome of the exact product check on one kernel vector."""

    kind: str  # "exact" | "torsion" | "fail"
    order: int | None = None

    @property
    def ok(self) -> bool:
        return self.kind in ("exact", "torsion")


def frobenius_factor(fld: PrimeField, a: int, c) -> CycloElt:
    """T^a(-c) * phi(c) * J(T^a, phi), in its minimal cyclotomic field.

    This is the exact term the point-count formula attaches to column a,
    i.e. (minus) a Frobenius eigenvalue of the curve at p; the twist is
    zeta^k with k = ``twist_exponent``, an offset in the scatter of J.
    """
    cp = reduce_mod(c, fld.p)
    if cp == 0:
        raise ZeroDivisionError(f"c = {c} vanishes mod {fld.p}")
    return jacobi_sum_compact(fld, a, twist_exponent(fld, a, cp))


def _frobenius_pair(fld: PrimeField, a: int, c) -> tuple[CycloElt, CycloElt]:
    """(w, conj(w)) for w = frobenius_factor(fld, a, c), built once per field.

    Only the representative g = gcd(a, p-1) of a's Galois orbit calls
    ``frobenius_factor``.  For a unit u = a/g mod (p-1)/g, sigma_u maps
    T^g to T^a, fixes phi (u is odd) and phi(c) = +-1, so sigma_u(w_g) = w_a;
    w_a and w_g share the conductor (p-1)/gcd(g, (p-1)/2).  Every pair,
    derived ones included, is cached in ``fld.terms`` under (a, c) after
    checking w * conj(w) = p, the identity that lets ``verify_relation``
    invert w without a division in Z[zeta].
    """
    pair = fld.terms.get((a, c))
    if pair is None:
        n = fld.n
        g = math.gcd(a, n)
        if g == a:
            w = frobenius_factor(fld, a, c)
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
        pair = fld.terms[(a, c)] = (w, wbar)
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
    """Classify a kernel vector as an exact or finite-order character relation.

    Computes W = prod_a (T^a(-c) * phi(c) * J(T^a, phi))^(v_a) exactly and
    tests whether W is 1 (exact relation) or a root of unity of some least
    order N dividing lcm(2, p-1) (relation up to torsion).  Anything else
    is a failure, which the torsion argument for these Frobenius characters
    says should never happen on genuine kernel vectors.

    Inverses never need a polynomial gcd: every factor satisfies
    w * conj(w) = p (checked once per term, see ``_frobenius_pair``), so
    w^-1 = conj(w)/p.  The whole product stays in Z[zeta] and is divided by
    p^k once at the end; a remainder there means W is not an algebraic
    integer, hence not a root of unity.
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


def relation_report(
    p: int, d: int, family: str, c=Fraction(1)
) -> tuple[CarryMatrix, KernelLattice, list[RelationResult]]:
    """Matrix, kernel and per-basis-vector relation classification at p."""
    mat = build_matrix(p, d, family)
    kern = right_kernel(mat)
    fld = make_field(p)
    results = [verify_relation(fld, mat, vec, c) for vec in kern.basis]
    return mat, kern, results
