"""Stickelberger carry matrices, their integer kernels, and exact relation checks.

The carry matrix encodes the prime-over-p valuations of the Jacobi sums
J(T^a, phi): rows are indexed by the units k mod p-1 (one per embedding of
the character group into the circle), columns by the contributing character
exponents a with the exponent (p-1)/2 removed, and

    entry(k, a) = 1  iff  (k*a mod p-1) + (k*(p-1)/2 mod p-1) >= p-1,

i.e. iff adding the two character angles wraps past a full turn.  Units k
mod n = p-1 are odd, so k*n/2 = n/2 (mod n): the entry is [k*a mod n >= n/2],
a function of k*a mod n alone, and ``validate_matrix`` reads its Galois
check off that key.  The column lattice modulo the all-ones vector is the
character lattice of the identity component of the Sato-Tate group; kernel
vectors of the matrix are candidate multiplicative relations among the
Frobenius characters and are confirmed exactly, by residues modulo split
primes l = 1 (mod L), L the even conductor of the Jacobi sums (see
``verify_relation``).

A relation check reads w_a at the embedding zeta -> r^k mod a split prime
as the residue of column k*a mod p-1 at zeta -> r, since sigma_k(w_a) =
w_(k*a); each residue comes from the Galois-orbit representative w_g,
g = gcd(a, p-1), the only term built (one twisted scatter
``jacobi_sum_compact(fld, g, shift)``, checked against w * conj(w) = p in
Z[zeta]), once per field and twist.  A kernel depends only on the set of
distinct rows, which every generic prime shares, so
``groupid.identify_st0`` computes it once, at its first prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .charsums import conductor, jacobi_sum_compact
from .cyclo import CycloElt, is_root_of_unity
from .errors import (
    InputError, NoColumnsError, NotInKernelError, RelationVerificationError, StjacError)
from .ffield import PrimeField, check_prime, make_field, reduce_mod, smallest_primitive_root
from .intlinalg import kernel_basis, rank, snf_invariant_factors
from .pointcount import (
    ADDITIVE,
    CurveSpec,
    contributing_ms,
    index_modulus,
    is_generic_prime,
    twist_exponent,
)
from .primes import euler_phi, is_prime


def st_columns(p: int, d: int, family: str) -> tuple[int, ...]:
    """Contributing exponents with a = (p-1)/2 removed.

    The removed column's character times phi is trivial, so its Jacobi sum
    degenerates and carries no torus data.  The prime is generic exactly
    when 2*genus columns remain.
    """
    half = (p - 1) // 2
    return tuple(a for a in contributing_ms(p, d, family) if a != half)


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

    @cached_property
    def _row_array(self) -> np.ndarray:
        """``distinct_rows`` as an int64 array, for kernel-membership products."""
        return np.array(self.distinct_rows, dtype=np.int64)

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
    """Carry matrix at the odd prime p; NoColumnsError when no character contributes.

    Each unit k is odd, so the carry rule reduces to k*a mod n >= n/2.
    """
    check_prime(p)
    n = p - 1
    cols = st_columns(p, d, family)
    if not cols:
        raise NoColumnsError(f"no contributing characters for d={d} at p={p}")
    k = np.flatnonzero(np.gcd(np.arange(n), n) == 1)[:, None]
    # the carry rule over units x columns in one broadcast; k * a < n^2 < 2^62
    carries = (k * np.array(cols, dtype=np.int64) % n >= n // 2).astype(np.int64)
    return CarryMatrix(
        p=p, d=d, family=family, rows=tuple(k[:, 0].tolist()), cols=cols,
        entries=tuple(map(tuple, carries.tolist())),
        is_generic=is_generic_prime(p, CurveSpec(family, d)),
    )


def validate_matrix(mat: CarryMatrix) -> list[str]:
    """Names of violated structural checks (expected empty).

    Checks: every row and column is half zeros / half ones; conjugate rows
    k and p-1-k are complementary; the simultaneous Galois action on rows
    and columns fixes the table.  A unit u moves cell (k, a) to (k*u, a/u),
    which keeps k*a mod n, and the rows are all the units, so any two cells
    with equal k*a are related by such a move.  So the table is stable
    exactly when every k*a is a column exponent and scattering the entries
    at key k*a and gathering them back gives the same table.
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
    # the rows ascend through the units mod n, so row n-k is row k from the end
    if np.any(ent[::-1] != 1 - ent):
        violations.append("conjugate_complement")
    keys = rows[:, None] * exps % n
    by_key = np.zeros(n, dtype=np.int8)
    by_key[keys] = ent
    if not np.isin(keys, exps).all() or np.any(by_key[keys] != ent):
        violations.append("galois_stability")
    return violations


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


# Split primes stay below 2^31, so a product of two residues fits in int64.
SPLIT_PRIME_BOUND = 2**31

_split_ladder: dict[int, list[int]] = {}  # L -> its split primes found so far


@lru_cache(maxsize=256)
def split_prime(L: int, i: int) -> tuple[int, tuple[int, ...], dict[int, int]]:
    """The i-th prime l = 1 (mod L) below 2^31, counting down from the top,
    with the powers r^e mod l (e < L) of an r of exact order L and the
    exponent e of each power.

    l is found by walking down from the lowest split prime already found
    for L.  r = h^((l-1)/L) for the smallest primitive root h of l.  Each
    entry holds O(L) numbers and the cache keeps at most 256 of them.
    """
    found = _split_ladder.setdefault(L, [])
    top = found[-1] // L - 1 if found else (SPLIT_PRIME_BOUND - 2) // L
    walk = (j * L + 1 for j in range(top, 0, -1) if is_prime(j * L + 1))
    found.extend(islice(walk, max(0, i + 1 - len(found))))
    if len(found) <= i:
        raise StjacError(f"too few primes = 1 mod {L} below 2^31")
    ell = found[i]
    r = pow(smallest_primitive_root(ell), ell // L, ell)
    powers = [1] * L
    for e in range(1, L):
        powers[e] = powers[e - 1] * r % ell
    return ell, tuple(powers), {x: e for e, x in enumerate(powers)}


def split_primes(L: int, p: int, k: int) -> list[tuple[int, tuple[int, ...], dict[int, int]]]:
    """The first ``split_prime`` entries for L, skipping l = p, whose
    primes multiply to more than 2 p^k."""
    bound, product, out = 2 * p**k, 1, []
    i = 0
    while product <= bound:
        entry = split_prime(L, i)
        i += 1
        if entry[0] != p:
            out.append(entry)
            product *= entry[0]
    return out


def _evaluate(points: list[tuple[CycloElt, int]], L: int, ell: int, powers: tuple) -> list[int]:
    """sigma_u(w) at zeta_L -> r mod l for each point (w, u), that is w at
    zeta_N -> r^(u*L/N), N = w.n dividing L.

    Horner's rule over the coordinates, reduced mod l first, keeps every
    step below l^2 < 2^62.
    """
    phi = max(len(w.coeffs) for w, _ in points)
    coeffs = np.zeros((phi, len(points)), dtype=np.int64)
    for j, (w, _) in enumerate(points):
        coeffs[: len(w.coeffs), j] = [cf % ell for cf in w.coeffs]
    x = np.array([powers[u * (L // w.n) % L] for w, u in points], dtype=np.int64)
    value = np.zeros_like(x)
    for cf in coeffs[::-1]:
        value = (value * x + cf) % ell
    return value.tolist()


@dataclass
class _RelationTerms:
    """The Frobenius terms of one field, twist and column set, mod split primes.

    Column j's term sigma_u(w_g), g = gcd(a_j, p-1), is its point (w_g, u)
    in ``points``; ``embeddings`` holds one unit k mod p-1 per unit class
    mod L, ascending (k = 1 first); ``tables`` maps each split prime l in
    use to {a: w_a at zeta_L -> r mod l}, filled when a p^k first needs l.
    """

    L: int
    embeddings: list[int]
    points: list[tuple[CycloElt, int]]
    tables: dict[int, dict[int, int]] = field(default_factory=dict)


def _relation_terms(fld: PrimeField, mat: CarryMatrix, c) -> _RelationTerms:
    """The cached ``_RelationTerms`` of (fld, c, mat.cols), built on first use.

    L = lcm(2, conductors of all columns); column a's conductor
    (p-1)/gcd(a, (p-1)/2) is that of its representative g = gcd(a, p-1).
    For a unit k mod p-1, sigma_k maps T^a to T^(k*a) and fixes phi and
    phi(c) = +-1, so sigma_k(w_a) = w_(k*a): w_a at zeta_L -> r^k is
    column k*a mod p-1 at zeta_L -> r, conj(w_a) = w_(-a) is column -k*a,
    and the columns must be closed under the units (else InputError).  Only
    the representatives w_g are built, each checked against w * conj(w) = p
    in Z[zeta]; sigma_u commutes with complex conjugation, so every derived
    term inherits the identity.  Nothing is cached unless all of it holds.
    """
    key = (c, mat.cols)
    terms = fld.terms.get(key)
    if terms is not None:
        return terms
    n = fld.n
    orbit = [math.gcd(a, n) for a in mat.cols]
    if any(orbit.count(g) != euler_phi(n // g) for g in set(orbit)):
        raise InputError(f"the columns at p={fld.p} are not closed under the units mod {n}")
    L = math.lcm(2, *(conductor(fld, a) for a in mat.cols))
    reps = {}
    for g in sorted(set(orbit)):
        w = reps[g] = frobenius_factor(fld, g, c)
        if w * w.conj() != fld.p:
            raise RelationVerificationError(
                f"the term of column {g} at p={fld.p} has w * conj(w) != p"
            )
    # an odd lift u of a/g mod (p-1)/g acts on w_g's field as a unit mod p-1
    points = [(reps[g], a // g + n // g * (a // g % 2 == 0)) for a, g in zip(mat.cols, orbit)]
    embeddings = sorted({k % L: k for k in reversed(mat.rows)}.values())
    terms = fld.terms[key] = _RelationTerms(L, embeddings, points)
    return terms


def verify_relation(
    fld: PrimeField, mat: CarryMatrix, v, c=Fraction(1)
) -> RelationResult:
    """Classify a kernel vector as an exact or finite-order character relation.

    Decides whether W = prod_a w_a^(v_a), w_a = T^a(-c) * phi(c) * J(T^a, phi),
    is 1 (exact relation) or a root of unity of some least order N
    (relation up to torsion).  Anything else is a failure, which the
    torsion argument for these Frobenius characters says should never
    happen on genuine kernel vectors.

    The decision is exact but runs in F_l, for primes l = 1 (mod L), L the
    even conductor of all columns (``split_prime``), where Z[zeta_L] maps
    onto F_l in phi(L) ways, zeta_L -> r^u for the units u mod L.  Every
    term satisfies w * conj(w) = p (see ``_relation_terms``), so
    X = prod w^(v+) * conj(w)^(v-) = W * p^k, k = sum of the negative
    parts of v, lies in Z[zeta_L].  The zero vector is exact; sum(v) != 0
    makes |W| = p^(sum(v)/2) != 1, a failure.  Otherwise:

      * t is the exponent with r^t = X(r) * p^-k at the first split prime,
        else W is no root of unity (they are the zeta_L^t, L even);
      * every embedding u at every split prime l used must give
        X(r^u) = r^(u t) * p^k, and the l multiply past 2 p^k;
      * soundness: |sigma(X)| = p^k at every complex embedding sigma, so
        Y = X - zeta_L^t p^k has |sigma(Y)| <= 2 p^k, while Y = 0 at all
        phi(L) embeddings mod every l used.  l is unramified in Q(zeta_L),
        so (prod l)^phi(L) divides the norm N(Y), with |N(Y)| <= (2 p^k)^phi(L)
        < (prod l)^phi(L); hence N(Y) = 0, Y = 0 and W = zeta_L^t.

    t = 0 is exact; otherwise W is torsion of order L / gcd(t, L).
    """
    if fld.p != mat.p:
        raise InputError(f"a field of p={fld.p} cannot check a carry matrix at p={mat.p}")
    v = [int(x) for x in v]
    if len(v) != len(mat.cols):
        raise NotInKernelError("vector length does not match the column count")
    wide = np.int64 if sum(map(abs, v)) < 2**63 else object
    if (mat._row_array @ np.array(v, dtype=wide)).any():
        raise NotInKernelError(f"{v} is not in the kernel of the carry matrix")
    support = [(mat.cols[j], e) for j, e in enumerate(v) if e]
    if not support:
        return RelationResult(kind="exact", order=1)
    if sum(v):
        return RelationResult(kind="fail", order=None)
    terms = _relation_terms(fld, mat, c)
    L, n, ks = terms.L, fld.n, terms.embeddings
    k = sum(-e for _, e in support if e < 0)
    t = None
    for ell, powers, exponent_of in split_primes(L, fld.p, k):
        if ell not in terms.tables:
            terms.tables[ell] = dict(zip(mat.cols, _evaluate(terms.points, L, ell, powers)))
        table, x = terms.tables[ell], None
        for a, e in support:
            a = a if e > 0 else -a
            y = [table[u * a % n] for u in ks]
            if abs(e) > 1:
                y = [pow(z, abs(e), ell) for z in y]
            x = y if x is None else [xi * yi % ell for xi, yi in zip(x, y)]
        q = pow(fld.p, k, ell)
        if t is None:
            t = exponent_of.get(x[0] * pow(q, -1, ell) % ell)
            if t is None:
                return RelationResult(kind="fail", order=None)
        if x != [powers[u * t % L] * q % ell for u in ks]:
            return RelationResult(kind="fail", order=None)
    if t == 0:
        return RelationResult(kind="exact", order=1)
    return RelationResult(kind="torsion", order=is_root_of_unity(CycloElt.zeta_pow(L, t)))


def relation_report(
    p: int, d: int, family: str, c=Fraction(1)
) -> tuple[CarryMatrix, KernelLattice, list[RelationResult]]:
    """Matrix, kernel and per-basis-vector relation classification at p."""
    mat = build_matrix(p, d, family)
    kern = right_kernel(mat)
    fld = make_field(p)
    results = [verify_relation(fld, mat, vec, c) for vec in kern.basis]
    return mat, kern, results
