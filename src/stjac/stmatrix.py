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
g = gcd(a, p-1), the only term built (one rotation of the field's fold
of J, ``jacobi_sum_compact(fld, g, shift)``, checked against
w * conj(w) = p in Z[zeta]), once per check.  One pass decides a batch
of vectors, each on its own (``_relation_exponents``): one membership
product and one numpy pass per split prime for all of them.  A kernel
depends only on the set of distinct rows, which every generic prime
shares, so ``groupid.identify_st0`` computes it once, at its first
prime, and folds the pass over the whole kernel into one lattice verdict
per field (``verify_relation``); ``relation_report`` (``stjac kernel``)
runs the same pass over a basis and keeps each vector's verdict.
Everything of a pass but the twisted terms and their residues depends
only on the matrix and the vectors, and is memoized per process: one
plan per batch (``_relation_plan``: the membership product, the orbits
the rows touch with each of their columns' representative slot and
embedding exponent, the embeddings, the entry lists and each row's p^k
modulo the split primes) and the split primes with their powers
(``split_prime``).  A pass builds the terms of the touched orbits only,
and checks each against w * conj(w) = p, on every call.
The kernel's HNF is memoized per matrix (``intlinalg``), so the plans of
one kernel share its rows, and each matrix keeps its one rank
(``CarryMatrix.rank``) for ``right_kernel`` and the torus dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import takewhile

import numpy as np

from .charsums import jacobi_sum_compact
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
from .primes import euler_phi, ladder_prime


def st_columns(p: int, d: int, family: str) -> tuple[int, ...]:
    """Contributing exponents with a = (p-1)/2 removed.

    The removed column's character times phi is trivial, so its Jacobi sum
    degenerates and carries no torus data.  The prime is generic exactly
    when 2*genus columns remain.
    """
    half = (p - 1) // 2
    return tuple(a for a in contributing_ms(p, d, family) if a != half)


def _read_only(values) -> np.ndarray:
    """An int64 array of values that no caller can write: memoized data is
    shared by every caller."""
    array = np.array(values, dtype=np.int64)
    array.flags.writeable = False
    return array


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

    def __hash__(self) -> int:
        # build_matrix makes the matrix a function of its key, so the key
        # hashes it, and no memo lookup rehashes the entries; equality still
        # compares every field
        return hash((self.p, self.d, self.family))

    @cached_property
    def distinct_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows without repeats, in order of first appearance.

        A row depends only on k mod the congruence modulus, so there are
        far fewer distinct rows than units mod p-1; a kernel, a rank and a
        set of row equations depend only on the set of rows.
        """
        return tuple(dict.fromkeys(self.entries))

    @cached_property
    def rank(self) -> int:
        """Certified rank over Q of the distinct rows, once per matrix."""
        return rank(self.distinct_rows)

    @cached_property
    def violations(self) -> tuple[str, ...]:
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
        n = self.n
        ent = np.array(self.entries, dtype=np.int8).reshape(len(self.rows), len(self.cols))
        nrows, ncols = ent.shape
        if np.any(ent.sum(axis=1) * 2 != ncols):
            violations.append("row_balance")
        if np.any(ent.sum(axis=0) * 2 != nrows):
            violations.append("column_balance")
        rows = np.array(self.rows, dtype=np.int64)
        exps = np.array(self.cols, dtype=np.int64)
        # the rows ascend through the units mod n, so row n-k is row k from the end
        if np.any(ent[::-1] != 1 - ent):
            violations.append("conjugate_complement")
        keys = rows[:, None] * exps % n
        by_key = np.zeros(n, dtype=np.int8)
        by_key[keys] = ent
        is_column = np.zeros(n, dtype=bool)
        is_column[exps] = True
        if not is_column[keys].all() or np.any(by_key[keys] != ent):
            violations.append("galois_stability")
        return tuple(violations)

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


@lru_cache(maxsize=256, typed=True)
def build_matrix(p: int, d: int, family: str = ADDITIVE) -> CarryMatrix:
    """Carry matrix at the odd prime p; NoColumnsError when no character contributes.

    Each unit k is odd, so the carry rule reduces to k*a mod n >= n/2.

    Memoized: the last 256 (p, d, family) calls share one frozen matrix,
    with its ``violations``, ``distinct_rows`` and ``rank``.  A
    matrix never depends on the twist c, so a process that scans the twists
    of a curve builds each matrix once (the 18 st0-curves curves need 54
    entries); a one-shot ``stjac st0`` gains nothing.  ``typed`` keeps 11.0
    from hitting the entry of 11, so such a call is still rejected.  An
    entry holds one reference per unit mod p-1 and each distinct row once:
    256 matrices at p < 2000 take about 5 MB, and x^840+3 peaks at about
    85 MB either way.
    """
    check_prime(p)
    n = p - 1
    cols = st_columns(p, d, family)
    if not cols:
        raise NoColumnsError(f"no contributing characters for d={d} at p={p}")
    k = np.flatnonzero(np.gcd(np.arange(n), n) == 1)[:, None]
    # the carry rule over units x columns in one broadcast; k * a < n^2 < 2^62
    carries = (k * np.array(cols, dtype=np.int64) % n >= n // 2).astype(np.int64)
    # equal rows share one tuple, so a memoized matrix holds its distinct rows once
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    return CarryMatrix(
        p=p, d=d, family=family, rows=tuple(k[:, 0].tolist()), cols=cols,
        entries=tuple(shared.setdefault(r, r) for r in map(tuple, carries.tolist())),
        is_generic=is_generic_prime(p, CurveSpec(family, d)),
    )


def validate_matrix(mat: CarryMatrix) -> list[str]:
    """Names of violated structural checks (expected empty), as a new list.

    The checks run once per matrix (``CarryMatrix.violations``), so a
    matrix that ``build_matrix`` memoized is validated once per process.
    """
    return list(mat.violations)


@dataclass(frozen=True)
class KernelLattice:
    """Saturated right kernel of a carry matrix, in canonical HNF form."""

    basis: tuple[tuple[int, ...], ...]
    rank: int
    saturated: bool

    def to_list(self) -> list[list[int]]:
        return [list(v) for v in self.basis]


def right_kernel(mat: CarryMatrix) -> KernelLattice:
    """The saturated right kernel of the distinct rows, with its rank
    checked against columns - ``mat.rank`` (StjacError when they differ).

    The rank comes from the transpose, an elimination of its own, so a
    kernel that lost a vector cannot agree with it.  ``basis`` is the
    memoized HNF's own tuple (``intlinalg._kernel_hnf``), but each call
    checks its Smith form (``snf_invariant_factors``, with ``hnf_rows``)
    and the counts, so a kernel that drops a vector fails warm too.  The
    traced test of ``perfbench`` expects those calls on a warm rerun, so a
    kernel memoized per matrix waits for a benchmark change (ROADMAP 1).
    """
    basis = kernel_basis(mat.distinct_rows)
    sat = all(f == 1 for f in snf_invariant_factors(basis)) if basis else True
    expected = len(mat.cols) - mat.rank
    if len(basis) != expected:
        raise StjacError(
            f"kernel rank {len(basis)} at p={mat.p} is not columns - rank = {expected}"
        )
    return KernelLattice(basis=basis, rank=len(basis), saturated=sat)


@dataclass(frozen=True)
class RelationResult:
    """Outcome of the exact product check on one kernel vector, or on the
    lattice a batch of them spans (see ``verify_relation``)."""

    kind: str  # "exact" | "torsion" | "fail"
    order: int | None = None

    @property
    def ok(self) -> bool:
        return self.kind in ("exact", "torsion")


def frobenius_factor(fld: PrimeField, a: int, c) -> CycloElt:
    """T^a(-c) * phi(c) * J(T^a, phi), in its minimal cyclotomic field.

    This is the exact term the point-count formula attaches to column a,
    i.e. (minus) a Frobenius eigenvalue of the curve at p; the twist is
    zeta^k with k = ``twist_exponent``, a rotation of the fold of J.
    """
    cp = reduce_mod(c, fld.p)
    if cp == 0:
        raise ZeroDivisionError(f"c = {c} vanishes mod {fld.p}")
    return jacobi_sum_compact(fld, a, twist_exponent(fld, a, cp))


@lru_cache(maxsize=256)
def split_prime(L: int, i: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The i-th prime l = 1 (mod L) below 2^31, counting down from the top
    (``primes.ladder_prime``), with the powers r^e mod l (e < L) of an r of
    exact order L and the exponents e in ascending order of their powers
    (a search in ``powers[order]`` finds the exponent of a power), both
    read-only int64 arrays.

    r = h^((l-1)/L) for the smallest primitive root h of l.  Each entry
    holds O(L) numbers and the cache keeps at most 256 of them.
    """
    ell = ladder_prime(L, i)
    if ell is None:
        raise StjacError(f"too few primes = 1 mod {L} below 2^31")
    r = pow(smallest_primitive_root(ell), ell // L, ell)
    powers = [1] * L
    for e in range(1, L):
        powers[e] = powers[e - 1] * r % ell
    return ell, _read_only(powers), _read_only(sorted(range(L), key=powers.__getitem__))


def split_primes(L: int, p: int, k: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
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


def _evaluate(
    terms: list[CycloElt], plan: _RelationPlan, ell: int, powers: np.ndarray
) -> np.ndarray:
    """The residue at zeta_L -> r mod l of the term of every column of a
    touched orbit, in the order of ``plan.columns``, from the terms w_g at
    the representatives ``plan.reps``.

    Column a's term sigma_u(w_g) is w_g at zeta_N -> r^(u*L/N), e =
    ``plan.exponent``: coordinate i of w_g is read at r^(e*i mod L).  One
    gather by ``plan.slot`` picks each column's reduced coordinates, one
    gather from ``powers`` its points, and one product sums them, with no
    Python step per column or per coordinate.  Every coordinate and power
    is reduced below l < 2^31, so each product is below 2^62 and, reduced
    again, a sum of fewer than 2^31 of them (phi(N) < p) stays below 2^62.
    A coordinate beyond int64 raises OverflowError rather than wrapping.
    """
    width = max(len(w.coeffs) for w in terms)
    coeffs = np.array([w.coeffs + (0,) * (width - len(w.coeffs)) for w in terms], dtype=np.int64)
    points = powers[plan.exponent[:, None] * np.arange(width) % plan.L]
    return ((coeffs % ell)[plan.slot] * points % ell).sum(axis=1) % ell


def _orbit_terms(fld: PrimeField, plan: _RelationPlan, c) -> list[CycloElt]:
    """The Frobenius term w_g, in field fld and twist c, of each orbit
    representative g in ``plan.reps``: ``_evaluate`` derives every touched
    column's term from these.

    For a unit k mod p-1, sigma_k maps T^a to T^(k*a) and fixes phi and
    phi(c) = +-1, so sigma_k(w_a) = w_(k*a): w_a at zeta_L -> r^k is column
    k*a mod p-1 at zeta_L -> r, conj(w_a) = w_(-a) is column -k*a, and the
    columns must be closed under the units (``_relation_plan``, else
    InputError).  k*a and a share their orbit, so a row reads only the
    orbits of its own columns.  Each term built is checked against
    w * conj(w) = p in Z[zeta]; sigma_u commutes with complex conjugation,
    so every derived term inherits the identity.
    """
    terms = []
    for g in plan.reps:
        w = frobenius_factor(fld, g, c)
        if w * w.conj() != fld.p:
            raise RelationVerificationError(
                f"the term of column {g} at p={fld.p} has w * conj(w) != p"
            )
        terms.append(w)
    return terms


@dataclass(frozen=True, eq=False)
class _RelationPlan:
    """Everything of a batched relation check that only the matrix and the
    rows fix (``_relation_plan``); no field or twist changes it.

    ``start`` holds each row's exponent t before any term is read: None
    for an unbalanced row, else 0.  ``index`` lists the rows to check, the
    nonzero balanced ones, longest entry list first (see
    ``_relation_exponents``); when there is none, the other fields keep
    their defaults.  L is the even conductor of the columns and ``reps``
    lists the representatives g = gcd(a, p-1) of the Galois orbits that
    the checked rows touch, ascending: the only terms a pass builds.
    Column a's term is sigma_u(w_g), u an odd lift of a/g mod (p-1)/g (a
    unit mod p-1), so at zeta_L -> r it is w_g at zeta_N -> r^(u*L/N),
    N = (p-1)/gcd(g, (p-1)/2) the conductor of w_g: for each column of a
    touched orbit, ascending, ``columns`` holds its exponent a, ``slot``
    the index of g in ``reps`` and ``exponent`` u*L/N mod L.  ``ks`` holds
    one unit k mod p-1 per unit class mod L, ascending (k = 1 first): the
    embeddings zeta_L -> r^k that a check reads.  ``primes`` are the split
    primes for the largest k.  For each distinct k (the sum of the
    negative parts of a row), ascending, ``scale[j]`` holds p^k mod the
    j-th split prime and ``unscale`` p^-k mod the first.  In the order of
    ``index``, ``need`` holds the number of split primes each row's bound
    needs, ``kslot`` the index of its k, ``keys[pos]`` the key +-a mod p-1
    of entry pos of each row with more than pos entries, and
    ``offsets[pos]`` their (|e| - 1)*(p-1), the start of the power |e| in a
    table of the powers 1..``top`` of the residues, top = max |e| (None
    when top = 1).  The arrays are read-only int64, O(columns + rows x
    positions + split primes x distinct k) integers.
    """

    start: tuple[int | None, ...]
    index: tuple[int, ...] = ()
    L: int = 1
    reps: tuple[int, ...] = ()
    columns: np.ndarray | None = None
    slot: np.ndarray | None = None
    exponent: np.ndarray | None = None
    ks: np.ndarray | None = None
    primes: tuple = ()
    need: np.ndarray | None = None
    kslot: np.ndarray | None = None
    scale: tuple[np.ndarray, ...] = ()
    unscale: np.ndarray | None = None
    keys: tuple[np.ndarray, ...] = ()
    offsets: tuple[np.ndarray, ...] | None = None
    top: int = 1


@lru_cache(maxsize=256)
def _relation_plan(mat: CarryMatrix, rows: tuple[tuple[int, ...], ...]) -> _RelationPlan:
    """The ``_RelationPlan`` of a batch of rows, memoized per (matrix, rows)
    for the last 256 pairs: a process that checks one kernel in many
    fields or twists runs the kernel-membership product, the orbit and
    split-prime walks and the entry lists once.

    The rows are read as ints here, once per plan: rows that compare equal
    have equal ints, so the plan keyed by rows of numpy ints or of floats
    is the plan of their ints, and no other entry reaches the int64 sizing
    of the membership product.  Raises NotInKernelError for a row of the
    wrong length or outside the kernel of the carry matrix, and, when some
    row is to be checked, InputError for columns that are not closed under
    the units mod p-1.
    Column a's conductor (p-1)/gcd(a, (p-1)/2) (``charsums.conductor``) is
    that of its representative g, and the lcm of all of them is
    L = (p-1)/gcd((p-1)/2, every column), which is even.  Each nonzero
    entry e of a row becomes one pair (+-a mod n, (|e| - 1)*n): the key of
    w or conj(w) and the offset of the power |e| in the pass's table of
    powers.  The plan keeps no array over the embeddings: those would hold
    rows x positions x embeddings keys.
    """
    rows = tuple(tuple(map(int, row)) for row in rows)
    if any(len(row) != len(mat.cols) for row in rows):
        raise NotInKernelError("vector length does not match the column count")
    wide = np.int64 if max(sum(map(abs, row)) for row in rows) < 2**63 else object
    vectors = np.array(rows, dtype=wide)
    residual = np.array(mat.distinct_rows, dtype=np.int64) @ vectors.T
    if residual.any():
        bad = rows[(residual != 0).any(axis=0).argmax()]
        raise NotInKernelError(f"{list(bad)} is not in the kernel of the carry matrix")
    start = tuple(None if sum(row) else 0 for row in rows)
    index = [i for i, row in enumerate(rows) if any(row) and not sum(row)]
    if not index:
        return _RelationPlan(start=start)
    n, p = mat.n, mat.p
    orbit = [math.gcd(a, n) for a in mat.cols]
    if any(orbit.count(g) != euler_phi(n // g) for g in set(orbit)):
        raise InputError(f"the columns at p={p} are not closed under the units mod {n}")
    L = n // math.gcd(n // 2, *mat.cols)
    read = (vectors[index] != 0).any(axis=0).tolist()
    reps = sorted({g for g, r in zip(orbit, read) if r})
    slot_of = {g: i for i, g in enumerate(reps)}
    touched = [(a, g) for a, g in zip(mat.cols, orbit) if g in slot_of]
    lifts = [a // g + n // g * (a // g % 2 == 0) for a, g in touched]
    neg = [sum(-e for e in rows[i] if e < 0) for i in index]
    need = {k: len(split_primes(L, p, k)) for k in set(neg)}
    entries = [
        [((a if e > 0 else -a) % n, (abs(e) - 1) * n) for a, e in zip(mat.cols, rows[i]) if e]
        for i in index
    ]
    top = max(abs(e) for i in index for e in rows[i])
    order = sorted(range(len(index)), key=lambda i: len(entries[i]), reverse=True)
    entries = [entries[i] for i in order]
    # longest first, so the rows with an entry at pos are a prefix
    columns = [
        [ent[pos] for ent in takewhile(lambda ent: len(ent) > pos, entries)]
        for pos in range(len(entries[0]))
    ]
    keys = tuple(_read_only([key for key, _ in col]) for col in columns)
    offsets = None
    if top > 1:
        offsets = tuple(_read_only([offset for _, offset in col]) for col in columns)
    neg = [neg[i] for i in order]
    distinct = sorted(set(neg))
    primes = split_primes(L, p, distinct[-1])
    kslot = {k: i for i, k in enumerate(distinct)}
    return _RelationPlan(
        start=start, index=tuple(index[i] for i in order), L=L, reps=tuple(reps),
        columns=_read_only([a for a, _ in touched]),
        slot=_read_only([slot_of[g] for _, g in touched]),
        exponent=_read_only([
            u * (L * math.gcd(g, n // 2) // n) % L for u, (_, g) in zip(lifts, touched)]),
        ks=_read_only(sorted({k % L: k for k in reversed(mat.rows)}.values())),
        primes=tuple(primes), need=_read_only([need[k] for k in neg]),
        kslot=_read_only([kslot[k] for k in neg]),
        scale=tuple(_read_only([pow(p, k, ell) for k in distinct]) for ell, _, _ in primes),
        unscale=_read_only([pow(p, -k, primes[0][0]) for k in distinct]), keys=keys,
        offsets=offsets, top=top,
    )


def verify_relation(
    fld: PrimeField, mat: CarryMatrix, v, c=Fraction(1)
) -> RelationResult:
    """Classify a kernel vector as an exact or finite-order character relation,
    or, for a 2-D v, the lattice its rows span.

    Decides whether W = prod_a w_a^(v_a), w_a = T^a(-c) * phi(c) * J(T^a, phi),
    is 1 (exact relation) or a root of unity of some least order N
    (relation up to torsion).  Anything else is a failure, which the
    torsion argument for these Frobenius characters says should never
    happen on genuine kernel vectors.

    The decision is exact but runs in F_l, for primes l = 1 (mod L), L the
    even conductor of all columns (``split_prime``), where Z[zeta_L] maps
    onto F_l in phi(L) ways, zeta_L -> r^u for the units u mod L.  Every
    term satisfies w * conj(w) = p (see ``_orbit_terms``), so
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

    Every row of v is decided in one pass (``_relation_exponents``), which
    ``relation_report`` shares: the membership product and the split
    primes, for the largest k, are memoized per matrix and rows
    (``_relation_plan``), and each split prime takes one numpy pass for
    all rows.  Each row is checked at every embedding of the first split
    primes whose product passes its own 2 p^k, so the argument above holds
    row by row; a prime more would only strengthen the bound.  The verdict
    is for the lattice the rows span: "fail" if any row fails (an
    unbalanced row before any term is built), "exact" if every row is,
    else "torsion" of order L / gcd(L, t_1, ..., t_m), that of the cyclic
    group of the W's.  A row outside the kernel of the carry matrix raises
    NotInKernelError.
    """
    if fld.p != mat.p:
        raise InputError(f"a field of p={fld.p} cannot check a carry matrix at p={mat.p}")
    v = list(v)
    batch = bool(v) and hasattr(v[0], "__len__")
    # a tuple row (a KernelLattice basis) is kept as it is, so the memoized
    # plans of one kernel in several fields share its rows
    plan = _relation_plan(mat, tuple(map(tuple, v)) if batch else (tuple(v),))
    if None in plan.start:
        return RelationResult(kind="fail", order=None)
    return _verdict(plan.L, _relation_exponents(fld, plan, c))


def _verdict(L: int, ts: list[int | None]) -> RelationResult:
    """The verdict on rows with exponents ts, W = zeta_L^t for each: "fail"
    if some row has none, else that of the cyclic group of the W's."""
    if None in ts:
        return RelationResult(kind="fail", order=None)
    g = math.gcd(L, *ts)
    if g == L:
        return RelationResult(kind="exact", order=1)
    return RelationResult(kind="torsion", order=is_root_of_unity(CycloElt.zeta_pow(L, g)))


def _relation_exponents(fld: PrimeField, plan: _RelationPlan, c) -> list[int | None]:
    """The exponent t of each row of the plan, W = zeta_L^t, in input
    order, or None for a row that is no relation (see ``verify_relation``);
    a row that fails is marked, and the others are still checked.

    Each row is checked at the prefix of the plan's split primes that
    passes its own 2 p^k, the primes a check of that row alone would use.
    At each split prime one ``_evaluate`` gives the residue of every
    column of a touched orbit, top - 1 products raise them to the powers
    1..top, and one numpy pass builds X at every embedding u for the rows
    still checked there: position i of every entry list long enough
    gathers its residues at key +-u*a mod n from the power |e| of the
    table, one gather per entry, and multiplies them in.  The work arrays
    are rows x embeddings, whatever the support sizes; the terms and their
    residues are the only input that depends on the field and the twist,
    and a pass with no row to check builds none.
    """
    ts = list(plan.start)
    if not plan.index:
        return ts
    terms = _orbit_terms(fld, plan, c)
    L, n, ks = plan.L, fld.n, plan.ks
    # spread[key] holds key * u mod n for the embeddings u
    spread = np.arange(n, dtype=np.int64)[:, None] * ks % n
    ok = np.ones(len(plan.index), dtype=bool)
    found = np.zeros(len(plan.index), dtype=np.int64)
    for j, (ell, powers, order) in enumerate(plan.primes):
        # the rows checked here, still longest first: at each position the
        # ones with an entry there are a prefix of them
        act = np.flatnonzero(ok & (plan.need > j))
        if not len(act):
            break
        # row m of the table holds the residues to the power m + 1
        table = np.zeros((plan.top, n), dtype=np.int64)
        table[0, plan.columns] = _evaluate(terms, plan, ell, powers)
        for m in range(1, plan.top):
            table[m] = table[m - 1] * table[0] % ell
        flat = table.ravel()
        every = len(act) == len(plan.need)
        for pos, keys in enumerate(plan.keys):
            live = len(keys) if every else int(np.searchsorted(act, len(keys)))
            if not live:
                break
            at = slice(None) if every else act[:live]
            gathered = spread[keys[at]]
            if plan.offsets is not None:
                gathered += plan.offsets[pos][at][:, None]
            if pos:
                x[:live] = x[:live] * flat[gathered] % ell
            else:
                x = flat[gathered]
        if not j:
            # every row is checked at the first prime: t is the exponent of
            # X(r) * p^-k among the powers, found by a search in their order;
            # a value that is no power gets some t, which u = 1 then rejects
            y = x[:, 0] * plan.unscale[plan.kslot] % ell
            found[:] = order[np.searchsorted(powers[order], y) % L]
        ok[act] &= (
            x == powers[found[act, None] * ks % L] * plan.scale[j][plan.kslot[act], None] % ell
        ).all(axis=1)
    for i, t, good in zip(plan.index, found.tolist(), ok.tolist()):
        ts[i] = t if good else None
    return ts


def relation_report(
    p: int, d: int, family: str, c=Fraction(1)
) -> tuple[CarryMatrix, KernelLattice, list[RelationResult]]:
    """Matrix, kernel and per-basis-vector relation classification at p.

    The whole basis takes one relation pass (``_relation_exponents``), as
    in ``verify_relation``; each vector's verdict is read from its own
    exponent, so it is the one ``verify_relation`` gives that vector alone.
    """
    mat = build_matrix(p, d, family)
    kern = right_kernel(mat)
    if not kern.basis:
        return mat, kern, []
    plan = _relation_plan(mat, kern.basis)
    ts = _relation_exponents(make_field(p), plan, c)
    return mat, kern, [_verdict(plan.L, [t]) for t in ts]
