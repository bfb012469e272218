import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stjac import stmatrix
from stjac.cyclo import embed
from stjac.errors import (
    EvenOrTooSmallError,
    NoColumnsError,
    NotInKernelError,
    NotPrimeError,
    RelationVerificationError,
    StjacError,
)
from stjac.ffield import make_field, reduce_mod
from stjac.groupid import generic_primes, identify_st0, torus_dimension
from stjac.intlinalg import hnf_rows, kernel_basis, matvec, rank
from stjac.pointcount import ADDITIVE, LINEAR, congruence_modulus, curve, is_generic_prime
from stjac.primes import prime_range
from stjac.stmatrix import (
    build_matrix,
    carry,
    frobenius_factor,
    right_kernel,
    st_columns,
    validate_matrix,
    verify_relation,
)

REF_MATRIX_11_10 = [
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 1, 1, 0, 1, 0, 0, 1],
    [1, 0, 0, 1, 0, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
]

REF_MATRIX_19_9 = [
    [0, 0, 0, 0, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0, 0, 0, 0],
]

REF_KERNEL_11_10 = [
    [0, -1, 1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, 0, 0],
    [-1, 1, 0, 0, -1, 1, 0, 0],
    [-1, 1, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, 0, -1, 0, 0, 1],
]


def test_st_columns_examples():
    # the reference index of exponent a is a*k/(p-1), with k = d or 2(d-1)
    sc = st_columns(11, 10, ADDITIVE)
    assert [a * 10 // (11 - 1) for a in sc] == [1, 2, 3, 4, 6, 7, 8, 9]
    assert build_matrix(11, 10, ADDITIVE).is_generic

    sc = st_columns(19, 9, ADDITIVE)
    assert list(sc) == [2, 4, 6, 8, 10, 12, 14, 16]
    assert build_matrix(19, 9, ADDITIVE).is_generic

    sc = st_columns(13, 7, LINEAR)
    assert [a * 12 // (13 - 1) for a in sc] == [1, 3, 5, 7, 9, 11]
    assert len(sc) == 6 and build_matrix(13, 7, LINEAR).is_generic

    sc = st_columns(7, 9, ADDITIVE)
    assert [a * 9 // (7 - 1) for a in sc] == [3, 6]
    assert not build_matrix(7, 9, ADDITIVE).is_generic


def test_generic_exactly_when_p_is_one_mod_congruence_modulus():
    cases = [(ADDITIVE, d) for d in range(3, 61)] + [(LINEAR, d) for d in range(3, 60, 2)]
    for family, d in cases:
        spec = curve(family, d)
        mod = congruence_modulus(spec)
        for p in prime_range(3, 2000):
            full = len(st_columns(p, d, family)) == 2 * spec.genus
            assert full == (p % mod == 1), (family, d, p)
            assert is_generic_prime(p, spec) == full, (family, d, p)


def test_quadratic_exponent_always_removed():
    for p in prime_range(3, 100):
        for d in (6, 8, 10, 12):
            half = (p - 1) // 2
            assert all(a != half for a in st_columns(p, d, ADDITIVE))


def test_reference_matrices():
    m = build_matrix(11, 10, ADDITIVE)
    assert m.rows == (1, 3, 7, 9)
    assert [list(r) for r in m.entries] == REF_MATRIX_11_10
    m = build_matrix(19, 9, ADDITIVE)
    assert m.rows == (1, 5, 7, 11, 13, 17)
    assert [list(r) for r in m.entries] == REF_MATRIX_19_9


def test_carry_rule_direct():
    # p=7, d=6: columns a in {1,2,4,5}, rows k in {1,5}
    m = build_matrix(7, 6, ADDITIVE)
    assert [list(r) for r in m.entries] == [[0, 0, 1, 1], [1, 1, 0, 0]]
    assert [carry(1, a, 6) for a in (1, 2, 4, 5)] == [0, 0, 1, 1]


def test_no_columns_raises():
    with pytest.raises(NoColumnsError):
        build_matrix(5, 9, ADDITIVE)
    with pytest.raises(NoColumnsError):
        build_matrix(7, 7, LINEAR)


def test_build_matrix_rejects_p_that_is_not_an_odd_prime():
    # 21 = 3 * 7 once gave a 12 x 8 table that validate_matrix passed
    for p in (21, 15, 9):
        with pytest.raises(NotPrimeError, match="odd prime"):
            build_matrix(p, 10, ADDITIVE)
    with pytest.raises(EvenOrTooSmallError):
        build_matrix(22, 10, ADDITIVE)


def test_validate_matrix_passes_everywhere():
    cases = [(11, 10, ADDITIVE), (19, 9, ADDITIVE), (13, 7, LINEAR), (17, 8, ADDITIVE)]
    for p, d, family in cases:
        assert validate_matrix(build_matrix(p, d, family)) == []
    for p in prime_range(3, 60):
        for d, family in [(9, ADDITIVE), (10, ADDITIVE), (7, LINEAR)]:
            try:
                m = build_matrix(p, d, family)
            except NoColumnsError:
                continue
            assert validate_matrix(m) == []


def test_validate_matrix_detects_corruption():
    m = build_matrix(11, 10, ADDITIVE)
    entries = [list(r) for r in m.entries]
    entries[0][0] ^= 1
    bad = dataclasses.replace(m, entries=tuple(tuple(r) for r in entries))
    violations = validate_matrix(bad)
    assert "row_balance" in violations
    assert "column_balance" in violations


def test_first_row_is_exponent_threshold():
    # at the identity embedding the carry happens exactly when a >= (p-1)/2
    for p, d, family in [(19, 9, ADDITIVE), (11, 10, ADDITIVE), (13, 7, LINEAR), (37, 18, ADDITIVE)]:
        m = build_matrix(p, d, family)
        half = (p - 1) / 2
        assert list(m.entries[0]) == [1 if a >= half else 0 for a in m.cols]


def test_row_threshold_for_split_primes_d9():
    # row k=1 for d=9 at p = 1 mod 18: zero for m <= 4, one for m >= 5
    for p in (19, 37, 73, 109):
        m = build_matrix(p, 9, ADDITIVE)
        assert list(m.entries[0]) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_column_magnitude_proxy(field):
    # every column's Jacobi sum has |J|^2 = p: consistent with rows pairing
    # valuation 0 and 1 across conjugate embeddings
    m = build_matrix(19, 9, ADDITIVE)
    fld = field(19)
    for a in m.cols:
        w = frobenius_factor(fld, a, 1)
        assert w * w.conj() == 19
        assert abs(abs(embed(w.lift(18), 1)) - math.sqrt(19)) < 1e-9


def test_frobenius_factor_rejects_c_vanishing_mod_p(monkeypatch):
    # the guard fires before any Jacobi sum is computed
    def no_jacobi_sum(*args):
        raise AssertionError("a Jacobi sum was computed")

    monkeypatch.setattr(stmatrix, "jacobi_sum_compact", no_jacobi_sum)
    fld = make_field(7)
    for a in range(1, 6):
        with pytest.raises(ZeroDivisionError, match="vanishes mod 7"):
            frobenius_factor(fld, a, 7)


def test_reference_kernel_lattice():
    kern = right_kernel(build_matrix(11, 10, ADDITIVE))
    assert kern.rank == 5
    assert kern.saturated
    assert hnf_rows(REF_KERNEL_11_10) == kern.to_list()


def test_kernel_single_row():
    from stjac.intlinalg import kernel_basis

    assert kernel_basis([[1, 1]]) == [[1, -1]]


def test_kernel_rank_and_annihilation():
    for p, d, family in [(19, 9, ADDITIVE), (13, 12, ADDITIVE), (13, 7, LINEAR)]:
        m = build_matrix(p, d, family)
        kern = right_kernel(m)
        for v in kern.basis:
            assert all(x == 0 for x in matvec(m.entries, v))
            assert sum(v) == 0  # conjugate row pairs force zero coordinate sum
        assert kern.saturated
    assert right_kernel(build_matrix(19, 9, ADDITIVE)).rank == 4


def test_verify_relation_reference_cases(field):
    m = build_matrix(11, 10, ADDITIVE)
    fld = field(11)
    r = verify_relation(fld, m, [0, -1, 1, 0, 0, 0, 0, 0], 1)
    assert r.ok
    assert verify_relation(fld, m, [0] * 8, 1).kind == "exact"

    m9 = build_matrix(19, 9, ADDITIVE)
    fld19 = field(19)
    for v in right_kernel(m9).basis:
        assert verify_relation(fld19, m9, v, 1).ok


def test_verify_relation_never_fails_on_kernel(field):
    for d, family in [(6, ADDITIVE), (8, ADDITIVE), (9, ADDITIVE), (10, ADDITIVE), (12, ADDITIVE)]:
        from stjac.groupid import generic_primes

        for p in generic_primes(family, d, 2):
            m = build_matrix(p, d, family)
            fld = field(p)
            for c in (1, 2):
                for v in right_kernel(m).basis:
                    res = verify_relation(fld, m, v, c)
                    assert res.ok, (d, p, c, v)


def test_verify_relation_rejects_non_kernel(field):
    m = build_matrix(11, 10, ADDITIVE)
    with pytest.raises(NotInKernelError):
        verify_relation(field(11), m, [1, 0, 0, 0, 0, 0, 0, 0], 1)
    with pytest.raises(NotInKernelError):
        verify_relation(field(11), m, [1, -1], 1)


def test_relation_depends_on_twist_only_through_roots_of_unity(field):
    # changing c never produces a failure, only exact <-> torsion moves
    m = build_matrix(13, 12, ADDITIVE)
    fld = field(13)
    for v in right_kernel(m).basis:
        for c in (1, 2, 3, -1):
            assert verify_relation(fld, m, v, c).ok


def test_relation_torsion_orders_deterministic(field):
    m = build_matrix(11, 10, ADDITIVE)
    fld = field(11)
    kinds = [verify_relation(fld, m, v, 2) for v in right_kernel(m).basis]
    assert [(r.kind, r.order) for r in kinds] == [
        ("torsion", 10), ("torsion", 10), ("torsion", 5),
        ("torsion", 10), ("torsion", 10),
    ]
    m7 = build_matrix(13, 7, LINEAR)
    fld13 = field(13)
    kinds = [verify_relation(fld13, m7, v, 1) for v in right_kernel(m7).basis]
    assert [(r.kind, r.order) for r in kinds] == [
        ("exact", 1), ("torsion", 2), ("exact", 1), ("torsion", 2),
    ]


def test_verify_relation_matches_full_conductor_product(field):
    # independent route: full-conductor Jacobi sums in Z[zeta_{p-1}], with no
    # inverse and no division.  Split the relation as P = prod_{v_a > 0}
    # lam_a^v_a and N = prod_{v_a < 0} lam_a^(-v_a); it holds up to torsion
    # exactly when P = zeta^k * N for one k, and zeta^k has order n/gcd(k, n).
    from stjac.charsums import jacobi_sum
    from stjac.cyclo import CycloElt

    cases = [
        (11, 10, ADDITIVE, 1),
        (11, 10, ADDITIVE, 2),
        (19, 9, ADDITIVE, 1),
        (13, 7, LINEAR, 3),
        (41, 11, LINEAR, 1),
        (37, 12, ADDITIVE, 1),
    ]
    kinds = []
    for p, d, family, c in cases:
        fld = field(p)
        n = p - 1
        m = build_matrix(p, d, family)
        cp = reduce_mod(c, p)
        for v in right_kernel(m).basis:
            pos, neg = CycloElt.one(n), CycloElt.one(n)
            for a, e in zip(m.cols, v):
                if e == 0:
                    continue
                shift = (a * fld.dlog_of(-cp) + (n // 2) * fld.dlog_of(cp)) % n
                lam = CycloElt.zeta_pow(n, shift) * jacobi_sum(fld, a, n // 2)
                if e > 0:
                    pos = pos * lam**e
                else:
                    neg = neg * lam ** (-e)
            ks = [k for k in range(n) if pos == CycloElt.zeta_pow(n, k) * neg]
            assert len(ks) == 1, (p, d, family, v, ks)
            res = verify_relation(fld, m, v, c)
            kinds.append(res.kind)
            if res.kind == "exact":
                assert ks == [0]
            else:
                assert res.kind == "torsion" and ks[0] != 0
                assert n // math.gcd(ks[0], n) == res.order
    assert (kinds.count("exact"), kinds.count("torsion")) == (19, 13)


# -- validate_matrix against the loop implementation it replaced ----------


def _validate_by_loops(mat):
    """Element-by-element form of the four structural checks."""
    violations = []
    n = mat.n
    nrows, ncols = len(mat.rows), len(mat.cols)
    if any(sum(row) * 2 != ncols for row in mat.entries):
        violations.append("row_balance")
    if any(sum(row[j] for row in mat.entries) * 2 != nrows for j in range(ncols)):
        violations.append("column_balance")
    row_of = {k: i for i, k in enumerate(mat.rows)}
    if any(
        mat.entries[row_of[n - k]][j] != 1 - mat.entries[i][j]
        for i, k in enumerate(mat.rows)
        for j in range(ncols)
    ):
        violations.append("conjugate_complement")
    col_of = {a: j for j, a in enumerate(mat.cols)}
    for u in mat.rows:
        u_inv = pow(u, -1, n)
        for i, k in enumerate(mat.rows):
            for j, a in enumerate(mat.cols):
                target = col_of.get((u_inv * a) % n)
                if target is None or mat.entries[row_of[(k * u) % n]][target] != mat.entries[i][j]:
                    violations.append("galois_stability")
                    return violations
    return violations


def _with_entries(mat, entries):
    return dataclasses.replace(mat, entries=tuple(tuple(r) for r in entries))


@pytest.mark.parametrize("p,d", [(11, 10), (19, 9)])
def test_validate_matrix_matches_loops_on_every_bit_flip(p, d):
    m = build_matrix(p, d, ADDITIVE)
    assert validate_matrix(m) == _validate_by_loops(m) == []
    seen = set()
    for i in range(len(m.rows)):
        for j in range(len(m.cols)):
            entries = [list(r) for r in m.entries]
            entries[i][j] ^= 1
            bad = _with_entries(m, entries)
            got = validate_matrix(bad)
            assert got == _validate_by_loops(bad), (i, j)
            seen.add(tuple(got))
    assert seen == {("row_balance", "column_balance", "conjugate_complement", "galois_stability")}


def test_validate_matrix_conjugate_row_swap():
    # rows k and p-1-k swapped: still balanced and still complementary, but
    # row k no longer carries the Galois image of row 1
    m = build_matrix(11, 10, ADDITIVE)
    entries = [list(r) for r in m.entries]
    i, i_conj = m.rows.index(3), m.rows.index(7)
    entries[i], entries[i_conj] = entries[i_conj], entries[i]
    bad = _with_entries(m, entries)
    assert validate_matrix(bad) == _validate_by_loops(bad) == ["galois_stability"]


def test_validate_matrix_residue_swap_breaks_only_complement():
    # entry(k, a) read off the carry of s(k*a), where s swaps the residues 1
    # and 7 (one unit orbit, not negatives of each other): the table stays
    # balanced and Galois-stable, but rows k and -k now agree at k*a = 1, 9
    m = build_matrix(11, 10, ADDITIVE)
    swap = {1: 7, 7: 1}
    entries = [
        [carry(1, swap.get(k * a % 10, k * a % 10), 10) for a in m.cols]
        for k in m.rows
    ]
    bad = _with_entries(m, entries)
    assert validate_matrix(bad) == _validate_by_loops(bad) == ["conjugate_complement"]


def test_validate_matrix_column_relabel_breaks_only_galois():
    # the first two exponents trade labels; entries, balance and complement stay
    for p, d in [(11, 10), (19, 9)]:
        m = build_matrix(p, d, ADDITIVE)
        first, second, *rest = m.cols
        bad = dataclasses.replace(m, cols=(second, first, *rest))
        assert validate_matrix(bad) == _validate_by_loops(bad) == ["galois_stability"]


def test_validate_matrix_flags_column_set_not_closed_under_units():
    # exponents {1, 0} at p=7: u=5 sends 1 to 5, which has no column; that
    # alone breaks Galois stability, although all-equal entries would match
    # whatever column a wrapped-around index picked
    m = build_matrix(7, 6, ADDITIVE)
    bad = dataclasses.replace(m, cols=(1, 0), entries=((1, 1), (1, 1)))
    assert validate_matrix(bad) == _validate_by_loops(bad) == [
        "row_balance", "column_balance", "conjugate_complement", "galois_stability"
    ]


def test_validate_matrix_checks_every_generator_of_a_non_cyclic_group():
    # (Z/16)^* = <3> x <5>: flipping the cells of one orbit of u = 3 leaves
    # the table fixed by 3, and only a unit outside <3> sees the break
    m = build_matrix(17, 8, ADDITIVE)
    entries = [list(r) for r in m.entries]
    for i in range(4):
        u = pow(3, i, 16)
        entries[m.rows.index(u)][m.cols.index(2 * pow(u, -1, 16) % 16)] ^= 1
    bad = _with_entries(m, entries)
    assert validate_matrix(bad) == _validate_by_loops(bad)
    assert "galois_stability" in validate_matrix(bad)


# -- the final exact division by p^k --------------------------------------


def test_divide_exact():
    from stjac.cyclo import CycloElt
    from stjac.stmatrix import _divide_exact

    w = CycloElt._make(12, [6, -9, 0, 3])
    q = _divide_exact(w, 3)
    assert q == CycloElt._make(12, [2, -3, 0, 1])
    assert all(type(c) is int for c in q.coeffs)
    assert _divide_exact(w, 1) == w
    assert _divide_exact(w, 9) is None
    assert _divide_exact(CycloElt._make(12, [6, -9, 0, 4]), 3) is None
    assert _divide_exact(CycloElt.zero(12), 11**5) == CycloElt.zero(12)


def test_verify_relation_fails_when_division_leaves_remainder(field, monkeypatch):
    from stjac import stmatrix

    m = build_matrix(11, 10, ADDITIVE)
    v = right_kernel(m).basis[0]
    assert verify_relation(field(11), m, v, 2).ok
    monkeypatch.setattr(stmatrix, "_divide_exact", lambda w, q: None)
    assert verify_relation(field(11), m, v, 2).kind == "fail"
    # the zero vector never reaches the division
    assert verify_relation(field(11), m, [0] * 8, 2).kind == "exact"


# -- each exact operation once --------------------------------------------

ST0_POOL = [(ADDITIVE, d) for d in (6, 8, 9, 10, 12, 14, 16, 18, 20, 24, 30, 36, 40)] + [
    (LINEAR, d) for d in (5, 7, 9, 11, 13)
]


def _count_frobenius_factor(monkeypatch):
    calls = []
    real = stmatrix.frobenius_factor

    def counted(fld, a, c):
        calls.append((fld.p, a, c))
        return real(fld, a, c)

    monkeypatch.setattr(stmatrix, "frobenius_factor", counted)
    return calls


def test_each_frobenius_term_is_built_once_per_field_and_twist(monkeypatch):
    calls = _count_frobenius_factor(monkeypatch)
    for p in generic_primes(ADDITIVE, 40, 3):
        calls.clear()
        mat, kern, results = stmatrix.relation_report(p, 40, ADDITIVE)
        assert all(r.ok for r in results)
        support = {j for v in kern.basis for j, x in enumerate(v) if x}
        assert sorted(calls) == sorted((p, mat.cols[j], Fraction(1)) for j in support)

    mat = build_matrix(11, 10, ADDITIVE)
    basis = right_kernel(mat).basis
    fld = make_field(11)
    support = {mat.cols[j] for v in basis for j, x in enumerate(v) if x}
    for c, built in ((1, support), (2, support), (1, set())):
        calls.clear()
        for v in basis:
            verify_relation(fld, mat, v, c)
        assert sorted(calls) == sorted((11, a, c) for a in built), c


def test_twist_vanishing_mod_p_still_fails_inside_frobenius_factor(monkeypatch):
    calls = _count_frobenius_factor(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="vanishes mod 7") as info:
        identify_st0(curve(ADDITIVE, 6, 7))
    assert info.traceback[-1].name == "frobenius_factor"
    assert len(calls) == 1
    fld = make_field(7)
    mat = build_matrix(7, 6, ADDITIVE)
    with pytest.raises(ZeroDivisionError):
        verify_relation(fld, mat, right_kernel(mat).basis[0], 7)
    assert fld.terms == {}


def test_term_check_raises_a_typed_error(monkeypatch):
    real = stmatrix.frobenius_factor
    monkeypatch.setattr(stmatrix, "frobenius_factor", lambda fld, a, c: 2 * real(fld, a, c))
    mat = build_matrix(11, 10, ADDITIVE)
    fld = make_field(11)
    with pytest.raises(RelationVerificationError, match="w \\* conj\\(w\\) != p"):
        verify_relation(fld, mat, right_kernel(mat).basis[0], 1)
    assert fld.terms == {}


def test_kernel_rank_check_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(stmatrix, "rank", lambda rows: rank(rows) + 1)
    with pytest.raises(StjacError, match="kernel rank"):
        right_kernel(build_matrix(11, 10, ADDITIVE))


def test_term_check_fires_under_python_O():
    script = """
import sys
from stjac import stmatrix
from stjac.errors import RelationVerificationError
if __debug__:
    sys.exit("not running under -O")
real = stmatrix.frobenius_factor
stmatrix.frobenius_factor = lambda fld, a, c: 2 * real(fld, a, c)
mat = stmatrix.build_matrix(11, 10, "additive")
try:
    stmatrix.verify_relation(stmatrix.make_field(11), mat, stmatrix.right_kernel(mat).basis[0], 1)
except RelationVerificationError:
    sys.exit(0)
sys.exit("the w * conj(w) = p check did not fire")
"""
    src = str(Path(stmatrix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _pool_matrices():
    """Every st0 pool curve at its 3 generic primes and at each non-generic
    prime below 400 where some character contributes."""
    for family, d in ST0_POOL:
        spec = curve(family, d)
        for p in generic_primes(family, d, 3):
            yield build_matrix(p, d, family)
        for p in prime_range(3, 399):
            if not is_generic_prime(p, spec) and st_columns(p, d, family):
                yield build_matrix(p, d, family)


def _breaking_vectors(mat):
    """Per distinct row r, a vector that solves every row equation except
    those of r and its complement 1 - r, where such a vector exists."""
    rows = mat.distinct_rows
    n = len(mat.cols)
    for r in rows:
        others = [s for s in rows if s != r and s != tuple(1 - e for e in r)]
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        candidates = kernel_basis(others) if others else units
        yield from [b for b in candidates if sum(x * y for x, y in zip(r, b))][:1]


def test_distinct_rows_match_the_all_rows_oracle():
    broken = 0
    for mat in _pool_matrices():
        rows = [list(r) for r in mat.entries]
        assert right_kernel(mat).basis == tuple(tuple(v) for v in kernel_basis(rows))
        cols = [list(mat.column(j)) for j in range(len(mat.cols))]
        assert torus_dimension(mat) == rank(cols + [[1] * len(mat.rows)]) - 1
        fld = make_field(mat.p)
        for v in _breaking_vectors(mat):
            assert any(matvec(mat.entries, v))
            with pytest.raises(NotInKernelError):
                verify_relation(fld, mat, v, 1)
            broken += 1
    assert broken > 1000
