import dataclasses
import math
import operator
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from stjac import groupid, intlinalg, stmatrix
from stjac.cli import main
from stjac.cyclo import CycloElt
from stjac.errors import (
    EvenOrTooSmallError,
    InputError,
    NoColumnsError,
    NotInKernelError,
    NotPrimeError,
    RelationVerificationError,
    StjacError,
)
from stjac.ffield import check_prime, make_field, reduce_mod
from stjac.groupid import generic_primes, identify_st0, torus_dimension
from stjac.intlinalg import kernel_basis, rank
from stjac.pointcount import ADDITIVE, LINEAR, congruence_modulus, curve, is_generic_prime
from stjac.primes import SPLIT_PRIME_BOUND, is_prime, prime_range
from stjac.stmatrix import (
    RelationResult,
    build_matrix,
    frobenius_factor,
    right_kernel,
    split_prime,
    split_primes,
    st_columns,
    validate_matrix,
    verify_relation,
)

import oracles
from oracles import carry, direct_jacobi, embed, enumerated_dlog, power

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


def test_build_matrix_equals_the_carry_loop():
    cases = [(ADDITIVE, d) for d in range(3, 61)] + [(LINEAR, d) for d in range(3, 42, 2)]
    built = 0
    for family, d in cases:
        spec = curve(family, d)
        for p in prime_range(3, 1999):
            if not is_generic_prime(p, spec):
                continue
            m, n = build_matrix(p, d, family), p - 1
            units = tuple(k for k in range(1, n) if math.gcd(k, n) == 1)
            assert m.rows == units, (family, d, p)
            loop = tuple(tuple(carry(k, a, n) for a in m.cols) for k in units)
            assert m.entries == loop, (family, d, p)
            assert {type(e) for row in m.entries for e in row} == {int}
            built += 1
    assert built == 2228


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


def test_build_matrix_is_memoized_per_p_d_and_family():
    assert build_matrix.cache_info().maxsize == 256
    m = build_matrix(11, 10, ADDITIVE)
    assert build_matrix(11, 10, ADDITIVE) is m
    assert build_matrix(13, 7, LINEAR) is build_matrix(13, 7, LINEAR) is not m
    assert build_matrix(31, 10, ADDITIVE).entries != m.entries
    # equal rows share one tuple
    assert all(m.entries[m.entries.index(row)] is row for row in m.entries)
    # a float p is its own key, so it is still rejected after 11 is cached
    with pytest.raises(NotPrimeError, match="got 11.0"):
        build_matrix(11.0, 10, ADDITIVE)


def test_a_p_or_d_that_is_not_an_integer_is_a_typed_error():
    # each of these once ended in a TypeError from inside numpy, pow or range
    for call, error in [
        (lambda: build_matrix(11.0, 10), NotPrimeError),
        (lambda: make_field(11.0), NotPrimeError),
        (lambda: build_matrix(11, 10.0), ValueError),
        (lambda: generic_primes(ADDITIVE, 10.0, 3), ValueError),
        (lambda: identify_st0(curve(ADDITIVE, 10.0)), ValueError),
    ]:
        with pytest.raises(error, match="must be an odd prime|must be an integer"):
            call()
    # check_prime rejects exactly what operator.index rejects: numpy
    # integers pass, floats, strings and Fractions do not
    for p in (11, np.int64(11), np.int32(11), np.uint16(11), 11.0, np.float64(11), "11",
              Fraction(11)):
        try:
            operator.index(p)
        except TypeError:
            with pytest.raises(NotPrimeError):
                check_prime(p)
        else:
            check_prime(p)
    assert build_matrix(np.int64(11), 10).entries == build_matrix(11, 10).entries


def test_validate_matrix_returns_a_new_list_each_call():
    m = build_matrix(19, 9, ADDITIVE)
    first = validate_matrix(m)
    first.append("row_balance")
    second = validate_matrix(m)
    assert second == [] and second is not first and m.violations == ()


def test_altered_copy_of_a_memoized_matrix_reports_its_own_violations():
    m = build_matrix(11, 10, ADDITIVE)
    assert validate_matrix(m) == []
    entries = [list(r) for r in m.entries]
    entries[0][0] ^= 1
    bad = dataclasses.replace(m, entries=tuple(tuple(r) for r in entries))
    assert validate_matrix(bad) == _validate_by_loops(bad) != []
    assert validate_matrix(m) == [] and build_matrix(11, 10, ADDITIVE) is m


def test_relation_plan_arrays_of_a_memoized_matrix_are_read_only():
    # the plan of a memoized matrix and kernel is shared by every caller
    m = build_matrix(11, 10, ADDITIVE)
    plan = stmatrix._relation_plan(m, right_kernel(m).basis)
    arrays = [plan.columns, plan.slot, plan.exponent, plan.ks, plan.need, *plan.keys]
    for array in arrays:
        assert array.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert plan.columns.tolist() == list(m.cols)


def test_identify_st0_builds_each_matrix_once_across_twists(monkeypatch):
    # three primes make four calls (the first prime's matrix is read twice)
    # and three builds; every later twist of the curve only hits the cache
    ranks = []
    monkeypatch.setattr(stmatrix, "rank", lambda rows: ranks.append(rows) or rank(rows))
    build_matrix.cache_clear()
    identify_st0(curve(ADDITIVE, 10, 1))
    assert (build_matrix.cache_info().hits, build_matrix.cache_info().misses) == (1, 3)
    for c in C_VALUES[1:]:
        identify_st0(curve(ADDITIVE, 10, c))
    assert (build_matrix.cache_info().hits, build_matrix.cache_info().misses) == (25, 3)
    # the first prime's matrix ranks once, for the kernel and the dimension,
    # and every later twist reads that rank
    assert ranks == [build_matrix(11, 10, ADDITIVE).distinct_rows]


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
    assert oracles.hnf(REF_KERNEL_11_10) == kern.to_list()


def test_kernel_single_row():
    from stjac.intlinalg import kernel_basis

    assert kernel_basis([[1, 1]]) == ((1, -1),)


def test_kernel_rank_and_annihilation():
    for p, d, family in [(19, 9, ADDITIVE), (13, 12, ADDITIVE), (13, 7, LINEAR)]:
        m = build_matrix(p, d, family)
        kern = right_kernel(m)
        for v in kern.basis:
            assert not (np.array(m.entries) @ v).any()
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


def test_unbalanced_vector_fails_before_any_term_is_built(monkeypatch):
    # sum(v) != 0 gives |W| = p^(sum(v)/2) != 1, and the norm bound behind
    # the residue decision needs sum(v) = 0; with every row zeroed, every
    # vector is in the kernel
    m = build_matrix(11, 10, ADDITIVE)
    zeroed = dataclasses.replace(m, entries=tuple((0,) * 8 for _ in m.rows))

    def no_term(*args):
        raise AssertionError("a Frobenius term was built")

    monkeypatch.setattr(stmatrix, "frobenius_factor", no_term)
    for v in ([1, 0, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, -1], [0, 2, -1, 0, 0, 0, 0, 0]):
        assert verify_relation(make_field(11), zeroed, v, 1).kind == "fail", v


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
        dlog = enumerated_dlog(p, fld.generator)
        for v in right_kernel(m).basis:
            pos, neg = CycloElt.from_int(n, 1), CycloElt.from_int(n, 1)
            for a, e in zip(m.cols, v):
                if e == 0:
                    continue
                shift = (a * int(dlog[p - cp]) + (n // 2) * int(dlog[cp])) % n
                lam = CycloElt.zeta_pow(n, shift) * direct_jacobi(fld, a, n // 2).lift(n)
                if e > 0:
                    pos = pos * power(lam, e)
                else:
                    neg = neg * power(lam, -e)
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


# -- the residue decision against the Z[zeta] product oracle ---------------

C_VALUES = tuple(Fraction(c) for c in ("1", "2", "3", "5", "-1", "1/2", "-3/5"))


def _pool_cases():
    """(matrix, kernel basis) of every st0 pool curve at its 3 generic primes."""
    for family, d in ST0_POOL:
        for p in generic_primes(family, d, 3):
            mat = build_matrix(p, d, family)
            yield mat, right_kernel(mat).basis


def test_verify_relation_matches_the_zeta_oracle_on_the_pool():
    checks, kinds = 0, set()
    for mat, basis in _pool_cases():
        for c in C_VALUES:
            if c.numerator % mat.p == 0:
                continue
            fld, ref = make_field(mat.p), make_field(mat.p)
            for v in basis:
                got = verify_relation(fld, mat, v, c)
                assert got == oracles.verify_relation(ref, mat, v, c), (mat.p, mat.d, c, v)
                kinds.add(got.kind)
                checks += 1
    assert checks == 3906 and kinds == {"exact", "torsion"}


@pytest.mark.parametrize("tamper", ["conj", "zeta"])
def test_tampered_representative_terms_break_the_relation(monkeypatch, tamper):
    # conj(w_g) and zeta * w_g both keep w * conj(w) = p, so only the
    # relations themselves can tell: conj(w_g) / w_g is no root of unity
    # (every relation through g fails), zeta * w_g moves W by a root of
    # unity (orders change); the oracle must see the same
    real = frobenius_factor
    changed = 0
    for mat, basis in _pool_cases():
        g = max(math.gcd(a, mat.p - 1) for a in mat.cols)

        def tampered(fld, a, c, g=g):
            w = real(fld, a, c)
            if a != g:
                return w
            return w.conj() if tamper == "conj" else w * CycloElt.zeta_pow(w.n, 1)

        monkeypatch.setattr(stmatrix, "frobenius_factor", real)
        honest = [verify_relation(make_field(mat.p), mat, v, 2) for v in basis]
        monkeypatch.setattr(stmatrix, "frobenius_factor", tampered)
        fld, ref = make_field(mat.p), make_field(mat.p)
        for v, before in zip(basis, honest):
            got = verify_relation(fld, mat, v, 2)
            assert got == oracles.verify_relation(ref, mat, v, 2), (mat.p, mat.d, v)
            assert got.ok == (tamper == "zeta" or got == before)
            changed += got != before
    assert changed == {"conj": 93, "zeta": 113}[tamper]


def _record_evaluate(monkeypatch):
    """The (l, number of residues) of every ``_evaluate`` call from now on."""
    real, asked = stmatrix._evaluate, []

    def counted(terms, plan, ell, powers):
        values = real(terms, plan, ell, powers)
        asked.append((ell, len(values)))
        return values

    monkeypatch.setattr(stmatrix, "_evaluate", counted)
    return asked


def test_relation_whose_bound_needs_two_split_primes(monkeypatch):
    # a vector with k = 4 at p = 281 needs prod l > 2 * 281^4 > 2^32
    p, d = 281, 40
    mat = build_matrix(p, d, ADDITIVE)
    basis = right_kernel(mat).basis
    top = split_prime(40, 0)[0]
    asked = _record_evaluate(monkeypatch)
    several = 0
    for scale in (1, 2, 3):
        for v in basis:
            w = [scale * x for x in v]
            k = sum(-x for x in w if x < 0)
            asked.clear()
            got = verify_relation(make_field(p), mat, w, 3)
            used = [ell for ell, _ in asked]
            assert got == oracles.verify_relation(make_field(p), mat, w, 3), (scale, v)
            assert used == [ell for ell, _, _ in split_primes(40, p, k)]
            assert (len(used) >= 2) == (2 * p**k >= top), (scale, v)
            several += len(used) >= 2
    assert several >= 10
    assert len(split_primes(40, p, 12)) == 4  # 2 * 281^12 is about 2^98.6


def test_every_embedding_and_every_split_prime_is_checked(monkeypatch):
    # residues that are right wherever the identity embedding at the first
    # split prime reads them, and wrong everywhere else, must still fail
    p, d = 281, 40
    mat = build_matrix(p, d, ADDITIVE)
    real = stmatrix._evaluate
    for v in right_kernel(mat).basis:
        for scale, spoil in ((1, "embeddings"), (4, "second prime")):
            w = [scale * x for x in v]
            honest = verify_relation(make_field(p), mat, w, 3)
            assert honest.ok
            fld = make_field(p)
            first = split_prime(stmatrix._relation_plan(mat, (tuple(w),)).L, 0)[0]
            # embedding 1 reads w_a at key a and conj(w_a) = w_-a at key -a
            read = {a if x > 0 else -a % (p - 1) for a, x in zip(mat.cols, w) if x}

            def spoiled(terms, plan, ell, powers, read=read, spoil=spoil, first=first):
                values = real(terms, plan, ell, powers)
                if spoil == "embeddings":
                    return [
                        y if a in read else 2 * y % ell
                        for a, y in zip(plan.columns.tolist(), values)
                    ]
                return values if ell == first else [2 * y % ell for y in values]

            monkeypatch.setattr(stmatrix, "_evaluate", spoiled)
            assert verify_relation(fld, mat, w, 3).kind == "fail", (v, spoil)
            monkeypatch.setattr(stmatrix, "_evaluate", real)


def test_the_identity_embedding_is_checked_too(monkeypatch):
    # x^10 at p = 11: e_1 - e_4 reads column 1 at the identity embedding
    # alone.  Its residue times (r^t - 1)/r^t at the first split prime makes
    # X(r) p^-k = r^t - 1, just below r^t among the powers, so the search
    # for t still finds t and every other embedding agrees: only the check
    # at u = 1 can fail it
    p, v = 11, (1, 0, 0, -1, 0, 0, 0, 0)
    mat = build_matrix(p, 10, ADDITIVE)
    plan = stmatrix._relation_plan(mat, (v,))
    # embedding u reads keys u and -4u mod 10, so key 1 at u = 1 only
    assert plan.ks[0] == 1 and all(1 not in (u % 10, -4 * u % 10) for u in plan.ks[1:].tolist())
    (t,) = stmatrix._relation_exponents(make_field(p), plan, 3)
    assert t is not None and verify_relation(make_field(p), mat, v, 3).ok
    ell, powers, _ = plan.primes[0]
    rt = int(powers[t])
    assert rt - 1 not in powers.tolist()
    real = stmatrix._evaluate

    def spoiled(terms, plan, at, powers):
        values = real(terms, plan, at, powers).copy()
        if at == ell:
            i = plan.columns.tolist().index(1)
            values[i] = int(values[i]) * (rt - 1) * pow(rt, -1, ell) % ell
        return values

    monkeypatch.setattr(stmatrix, "_evaluate", spoiled)
    assert verify_relation(make_field(p), mat, v, 3).kind == "fail"


def test_each_split_prime_evaluates_one_residue_per_column(monkeypatch):
    # per relation pass, _evaluate runs once per split prime in use and is
    # asked for exactly one residue per column of a touched orbit, whatever
    # the vectors need: on every pool kernel that is every column
    asked = _record_evaluate(monkeypatch)
    cases = several = 0
    for mat, basis in _pool_cases():
        for c in (Fraction(1), Fraction(2)):
            for scale in (1, 3):
                batch = tuple(tuple(scale * x for x in v) for v in basis)
                k = max(sum(-x for x in v if x < 0) for v in batch)
                asked.clear()
                assert verify_relation(make_field(mat.p), mat, batch, c).ok
                plan = stmatrix._relation_plan(mat, batch)
                assert plan.columns.tolist() == list(mat.cols)
                used = split_primes(plan.L, mat.p, k)
                assert asked == [(ell, len(mat.cols)) for ell, _, _ in used]
                several += len(asked) >= 2
            cases += 1
    assert cases == 108 and several > 0
    # a lone vector of x^40 at p = 41 is asked for the columns of its own
    # orbits only
    mat = build_matrix(41, 40, ADDITIVE)
    for v in right_kernel(mat).basis:
        touched = {math.gcd(a, 40) for a, x in zip(mat.cols, v) if x}
        columns = [a for a in mat.cols if math.gcd(a, 40) in touched]
        asked.clear()
        assert verify_relation(make_field(41), mat, v, 3).ok
        assert stmatrix._relation_plan(mat, (v,)).columns.tolist() == columns
        assert asked and all(size == len(columns) < len(mat.cols) for _, size in asked)


def test_cold_split_prime_far_down_needs_no_recursion(monkeypatch, deadline):
    # l_1200 for L = 40 comes from one walk down, with no call per earlier
    # prime, and equals the 1200th step of a sequential walk from the top
    monkeypatch.setattr("stjac.primes._ladders", {})
    split_prime.cache_clear()
    with deadline(20):
        cold = split_prime(40, 1200)
    ells, j = [], (SPLIT_PRIME_BOUND - 2) // 40
    while len(ells) <= 1200:
        if is_prime(j * 40 + 1):
            ells.append(j * 40 + 1)
        j -= 1
    monkeypatch.setattr("stjac.primes._ladders", {})
    split_prime.cache_clear()
    walk = [split_prime(40, i) for i in range(1201)]
    assert [entry[0] for entry in walk] == ells
    assert cold[0] == walk[-1][0] and cold[2].tolist() == walk[-1][2].tolist()
    assert cold[1].tolist() == walk[-1][1].tolist()


def test_verify_relation_rejects_a_field_of_another_prime(monkeypatch):
    calls = _count_frobenius_factor(monkeypatch)
    m = build_matrix(11, 10, ADDITIVE)
    v = right_kernel(m).basis[0]
    for q in (31, 13):
        fld = make_field(q)
        with pytest.raises(InputError, match=f"p={q} cannot check a carry matrix at p=11"):
            verify_relation(fld, m, v, 2)
    assert calls == []
    assert verify_relation(make_field(11), m, v, 2).ok


def test_verify_relation_rejects_columns_not_closed_under_the_units(monkeypatch):
    # columns 1, 3, 7 without 9 are not one Galois orbit mod 10: the check
    # would read a key that no column has
    calls = _count_frobenius_factor(monkeypatch)
    m = build_matrix(11, 10, ADDITIVE)
    bad = dataclasses.replace(m, cols=m.cols[:-2], entries=tuple(r[:-2] for r in m.entries))
    assert bad.cols == (1, 2, 3, 4, 6, 7)
    v = [0, -1, 1, 0, 0, 0]
    fld = make_field(11)
    with pytest.raises(InputError, match="not closed under the units mod 10"):
        verify_relation(fld, bad, v, 2)
    assert calls == []
    assert verify_relation(fld, m, v + [0, 0], 2).ok


@pytest.mark.parametrize("L", [2, 6, 10, 40, 120, 420, 1266, 4620])
def test_split_primes_are_split_prime_and_cover_the_bound(L):
    p = next(q for q in prime_range(3, 10**5) if q % L == 1)
    first, second = split_prime(L, 0)[0], split_prime(L, 1)[0]
    # at p = second, k = 1: first alone exceeds p but not 2p
    for p, k in [(p, 1), (p, 3), (p, 9), (first, 1), (first, 4), (second, 1)]:
        primes = [ell for ell, _, _ in split_primes(L, p, k)]
        assert len(set(primes)) == len(primes)
        for ell in primes:
            assert ell != p and ell % L == 1 and ell < SPLIT_PRIME_BOUND
            assert is_prime(ell) and sympy.isprime(ell)
        assert math.prod(primes) > 2 * p**k >= math.prod(primes[:-1])
    # the top split prime itself is skipped when it is p
    assert first not in [ell for ell, _, _ in split_primes(L, first, 3)]


@pytest.mark.parametrize("L", [2, 6, 10, 40, 120, 420, 1266, 4620])
def test_split_prime_root_has_exact_order_L(L):
    previous = SPLIT_PRIME_BOUND
    for i in range(3):
        ell, powers, order = split_prime(L, i)
        assert ell < previous
        previous = ell
        r = int(powers[1])
        assert sympy.n_order(r, ell) == L
        assert powers.tolist() == [pow(r, e, ell) for e in range(L)]
        for array in (powers, order):
            assert array.dtype == np.int64 and not array.flags.writeable
        # the exponent of each power, found by a search in their order
        ranked = powers[order]
        assert (np.diff(ranked) > 0).all()
        assert {int(x): int(e) for x, e in zip(ranked, order)} == {
            x: e for e, x in enumerate(powers.tolist())}
        assert order[np.searchsorted(ranked, powers)].tolist() == list(range(L))


def test_relation_check_memory_stays_linear_in_the_conductor(deadline):
    # x^420 + 3 at p = 421: L = 420, 418 columns in 22 Galois orbits.  Two
    # equal carry columns give the kernel vector e_i - e_j with no HNF.  The
    # check holds one residue per column per split prime, within the
    # O(orbits * L) bound below; one phi(L) x L table per orbit would be 96
    # times that bound.
    p, d = 421, 420
    mat = build_matrix(p, d, ADDITIVE)
    seen = {}
    for j, col in enumerate(zip(*mat.entries)):
        i = seen.setdefault(col, j)
        if i != j:
            break
    v = [0] * len(mat.cols)
    v[i], v[j] = 1, -1
    orbits = len({math.gcd(a, p - 1) for a in mat.cols})
    assert orbits == 22
    fld = make_field(p)
    fld.dlog_mod(p - 1)
    tracemalloc.start()
    try:
        with deadline(10):
            res = verify_relation(fld, mat, v, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == oracles.verify_relation(make_field(p), mat, v, 3)
    assert res.ok
    assert peak <= 256 * orbits * 420, peak


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


@pytest.mark.parametrize(
    "p,d,family",
    [(11, 10, ADDITIVE), (19, 9, ADDITIVE), (17, 8, ADDITIVE), (41, 10, ADDITIVE), (29, 7, LINEAR)],
    # (Z/16)^*, (Z/40)^* and (Z/28)^* are not cyclic
    ids=["11-10", "19-9", "17-8", "41-10", "29-7-linear"],
)
def test_validate_matrix_matches_loops_on_every_bit_flip(p, d, family):
    m = build_matrix(p, d, family)
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


def test_validate_matrix_matches_loops_on_orbit_flips_and_relabels(deadline):
    # flipping the cells of one orbit of a cyclic group <u> of units leaves
    # the table fixed by u, and by every unit exactly when <u> is all of
    # them; swapping two column labels moves entries between unit orbits
    checked = stable = 0
    with deadline(30):
        for p in prime_range(3, 100):
            n = p - 1
            for family, ds in ((ADDITIVE, range(3, 13)), (LINEAR, range(3, 10, 2))):
                for d in ds:
                    try:
                        m = build_matrix(p, d, family)
                    except NoColumnsError:
                        continue
                    tables = []
                    for u in m.rows:
                        entries = [list(r) for r in m.entries]
                        for v in {pow(u, e, n) for e in range(n)}:
                            entries[m.rows.index(v)][m.cols.index(m.cols[0] * pow(v, -1, n) % n)] ^= 1
                        tables.append(_with_entries(m, entries))
                    for i in range(len(m.cols)):
                        for j in range(i + 1, len(m.cols)):
                            cols = list(m.cols)
                            cols[i], cols[j] = cols[j], cols[i]
                            tables.append(dataclasses.replace(m, cols=tuple(cols)))
                    for bad in tables:
                        got = validate_matrix(bad)
                        assert got == _validate_by_loops(bad), (p, d, family, bad)
                        stable += "galois_stability" not in got
                        checked += 1
    assert checked > 2000
    assert 0 < stable < checked


# -- the oracle's exact division by p^k, and tampered residues -----------


def test_divide_exact():
    w = CycloElt.from_int_coeffs(12, [6, -9, 0, 3])
    q = oracles._divide_exact(w, 3)
    assert q == CycloElt.from_int_coeffs(12, [2, -3, 0, 1])
    assert all(type(c) is int for c in q.coeffs)
    assert oracles._divide_exact(w, 1) == w
    assert oracles._divide_exact(w, 9) is None
    assert oracles._divide_exact(CycloElt.from_int_coeffs(12, [6, -9, 0, 4]), 3) is None
    assert oracles._divide_exact(CycloElt.zero(12), 11**5) == CycloElt.zero(12)


def test_verify_relation_fails_when_a_residue_is_tampered(monkeypatch):
    m = build_matrix(11, 10, ADDITIVE)
    v = right_kernel(m).basis[0]
    assert verify_relation(make_field(11), m, v, 2).ok
    real = stmatrix._evaluate
    monkeypatch.setattr(
        stmatrix, "_evaluate", lambda terms, plan, ell, powers: [
            (y + 1) % ell for y in real(terms, plan, ell, powers)
        ]
    )
    fld = make_field(11)
    assert verify_relation(fld, m, v, 2).kind == "fail"
    # the zero vector never reaches the residues
    assert verify_relation(fld, m, [0] * 8, 2).kind == "exact"


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


def test_each_frobenius_term_is_built_once_per_relation_pass(monkeypatch):
    # only the orbit representative gcd(a, p-1) of a support column builds its
    # term; every other column's term is a Galois image of it.  No term is
    # kept: each pass, also with a twist seen before, builds its own
    calls = _count_frobenius_factor(monkeypatch)
    for p in generic_primes(ADDITIVE, 40, 3):
        calls.clear()
        mat, kern, results = stmatrix.relation_report(p, 40, ADDITIVE)
        assert all(r.ok for r in results)
        support = {mat.cols[j] for v in kern.basis for j, x in enumerate(v) if x}
        reps = {math.gcd(a, p - 1) for a in support}
        assert len(reps) < len(support)
        assert sorted(calls) == sorted((p, g, Fraction(1)) for g in reps)

    mat = build_matrix(11, 10, ADDITIVE)
    basis = right_kernel(mat).basis
    fld = make_field(11)
    support = {mat.cols[j] for v in basis for j, x in enumerate(v) if x}
    reps = {math.gcd(a, 10) for a in support}
    for c in (1, 2, 1):
        calls.clear()
        assert verify_relation(fld, mat, basis, c).ok
        assert sorted(calls) == sorted((11, a, c) for a in reps), c


def test_a_pass_builds_only_the_orbits_its_rows_touch(monkeypatch):
    # a lone vector builds the representatives of its own columns' orbits;
    # every pool kernel touches all of them (174 over the 54 matrices), so
    # st0 builds the same terms as before
    calls = _count_frobenius_factor(monkeypatch)
    mat = build_matrix(41, 40, ADDITIVE)
    basis = right_kernel(mat).basis
    fld = make_field(41)
    fewer = 0
    for v in basis:
        calls.clear()
        assert verify_relation(fld, mat, v, 3).ok
        touched = {math.gcd(a, 40) for a, x in zip(mat.cols, v) if x}
        assert sorted(calls) == sorted((41, g, 3) for g in touched), v
        assert stmatrix._relation_plan(mat, (v,)).reps == tuple(sorted(touched))
        fewer += len(touched) < len(_all_orbits(mat))
    assert fewer == len(basis)
    calls.clear()
    assert verify_relation(fld, mat, basis, 3).ok
    assert sorted(g for _, g, _ in calls) == list(_all_orbits(mat))
    reps = [(stmatrix._relation_plan(mat, basis).reps, _all_orbits(mat))
            for mat, basis in _pool_cases()]
    assert all(touched == every for touched, every in reps)
    assert sum(len(every) for _, every in reps) == 174


def _all_orbits(mat):
    """The representatives gcd(a, p-1) of every Galois orbit of columns."""
    return tuple(sorted({math.gcd(a, mat.n) for a in mat.cols}))


def test_twist_vanishing_mod_p_still_fails_inside_frobenius_factor(monkeypatch):
    calls = _count_frobenius_factor(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="vanishes mod 7") as info:
        identify_st0(curve(ADDITIVE, 6, 7))
    assert info.traceback[-1].name == "frobenius_factor"
    assert len(calls) == 1
    fld = make_field(7)
    mat = build_matrix(7, 6, ADDITIVE)
    # nothing is kept from a check that raised: the next one raises again
    for tries in (2, 3):
        with pytest.raises(ZeroDivisionError):
            verify_relation(fld, mat, right_kernel(mat).basis[0], 7)
        assert len(calls) == tries


def test_term_check_raises_a_typed_error(monkeypatch):
    real = stmatrix.frobenius_factor
    monkeypatch.setattr(stmatrix, "frobenius_factor", lambda fld, a, c: 2 * real(fld, a, c))
    mat = build_matrix(11, 10, ADDITIVE)
    fld = make_field(11)
    # nothing is kept from a check that raised: the next one raises again
    for _ in range(2):
        with pytest.raises(RelationVerificationError, match="w \\* conj\\(w\\) != p"):
            verify_relation(fld, mat, right_kernel(mat).basis[0], 1)


def test_kernel_rank_check_raises_a_typed_error(monkeypatch):
    # a fresh copy of the memoized matrix computes its own rank
    monkeypatch.setattr(stmatrix, "rank", lambda rows: rank(rows) + 1)
    with pytest.raises(StjacError, match="kernel rank"):
        right_kernel(dataclasses.replace(build_matrix(11, 10, ADDITIVE)))


def test_kernel_that_drops_a_vector_fails_the_rank_check(monkeypatch):
    # the rank the count is checked against comes from another elimination
    # than the kernel's, so a short kernel cannot agree with it
    monkeypatch.setattr(stmatrix, "kernel_basis", lambda rows: kernel_basis(rows)[:-1])
    for p, d, family in [(11, 10, ADDITIVE), (41, 40, ADDITIVE), (13, 7, LINEAR)]:
        with pytest.raises(StjacError, match="kernel rank"):
            right_kernel(build_matrix(p, d, family))


def test_warm_kernels_still_check_their_rank(monkeypatch):
    # the kernel's HNF is memoized per matrix and the rank is kept on it, and
    # the rank comparison is not: on warm matrices a kernel that drops a
    # vector still fails with no elimination, and a rank off by one fails on
    # a fresh copy, which eliminates for its rank alone
    mats = [build_matrix(p, d, family) for p, d, family in
            [(11, 10, ADDITIVE), (41, 40, ADDITIVE), (13, 7, LINEAR)]]
    warm = [right_kernel(mat) for mat in mats]
    eliminations = []
    real = intlinalg._rational_kernel
    monkeypatch.setattr(intlinalg, "_rational_kernel",
                        lambda mat: eliminations.append(mat) or real(mat))
    misses = intlinalg._kernel_hnf.cache_info().misses
    assert [right_kernel(mat) for mat in mats] == warm
    with monkeypatch.context() as m:
        m.setattr(stmatrix, "kernel_basis", lambda rows: kernel_basis(rows)[:-1])
        for mat in mats:
            with pytest.raises(StjacError, match="kernel rank"):
                right_kernel(mat)
    assert eliminations == []
    with monkeypatch.context() as m:
        m.setattr(stmatrix, "rank", lambda rows: rank(rows) + 1)
        for mat in mats:
            with pytest.raises(StjacError, match="kernel rank"):
                right_kernel(dataclasses.replace(mat))
    assert len(eliminations) == len(mats)
    assert intlinalg._kernel_hnf.cache_info().misses == misses
    assert [right_kernel(mat) for mat in mats] == warm


def test_verify_relation_reads_numpy_and_list_rows_as_their_ints():
    # a batch or a vector of numpy ints, of lists or of tuples of numpy
    # ints gets the verdict of its int tuples (one plan, keyed by equal rows)
    for family, d, c in [(ADDITIVE, 10, 2), (ADDITIVE, 40, Fraction(-3, 5)), (LINEAR, 7, 1)]:
        for p in generic_primes(family, d, 2):
            mat = build_matrix(p, d, family)
            basis = right_kernel(mat).basis
            fld = make_field(p)
            want = verify_relation(fld, mat, basis, c)
            assert want.ok
            for rows in (np.array(basis), np.array(basis, dtype=np.int32),
                         [list(v) for v in basis], [np.array(v) for v in basis],
                         tuple(tuple(np.int64(x) for x in v) for v in basis)):
                assert verify_relation(fld, mat, rows, c) == want
            for v in basis:
                one = verify_relation(fld, mat, v, c)
                for row in (np.array(v), list(v), [np.int64(x) for x in v]):
                    assert verify_relation(fld, mat, row, c) == one


def test_numpy_rows_are_read_as_ints_before_any_int64_sizing():
    # four conjugate pairs of columns at 2^62 each: every carry row holds one
    # column of each pair, so each row product is 2^64, which int64 wraps to
    # 0, and the sum 2^65 wraps to 0 too; read as ints, the row is not in
    # the kernel
    mat = build_matrix(11, 10, ADDITIVE)
    assert mat.cols == (1, 2, 3, 4, 6, 7, 8, 9)
    v = np.full(8, 2**62, dtype=np.int64)
    assert not (np.array(mat.distinct_rows, dtype=np.int64) @ v).any() and not v.sum()
    fld = make_field(11)
    for rows in (v, [v], [list(v)]):
        with pytest.raises(NotInKernelError):
            verify_relation(fld, mat, rows, 1)


def test_memoized_results_are_safe_to_share():
    # two callers of one kernel get one memoized HNF made of tuples of
    # ints, also from rows of another type, and kernel_basis hands out that
    # very tuple, which no caller can change; an elimination is made of tuples
    rows = build_matrix(41, 40, ADDITIVE).distinct_rows
    cols = tuple(dict.fromkeys(zip(*rows)))
    first = intlinalg._kernel_hnf(rows)
    assert intlinalg._kernel_hnf(tuple(tuple(np.array(row)) for row in rows)) is first
    assert type(first) is tuple and all(len(v) == len(rows[0]) for v in first)
    assert all(type(v) is tuple and all(type(x) is int for x in v) for v in first)
    assert kernel_basis(rows) is first
    free, dens, nums = intlinalg._rational_kernel(tuple(zip(*cols)))
    assert type(free) is tuple and type(dens) is tuple and type(nums) is tuple
    assert all(type(v) is tuple for v in nums)
    assert intlinalg._rational_kernel(tuple(zip(*cols))) == (free, dens, nums)
    with pytest.raises(TypeError):
        first[0][0] += 1
    assert kernel_basis(rows) is first
    assert rank(rows) == rank(list(rows)) == len(cols) - len(free)
    # an equal replace copy of a matrix hashes alike and shares the relation
    # plan; a flipped copy (the same kernel, the same key) is not equal, so
    # it gets a plan of its own
    m = build_matrix(41, 40, ADDITIVE)
    basis = right_kernel(m).basis
    plan = stmatrix._relation_plan(m, basis)
    same = dataclasses.replace(m)
    assert same == m and hash(same) == hash(m)
    assert stmatrix._relation_plan(same, basis) is plan
    flipped = dataclasses.replace(m, entries=tuple(tuple(1 - e for e in r) for r in m.entries))
    assert flipped != m
    assert hash(flipped) == hash(dataclasses.replace(flipped))
    other = stmatrix._relation_plan(flipped, basis)
    assert other is not plan
    assert [a.tolist() for a in (other.slot, other.exponent)] == [
        plan.slot.tolist(), plan.exponent.tolist()]
    bad = dataclasses.replace(m, cols=m.cols[:-1], entries=tuple(r[:-1] for r in m.entries))
    with pytest.raises(InputError, match="not closed under the units"):
        stmatrix._relation_plan(bad, (tuple(kernel_basis(bad.distinct_rows)[0]),))
    for array in (plan.columns, plan.slot, plan.exponent, plan.ks, plan.need, *plan.keys,
                  *(plan.offsets or ())):
        assert array.dtype == np.int64 and not array.flags.writeable
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and hash(copy) == hash(m)


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


def _embedded(w, L, ell, powers, e):
    """w at zeta_L -> r^e mod l, summed term by term (powers[i] = r^i)."""
    step = L // w.n
    return sum(cf * int(powers[e * i * step % L]) for i, cf in enumerate(w.coeffs)) % ell


def test_derived_terms_equal_the_directly_built_ones():
    # sigma_k(w_a) = w_(k*a): the residues a check reads at keys k*a and
    # -k*a of a table built from the orbit representatives must be those of
    # the term frobenius_factor builds for a, and of its conjugate, at the
    # embedding zeta_L -> r^k, for every embedding k.  The plan of a row
    # that reads every column, over a matrix whose one carry row is zero
    # (so every vector is in its kernel), touches every orbit
    pairs = derived = 0
    for family, d in ST0_POOL:
        primes = set(generic_primes(family, d, 3)) | set(prime_range(3, 399))
        for p in sorted(primes):
            cols = st_columns(p, d, family)
            for c in (Fraction(1), Fraction(-3, 5), Fraction(2)):
                if not cols or c.numerator % p == 0 or c.denominator % p == 0:
                    continue
                mat, fresh = build_matrix(p, d, family), make_field(p)
                free = dataclasses.replace(mat, entries=((0,) * len(cols),) * len(mat.rows))
                plan = stmatrix._relation_plan(free, ((1, -1) * (len(cols) // 2),))
                assert plan.columns.tolist() == list(cols)
                terms = stmatrix._orbit_terms(make_field(p), plan, c)
                L, n = plan.L, p - 1
                ell, powers, _ = split_prime(L, 0)
                table = dict(zip(cols, stmatrix._evaluate(terms, plan, ell, powers).tolist()))
                for a in cols:
                    w = frobenius_factor(fresh, a, c)
                    for k in plan.ks.tolist():
                        assert table[k * a % n] == _embedded(w, L, ell, powers, k), (p, a, c, k)
                        assert table[-k * a % n] == _embedded(
                            w.conj(), L, ell, powers, k), (p, a, c, k)
                    pairs += 1
                    derived += math.gcd(a, p - 1) != a
    assert (pairs, derived) == (11682, 7911)


def test_identify_st0_computes_one_kernel_per_curve(monkeypatch):
    kernels = []

    def counted(mat):
        kernels.append(right_kernel(mat))
        return kernels[-1]

    monkeypatch.setattr(groupid, "right_kernel", counted)
    for family, d in ST0_POOL:
        kernels.clear()
        identify_st0(curve(family, d))
        assert len(kernels) == 1, (family, d)
        for p in generic_primes(family, d, 3):
            assert right_kernel(build_matrix(p, d, family)) == kernels[0], (family, d, p)


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
        assert right_kernel(mat).basis == tuple(tuple(v) for v in oracles.kernel_basis(rows))
        cols = [list(col) for col in zip(*mat.entries)]
        assert torus_dimension(mat) == oracles.rank(cols + [[1] * len(mat.rows)]) - 1
        fld = make_field(mat.p)
        for v in _breaking_vectors(mat):
            assert (np.array(mat.entries) @ v).any()
            with pytest.raises(NotInKernelError):
                verify_relation(fld, mat, v, 1)
            broken += 1
    assert broken > 1000


# -- one batched relation pass per field ----------------------------------

C_BATCH = tuple(Fraction(c) for c in ("1", "2", "-1", "-3/5"))


def _fold(results):
    """The lattice verdict that per-vector results add up to."""
    if not all(r.ok for r in results):
        return RelationResult(kind="fail", order=None)
    order = math.lcm(*(r.order for r in results))
    return RelationResult(kind="exact", order=1) if order == 1 else RelationResult("torsion", order)


def _row_verdicts(mat, rows, c):
    """Each row's verdict from one relation pass, as ``relation_report``
    reads them."""
    plan = stmatrix._relation_plan(mat, rows)
    ts = stmatrix._relation_exponents(make_field(mat.p), plan, c)
    return [stmatrix._verdict(plan.L, [t]) for t in ts]


def test_lattice_verdict_is_the_fold_of_the_vector_verdicts():
    # additive d <= 60 and linear d <= 41 at their 3 generic primes: the
    # batch equals "every vector ok, order the lcm of the orders", folded
    # from the per-vector verdicts of one pass; on every 30th case those
    # equal the calls on each vector alone
    checked, kinds = 0, set()
    for family, ds in ((ADDITIVE, range(3, 61)), (LINEAR, range(3, 42, 2))):
        for d in ds:
            primes = generic_primes(family, d, 3)
            basis = right_kernel(build_matrix(primes[0], d, family)).basis
            for p in primes if basis else ():
                mat = build_matrix(p, d, family)
                for c in C_BATCH:
                    if c.numerator % p == 0 or c.denominator % p == 0:
                        continue
                    per = _row_verdicts(mat, basis, c)
                    if checked % 30 == 0:
                        assert per == [verify_relation(make_field(p), mat, v, c) for v in basis]
                    got = verify_relation(make_field(p), mat, basis, c)
                    assert got == _fold(per), (family, d, p, c)
                    kinds.add(got.kind)
                    checked += 1
    assert checked == 900 and kinds == {"exact", "torsion"}


def test_relation_report_reads_each_vector_from_one_pass(monkeypatch, capsys):
    # relation_report runs one pass over the basis and gives each vector
    # the verdict of verify_relation on it alone
    passes = []
    real_pass = stmatrix._relation_exponents

    def counted(fld, plan, c):
        passes.append(fld.p)
        return real_pass(fld, plan, c)

    monkeypatch.setattr(stmatrix, "_relation_exponents", counted)
    reports = 0
    for family, d in ST0_POOL:
        for p in generic_primes(family, d, 2):
            mat = build_matrix(p, d, family)
            basis = right_kernel(mat).basis
            for c in C_VALUES:
                if c.numerator % p == 0:
                    continue
                passes.clear()
                _, _, got = stmatrix.relation_report(p, d, family, c)
                assert passes == [p]
                assert got == [verify_relation(make_field(p), mat, v, c) for v in basis]
                reports += 1
    assert reports == 252

    # the residues of one Galois orbit of columns, read by one basis vector
    # alone: only that vector's row fails, and `stjac kernel` exits 2
    p, d, n = 41, 40, 40
    mat = build_matrix(p, d, ADDITIVE)
    basis = right_kernel(mat).basis
    readers = {
        g: [i for i, v in enumerate(basis) if any(x and math.gcd(a, n) == g for a, x in zip(mat.cols, v))]
        for g in {math.gcd(a, n) for a in mat.cols}
    }
    g, (lone,) = next((g, rows) for g, rows in sorted(readers.items()) if len(rows) == 1)
    honest = stmatrix.relation_report(p, d, ADDITIVE, 3)[2]
    real = stmatrix._evaluate

    def spoiled(terms, plan, ell, powers):
        values = real(terms, plan, ell, powers)
        return [
            2 * y % ell if math.gcd(a, n) == g else y
            for a, y in zip(plan.columns.tolist(), values)
        ]

    monkeypatch.setattr(stmatrix, "_evaluate", spoiled)
    passes.clear()
    got = stmatrix.relation_report(p, d, ADDITIVE, 3)[2]
    assert passes == [p]
    assert got == [RelationResult("fail") if i == lone else r for i, r in enumerate(honest)]
    assert verify_relation(make_field(p), mat, basis, 3).kind == "fail"
    capsys.readouterr()
    assert main(["kernel", "--family", "additive", "--d", "40", "--p", "41", "--c", "3"]) == 2
    assert capsys.readouterr().out.count("NOT A RELATION") == 1


def test_batch_with_an_unbalanced_vector_fails_before_any_term_is_built(monkeypatch):
    m = build_matrix(11, 10, ADDITIVE)
    zeroed = dataclasses.replace(m, entries=tuple((0,) * 8 for _ in m.rows))

    def no_term(*args):
        raise AssertionError("a Frobenius term was built")

    monkeypatch.setattr(stmatrix, "frobenius_factor", no_term)
    batch = [[0, -1, 1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, -1], [0] * 8]
    assert verify_relation(make_field(11), zeroed, batch, 2).kind == "fail"


def test_batch_with_one_tampered_residue_fails(monkeypatch):
    # one spoiled residue reaches every vector that reads its key at some
    # embedding: the batch fails, and so does the fold of the vectors,
    # while some vectors on their own still pass
    p, d = 41, 40
    mat = build_matrix(p, d, ADDITIVE)
    basis = right_kernel(mat).basis
    real = stmatrix._evaluate
    for a in mat.cols:

        def spoiled(terms, plan, ell, powers, a=a):
            values = real(terms, plan, ell, powers)
            at = plan.columns == a
            values[at] = 2 * values[at] % ell
            return values

        monkeypatch.setattr(stmatrix, "_evaluate", spoiled)
        fld = make_field(p)
        per = [verify_relation(fld, mat, v, 3) for v in basis]
        assert verify_relation(make_field(p), mat, basis, 3).kind == "fail", a
        assert _fold(per).kind == "fail" and any(r.ok for r in per), a


def test_batch_with_one_non_kernel_row_raises(monkeypatch):
    calls = _count_frobenius_factor(monkeypatch)
    m = build_matrix(11, 10, ADDITIVE)
    basis = [list(v) for v in right_kernel(m).basis]
    fld = make_field(11)
    stray = [1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(NotInKernelError, match=r"\[1, 0, 0, 0, 0, 0, 0, 0\] is not in the kernel"):
        verify_relation(fld, m, basis[:2] + [stray] + basis[2:], 2)
    with pytest.raises(NotInKernelError, match="vector length"):
        verify_relation(fld, m, basis + [[1, -1]], 2)
    assert calls == []
    assert verify_relation(fld, m, np.array(basis), 2) == verify_relation(fld, m, basis, 2)


def test_batch_checks_each_vector_at_the_split_primes_it_needs(monkeypatch):
    # k = 4 at p = 281 needs two split primes, k = 1 needs one: the batch
    # takes the primes of the largest k, and spoiling the second one fails
    # exactly the batches that hold a vector needing it
    p, d = 281, 40
    mat = build_matrix(p, d, ADDITIVE)
    basis = right_kernel(mat).basis
    L = stmatrix._relation_plan(mat, basis).L
    top = split_prime(L, 0)[0]
    k = [sum(-x for x in v if x < 0) for v in basis]
    light = [v for v, kv in zip(basis, k) if 2 * p**kv < top]
    heavy = [[4 * x for x in v] for v in basis[:3]]
    assert light and 2 * p ** (4 * max(k[:3])) >= top
    real = stmatrix._evaluate
    asked = _record_evaluate(monkeypatch)
    assert verify_relation(make_field(p), mat, light + heavy, 3).ok
    kmax = max(sum(-x for x in v if x < 0) for v in heavy)
    assert [ell for ell, _ in asked] == [ell for ell, _, _ in split_primes(L, p, kmax)]

    def second_spoiled(terms, plan, ell, powers):
        values = real(terms, plan, ell, powers)
        return values if ell == top else [2 * y % ell for y in values]

    monkeypatch.setattr(stmatrix, "_evaluate", second_spoiled)
    assert verify_relation(make_field(p), mat, light, 3).ok
    assert verify_relation(make_field(p), mat, light + heavy, 3).kind == "fail"


def test_batch_powers_match_the_vector_checks():
    # |e| > 1 reads the table of powers: scaled vectors and integer
    # combinations of kernel rows, which reach |e| >= 5 with several |e| in
    # one row, against the per-vector results, and each of those against
    # the Z[zeta] oracle
    c = Fraction(-3, 5)
    for p, d, family in [(41, 40, ADDITIVE), (61, 30, ADDITIVE), (41, 11, LINEAR),
                         (31, 30, ADDITIVE), (73, 13, LINEAR)]:
        mat = build_matrix(p, d, family)
        basis = right_kernel(mat).basis
        mixed = [[s * x for x in v] for s, v in zip((1, 2, 3, 5, 7, 6), basis)]
        mixed.append([x + 3 * y for x, y in zip(basis[0], basis[-1])])
        for s, t, u in [(2, -3, 0), (1, 4, -2), (3, 1, 5), (-4, 0, 3)]:
            mixed.append([s * x + t * y + u * z for x, y, z in zip(basis[0], basis[1], basis[-1])])
        assert max(abs(e) for v in mixed[-4:] for e in v) >= 5, (p, d, family)
        fld, ref = make_field(p), make_field(p)
        per = [verify_relation(fld, mat, v, c) for v in mixed]
        assert per == [oracles.verify_relation(ref, mat, v, c) for v in mixed], (p, d, family)
        assert all(r.ok for r in per), (p, d, family)
        assert verify_relation(make_field(p), mat, mixed, c) == _fold(per)


def test_each_nonzero_entry_is_one_gather():
    # each nonzero entry of a checked row is one key of the plan, at the
    # offset (|e| - 1)*(p-1) of its power, and the table reaches max |e|
    # (2 at x^40, 3 at x^420)
    for p, d, top in [(41, 40, 2), (421, 420, 3)]:
        mat = build_matrix(p, d, ADDITIVE)
        basis = right_kernel(mat).basis
        plan = stmatrix._relation_plan(mat, basis)
        checked = [basis[i] for i in plan.index]
        entries = [e for row in checked for e in row if e]
        assert sum(len(k) for k in plan.keys) == len(entries), (p, d)
        assert plan.top == max(map(abs, entries)) == top, (p, d)
        offsets = sorted(x for o in plan.offsets for x in o.tolist())
        assert offsets == sorted((abs(e) - 1) * (p - 1) for e in entries), (p, d)


def test_identify_st0_checks_each_field_in_one_call(monkeypatch):
    calls = []
    real = groupid.verify_relation

    def counted(fld, mat, v, c):
        calls.append((fld.p, v))
        return real(fld, mat, v, c)

    monkeypatch.setattr(groupid, "verify_relation", counted)
    for family, d in [(ADDITIVE, 40), (LINEAR, 13), (ADDITIVE, 6)]:
        calls.clear()
        identify_st0(curve(family, d, 2))
        primes = generic_primes(family, d, 3)
        basis = right_kernel(build_matrix(primes[0], d, family)).basis
        assert calls == [(p, basis) for p in primes]
