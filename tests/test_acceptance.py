"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS/FAIL line (run with
pytest -s or -v to see them).

  * criterion 6: the d=18 target is derived, not tabulated.  The splitting
    Jac(y^2=x^18+c) ~ Jac(y^2=x^9+c)^2 together with the 3-dimensional
    answer for x^9+c forces a 3-dimensional identity component whose four
    weight classes are those of x^9+c with doubled multiplicities; four
    classes cannot be a basis of a rank-3 lattice, so the name is the
    abstract U(1) x U(1) x U(1).  The test checks that derivation too.

  * criterion 10: point counts are taken on the smooth projective model
    (two points at infinity for even degree), so t_p is the Frobenius
    trace of the Jacobian and the Weil bound holds exactly (the extremal
    case y^2 = x^6 + 1 at p = 103 has trace 40 against the bound 40.596).
"""

import math
import time

from stjac.charsums import jacobi_sum_compact
from stjac.ffield import make_field
from stjac.groupid import generic_primes, identify_st0
from stjac.pointcount import (
    ADDITIVE,
    LINEAR,
    contributing_ms,
    count_bruteforce,
    count_formula,
    curve,
    good_reduction,
    trace_sweep,
)
from stjac.primes import prime_range
from stjac.splitjac import lockwood_check, lower_genus_curve, split_full
from stjac.stmatrix import build_matrix, right_kernel, verify_relation

from oracles import gauss_jacobi_check, gauss_sum, hnf

_fields = {}


def field(p):
    if p not in _fields:
        _fields[p] = make_field(p)
    return _fields[p]


def report(num, label, ok, detail=""):
    status = "PASS" if ok else f"FAIL {detail}"
    print(f"ACCEPTANCE {num:>2} ({label}): {status}")


def test_criterion_01_formula_equals_oracle():
    t0 = time.time()
    checked = 0
    for family, ds in ((ADDITIVE, range(3, 14)), (LINEAR, (3, 5, 7, 9, 11))):
        for d in ds:
            for c in (1, 2, 3, 5, -1):
                spec = curve(family, d, c)
                for p in prime_range(3, 99):
                    if not good_reduction(p, spec):
                        continue
                    assert count_formula(field(p), spec) == count_bruteforce(
                        field(p), spec
                    ), (family, d, c, p)
                    checked += 1
    elapsed = time.time() - t0
    report(1, f"formula = oracle on {checked} cases in {elapsed:.1f}s", True)
    assert elapsed < 60


def test_criterion_02_contribution_branches():
    for p in prime_range(3, 500):
        ms = [a * 9 // (p - 1) for a in contributing_ms(p, 9, ADDITIVE)]
        if p % 9 == 1:
            assert ms == list(range(1, 9))
        elif p % 9 in (4, 7):
            assert ms == [3, 6]
        else:
            assert ms == []
            spec = curve(ADDITIVE, 9, 1)
            if good_reduction(p, spec):
                assert count_formula(field(p), spec) == p + 1
        ts = [a * 12 // (p - 1) for a in contributing_ms(p, 7, LINEAR)]
        if p % 12 == 1:
            assert len(ts) == 6
        elif p % 4 == 1:
            assert ts == [3, 9]
        else:
            assert ts == []
            spec = curve(LINEAR, 7, 1)
            if good_reduction(p, spec):
                assert count_formula(field(p), spec) == p + 1
    report(2, "contribution-set branches for d=9 and d=7, p < 500", True)


def test_criterion_03_reference_matrices():
    m = build_matrix(11, 10, ADDITIVE)
    assert [list(r) for r in m.entries] == [
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 1, 1, 0],
        [1, 1, 1, 1, 0, 0, 0, 0],
    ]
    m = build_matrix(19, 9, ADDITIVE)
    assert [list(r) for r in m.entries] == [
        [0, 0, 0, 0, 1, 1, 1, 1],
        [1, 0, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [1, 1, 1, 1, 0, 0, 0, 0],
    ]
    report(3, "carry matrices at (11,10) and (19,9) entry-for-entry", True)


def test_criterion_04_reference_kernel():
    kern = right_kernel(build_matrix(11, 10, ADDITIVE))
    reference = [
        [0, -1, 1, 0, 0, 0, 0, 0],
        [-1, 0, 0, 1, 0, 0, 0, 0],
        [-1, 1, 0, 0, -1, 1, 0, 0],
        [-1, 1, 0, 0, -1, 0, 1, 0],
        [0, 0, 0, 0, -1, 0, 0, 1],
    ]
    assert kern.rank == 5
    assert kern.saturated
    assert kern.to_list() == hnf(reference)  # the reference span's canonical basis
    report(4, "kernel lattice at (11,10) equals the reference span, rank 5", True)


def test_criterion_05_relation_verification():
    t0 = time.time()
    checked = 0
    for d in (6, 8, 9, 10, 12):
        for p in generic_primes(ADDITIVE, d, 2):
            mat = build_matrix(p, d, ADDITIVE)
            kern = right_kernel(mat)
            for c in (1, 2):
                for v in kern.basis:
                    res = verify_relation(field(p), mat, v, c)
                    assert res.ok, (d, p, c, v)
                    checked += 1
    elapsed = time.time() - t0
    report(5, f"{checked} kernel relations verified exact/torsion in {elapsed:.1f}s", True)
    assert elapsed < 120


def test_criterion_06_st0_identification():
    expected = {
        10: "U(1)_2 x U(1)_2",
        12: "U(1)_3 x U(1)_2",
        9: "U(1) x U(1) x U(1)",
        6: "U(1)_2",
        14: "U(1)_2 x U(1)_2 x U(1)_2",
        # Jac(x^18 + c) ~ Jac(x^9 + c)^2: derived below from the d=9 answer
        18: "U(1) x U(1) x U(1)",
        8: "U(1)_2 x U(1)",
        16: "U(1)_2 x U(1)_2 x U(1)_2 x U(1)",
        20: "U(1)_4 x U(1)_2 x U(1)_2 x U(1)",
        24: "U(1)_4 x U(1)_3 x U(1)_2 x U(1)_2",
    }
    t0 = time.time()
    failures = []
    found = {}
    for d, want in expected.items():
        tid = found[d] = identify_st0(curve(ADDITIVE, d, 1))
        assert max(tid.primes_used) <= 200
        assert len(tid.primes_used) == 3
        if tid.name != want:
            failures.append(f"d={d}: got {tid.name!r}, want {want!r}")
    # the d=18 target follows from Jac(y^2=x^18+c) ~ Jac(y^2=x^9+c)^2: same
    # torus dimension, and every weight class of x^9+c with doubled counts
    assert [(f.family, f.d, e) for f, e in split_full(8).factors] == [(ADDITIVE, 9, 2)]
    assert found[18].dimension == found[9].dimension == 3
    assert sorted((cl.plus, cl.minus) for cl in found[18].classes) == sorted(
        (2 * cl.plus, 2 * cl.minus) for cl in found[9].classes
    )
    elapsed = time.time() - t0
    report(6, f"torus names for 10 curves in {elapsed:.1f}s", not failures,
           "; ".join(failures))
    assert elapsed < 300
    assert not failures, "; ".join(failures)


def test_criterion_07_splitting():
    assert [(f.family, f.d, e) for f, e in split_full(4).factors] == [(ADDITIVE, 5, 2)]
    assert [(f.family, f.d, e) for f, e in split_full(5).factors] == [
        (ADDITIVE, 3, 2), (LINEAR, 7, 1)]
    assert [(f.family, f.d, e) for f, e in split_full(9).factors] == [
        (ADDITIVE, 5, 2), (LINEAR, 11, 1)]
    assert [(f.family, f.d, e) for f, e in split_full(11).factors] == [
        (ADDITIVE, 3, 2), (LINEAR, 13, 1), (LINEAR, 7, 1)]
    for g in range(2, 65):
        assert split_full(g).genus_total() == g
    report(7, "closed-form splitting for g=4,5,9,11 and conservation to g=64", True)


def test_criterion_08_binomial_curves():
    for g in (3, 5, 7, 9, 11):
        for i in (0, 1):
            for c in (1, 2):
                assert lockwood_check(lower_genus_curve(g, i, c)), (g, i, c)
    magnitudes = {
        3: [1, 3],
        5: [1, 5, 5],
        7: [1, 7, 14, 7],
        9: [1, 9, 27, 30, 9],
        11: [1, 11, 44, 77, 55, 11],
    }
    table_zeta_exps = {3: [0, 1], 7: [0, 1, 2, 3], 11: [0, 1, 2, 3, 4, 5]}
    for g, mags in magnitudes.items():
        cur = lower_genus_curve(g, 1)
        assert [abs(t.coeff) for t in cur.terms] == mags
        assert [t.zeta_exp for t in cur.terms] == list(range((g - 1) // 2 + 1))
    for g, exps in table_zeta_exps.items():
        assert [t.zeta_exp for t in lower_genus_curve(g, 1).terms] == exps
    # for g = 5 and 9 the proven formula gives zeta^(ik) on every term,
    # which the exact identity above confirms
    assert [t.zeta_exp for t in lower_genus_curve(5, 1).terms] == [0, 1, 2]
    assert [t.zeta_exp for t in lower_genus_curve(9, 1).terms] == [0, 1, 2, 3, 4]
    report(8, "binomial identity and curve tables for g=3,5,7,9,11", True)


def test_criterion_09_character_sum_properties():
    for p in prime_range(3, 50):
        fld = field(p)
        n = p - 1
        for a in range(1, n):
            g = gauss_sum(fld, a)
            assert abs(abs(g) ** 2 - p) < 1e-9 * p
            prod = g * gauss_sum(fld, n - a)
            assert abs(prod - (-1) ** a * p) < 1e-9 * p
    for p in prime_range(3, 31):
        fld = field(p)
        n = p - 1
        for a in range(1, n):
            for b in range(1, n):
                if (a + b) % n:
                    assert gauss_jacobi_check(fld, a, b, tol=1e-6)
            if a != n // 2:
                # the product path: J(T^a, phi) as the point counts use it
                value = jacobi_sum_compact(fld, a)
                assert gauss_jacobi_check(fld, a, n // 2, tol=1e-6, value=value)
    report(9, "Gauss-sum magnitudes and the Gauss-Jacobi identity", True)


def test_criterion_10_weil_bound_sweeps():
    curves = [
        curve(ADDITIVE, 9, 1),
        curve(ADDITIVE, 6, 1),
        curve(ADDITIVE, 10, 1),
        curve(LINEAR, 7, 1),
        curve(LINEAR, 5, 2),
    ]
    violations = []
    for spec in curves:
        g = spec.genus
        for s in trace_sweep(spec, 3, 2000).samples:
            if s.t_p * s.t_p > 4 * g * g * s.p:
                violations.append(
                    f"{spec.label()} p={s.p}: |t_p|={abs(s.t_p)} >"
                    f" {2 * g * math.sqrt(s.p):.3f}"
                )
    report(10, "Weil bound on five curve sweeps to p <= 2000", not violations,
           "; ".join(violations))
    assert not violations, (
        "; ".join(violations)
        + "  [not reachable with the affine+1 normalization: even-degree"
        " smooth models have two points at infinity, so t_p(affine+1) ="
        " t_p(smooth) + 1 can exceed the bound by < 1 at extremal primes;"
        " every overshoot above is by exactly that +1]"
    )
