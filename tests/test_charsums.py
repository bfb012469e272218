import math
import tracemalloc

import numpy as np
import pytest

from stjac import _accel, charsums, groupid, pointcount
from stjac.charsums import conductor, jacobi_sum_compact
from stjac.cyclo import CycloElt
from stjac.ffield import make_field
from stjac.pointcount import ADDITIVE, LINEAR, contributing_ms
from stjac.primes import prime_range

from oracles import char_eval, direct_jacobi, embed, enumerated_dlog, gauss_jacobi_check, gauss_sum


def test_gauss_sum_trivial_character(field):
    # the vanishing-at-zero convention forces g(trivial) = -1
    for p in (5, 7, 11):
        g = gauss_sum(field(p), 0)
        assert abs(g - (-1)) < 1e-12


def test_gauss_sum_quadratic(field):
    # p = 1 mod 4: the quadratic Gauss sum is +sqrt(p)
    g = gauss_sum(field(5), 2)
    assert abs(g - math.sqrt(5)) < 1e-9
    g = gauss_sum(field(13), 6)
    assert abs(g - math.sqrt(13)) < 1e-9


def test_gauss_sum_absolute_value(field):
    g = gauss_sum(field(7), 3)
    assert abs(abs(g) - math.sqrt(7)) < 1e-9


def test_gauss_sum_conjugate_product(field):
    # g(chi) g(conj chi) = chi(-1) p for every nontrivial chi, p <= 50;
    # chi(-1) = (-1)^a since -1 is the generator to the (p-1)/2
    for p in prime_range(3, 50):
        fld = field(p)
        n = p - 1
        for a in range(1, n):
            prod = gauss_sum(fld, a) * gauss_sum(fld, n - a)
            expected = (-1) ** a * p
            assert abs(prod - expected) < 1e-9 * p


def test_jacobi_sum_trivial_pair(field):
    assert direct_jacobi(field(7), 0, 0) == 5  # p - 2 terms of 1


def test_jacobi_sum_inverse_pair(field):
    # J(chi, conj chi) = -chi(-1) = -(-1)^a for nontrivial chi
    assert direct_jacobi(field(11), 1, 9) == 1
    for p in (7, 11, 13):
        fld = field(p)
        n = p - 1
        for a in range(1, n):
            assert direct_jacobi(fld, a, n - a) == (1 if a % 2 else -1)


def test_jacobi_sum_weil_magnitude(field):
    fld = field(19)
    w = direct_jacobi(fld, 2, 9)
    assert (w * w.conj()) == 19
    w = direct_jacobi(field(11), 1, 5)
    assert (w * w.conj()) == 11
    assert abs(abs(embed(w, 1)) - math.sqrt(11)) < 1e-9


def test_jacobi_sum_symmetry_and_conjugation(field):
    for p in (7, 11, 13):
        fld = field(p)
        n = p - 1
        for a in range(n):
            for b in range(n):
                assert direct_jacobi(fld, a, b) == direct_jacobi(fld, b, a)
        for a in range(1, n):
            for b in range(1, n):
                lhs = direct_jacobi(fld, a, b).lift(n).conj()
                rhs = direct_jacobi(fld, n - a, n - b).lift(n)
                assert lhs == rhs


def test_jacobi_matches_definition(field):
    # the defining sum term by term in Z[zeta_{p-1}], against the histogram;
    # exponents outside [0, p-1) reduce mod p - 1
    cases = [(7, 2, 3), (11, 1, 5), (13, 4, 6), (19, 2, 9), (13, -1, 26), (19, 21, -9)]
    for p, a, b in cases:
        fld = field(p)
        total = None
        for x in range(2, p):
            term = char_eval(fld, a, x) * char_eval(fld, b, (1 - x) % p)
            total = term if total is None else total + term
        assert direct_jacobi(fld, a, b).lift(p - 1) == total


def test_jacobi_compact_agrees_with_full(field):
    for p in (11, 13, 19):
        fld = field(p)
        n = p - 1
        for a in range(n):
            compact = jacobi_sum_compact(fld, a)
            assert compact == direct_jacobi(fld, a, n // 2)
            assert n % compact.n == 0


def test_conductor_is_lcm_2_and_the_character_order():
    for p in prime_range(3, 200):
        fld = make_field(p)
        n = fld.n
        for a in range(n):
            N = conductor(fld, a)
            assert N == math.lcm(2, n // math.gcd(a, n)), (p, a)
            assert N == jacobi_sum_compact(fld, a).n, (p, a)
            assert conductor(fld, a - n) == conductor(fld, a + 2 * n) == N


def test_gauss_jacobi_identity(field):
    assert gauss_jacobi_check(field(11), 1, 5)
    assert gauss_jacobi_check(field(19), 2, 9)
    for p in prime_range(3, 31):
        fld = field(p)
        n = p - 1
        for a in range(1, n):
            for b in range(1, n):
                if (a + b) % n:
                    assert gauss_jacobi_check(fld, a, b)
            if a != n // 2:
                # the product path's J(T^a, phi), embedded from its compact field
                assert gauss_jacobi_check(fld, a, n // 2, value=jacobi_sum_compact(fld, a))


def test_gauss_jacobi_degenerate(field):
    with pytest.raises(ValueError):
        gauss_jacobi_check(field(7), 0, 1)
    with pytest.raises(ValueError):
        gauss_jacobi_check(field(7), 2, 4)


# -- the cached phi profile against the defining sum ------------------------


def assert_matches_direct(fld, exps):
    for a in exps:
        got = jacobi_sum_compact(fld, a)
        want = direct_jacobi(fld, a, fld.n // 2)
        assert (got.n, got.coeffs) == (want.n, want.coeffs), (fld.p, a)


def count_columns(p, families):
    """Every contributing column exponent a of the given families, in order."""
    return [a for family, d in families for a in contributing_ms(p, d, family)]


def test_joint_table_is_the_joint_histogram():
    # D[i] = sum of phi(1 - x) = (-1)^dlog(1-x) over the x with dlog x = i mod 24
    fld = make_field(2161)
    jacobi_sum_compact(fld, fld.n // 24)
    assert list(fld.joint) == [24]
    x = np.arange(2, fld.p)
    full = enumerated_dlog(fld.p, fld.generator)
    u, v = full[x] % 24, full[(1 - x) % fld.p]
    want = np.zeros(24, dtype=np.int64)
    np.add.at(want, u, 1 - 2 * (v % 2))
    assert np.array_equal(fld.joint[24], want)
    assert not fld.joint[24].flags.writeable


def test_cached_jacobi_equals_direct_on_every_column_below_4000():
    families = [(ADDITIVE, d) for d in range(1, 41)]
    families += [(LINEAR, d) for d in range(3, 40, 2)]
    square = narrow = 0
    for p in prime_range(3, 4000):
        fld = make_field(p)
        assert_matches_direct(fld, sorted(set(count_columns(p, families))))
        square += any(m * m <= fld.n for m in fld.joint)
        narrow += any(m * m > fld.n for m in fld.joint)
    # most of these primes go through an M x M table, many through an M x 2 one
    assert square > 400 and narrow > 200, (square, narrow)


def test_cached_jacobi_equals_direct_near_a_million():
    pool = [(ADDITIVE, d) for d in (9, 10, 12, 18, 24)] + [(LINEAR, 7), (LINEAR, 9)]
    for p in (1000081, 1093681, 1188721):  # p = 1 mod 720, from the count pool
        fld = make_field(p)
        assert_matches_direct(fld, sorted(set(count_columns(p, pool))))
        assert 24 in fld.joint


def test_cached_jacobi_equals_direct_on_arbitrary_pairs():
    for p in prime_range(3, 400):
        fld = make_field(p)
        n = fld.n
        # every exponent of small order (the M x M shape) ...
        small = sorted({
            j * (n // k) for k in range(1, math.isqrt(n) + 1) if n % k == 0
            for j in range(k)
        })
        # ... and an even spread of the rest (mostly the M x 2 shape)
        spread = list(range(0, n, max(1, n // 12)))
        exps = sorted(set(small + spread))
        assert_matches_direct(fld, exps + [-1, n + 3, -n // 2, 2 * n])


def test_shifted_scatter_is_the_zeta_power_product():
    # every shift in [-N, 2N) below p = 50 and at the count pool's columns
    # near 10^6; in between, one shift per a that walks over the same range
    # (every shift at every p < 300 is millions of products of up to 0.9 ms)
    cases = [(make_field(p), range(1, p - 1)) for p in prime_range(3, 300)]
    pool = [(ADDITIVE, d) for d in (9, 10, 12, 18, 24)] + [(LINEAR, 7), (LINEAR, 9)]
    cases.append((make_field(1000081), sorted(set(count_columns(1000081, pool)))))
    for fld, exps in cases:
        for a in exps:
            base = jacobi_sum_compact(fld, a)
            n = base.n
            every = fld.p < 50 or fld.p > 300
            for k in range(-n, 2 * n) if every else [7919 * a % (3 * n) - n]:
                want = CycloElt.zeta_pow(n, k) * base
                assert jacobi_sum_compact(fld, a, k) == want, (fld.p, a, k)


def test_every_shift_of_every_column_with_one_fold_per_orbit(monkeypatch):
    # on a fresh field, every shift in range(N) of every contributing
    # column of x^d + c (d <= 40) and x^d + c*x (odd d < 40) is
    # zeta_N^shift * J(T^a, phi), J from the defining sum; the fold runs
    # once per Galois orbit g = gcd(a, p-1), so at most once per a, however
    # many shifts read it
    folds = []
    real = charsums._phi_profile
    monkeypatch.setattr(charsums, "_phi_profile", lambda fld, need: folds.append(need) or real(
        fld, need))
    families = [(ADDITIVE, d) for d in range(1, 41)] + [(LINEAR, d) for d in range(3, 40, 2)]
    checked = 0
    for p in prime_range(3, 400):
        fld = make_field(p)
        folds.clear()
        exps = sorted(set(count_columns(p, families)))
        for a in exps:
            J = direct_jacobi(fld, a, fld.n // 2)
            assert J.n == conductor(fld, a)
            for shift in range(J.n):
                assert jacobi_sum_compact(fld, a, shift) == CycloElt.zeta_pow(J.n, shift) * J, (
                    p, a, shift)
                checked += 1
        orbits = {math.gcd(a, fld.n) for a in exps}
        assert len(folds) == len(orbits) <= len(exps) and set(fld.folds) == orbits, p
        assert all(len(fld.folds[g]) == conductor(fld, g) for g in orbits)
    assert checked > 10**4


def test_count_formula_makes_one_histogram_pass(monkeypatch):
    calls = []
    kernel = _accel.char_pair_histogram

    def counted(*args):
        calls.append(args[1:])
        return kernel(*args)

    monkeypatch.setattr(_accel, "char_pair_histogram", counted)
    spec = pointcount.curve(ADDITIVE, 24, 3)
    fld = make_field(2161)  # 2161 = 1 mod 720: all 23 columns contribute
    assert len(contributing_ms(fld.p, 24, ADDITIVE)) == 23
    assert pointcount.count_formula(fld, spec) == pointcount.count_bruteforce(fld, spec)
    assert calls == [(24, 24, fld.n)]


def test_count_formula_builds_only_small_residue_tables(monkeypatch):
    # x^24+3 at p = 1 mod 24 needs dlog mod 24 only: an int8 table, no full one
    kernel = _accel.dlog_table

    def no_full_table(p, g, m):
        if m == p - 1:
            raise AssertionError(f"full dlog table requested at p={p}")
        return kernel(p, g, m)

    monkeypatch.setattr(_accel, "dlog_table", no_full_table)
    spec = pointcount.curve(ADDITIVE, 24, 3)
    p = 1000081
    tracemalloc.start()
    try:
        fld = make_field(p)
        count = pointcount.count_formula(fld, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(fld.residues) == [24]
    assert peak <= 3 * p, peak
    assert count == pointcount.count_bruteforce(fld, spec)


def test_pipeline_builds_no_full_table_beyond_its_characters(monkeypatch):
    # count_formula, frobenius_factor (through identify_st0) and trace_sweep
    # read dlog x mod lcm(2, ord T^a) only; the full table (m = p - 1) is
    # built only where it is that residue table, i.e. where p - 1 divides
    # the curve's congruence modulus (x^6 + 1 at p = 7)
    kernel = _accel.dlog_table

    def guarded(p, g, m):
        if m == p - 1 and pointcount.congruence_modulus(spec) % m:
            raise AssertionError(f"full dlog table requested at p={p} for {spec.label()}")
        return kernel(p, g, m)

    monkeypatch.setattr(_accel, "dlog_table", guarded)
    st0_pool = [(ADDITIVE, d) for d in (6, 8, 9, 10, 12, 14, 16, 18, 20, 24, 30, 36, 40)]
    st0_pool += [(LINEAR, d) for d in (5, 7, 9, 11, 13)]
    count_pool = [(ADDITIVE, d) for d in (9, 10, 12, 18, 24)] + [(LINEAR, 7), (LINEAR, 9)]
    cases = [(pointcount.curve(*fd, 1), groupid.identify_st0) for fd in st0_pool]
    cases.append((pointcount.curve(ADDITIVE, 12, 1), lambda s: pointcount.trace_sweep(s, 3, 400)))
    cases += [
        (pointcount.curve(*fd, 1), lambda s: pointcount.count_formula(make_field(1000081), s))
        for fd in count_pool
    ]
    for spec, task in cases:
        task(spec)


def test_direct_pass_does_not_wrap_above_46341(monkeypatch):
    # the full table is int32 here, and a*dlog x passes 2^31 for p > 46341;
    # the defining sums widen it first.  M^2 > n for these a, so the compact
    # sums take the M x 2 shape
    shapes = []
    kernel = _accel.char_pair_histogram

    def recorded(u, m, k, n):
        shapes.append((m, k))
        return kernel(u, m, k, n)

    monkeypatch.setattr(_accel, "char_pair_histogram", recorded)
    fld = make_field(50021)
    n = fld.n  # 50020 = 4 * 5 * 41 * 61
    assert fld.dlog_mod(n).dtype == np.int32
    for a, b in [(61 * 819, 61 * 811), (61 * 3, n - 61), (41 * 1219, 41 * 3)]:
        assert math.lcm(2, n // math.gcd(a, n), n // math.gcd(b, n)) ** 2 > n
        assert a * (n - 1) >= 2**31 or b * (n - 1) >= 2**31
        assert gauss_jacobi_check(fld, a, b)
        assert_matches_direct(fld, [a, b])
    assert shapes == [(820, 2), (1220, 2)]
