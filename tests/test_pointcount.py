import math
import mmap
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stjac import _accel, pointcount
from stjac.errors import BadReductionError, NotPrimeError, PrimeTooLargeError
from stjac.ffield import make_field, reduce_mod
from stjac.pointcount import (
    ADDITIVE,
    LINEAR,
    CurveSpec,
    contributing_ms,
    count_bruteforce,
    count_formula,
    curve,
    good_reduction,
    hasse_witt_traces,
    points_at_infinity,
    trace_hasse_witt,
    trace_sweep,
)
from stjac.primes import prime_range
from stjac.splitjac import split_full


def test_curve_validation():
    with pytest.raises(ValueError):
        curve(LINEAR, 8, 1)
    with pytest.raises(ValueError):
        curve(ADDITIVE, 9, 0)
    with pytest.raises(ValueError):
        CurveSpec("cubic", 3, 1)
    assert curve(ADDITIVE, 9).genus == 4
    assert curve(ADDITIVE, 10).genus == 4
    assert curve(LINEAR, 7).genus == 3


def test_contributing_additive_d9_branches():
    # gcd-driven trichotomy for d = 9, checked for every odd prime < 500
    for p in prime_range(3, 500):
        ms = [a * 9 // (p - 1) for a in contributing_ms(p, 9, ADDITIVE)]
        if p % 9 == 1:
            assert ms == list(range(1, 9))
        elif p % 9 in (4, 7):
            assert ms == [3, 6]
        else:
            assert p % 3 != 1
            assert ms == []


def test_contributing_linear_d7_branches():
    for p in prime_range(3, 500):
        ts = [a * 12 // (p - 1) for a in contributing_ms(p, 7, LINEAR)]
        if p % 12 == 1:
            assert ts == [1, 3, 5, 7, 9, 11]
        elif p % 4 == 1:
            assert ts == [3, 9]
        else:
            assert p % 4 == 3
            assert ts == []


def test_contributing_exponents_in_window():
    for p in prime_range(3, 100):
        for d, family in [(9, ADDITIVE), (10, ADDITIVE), (7, LINEAR), (11, LINEAR)]:
            for a in contributing_ms(p, d, family):
                assert 1 <= a <= p - 2
                if family == ADDITIVE:
                    m = a * d // (p - 1)
                    assert (m * (p - 1)) % d == 0
                    assert a == m * (p - 1) // d
                else:
                    t = a * 2 * (d - 1) // (p - 1)
                    assert t % 2 == 1
                    assert (t * (p - 1)) % (2 * (d - 1)) == 0
                    assert a == t * (p - 1) // (2 * (d - 1))


def test_contributing_ms_is_the_ascending_window_of_its_definition():
    # a in [1, p-2] with a = i(p-1)/k integral, k = d or 2(d-1), i odd for
    # the linear twist; listed in increasing a
    families = [(ADDITIVE, d) for d in range(1, 41)] + [(LINEAR, d) for d in range(3, 40, 2)]
    for p in prime_range(3, 400):
        n = p - 1
        for family, d in families:
            k = d if family == ADDITIVE else 2 * (d - 1)
            want = [
                a for a in range(1, n)
                if a * k % n == 0 and (family == ADDITIVE or (a * k // n) % 2 == 1)
            ]
            assert contributing_ms(p, d, family) == tuple(want), (family, d, p)


def test_good_reduction():
    assert not good_reduction(3, curve(ADDITIVE, 9, 1))  # p | d
    assert good_reduction(3, curve(ADDITIVE, 10, 1))
    assert not good_reduction(3, curve(ADDITIVE, 10, 3))  # p | c
    assert not good_reduction(5, curve(ADDITIVE, 10, Fraction(1, 5)))
    # linear twist: p | d is fine, p | d-1 is not
    assert good_reduction(7, curve(LINEAR, 7, 1))
    assert not good_reduction(3, curve(LINEAR, 7, 1))


def test_count_formula_requires_good_reduction(field):
    with pytest.raises(BadReductionError):
        count_formula(field(3), curve(ADDITIVE, 9, 1))


def test_count_formula_and_hasse_witt_share_the_bad_reduction_message(field):
    # both raise through one check, in one wording
    cases = [(curve(ADDITIVE, 6, 7), 7), (curve(ADDITIVE, 11, 409), 409),
             (curve(LINEAR, 5, Fraction(-3, 5)), 3), (curve(LINEAR, 5, Fraction(-3, 5)), 5)]
    for spec, p in cases:
        with pytest.raises(BadReductionError) as formula:
            count_formula(field(p), spec)
        with pytest.raises(BadReductionError) as residue:
            hasse_witt_traces([p], spec)
        assert str(formula.value) == str(residue.value) == f"{p} divides 2*d*c for {spec.label()}"


def test_bruteforce_known_values(field):
    # p = 2 mod 3 makes x -> x^3 a bijection, so x^3 + 1 gives p + 1
    assert count_bruteforce(field(5), curve(ADDITIVE, 3, 1)) == 6
    assert count_bruteforce(field(3), curve(ADDITIVE, 9, 1)) == 4
    assert count_bruteforce(field(7), curve(LINEAR, 7, 1)) == 8
    # hand-enumerated: squares mod 7 are {1, 2, 4}
    assert count_bruteforce(field(7), curve(ADDITIVE, 3, 2)) == 9


def test_bruteforce_matches_naive_enumeration(field):
    # naive affine enumeration plus the points at infinity of the smooth
    # model: two for even d (x^6 + 1 at p = 11), one for odd d
    for p, spec, at_infinity in [
        (11, curve(ADDITIVE, 6, 1), 2),
        (13, curve(LINEAR, 5, 2), 1),
        (17, curve(ADDITIVE, 9, -1), 1),
        (19, curve(LINEAR, 7, Fraction(3, 5)), 1),
    ]:
        fld = field(p)
        cp = reduce_mod(spec.c, p)
        naive = 0
        for x in range(p):
            fx = (pow(x, spec.d, p) + cp * (x if spec.family == LINEAR else 1)) % p
            for y in range(p):
                if (y * y) % p == fx:
                    naive += 1
        assert points_at_infinity(spec) == at_infinity
        assert count_bruteforce(fld, spec) == naive + at_infinity


def test_formula_equals_oracle_all_families(field):
    for family, ds in ((ADDITIVE, range(3, 14)), (LINEAR, (3, 5, 7, 9, 11))):
        for d in ds:
            for c in (1, 2, -1):
                spec = curve(family, d, c)
                for p in prime_range(3, 60):
                    if not good_reduction(p, spec):
                        continue
                    fld = field(p)
                    assert count_formula(fld, spec) == count_bruteforce(fld, spec)


def test_formula_rational_c(field):
    spec = curve(ADDITIVE, 9, Fraction(3, 5))
    for p in (7, 11, 19, 37):
        if good_reduction(p, spec):
            assert count_formula(field(p), spec) == count_bruteforce(field(p), spec)


def test_formula_equals_oracle_on_the_benchmark_curves_near_a_million():
    # p = 1000081 = 1 mod 720 splits every curve; linear d = 9 reads dlog
    # mod 16 and (p-1)/2 = 8 mod 16, so the entries of -x take a shift
    fld = make_field(1000081)
    curves = [(ADDITIVE, d) for d in (9, 10, 12, 18, 24)] + [(LINEAR, d) for d in (7, 9)]
    for family, d in curves:
        for c in (1, Fraction(-3, 5)):
            spec = curve(family, d, c)
            assert count_formula(fld, spec) == count_bruteforce(fld, spec), (family, d, c)
    assert 16 in fld.residues and (fld.p - 1) // 2 % 16 == 8


@pytest.mark.parametrize("family, d", [(ADDITIVE, 1000), (ADDITIVE, 2000), (LINEAR, 1001)])
def test_formula_equals_oracle_for_large_d_near_a_million(deadline, family, d):
    # p = 1008001 = 1 mod 2000 splits all three; one cached profile serves
    # every column: from a 1000 x 1000 joint table for x^1000 + 1
    # (M^2 <= p - 1), from a 2000 x 2 table for x^2000 + 1 and x^1001 + x
    fld = make_field(1008001)
    spec = curve(family, d, 1)
    with deadline(8):
        assert count_formula(fld, spec) == count_bruteforce(fld, spec)
    assert list(fld.joint) == [pointcount.congruence_modulus(spec)]


def test_large_conductor_count_at_a_small_prime(deadline):
    # x^397 + c at p = 2383 sums its Jacobi sums in Z[zeta_794]; Phi_794 has
    # 397 nonzero terms, and the fold by x^397 = -1 leaves one coefficient
    # above phi(794) = 396 for the long division.  c = 1 alone would not
    # see the sign of the fold: its Jacobi sums add up to a constant
    # polynomial before any reduction
    fld = make_field(2383)
    specs = [curve(ADDITIVE, 397, c) for c in (1, 3)]
    with deadline(1):
        counts = [count_formula(fld, spec) for spec in specs]
    assert counts == [count_bruteforce(fld, spec) for spec in specs] == [1988, 1589]


_PRIMES_BELOW_3000 = prime_range(3, 3000)


@st.composite
def _good_curve_and_prime(draw):
    family = draw(st.sampled_from((ADDITIVE, LINEAR)))
    d = draw(st.integers(1, 400) if family == ADDITIVE else st.sampled_from(range(3, 400, 2)))
    num = draw(st.integers(-60, 60).filter(bool))
    spec = curve(family, d, Fraction(num, draw(st.integers(1, 30))))
    p = draw(st.sampled_from(_PRIMES_BELOW_3000).filter(lambda q: good_reduction(q, spec)))
    return spec, p


@settings(max_examples=150, deadline=None)
@given(_good_curve_and_prime())
def test_formula_equals_oracle_random_twists(case):
    # the twist T^a(-c)*phi(c) is exercised with c of either sign and any denominator
    spec, p = case
    fld = make_field(p)
    count = count_bruteforce(fld, spec)
    assert count_formula(fld, spec) == count
    assert trace_hasse_witt(p, spec) == p + 1 - count


def test_empty_branch_gives_p_plus_one(field):
    for p in prime_range(3, 200):
        if p % 3 == 2 and good_reduction(p, curve(ADDITIVE, 9, 1)):
            assert count_formula(field(p), curve(ADDITIVE, 9, 1)) == p + 1
        if p % 4 == 3 and good_reduction(p, curve(LINEAR, 7, 1)):
            assert count_formula(field(p), curve(LINEAR, 7, 1)) == p + 1


def test_trace_sweep_supersingular_classes():
    res = trace_sweep(curve(ADDITIVE, 9, 1), 3, 300)
    assert all(s.t_p == 0 for s in res.samples if s.p % 3 == 2)
    assert res.moments["n_samples"] == len(res.samples)
    assert set(res.class_counts) <= set(range(18))


def test_trace_sweep_matches_oracle(field):
    res = trace_sweep(curve(ADDITIVE, 6, 1), 3, 60)
    for s in res.samples:
        assert s.count == count_bruteforce(field(s.p), curve(ADDITIVE, 6, 1))
        assert s.t_p == s.p + 1 - s.count
        assert abs(s.x_p - s.t_p / math.sqrt(s.p)) < 1e-15


def test_trace_sweep_samples_and_moments_are_the_python_floats():
    # the sweep builds its samples from arrays; every x_p must be bitwise
    # t_p / sqrt(p), the moments the same Python sums of x**k in p order and
    # the classes in order of first appearance, over the benchmark's sweep
    # pool on [3, 2*10^4] at one twist
    pool = [curve(ADDITIVE, d, 3) for d in (6, 9, 10, 12)] + [curve(LINEAR, d, 3) for d in (5, 7)]
    for spec in pool:
        res = trace_sweep(spec, 3, 20000)
        xs = []
        for s in res.samples:
            assert type(s.p) is type(s.count) is type(s.t_p) is int and type(s.x_p) is float
            assert s.x_p.hex() == (s.t_p / math.sqrt(s.p)).hex(), (spec, s)
            xs.append(s.x_p)
        n = len(xs)
        assert res.moments == {
            "n_samples": n,
            "mean": sum(xs) / n,
            "m2": sum(x**2 for x in xs) / n,
            "m4": sum(x**4 for x in xs) / n,
            "m6": sum(x**6 for x in xs) / n,
        }, spec
        assert list(res.moments) == ["n_samples", "mean", "m2", "m4", "m6"]
        mod = pointcount.congruence_modulus(spec)
        classes = {}
        for s in res.samples:
            classes[s.p % mod] = classes.get(s.p % mod, 0) + 1
        assert list(res.class_counts.items()) == list(classes.items()), spec


def test_trace_sweep_weil_bound():
    # counts are on the smooth model, so |t_p| <= 2g*sqrt(p) for every d
    # genus 0 (the line and the conic, where h - j = 0 occurs) forces t_p = 0
    for spec, pmax in [
        (curve(ADDITIVE, 9, 1), 400),
        (curve(LINEAR, 7, 1), 400),
        (curve(ADDITIVE, 6, 1), 400),
        (curve(ADDITIVE, 10, 2), 400),
        (curve(ADDITIVE, 1, 3), 400),
        (curve(ADDITIVE, 2, Fraction(-3, 5)), 400),
    ]:
        g = spec.genus
        for s in trace_sweep(spec, 3, pmax).samples:
            assert s.t_p * s.t_p <= 4 * g * g * s.p


def test_trace_sweep_affine_normalization_overshoot(field):
    # the extremal case: 62 affine solutions plus two points at infinity,
    # and the trace 40 sits just inside the genus-2 Weil bound 40.596
    spec = curve(ADDITIVE, 6, 1)
    assert _accel.affine_count(103, 6, 1, False) == 62
    res = trace_sweep(spec, 103, 103)
    (s,) = res.samples
    assert s.count == 64
    assert s.t_p == 40
    assert s.t_p <= 4 * math.sqrt(103)


def test_conic_has_p_plus_one_points(field):
    # a smooth conic with a rational point has exactly p + 1 points
    for c in (1, 2, 3, -1, Fraction(2, 7)):
        spec = curve(ADDITIVE, 2, c)
        for p in prime_range(3, 200):
            if good_reduction(p, spec):
                assert count_bruteforce(field(p), spec) == p + 1, (c, p)
                assert count_formula(field(p), spec) == p + 1, (c, p)


def test_traces_add_over_split_factors(field):
    # for c = 1 every isogeny of split_full(g) is defined over Q, so the
    # Frobenius traces of the factors add up to that of Jac(x^(2g+2) + 1)
    checked = 0
    for g in range(2, 12):
        split = split_full(g)
        specs = [split.source] + [f for f, _ in split.factors]
        for p in prime_range(3, 400):
            if not all(good_reduction(p, s) for s in specs):
                continue
            fld = field(p)
            trace = p + 1 - count_formula(fld, split.source)
            parts = sum(e * (p + 1 - count_formula(fld, f)) for f, e in split.factors)
            assert trace == parts, (g, p)
            checked += 1
    assert checked == 762


def test_trace_sweep_parallel_matches_serial():
    # 3..2000 for genus 2 starts where t_p may sit at an end of its range:
    # x^6 + 1 at p = 7 has t_p = -8
    serial = trace_sweep(curve(ADDITIVE, 6, 1), 3, 2000, workers=1)
    parallel = trace_sweep(curve(ADDITIVE, 6, 1), 3, 2000, workers=2)
    assert serial.samples == parallel.samples
    assert serial.samples[0].p < 16 < serial.samples[-1].p


def test_trace_sweep_narrow_window_of_large_primes(deadline):
    # one window near 10^6: every factorial leaf is folded modulo the product
    # of the window's moduli; exact leaves (about (p/2)! each) take several s
    spec = curve(ADDITIVE, 12, 3)
    with deadline(2):
        samples = trace_sweep(spec, 10**6, 10**6 + 200).samples
    assert [s.p for s in samples] == [
        p for p in prime_range(10**6, 10**6 + 200) if good_reduction(p, spec)
    ]
    for s in samples:
        assert s.count == count_formula(make_field(s.p), spec), s.p


def test_hasse_witt_equals_both_oracles(field):
    # a third independent count: binomials mod p, no dlog table, no Z[zeta];
    # additive d = 1, 2 are the genus-0 line and conic (t_p = 0 at every p)
    twists = (1, -1, 2, 3, Fraction(-3, 5), Fraction(1, 2), 7)
    specs = [curve(ADDITIVE, d, c) for d in range(1, 25) for c in twists]
    specs += [curve(LINEAR, d, c) for d in range(3, 20, 2) for c in twists]
    # each spec's primes go through one batch, i.e. one remainder tree, and
    # the one-prime path agrees with it below 300 and at the largest prime
    checked = single = 0
    # the brute-force count, from tables: the square roots of each residue
    # once per p, x^d once per (p, d); then sum over x of #{y : y^2 = f(x)}
    # for every twist of (family, d) at p in one pass, plus the points at
    # infinity (two for even d, one for odd d)
    roots, powers, counts = {}, {}, {}

    def table(p):
        if p not in roots:
            x = np.arange(p, dtype=np.int64)
            roots[p] = x, np.bincount(x * x % p, minlength=p)
        return roots[p]

    def power(p, d):
        if (p, d) not in powers:
            powers[p, d] = power(p, d - 1) * table(p)[0] % p if d else np.ones(p, dtype=np.int64)
        return powers[p, d]

    def brute_force(p, spec):
        key = p, spec.family, spec.d
        if key not in counts:
            x, root_count = table(p)
            cs = [c for c in twists if c.denominator % p]
            c_mod_p = np.array([c.numerator * pow(c.denominator, -1, p) % p for c in cs])
            f = power(p, spec.d) + c_mod_p[:, None] * (x if spec.family == LINEAR else 1)
            counts[key] = dict(zip(cs, root_count[f % p].sum(axis=1).tolist()))
        return counts[key][spec.c] + (2 if spec.d % 2 == 0 else 1)

    for spec in specs:
        primes = [p for p in prime_range(3, 1500) if good_reduction(p, spec)]
        for p, t in zip(primes, hasse_witt_traces(primes, spec), strict=True):
            fld = field(p)
            if p < 300 or p == primes[-1]:
                assert t == trace_hasse_witt(p, spec), (spec, p)
                single += 1
            assert t == p + 1 - brute_force(p, spec), (spec, p)
            assert t == p + 1 - count_formula(fld, spec), (spec, p)
            checked += 1
    assert (checked, single) == (54695, 14039)


def test_hasse_witt_boundary_at_4_g_squared(field):
    # the Weil bound plays no part: the last prime below 4g^2 and the first
    # one above it both take the residue and its parity, and agree with the
    # two counts
    for g, below, first in ((2, 13, 17), (3, 31, 37), (4, 61, 67), (5, 97, 101)):
        assert prime_range(below + 1, 4 * g * g) == []
        assert prime_range(4 * g * g + 1, first - 1) == []
        for spec in (curve(ADDITIVE, 2 * g + 1, 3), curve(ADDITIVE, 2 * g + 2, -1),
                     curve(LINEAR, 2 * g + 1, Fraction(-3, 5))):
            assert spec.genus == g
            for p in (below, first):
                fld = field(p)
                t = trace_hasse_witt(p, spec)
                assert t == p + 1 - count_bruteforce(fld, spec) == p + 1 - count_formula(fld, spec)
    with pytest.raises(BadReductionError):
        trace_hasse_witt(401, curve(ADDITIVE, 12, 401))


def test_trace_hasse_witt_rejects_composite_p():
    # 1001 = 7 * 11 * 13 once gave t_p = 0; 10000009 = 23 * 434783 hit a
    # non-invertible factorial inside pow
    spec = curve(ADDITIVE, 9, 1)
    for p in (1001, 10000009):
        assert good_reduction(p, spec)
        with pytest.raises(NotPrimeError, match="odd prime"):
            trace_hasse_witt(p, spec)


def test_hasse_witt_checks_the_inverse_of_den_c_only_for_a_fraction():
    # 1001 = 7 * 11 * 13 has gcd(9, 1000) = 1: no binomial term, so only the
    # Fermat check of den(c)'s inverse sees it.  c is reduced once per prime,
    # so that check runs at every p of the batch, whatever else the batch
    # holds (101 has no term either, 103 has one); an integer c has no such
    # check
    for primes in ([1001], [101, 1001], [1001, 103], [101, 1001, 103]):
        with pytest.raises(NotPrimeError, match="got 1001$"):
            hasse_witt_traces(primes, curve(ADDITIVE, 9, Fraction(1, 2)))
        assert len(hasse_witt_traces(primes, curve(ADDITIVE, 9, 1))) == len(primes)


def test_trace_sweep_builds_no_field_and_calls_no_count_formula(monkeypatch):
    built, counted = [], []

    def recording(fn, log):
        def wrapper(*args):
            log.append(args[0] if isinstance(args[0], int) else args[0].p)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pointcount, "make_field", recording(make_field, built))
    monkeypatch.setattr(pointcount, "count_formula", recording(count_formula, counted))
    spec = curve(ADDITIVE, 9, 1)  # g = 4: the primes below 4g^2 = 64 are swept too
    res = trace_sweep(spec, 3, 600)
    assert built == counted == []
    primes = [p for p in prime_range(3, 600) if good_reduction(p, spec)]
    assert [s.p for s in res.samples] == primes and primes[0] == 5
    assert [s.count for s in res.samples] == [count_bruteforce(make_field(p), spec) for p in primes]


_TWISTS = (1, -1, 2, 3, Fraction(-3, 5), Fraction(1, 2), 7)


def _binomial_js(p, spec):
    """The j in [1, h] with (p-1) | d*j (additive) or (p-1) | (d-1)*j + h (linear),
    solved as congruences, independently of ``contributing_ms``."""
    n, h = p - 1, (p - 1) // 2
    if spec.family == ADDITIVE:
        step = n // math.gcd(spec.d, n)
        return list(range(step, h + 1, step))
    g = math.gcd(spec.d - 1, n)
    if h % g:
        return []
    mod = n // g
    j0 = -(h // g) * pow((spec.d - 1) // g, -1, mod) % mod
    return list(range(j0 or mod, h + 1, mod))


def _hasse_witt_reference(p, spec):
    """t_p mod p, folded into (-p/2, p/2), from 1 - (points at infinity) +
    sum_j C(h, j) c^(h-j) mod p, in exact ints."""
    h = (p - 1) // 2
    cp = reduce_mod(spec.c, p)
    total = 1 - points_at_infinity(spec)
    total += sum(math.comb(h, j) * pow(cp, h - j, p) for j in _binomial_js(p, spec))
    return (total + p // 2) % p - p // 2


def test_hasse_witt_equals_binomial_reference():
    specs = [curve(ADDITIVE, d, c) for d in range(1, 25) for c in _TWISTS]
    specs += [curve(LINEAR, d, c) for d in range(3, 20, 2) for c in _TWISTS]
    checked = 0
    for spec in specs:
        primes = [p for p in _PRIMES_BELOW_3000 if good_reduction(p, spec)]
        # below 16g^2, t_p may lie outside the reference's (-p/2, p/2)
        got = [t % p for t, p in zip(hasse_witt_traces(primes, spec), primes, strict=True)]
        assert got == [_hasse_witt_reference(p, spec) % p for p in primes], spec
        checked += len(primes)
    assert checked == 98816


def test_hasse_witt_any_order_and_repeats():
    for spec in (curve(ADDITIVE, 9, 1), curve(ADDITIVE, 12, Fraction(-3, 5)), curve(LINEAR, 7, 2)):
        primes = [p for p in prime_range(3, 2000) if good_reduction(p, spec)]
        expected = dict(zip(primes, hasse_witt_traces(primes, spec)))
        shuffled = primes[::-1][::2] + primes[::3] + primes[1::2] + primes[:5]
        assert hasse_witt_traces(shuffled, spec) == [expected[p] for p in shuffled]
        assert hasse_witt_traces([], spec) == []


def _recording_tree(monkeypatch):
    """Replace the remainder tree by one that logs its (x, p) requests per
    call, and empty the binomial table, so that the next batch runs cold."""
    pointcount._clear_binomials()
    calls, tree = [], _accel.prefix_factorials

    def recording(xs, ms):
        calls.append(list(zip(xs.tolist(), ms.tolist())))
        return tree(xs, ms)

    monkeypatch.setattr(_accel, "prefix_factorials", recording)
    return calls


def test_hasse_witt_trivial_term_makes_no_tree_request(monkeypatch):
    # p = 5 mod 6 gives gcd(6, p - 1) = 2: the only j is h, C(h, h) = 1
    calls = _recording_tree(monkeypatch)
    spec = curve(ADDITIVE, 6, 1)
    primes = [p for p in prime_range(65, 5000) if p % 6 == 5]
    assert hasse_witt_traces(primes, spec) == [0] * len(primes)
    assert sum(map(len, calls)) == 0


def _binomial_rs(p, spec):
    """The r = min(j, h - j) of the j < h of ``_binomial_js``."""
    h = (p - 1) // 2
    return {min(j, h - j) for j in _binomial_js(p, spec) if j < h}


def test_hasse_witt_requests_each_distinct_factorial_once(monkeypatch):
    # cold, per prime, exactly the distinct x in {r, 2r}, r = min(j, h - j)
    # over the j < h: C(h, j) = C(h, r) = (-1)^r (2r)! / (4^r (r!)^2) mod p;
    # an immediate repeat finds every binomial in the table
    calls = _recording_tree(monkeypatch)
    specs = (curve(ADDITIVE, 12, 1), curve(ADDITIVE, 8, 3), curve(ADDITIVE, 9, 1),
             curve(LINEAR, 9, -1), curve(LINEAR, 5, 1))
    for spec in specs:
        primes = [p for p in prime_range(3, 3000) if good_reduction(p, spec)]
        pointcount._clear_binomials()
        calls.clear()
        traces = hasse_witt_traces(primes, spec)
        expected = []
        for p in primes:
            rs = _binomial_rs(p, spec)
            expected += [(x, p) for x in rs | {2 * r for r in rs}]
        (requests,) = calls
        assert sorted(requests) == sorted(expected), spec
        assert all(0 < x <= (p - 1) // 2 for x, p in requests), spec
        assert hasse_witt_traces(primes, spec) == traces
        assert calls[1:] == [[]], spec
    # x^9 + 1 in the class e = 9: the j = 2mh/9, m = 1..4, asked for 9
    # factorials in {h, j, h - j} and ask for 6 in {r, 2r}
    pointcount._clear_binomials()
    hasse_witt_traces([1999, 2017], curve(ADDITIVE, 9, 1))
    assert [sum(q == p for _, q in calls[-1]) for p in (1999, 2017)] == [6, 6]


def test_binomial_table_answers_as_a_cold_call_in_any_order():
    # the sweep-2e4 pool with every twist, over windows below 3000 that
    # overlap, in shuffled order in one process: cold, warm and partial
    # hits; each call equals the same call on an empty table, and t_p
    # equals the Jacobi-sum count below 500
    pool = [(ADDITIVE, d) for d in (6, 9, 10, 12)] + [(LINEAR, d) for d in (5, 7)]
    windows = ((3, 3000), (3, 800), (1000, 2000), (1500, 3000))
    calls = [(curve(f, d, c), w) for f, d in pool for c in _TWISTS for w in windows]
    cold = {}
    for spec, (lo, hi) in calls:
        pointcount._clear_binomials()
        cold[spec, lo, hi] = repr(trace_sweep(spec, lo, hi))
    pointcount._clear_binomials()
    random.Random(50).shuffle(calls)
    counted = 0
    for spec, (lo, hi) in calls:
        res = trace_sweep(spec, lo, hi)
        assert repr(res) == cold[spec, lo, hi], (spec, lo, hi)
        for s in res.samples:
            if s.p < 500:
                assert s.count == count_formula(make_field(s.p), spec), (spec, s.p)
                counted += 1
    assert pointcount._BINOMIALS and counted == 7796


def test_binomial_table_serves_an_overlapping_curve_its_new_pairs(monkeypatch):
    # x^6 + 1 below 2000, then x^12 + 3 on [1000, 3000]: x^12 asks only for
    # the (r, p) that x^6 left out, each as its distinct x in {r, 2r}
    calls = _recording_tree(monkeypatch)
    first, second = curve(ADDITIVE, 6, 1), curve(ADDITIVE, 12, 3)
    hasse_witt_traces(pointcount.good_primes(first, 3, 2000), first)
    primes = pointcount.good_primes(second, 1000, 3000)
    calls.clear()
    traces = hasse_witt_traces(primes, second)
    expected = []
    for p in primes:
        rs = _binomial_rs(p, second) - (_binomial_rs(p, first) if p <= 2000 else set())
        expected += [(x, p) for x in rs | {2 * r for r in rs}]
    (requests,) = calls
    assert sorted(requests) == sorted(expected)
    assert 0 < len(requests) < sum(2 * len(_binomial_rs(p, second)) for p in primes)
    pointcount._clear_binomials()
    assert hasse_witt_traces(primes, second) == traces


def test_binomial_table_stays_within_its_bound(monkeypatch):
    # a bound of 1024 entries, four pages of pairs: whole fractions go,
    # least recently used first, and every trace equals the cold one
    specs = [curve(ADDITIVE, d, 1) for d in (6, 9, 12, 10)] + [curve(LINEAR, 7, 2)]
    cold = []
    for spec in specs:
        pointcount._clear_binomials()
        cold.append(trace_sweep(spec, 3, 3000).samples)
    monkeypatch.setattr(pointcount, "_BINOMIAL_BOUND", 1024)
    limit = 16 * 1024 // mmap.PAGESIZE
    pointcount._clear_binomials()
    seen = set()
    for _ in range(2):
        for spec, samples in zip(specs, cold, strict=True):
            assert trace_sweep(spec, 3, 3000).samples == samples, spec
            sizes = [len(keys) for keys, _ in pointcount._BINOMIALS.values()]
            assert 0 < sum(sizes) <= 1024, spec
            assert sum(-(-16 * n // mmap.PAGESIZE) for n in sizes) <= limit, spec
            seen |= set(pointcount._BINOMIALS)
    assert set(pointcount._BINOMIALS) < seen  # some fractions were evicted
    # each pair is sorted, read-only and replaced whole
    for keys, values in pointcount._BINOMIALS.values():
        assert np.all(np.diff(keys) > 0) and len(values) == len(keys)
        assert not keys.flags.writeable and not values.flags.writeable
    # a lookup makes its fraction the most recently used: in a bound of four
    # pages 1/4 and 1/8 take a page each, 1/6 three, so 1/8 goes
    monkeypatch.setattr(pointcount, "_BINOMIAL_BOUND", 4 * mmap.PAGESIZE // 16)
    pointcount._clear_binomials()
    ps = np.array([5, 13, 17], dtype=np.int64)
    for r in (Fraction(1, 4), Fraction(1, 8)):
        pointcount._store_binomials(r, ps, ps - 1)
    pointcount._known_binomials(Fraction(1, 4), ps)
    many = np.arange(7, 8 + 2 * mmap.PAGESIZE // 16, dtype=np.int64)
    pointcount._store_binomials(Fraction(1, 6), many, np.ones_like(many))
    assert list(pointcount._BINOMIALS) == [Fraction(1, 4), Fraction(1, 6)]
    values, found = pointcount._known_binomials(Fraction(1, 4), np.array([13, 7, 17, 13]))
    assert values.tolist() == [12, 0, 16, 12] and found.tolist() == [True, False, True, True]


def test_binomial_table_keeps_nothing_of_a_failed_check():
    # 415 = 5 * 83 = 1 mod 9: 5 divides the factorials, so the inverse
    # check fails; the batch stores nothing, 271 included, and a repeat
    # raises again
    pointcount._clear_binomials()
    spec = curve(ADDITIVE, 9, 1)
    for _ in range(2):
        with pytest.raises(NotPrimeError, match=r"^p must be an odd prime, got 415$"):
            hasse_witt_traces([271, 415], spec)
        assert pointcount._BINOMIALS == {}
    hasse_witt_traces([271], spec)
    assert {int(p) for keys, _ in pointcount._BINOMIALS.values() for p in keys} == {271}
    with pytest.raises(NotPrimeError, match=r"^p must be an odd prime, got 415$"):
        hasse_witt_traces([415, 271], spec)


def test_hasse_witt_errors_keep_type_message_and_input_order():
    spec = curve(ADDITIVE, 11, 1)  # g = 5, 4g^2 = 100: 97 is a good prime like 101
    with pytest.raises(PrimeTooLargeError, match=r"^p must be at most P_MAX = 2\^31 - 1, got 2147483659$"):
        hasse_witt_traces([101, 97, 2**31 + 11], spec)
    with pytest.raises(PrimeTooLargeError, match=r"^p must be at most P_MAX = 2\^31 - 1, got 2147483659$"):
        hasse_witt_traces([101, 2**31 + 11, 97], spec)
    with pytest.raises(BadReductionError, match=r"^409 divides 2\*d\*c for y\^2 = x\^11 \+ 409$"):
        hasse_witt_traces([409, 97], curve(ADDITIVE, 11, 409))
    # 415 = 5 * 83 = 1 mod 9: 5 divides the factorials, no inverse exists
    with pytest.raises(NotPrimeError, match=r"^p must be an odd prime, got 415$"):
        hasse_witt_traces([257, 415], curve(ADDITIVE, 9, 1))
    # 33 = 3 * 11 = 1 mod 8: linear x^5 + x has j = 4 and h - j = 12, one
    # shared binomial C(16, 4), and 3 divides (4!)^2
    with pytest.raises(NotPrimeError, match=r"^p must be an odd prime, got 33$"):
        hasse_witt_traces([41, 33], curve(LINEAR, 5, 1))


def test_hasse_witt_reads_c_only_mod_p():
    # the benchmark's sweep curves, c fractional and past int64 included:
    # each trace of a batch is that of the curve with c replaced by c mod p
    curves = [(ADDITIVE, d) for d in (6, 9, 10, 12)] + [(LINEAR, d) for d in (5, 7)]
    checked = 0
    for c in (Fraction(1, 2), Fraction(-3, 5), 10**20 + 3, Fraction(1, 10**19)):
        for family, d in curves:
            spec = curve(family, d, c)
            primes = [p for p in _PRIMES_BELOW_3000 if good_reduction(p, spec)]
            assert hasse_witt_traces(primes, spec) == [
                trace_hasse_witt(p, curve(family, d, reduce_mod(spec.c, p))) for p in primes
            ], spec
            checked += len(primes)
    assert checked == 10258


def test_hasse_witt_stays_exact_for_wide_c():
    # num(c) and den(c) past 2^62 are reduced through Python ints
    for c in (2**70 + 1, Fraction(3, 2**65 + 1), -(3**45)):
        spec = curve(ADDITIVE, 9, c)
        primes = [p for p in prime_range(65, 400) if good_reduction(p, spec)]
        assert hasse_witt_traces(primes, spec) == [
            p + 1 - count_bruteforce(make_field(p), spec) for p in primes
        ]


def test_hasse_witt_array_checks_raise_what_a_loop_in_input_order_raises():
    # the reference checks one p at a time, in input order, in the order
    # reduction, P_MAX; lists mix good primes (37 and 97 below 4g^2 = 100
    # among them) with each offence, c and p past int64 included
    def first_error(primes, spec):
        for p in primes:
            if not good_reduction(p, spec):
                return BadReductionError, f"{p} divides 2*d*c for {spec.label()}"
            if p > 2**31 - 1:
                return PrimeTooLargeError, f"p must be at most P_MAX = 2^31 - 1, got {p}"
        return None

    rng = random.Random(27)
    pool = [37, 97, 101, 103, 107, 109, 113, 2**31 + 11, 2**64 + 13]
    for c in (1, 107, Fraction(-3, 113), 109 * 2**80, Fraction(1, 103 * 2**70)):
        spec = curve(ADDITIVE, 11, c)
        for _ in range(60):
            primes = rng.choices(pool, k=rng.randint(1, 5))
            expected = first_error(primes, spec)
            if expected is None:
                assert len(hasse_witt_traces(primes, spec)) == len(primes)
                continue
            with pytest.raises(expected[0]) as err:
                hasse_witt_traces(primes, spec)
            assert str(err.value) == expected[1], primes


def test_hasse_witt_lifts_the_residue_by_parity_at_every_good_prime(field):
    # from p = 3 on: below 16g^2 |t_p| may pass p/2, and below 4g^2 even p,
    # so the residue mod p alone is ambiguous; its parity fixes t_p mod 2p,
    # and where t_p mod 2p is the class of both ends of [top - 2p, top],
    # top = p + 1 - (points at infinity), phi(c) picks.  c = -2^d makes -c
    # a d-th power, so for odd additive d every e = gcd(d, p-1) > 1 gives
    # an even t_p
    twists = (1, 2, 3, 5, -1, Fraction(1, 2), Fraction(-3, 5))  # the benchmark's C_VALUES
    specs = [curve(ADDITIVE, d, c) for d in range(1, 15) for c in (*twists, -(2**d))]
    specs += [curve(LINEAR, d, c) for d in range(3, 14, 2) for c in (*twists, -(2**d))]
    checked = past_half = odd = below = 0
    ends = []
    for spec in specs:
        g = spec.genus
        primes = [p for p in prime_range(3, 16 * g * g) if good_reduction(p, spec)]
        for p, t in zip(primes, hasse_witt_traces(primes, spec), strict=True):
            assert t == p + 1 - count_bruteforce(field(p), spec), (spec, p)
            checked += 1
            past_half += 2 * abs(t) > p
            odd += t % 2
            below += p <= 4 * g * g
            top = p + 1 - points_at_infinity(spec)
            if (top - t) % (2 * p) == 0:
                ends.append(t == top)
    assert (checked, past_half, odd, below) == (6778, 164, 218, 2008)
    assert (len(ends), sum(ends)) == (23, 15)  # 15 at the top, 8 at the bottom
    # phi(c) = 1 picks the bottom, phi(c) = -1 the top
    assert hasse_witt_traces([7], curve(ADDITIVE, 6, 1)) == [-8]
    assert hasse_witt_traces([7], curve(ADDITIVE, 6, 5)) == [6]
    assert hasse_witt_traces([19], curve(ADDITIVE, 9, 5)) == [-19]


def test_sweep_blocks_cut_at_equal_sums_of_p():
    # a prime's tree work grows with p: blocks of equal count took 0.75 s and
    # 1.94 s for this range, blocks of equal sum about 1.3 s and 1.5 s
    spec = curve(ADDITIVE, 9, 1)
    primes = pointcount.good_primes(spec, 257, 300000)
    low, high = pointcount._blocks_of_equal_sum(primes, 2)
    assert low + high == primes
    assert 0.6 * 300000 < high[0] < 0.8 * 300000
    assert pointcount._blocks_of_equal_sum([3, 5], 4) == [[3], [5]]
