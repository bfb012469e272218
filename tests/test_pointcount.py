import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stjac import _accel
from stjac.errors import BadReductionError
from stjac.ffield import make_field
from stjac.pointcount import (
    ADDITIVE,
    LINEAR,
    CurveSpec,
    contributing_ms,
    count_bruteforce,
    count_formula,
    curve,
    good_reduction,
    points_at_infinity,
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
        ms = [e.index for e in contributing_ms(p, 9, ADDITIVE).entries]
        if p % 9 == 1:
            assert ms == list(range(1, 9))
        elif p % 9 in (4, 7):
            assert ms == [3, 6]
        else:
            assert p % 3 != 1
            assert ms == []


def test_contributing_linear_d7_branches():
    for p in prime_range(3, 500):
        ts = [e.index for e in contributing_ms(p, 7, LINEAR).entries]
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
            for e in contributing_ms(p, d, family).entries:
                assert 1 <= e.exponent <= p - 2
                if family == ADDITIVE:
                    assert (e.index * (p - 1)) % d == 0
                    assert e.exponent == e.index * (p - 1) // d
                else:
                    assert e.index % 2 == 1
                    assert (e.index * (p - 1)) % (2 * (d - 1)) == 0


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
        cp = fld.reduce(spec.c)
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


_PRIMES_BELOW_3000 = prime_range(3, 3000)


@st.composite
def _good_curve_and_prime(draw):
    family = draw(st.sampled_from((ADDITIVE, LINEAR)))
    d = draw(st.integers(1, 40) if family == ADDITIVE else st.sampled_from(range(3, 40, 2)))
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
    assert count_formula(fld, spec) == count_bruteforce(fld, spec)


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


def test_trace_sweep_weil_bound():
    # counts are on the smooth model, so |t_p| <= 2g*sqrt(p) for every d
    for spec, pmax in [
        (curve(ADDITIVE, 9, 1), 400),
        (curve(LINEAR, 7, 1), 400),
        (curve(ADDITIVE, 6, 1), 400),
        (curve(ADDITIVE, 10, 2), 400),
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
    serial = trace_sweep(curve(ADDITIVE, 6, 1), 3, 120, workers=1)
    parallel = trace_sweep(curve(ADDITIVE, 6, 1), 3, 120, workers=2)
    assert serial.samples == parallel.samples
