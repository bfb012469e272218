import dataclasses
import json

import pytest

from stjac import groupid
from stjac.cli import main
from stjac.errors import InconsistentAcrossPrimesError, NoGenericPrimeError, StjacError
from stjac.groupid import (
    TorusId,
    generic_primes,
    identify_st0,
    torus_dimension,
    torus_name,
    weight_classes,
    WeightClass,
)
from stjac.pointcount import ADDITIVE, LINEAR, CurveSpec, curve, is_generic_prime
from stjac.primes import is_prime
from stjac.splitjac import split_full
from stjac.stmatrix import build_matrix


def test_weight_classes_reference_cases():
    classes, degenerate = weight_classes(build_matrix(11, 10, ADDITIVE))
    assert degenerate == []
    assert [(cl.plus, cl.minus) for cl in classes] == [(2, 2), (2, 2)]
    assert {cl.weight for cl in classes} == {(0, 0, 1, 1), (0, 1, 0, 1)}

    classes, _ = weight_classes(build_matrix(19, 9, ADDITIVE))
    assert [(cl.plus, cl.minus) for cl in classes] == [(1, 1)] * 4
    # the four weights satisfy w1 + w4 = w2 + w3, so only three are independent
    w = sorted(cl.weight for cl in classes)
    assert [a + b for a, b in zip(w[0], w[3])] == [a + b for a, b in zip(w[1], w[2])]


def test_weight_classes_plus_side_starts_at_zero():
    for p, d, family in [(11, 10, ADDITIVE), (17, 16, ADDITIVE), (13, 7, LINEAR)]:
        classes, _ = weight_classes(build_matrix(p, d, family))
        for cl in classes:
            assert cl.weight[0] == 0
            assert cl.plus == cl.minus


def test_weight_classes_cover_all_columns():
    for p, d, family in [(11, 10, ADDITIVE), (19, 9, ADDITIVE), (41, 20, ADDITIVE)]:
        m = build_matrix(p, d, family)
        classes, degenerate = weight_classes(m)
        assert sum(cl.plus + cl.minus for cl in classes) + len(degenerate) == len(m.cols)


def test_weight_classes_name_the_unpaired_class():
    # dropping the last column (a minus side, first entry 1) leaves its
    # class with one plus column too many
    m = build_matrix(31, 10, ADDITIVE)
    bad = dataclasses.replace(m, cols=m.cols[:-1], entries=tuple(r[:-1] for r in m.entries))
    with pytest.raises(StjacError) as exc:
        weight_classes(bad)
    assert str(exc.value) == "unpaired weight class (0, 1, 0, 0, 1, 1, 0, 1): plus=2, minus=1"


def test_torus_dimension_reference_cases():
    assert torus_dimension(build_matrix(11, 10, ADDITIVE)) == 2
    assert torus_dimension(build_matrix(19, 9, ADDITIVE)) == 3
    assert torus_dimension(build_matrix(7, 6, ADDITIVE)) == 1


def test_torus_name_grammar():
    assert torus_name([WeightClass((0, 1), 2, 2)], 1) == "U(1)_2"
    assert (
        torus_name([WeightClass((0, 1, 0, 1), 1, 1)], 1) == "U(1)"
    )
    # class count different from dimension falls back to the abstract torus
    classes = [WeightClass((0, 0, 1, 1, 0, 0), 1, 1)] * 4
    assert torus_name(classes, 3) == "U(1) x U(1) x U(1)"


def test_generic_primes():
    assert generic_primes(ADDITIVE, 10, 3) == [11, 31, 41]
    assert generic_primes(ADDITIVE, 9, 3) == [19, 37, 73]
    assert generic_primes(LINEAR, 7, 3) == [13, 37, 61]
    with pytest.raises(NoGenericPrimeError):
        generic_primes(ADDITIVE, 9, 3, bound=30)


def test_generic_primes_equal_the_odd_number_scan():
    for family, ds in ((ADDITIVE, range(1, 61)), (LINEAR, range(3, 42, 2))):
        for d in ds:
            spec = CurveSpec(family, d)
            scan = [p for p in range(3, 20001, 2) if is_generic_prime(p, spec) and is_prime(p)]
            for count in range(1, 6):
                if len(scan) >= count:
                    assert generic_primes(family, d, count) == scan[:count], (family, d, count)
                else:
                    with pytest.raises(NoGenericPrimeError):
                        generic_primes(family, d, count)


def test_generic_primes_stop_at_the_last_prime_asked_for(monkeypatch):
    tested = []

    def counting_is_prime(p):
        tested.append(p)
        return is_prime(p)

    monkeypatch.setattr(groupid, "is_prime", counting_is_prime)
    assert generic_primes(ADDITIVE, 6, 3) == [7, 13, 19]
    assert tested == [7, 13, 19]


def test_identify_reference_values():
    assert identify_st0(curve(ADDITIVE, 10, 1)).name == "U(1)_2 x U(1)_2"
    assert identify_st0(curve(ADDITIVE, 9, 1)).name == "U(1) x U(1) x U(1)"
    assert identify_st0(curve(ADDITIVE, 12, 1)).name == "U(1)_3 x U(1)_2"
    tid = identify_st0(curve(ADDITIVE, 8, 1))
    assert tid.name == "U(1)_2 x U(1)"
    assert tid.dimension == 2


def test_identify_c_independent():
    names = {str(identify_st0(curve(ADDITIVE, 10, c)).name) for c in (1, 2, 3, -1)}
    assert names == {"U(1)_2 x U(1)_2"}
    names = {str(identify_st0(curve(ADDITIVE, 9, c)).name) for c in (1, 2, -1)}
    assert names == {"U(1) x U(1) x U(1)"}


def test_identify_dimension_bounds():
    for family, ds in ((ADDITIVE, (6, 8, 9, 10, 12)), (LINEAR, (5, 7, 9))):
        for d in ds:
            tid = identify_st0(curve(family, d, 1))
            assert 1 <= tid.dimension <= curve(family, d, 1).genus


def test_squared_jacobian_has_same_dimension():
    # Jac(y^2 = x^(2g+2) + c) ~ Jac(y^2 = x^(g+1) + c)^2 for even g, so the
    # torus dimension must agree between the two curves
    for g in (2, 4, 6, 8):
        big = identify_st0(curve(ADDITIVE, 2 * g + 2, 1))
        half = identify_st0(curve(ADDITIVE, g + 1, 1))
        assert big.dimension == half.dimension


def test_even_degree_pattern_small_genus():
    # doubled-weight classes, one per dimension, for g = 2, 4, 6
    assert identify_st0(curve(ADDITIVE, 6, 1)).name == "U(1)_2"
    assert identify_st0(curve(ADDITIVE, 14, 1)).name == "U(1)_2 x U(1)_2 x U(1)_2"


def test_genus8_anomaly_is_three_dimensional():
    # x^18 + c splits through x^9 + c (squared), whose torus is 3-dimensional
    # with 4 weight classes, so the doubled pattern breaks at genus 8
    tid = identify_st0(curve(ADDITIVE, 18, 1))
    assert tid.dimension == 3
    assert tid.name == "U(1) x U(1) x U(1)"
    assert sorted((cl.plus, cl.minus) for cl in tid.classes) == [(2, 2)] * 4


def test_split_factors_bound_the_source_torus():
    # Jac(x^(2g+2) + c) ~ prod A_i^e_i makes ST0 a subtorus of prod ST0(A_i)
    # that maps onto each factor, so the Kani-Rosen splitting and the
    # Jacobi-sum tori must satisfy max dim_i <= dim <= sum dim_i
    dims = {}

    def dim(spec):
        if spec.genus == 0:  # x + c and x^2 + c have no torus
            return 0
        key = (spec.family, spec.d)
        if key not in dims:
            dims[key] = identify_st0(spec).dimension
        return dims[key]

    for g in range(2, 31):
        parts = [dim(factor) for factor, _ in split_full(g, 1).factors]
        whole = dim(curve(ADDITIVE, 2 * g + 2, 1))
        assert max(parts) <= whole <= sum(parts), (g, parts, whole)


def test_identify_cross_prime_stability_wide():
    # identify_st0 names the torus from its first prime only; each generic
    # prime's own classes, dimension and name must give the same answer
    for family, ds in (
        (ADDITIVE, range(3, 25)),
        (LINEAR, (3, 5, 7, 9, 11, 13)),
    ):
        for d in ds:
            tid = identify_st0(curve(family, d, 1))
            assert len(tid.primes_used) == 3
            want = sorted((cl.plus, cl.minus) for cl in tid.classes)
            for p in tid.primes_used:
                mat = build_matrix(p, d, family)
                classes, degenerate = weight_classes(mat)
                dim = torus_dimension(mat)
                assert degenerate == [], (family, d, p)
                assert sorted((cl.plus, cl.minus) for cl in classes) == want, (family, d, p)
                assert dim == tid.dimension, (family, d, p)
                assert torus_name(classes, dim) == tid.name, (family, d, p)


def test_rows_that_differ_across_primes_raise_and_exit_2(monkeypatch, capsys):
    # x^10+c uses the primes 11, 31, 41; at 31 hand back the genuine (and
    # valid) carry matrix of x^5+c, whose distinct rows differ
    def build(p, d, family=ADDITIVE):
        return build_matrix(p, 5 if p == 31 else d, family)

    monkeypatch.setattr(groupid, "build_matrix", build)
    with pytest.raises(InconsistentAcrossPrimesError, match="prime 31"):
        identify_st0(curve(ADDITIVE, 10, 1))
    assert main(["st0", "--curve", "x^10+c"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stjac: InconsistentAcrossPrimesError: prime 31 ")


def test_identify_regression_anchors():
    # cross-checked against the known low-genus classifications: x^5 + c has
    # an absolutely simple CM Jacobian surface, x^7 + c a simple CM threefold
    assert identify_st0(curve(ADDITIVE, 5, 1)).name == "U(1) x U(1)"
    assert identify_st0(curve(ADDITIVE, 7, 1)).name == "U(1) x U(1) x U(1)"
    assert identify_st0(curve(ADDITIVE, 11, 1)).dimension == 5
    # genus 10 restores the doubled even-degree pattern broken at genus 8
    assert identify_st0(curve(ADDITIVE, 22, 1)).name == "U(1)_2 x U(1)_2 x U(1)_2 x U(1)_2 x U(1)_2"
    assert identify_st0(curve(LINEAR, 7, 1)).name == "U(1)_3"
    assert identify_st0(curve(LINEAR, 9, 1)).name == "U(1)_2 x U(1)_2"


def test_torus_id_serializes():
    tid = identify_st0(curve(ADDITIVE, 10, 1))
    payload = json.loads(json.dumps(tid.to_dict()))
    assert payload["name"] == "U(1)_2 x U(1)_2"
    assert payload["dimension"] == 2
    assert payload["primes_used"] == [11, 31, 41]
    assert all(
        set(cl) == {"weight", "plus", "minus"} for cl in payload["classes"]
    )
    assert isinstance(tid, TorusId)
