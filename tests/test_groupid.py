import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest

from stjac import _accel, groupid, intlinalg, stmatrix
from stjac.cli import main
from stjac.errors import (
    InconsistentAcrossPrimesError,
    InputError,
    NoGenericPrimeError,
    RelationVerificationError,
    StjacError,
)
from stjac.charsums import conductor
from stjac.ffield import PrimeField
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

import oracles


def test_weight_classes_reference_cases():
    classes, degenerate = weight_classes(build_matrix(11, 10, ADDITIVE))
    assert degenerate == ()
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


def test_torus_dimension_reads_the_matrix_rank_and_an_altered_copy_gets_its_own(monkeypatch):
    m = build_matrix(11, 10, ADDITIVE)
    assert torus_dimension(m) == 2
    calls = []
    monkeypatch.setattr(stmatrix, "rank", lambda rows: calls.append(rows) or intlinalg.rank(rows))
    assert torus_dimension(m) == 2 and calls == []
    # swapping a 0 and a 1 within a row keeps every row half ones; the copy
    # computes its own rank, and the memoized matrix keeps its own
    entries = [list(r) for r in m.entries]
    entries[1][0], entries[1][1] = entries[1][1], entries[1][0]
    bad = dataclasses.replace(m, entries=tuple(tuple(r) for r in entries))
    assert torus_dimension(bad) == oracles.rank([(*row, 1) for row in bad.entries]) - 1 == 3
    assert len(calls) == 1
    assert torus_dimension(bad) == 3 and len(calls) == 1
    assert torus_dimension(m) == 2 and build_matrix(11, 10, ADDITIVE) is m


def test_torus_dimension_raises_on_rows_that_are_not_half_ones():
    # rank - 1 is the dimension only when every row is half ones, which puts
    # the all-ones vector in the column span; a flipped entry breaks that
    m = build_matrix(11, 10, ADDITIVE)
    entries = [list(r) for r in m.entries]
    entries[0][0] ^= 1
    bad = dataclasses.replace(m, entries=tuple(tuple(r) for r in entries))
    assert "row_balance" in bad.violations
    with pytest.raises(StjacError, match="not half ones"):
        torus_dimension(bad)


def test_the_all_ones_vector_adds_no_rank_and_class_counts_decide_the_name():
    # the evidence behind torus_dimension = rank - 1 and a name with no rank,
    # against the HNF rank of tests/oracles.py, at the first generic prime
    named = 0
    for family, ds in ((ADDITIVE, range(3, 61)), (LINEAR, range(3, 42, 2))):
        for d in ds:
            try:
                p = generic_primes(family, d, 1)[0]
                m = build_matrix(p, d, family)
            except StjacError:
                continue
            rows = m.distinct_rows
            ranked = oracles.rank(rows)
            assert m.rank == ranked == oracles.rank([(*row, 1) for row in rows]), (family, d)
            dim = torus_dimension(m)
            classes, _ = weight_classes(m)
            if len(classes) == dim:
                named += 1
                reps = [cl.weight for cl in classes]
                assert oracles.rank(reps + [(1,) * len(reps[0])]) == dim + 1, (family, d)
    assert named > 20


# the st0-curves pool and the benchmark's C_VALUES
ST0_POOL = [(ADDITIVE, d) for d in (6, 8, 9, 10, 12, 14, 16, 18, 20, 24, 30, 36, 40)] + [
    (LINEAR, d) for d in (5, 7, 9, 11, 13)
]
C_VALUES = tuple(Fraction(c) for c in ("1", "2", "3", "5", "-1", "1/2", "-3/5"))


def _clear_st0_memos():
    """Empty every per-process memo that identify_st0 reads."""
    for memo in (build_matrix, stmatrix._relation_plan, stmatrix.split_prime, intlinalg._kernel_hnf,
                 groupid._shared_field, generic_primes, weight_classes):
        memo.cache_clear()


def test_identify_st0_is_the_same_cold_and_warm_on_the_pool():
    cold = {}
    for family, d in ST0_POOL:
        for c in C_VALUES:
            _clear_st0_memos()
            cold[family, d, c] = identify_st0(curve(family, d, c)).to_dict()
    # the first pass builds the 3 matrices of each curve, the second builds none
    for _ in range(2):
        warm = {key: identify_st0(curve(*key)).to_dict() for key in cold}
        assert warm == cold
        assert build_matrix.cache_info().misses == 3 * len(ST0_POOL) == 54


def test_twist_scan_builds_each_table_once_and_every_term_per_call(monkeypatch):
    # the dlog tables hang on the shared field of each generic prime; the
    # Frobenius terms depend on c and are built again on every call, also
    # when the same twist comes back
    tables, terms = [], []
    real_table, real_term = _accel.dlog_table, stmatrix.frobenius_factor

    def table(p, g, m):
        tables.append(p)
        return real_table(p, g, m)

    def term(fld, a, c):
        terms.append((fld.p, a, c))
        return real_term(fld, a, c)

    monkeypatch.setattr(_accel, "dlog_table", table)
    monkeypatch.setattr(stmatrix, "frobenius_factor", term)
    _clear_st0_memos()
    primes = generic_primes(ADDITIVE, 40, 3)
    reps = {p: {math.gcd(a, p - 1) for a in build_matrix(p, 40, ADDITIVE).cols} for p in primes}
    for c in C_VALUES + C_VALUES[:2]:
        terms.clear()
        identify_st0(curve(ADDITIVE, 40, c))
        assert sorted(terms) == sorted((p, g, c) for p in primes for g in reps[p]), c
    assert tables == list(primes)
    for p in primes:
        fld = groupid._shared_field(p)
        assert list(fld.residues) == [40]
        # one fold per representative exponent, whatever the twists
        assert sorted(fld.folds) == sorted(reps[p])
        assert all(len(fold) == conductor(fld, g) for g, fold in fld.folds.items())
    # a field holds only what depends on p, and the folds on a, so nothing
    # keyed by c stays on it
    names = [f.name for f in dataclasses.fields(PrimeField)]
    assert names == ["p", "generator", "residues", "joint", "folds"]


def test_tampered_terms_on_a_warm_call_still_fail(monkeypatch):
    spec = curve(ADDITIVE, 40, 2)
    warm = identify_st0(spec)
    assert identify_st0(spec) == warm
    real = stmatrix.frobenius_factor
    monkeypatch.setattr(stmatrix, "frobenius_factor", lambda fld, a, c: 2 * real(fld, a, c))
    with pytest.raises(RelationVerificationError, match=r"w \* conj\(w\) != p"):
        identify_st0(spec)

    # conj(w_g) keeps w * conj(w) = p, so only the relations can tell: on
    # the orbit of the units (g = gcd of the columns) it maps each w_a to w_-a
    def conjugated(fld, a, c):
        g = math.gcd(fld.p - 1, *build_matrix(fld.p, 40, ADDITIVE).cols)
        return real(fld, a, c).conj() if a == g else real(fld, a, c)

    monkeypatch.setattr(stmatrix, "frobenius_factor", conjugated)
    with pytest.raises(RelationVerificationError, match="failed exact verification at p=41"):
        identify_st0(spec)
    monkeypatch.setattr(stmatrix, "frobenius_factor", real)
    assert identify_st0(spec) == warm


def test_naming_memos_hand_out_one_value_that_no_caller_can_change():
    m = build_matrix(11, 10, ADDITIVE)
    first, second = weight_classes(m), weight_classes(m)
    assert first is second and first[1] == ()
    with pytest.raises(AttributeError):
        first[0].clear()
    with pytest.raises(AttributeError):
        first[1].append(7)
    hits = weight_classes.cache_info().hits
    assert weight_classes(m) is first
    assert weight_classes.cache_info().hits == hits + 1
    assert torus_name(list(first[0]), 2) == torus_name(first[0], 2) == "U(1)_2 x U(1)_2"
    primes = generic_primes(ADDITIVE, 10, 3)
    assert primes is generic_primes(ADDITIVE, 10, 3)
    with pytest.raises(AttributeError):
        primes.append(61)
    assert generic_primes(ADDITIVE, 10, 3) == (11, 31, 41)
    # typed: a float degree is still rejected once the int one is memoized
    with pytest.raises(TypeError):
        generic_primes(ADDITIVE, 10.0, 3)


def test_memoized_st0_values_are_hashable_so_no_list_is_inside():
    for family, d in ST0_POOL:
        primes = generic_primes(family, d, 3)
        hash(primes)
        for p in primes:
            mat = build_matrix(p, d, family)
            hash(weight_classes(mat))
            hash(intlinalg.kernel_basis(mat.distinct_rows))


def test_a_cold_call_ranks_once_and_a_warm_call_not_at_all(monkeypatch):
    # the first prime's matrix computes its rank for right_kernel and keeps
    # it for torus_dimension; torus_name reads no rank, also when the classes
    # are as many as the dimension (not for x^40 + c)
    calls, eliminations = [], []
    real = intlinalg._rational_kernel
    monkeypatch.setattr(stmatrix, "rank", lambda rows: calls.append(rows) or intlinalg.rank(rows))
    monkeypatch.setattr(intlinalg, "_rational_kernel",
                        lambda mat: eliminations.append(mat) or real(mat))
    for family, d, c in ((ADDITIVE, 40, 3), (ADDITIVE, 10, 2), (LINEAR, 11, Fraction(-3, 5))):
        _clear_st0_memos()
        calls.clear()
        eliminations.clear()
        first = identify_st0(curve(family, d, c))
        first_prime = build_matrix(first.primes_used[0], d, family)
        assert calls == [first_prime.distinct_rows], (family, d)
        # one elimination for the kernel and one for the rank
        assert len(eliminations) == 2, (family, d)
        calls.clear()
        eliminations.clear()
        assert identify_st0(curve(family, d, c)) == first
        assert calls == eliminations == [], (family, d)
    assert not hasattr(groupid, "rank") and not hasattr(intlinalg, "_rank")


def test_torus_name_grammar():
    assert torus_name([WeightClass((0, 1), 2, 2)], 1) == "U(1)_2"
    assert (
        torus_name([WeightClass((0, 1, 0, 1), 1, 1)], 1) == "U(1)"
    )
    # class count different from dimension falls back to the abstract torus
    classes = [WeightClass((0, 0, 1, 1, 0, 0), 1, 1)] * 4
    assert torus_name(classes, 3) == "U(1) x U(1) x U(1)"


def test_generic_primes():
    assert generic_primes(ADDITIVE, 10, 3) == (11, 31, 41)
    assert generic_primes(ADDITIVE, 9, 3) == (19, 37, 73)
    assert generic_primes(LINEAR, 7, 3) == (13, 37, 61)
    # M = 19998: the one candidate below the bound, 19999 = 7 * 2857, is not prime
    with pytest.raises(NoGenericPrimeError, match="only 0 generic primes below 20000"):
        generic_primes(ADDITIVE, 9999, 3)


def test_prime_counts_are_checked_as_input():
    # a count that is not an int of at least 1 is an InputError, also
    # through identify_st0, which asks generic_primes first
    for count in (0, -1, 2.5):
        with pytest.raises(InputError, match="an int of at least 1"):
            generic_primes(ADDITIVE, 10, count)
        with pytest.raises(InputError, match="an int of at least 1"):
            identify_st0(curve(ADDITIVE, 10, 1), count)


def test_generic_primes_equal_the_odd_number_scan():
    for family, ds in ((ADDITIVE, range(1, 61)), (LINEAR, range(3, 42, 2))):
        for d in ds:
            spec = CurveSpec(family, d)
            scan = [p for p in range(3, 20001, 2) if is_generic_prime(p, spec) and is_prime(p)]
            for count in range(1, 6):
                if len(scan) >= count:
                    assert generic_primes(family, d, count) == tuple(scan[:count]), (family, d, count)
                else:
                    with pytest.raises(NoGenericPrimeError):
                        generic_primes(family, d, count)


def test_generic_primes_stop_at_the_last_prime_asked_for(monkeypatch):
    tested = []

    def counting_is_prime(p):
        tested.append(p)
        return is_prime(p)

    monkeypatch.setattr(groupid, "is_prime", counting_is_prime)
    # a memoized call tests nothing; x^6 + c may be in the memo from an earlier test
    generic_primes.cache_clear()
    assert generic_primes(ADDITIVE, 6, 3) == (7, 13, 19)
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
                assert degenerate == (), (family, d, p)
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


# identify_st0(curve(family, d, 3)).to_dict() recorded before the relation
# checks were batched and the ranks became modular: dimension, primes used,
# class count and the SHA-256 of json.dumps(to_dict(), sort_keys=True)
LARGE_ST0 = {
    (ADDITIVE, 420): (
        48, [421, 2521, 3361], 101,
        "161a077d6ac78b18510472ec3007fc83fa2e40222f4e7524967d3e65ca852a58",
    ),
    (LINEAR, 211): (
        24, [421, 2521, 3361], 49,
        "b7b855d9dffdf345c88a91c8b45b432c71679994d9c3cfcff22a8d896accb324",
    ),
}


@pytest.mark.parametrize("family, d", sorted(LARGE_ST0))
def test_large_curves_keep_their_torus(deadline, family, d):
    # about 1 s each; the unbatched checks and the HNF ranks took 3.2 s
    # and 1.2 s
    dim, primes, classes, digest = LARGE_ST0[family, d]
    with deadline(20):
        doc = identify_st0(curve(family, d, 3)).to_dict()
    assert doc["name"] == " x ".join(["U(1)"] * dim) and doc["dimension"] == dim
    assert doc["primes_used"] == primes and len(doc["classes"]) == classes
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest
