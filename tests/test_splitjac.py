import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from stjac.cyclo import CycloElt
from stjac.errors import EvenInputError
from stjac.ffield import reduce_mod
from stjac.pointcount import ADDITIVE, LINEAR, CurveSpec
from stjac.primes import factorize, prime_range
from stjac.splitjac import (
    CurveTerm,
    bracket_coeff,
    lockwood_check,
    lower_genus_curve,
    split_full,
    split_odd,
    split_refined,
)

from oracles import count_affine, power, split_by_recursion

# the benchmark's twists
C_VALUES = tuple(Fraction(c) for c in ("1", "2", "3", "5", "-1", "1/2", "-3/5"))


def _shape(fact):
    return [(f.family, f.d, e) for f, e in fact.factors]


def test_split_even():
    # even g: Jac(x^(g+1) + c)^2, the even lemma, which split_full applies
    assert _shape(split_full(4)) == [(ADDITIVE, 5, 2)]
    assert _shape(split_full(2)) == [(ADDITIVE, 3, 2)]
    assert _shape(split_full(8)) == [(ADDITIVE, 9, 2)]
    for g in range(2, 101, 2):
        assert _shape(split_full(g)) == [(ADDITIVE, g + 1, 2)]


def test_split_odd():
    assert _shape(split_odd(5)) == [(ADDITIVE, 6, 1), (LINEAR, 7, 1)]
    assert _shape(split_odd(3)) == [(ADDITIVE, 4, 1), (LINEAR, 5, 1)]
    with pytest.raises(EvenInputError):
        split_odd(4)
    with pytest.raises(EvenInputError):
        split_odd(1)


def test_split_full_reference_cases():
    assert _shape(split_full(4)) == [(ADDITIVE, 5, 2)]
    assert _shape(split_full(5)) == [(ADDITIVE, 3, 2), (LINEAR, 7, 1)]
    assert _shape(split_full(9)) == [(ADDITIVE, 5, 2), (LINEAR, 11, 1)]
    assert _shape(split_full(11)) == [(ADDITIVE, 3, 2), (LINEAR, 13, 1), (LINEAR, 7, 1)]
    # g+1 a power of two leaves a genus-0 additive factor
    assert _shape(split_full(3)) == [(ADDITIVE, 1, 2), (LINEAR, 5, 1), (LINEAR, 3, 1)]


def test_split_full_genus_conservation_and_recursion():
    for g in range(2, 65):
        fact = split_full(g)
        assert fact.genus_total() == g
        assert fact.factors == split_by_recursion(g).factors


def test_factorization_rejects_genus_mismatch():
    from stjac.splitjac import IsogenyFactorization

    with pytest.raises(ValueError):
        IsogenyFactorization(
            source=CurveSpec(ADDITIVE, 10, 1),
            factors=((CurveSpec(ADDITIVE, 5, 1), 1),),
        )


def test_bracket_coeffs_reference_rows():
    rows = {
        3: [1, -3],
        5: [1, -5, 5],
        7: [1, -7, 14, -7],
        9: [1, -9, 27, -30, 9],
        11: [1, -11, 44, -77, 55, -11],
    }
    for g, want in rows.items():
        got = [(-1) ** k * bracket_coeff(g, k) for k in range((g - 1) // 2 + 1)]
        assert got == want


def test_lower_genus_curve_structure():
    c7 = lower_genus_curve(7, 1)
    assert c7.genus == 3
    assert len(c7.terms) == 4
    assert [t.coeff for t in c7.terms] == [1, -7, 14, -7]
    assert [t.zeta_exp for t in c7.terms] == [0, 1, 2, 3]
    assert [t.x_exp for t in c7.terms] == [7, 5, 3, 1]
    assert [t.c_exp for t in c7.terms] == [Fraction(k, 7) for k in range(4)]

    c3 = lower_genus_curve(3, 0)
    assert [t.coeff for t in c3.terms] == [1, -3]
    assert [t.zeta_exp for t in c3.terms] == [0, 0]

    with pytest.raises(EvenInputError):
        lower_genus_curve(4, 0)
    with pytest.raises(ValueError):
        lower_genus_curve(7, 2)


def test_lower_genus_zeta_exponents_follow_binomial_formula():
    # the k-th term carries zeta^(ik); for g = 5 and 9 that differs from a
    # naive reading of small tables (which show zeta^i resp. zeta^(5i) on
    # the last term), and the exact identity check below adjudicates
    assert [t.zeta_exp for t in lower_genus_curve(5, 1).terms] == [0, 1, 2]
    assert [t.zeta_exp for t in lower_genus_curve(9, 1).terms] == [0, 1, 2, 3, 4]
    assert [t.zeta_exp for t in lower_genus_curve(11, 1).terms] == [0, 1, 2, 3, 4, 5]


def test_lockwood_identity_all_small_genera():
    for g in (3, 5, 7, 9, 11):
        for i in (0, 1):
            for c in (1, 2):
                assert lockwood_check(lower_genus_curve(g, i, c))


def test_lockwood_identity_every_odd_genus_to_201(deadline):
    # large g is where a float64 evaluation of the identity cancels away
    with deadline():
        for g in range(3, 202, 2):
            for i in (0, 1):
                for c in (1, Fraction(-3, 5)):
                    assert lockwood_check(lower_genus_curve(g, i, c)), (g, i, c)


def _with_term(curve, k, **changes):
    """`curve` with its k-th term changed (dataclasses.replace on both)."""
    bad = dataclasses.replace(curve.terms[k], **changes)
    return dataclasses.replace(curve, terms=curve.terms[:k] + (bad,) + curve.terms[k + 1 :])


def test_lockwood_detects_any_coefficient_perturbation():
    for g in (3, 5, 9, 41):
        for i in (0, 1):
            curve = lower_genus_curve(g, i, 2)
            for k, term in enumerate(curve.terms):
                for coeff in (term.coeff + 1, term.coeff - 1):
                    assert not lockwood_check(_with_term(curve, k, coeff=coeff)), (g, i, k)


def test_lockwood_detects_any_exponent_change():
    for g in (3, 5, 9, 41):
        for i in (0, 1):
            curve = lower_genus_curve(g, i, 2)
            for k, term in enumerate(curve.terms):
                for changes in (
                    {"zeta_exp": (term.zeta_exp + 1) % g},
                    {"c_exp": term.c_exp + Fraction(1, g)},
                    {"x_exp": term.x_exp + 2},
                ):
                    assert not lockwood_check(_with_term(curve, k, **changes)), (g, i, k)
            # a missing term, or an extra one that continues the pattern
            # (x^-1 has no place in Z[t]), is not the curve either
            assert not lockwood_check(dataclasses.replace(curve, terms=curve.terms[:-1]))
            k = len(curve.terms)
            extra = CurveTerm(x_exp=g - 2 * k, coeff=1, zeta_exp=i * k % g, c_exp=Fraction(k, g))
            assert not lockwood_check(dataclasses.replace(curve, terms=curve.terms + (extra,)))


def test_lockwood_rhs_agrees_at_a_point():
    # an oracle independent of the reduction to Z[t]: with c = r^g the
    # identity holds in Z[zeta_g] at every integer x, term by term as built
    for g in (3, 5, 9):
        for i in (0, 1):
            for r in (1, 2, -3):
                curve = lower_genus_curve(g, i, r**g)
                gamma = CycloElt.zeta_pow(g, i) * r
                for x in (2, -5):
                    rhs = CycloElt.zero(g)
                    for t in curve.terms:
                        # coeff zeta^(ik) c^(k/g) x^(2k+1) (x^2 + gamma)^(g-2k)
                        scale = t.coeff * r ** int(t.c_exp * g) * x ** (g + 1 - t.x_exp)
                        factor = power(gamma + x * x, t.x_exp)
                        rhs = rhs + CycloElt.zeta_pow(g, t.zeta_exp) * factor * scale
                    assert rhs == CycloElt.from_int(g, x ** (2 * g + 1) + r**g * x)


def test_split_refined():
    fact = split_refined(3)
    kinds = [type(f).__name__ for f, _ in fact.factors]
    assert kinds == ["CurveSpec", "LowerGenusCurve", "LowerGenusCurve"]
    e = fact.factors[0][0]
    assert (e.family, e.d) == (LINEAR, 3)
    assert fact.genus_total() == 3

    fact5 = split_refined(5, 2)
    assert fact5.source.d == 11
    assert fact5.genus_total() == 5
    assert all(f.genus == 2 for f, _ in fact5.factors[1:])

    for g in (3, 5, 7, 9, 11):
        assert split_refined(g).genus_total() == g
    with pytest.raises(EvenInputError):
        split_refined(4)


def _primitive_root(p):
    """The smallest primitive root mod the prime p."""
    qs = factorize(p - 1)
    return next(h for h in range(2, p) if all(pow(h, (p - 1) // q, p) != 1 for q in qs))


def _trace(curve, zeta, root, p):
    """t_p of y^2 = F(x) for F of odd degree (one point at infinity), read at
    p with zeta_g -> zeta and c^(1/g) -> root; a CurveSpec here is linear."""
    if isinstance(curve, CurveSpec):  # x^d + c*x
        coeffs = [0, reduce_mod(curve.c, p)] + [0] * (curve.d - 2) + [1]
    else:
        coeffs = [0] * (curve.g + 1)
        for t in curve.terms:
            coeffs[t.x_exp] = (t.coeff * pow(zeta, t.zeta_exp, p)
                               * pow(root, int(t.c_exp * curve.g), p))
    return p - count_affine(coeffs, p)


def test_refined_split_traces_add_at_split_primes(deadline):
    # the second method on Frobenius: t_p(x^(2g+1) + cx) = t_p(x^3 + cx) +
    # t_p(C_0) + t_p(C_1) wherever C_0 and C_1 are defined over F_p, i.e.
    # p = 1 mod g and c a g-th power mod p.  The image of zeta_g cannot
    # matter: it has odd order, so x -> lambda*x with lambda^2 = zeta^m and
    # lambda^g = 1 makes y^2 = zeta^j D_g(x, zeta^m c^(1/g)) isomorphic to C_0
    # over F_p.  So this checks the x and c parts of each term, and
    # lockwood_check the zeta exponents.
    cases = 0
    with deadline(30):
        for g in range(3, 16, 2):
            for p in prime_range(g + 1, 2999):
                if p % g != 1:
                    continue
                zeta = pow(_primitive_root(p), (p - 1) // g, p)
                x = np.arange(p, dtype=np.int64)
                gth_powers = np.ones(p, dtype=np.int64)
                for _ in range(g):
                    gth_powers = gth_powers * x % p
                for c in C_VALUES:
                    roots = np.flatnonzero(gth_powers == reduce_mod(c, p))
                    if not roots.size:
                        continue
                    root = int(roots[0])  # the smallest g-th root of c
                    fact = split_refined(g, c)
                    want = _trace(fact.source, zeta, root, p)
                    got = sum(e * _trace(f, zeta, root, p) for f, e in fact.factors)
                    assert got == want, (g, p, c)
                    cases += 1
    assert cases == 1690


def test_serialization_roundtrip():
    import json

    payload = json.loads(json.dumps(split_full(5, 2).to_dict()))
    assert payload["source"]["d"] == 12
    assert [f["d"] for f in payload["factors"]] == [3, 7]
    refined = json.loads(json.dumps(split_refined(5).to_dict()))
    assert [f["type"] for f in refined["factors"]] == [
        "curve",
        "lower_genus",
        "lower_genus",
    ]


def test_pretty_forms():
    assert "Jac(y^2 = x^12 + 1) ~" in split_full(5).pretty()
    text = lower_genus_curve(7, 1).pretty()
    assert text.startswith("y^2 = x^7")
    assert "14*zeta^2" in text
