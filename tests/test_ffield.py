import numpy as np
import pytest

from stjac import _accel
from stjac.cyclo import CycloElt
from stjac.errors import EvenOrTooSmallError, NotPrimeError, PrimeTooLargeError
from stjac.ffield import P_MAX, make_field, reduce_mod
from stjac.primes import prime_range

from oracles import char_eval, enumerated_dlog


def test_make_field_validation():
    with pytest.raises(EvenOrTooSmallError):
        make_field(2)
    with pytest.raises(EvenOrTooSmallError):
        make_field(10)
    with pytest.raises(NotPrimeError):
        make_field(15)


def test_make_field_rejects_p_above_p_max(monkeypatch):
    # nothing of size p is built before the bound check, nor by make_field at all
    def no_table(p, g, m):
        raise AssertionError(f"dlog table requested for p={p}, m={m}")

    monkeypatch.setattr(_accel, "dlog_table", no_table)
    assert P_MAX == 2**31 - 1
    fld = make_field(P_MAX)  # a prime, and still in range
    assert (fld.p, fld.residues) == (P_MAX, {})
    for p in (2**31 + 11, 2**61 - 1):  # primes above the bound
        with pytest.raises(PrimeTooLargeError):
            make_field(p)
    with pytest.raises(PrimeTooLargeError):
        make_field(2**31 + 1)  # above the bound wins over "not prime"


def test_smallest_generator_examples(field):
    # verified by exhaustive order checks below
    assert field(11).generator == 2
    assert field(19).generator == 2
    assert field(3).generator == 2
    assert field(3).dlog_mod(2).tolist() == [-1, 0]  # y <= (p-1)/2 = 1
    assert field(3).dlog(2, 2) == 1
    assert field(7).generator == 3
    assert field(41).generator == 6


def test_generator_is_smallest_primitive_root(field):
    for p in prime_range(3, 100):
        fld = field(p)
        for g in range(2, fld.generator + 1):
            order = next(k for k in range(1, p) if pow(g, k, p) == 1)
            if g < fld.generator:
                assert order < p - 1
            else:
                assert order == p - 1


def test_dlog_is_bijective_and_correct(field):
    # the table holds y <= h = (p-1)/2, equal to the enumerated logs there;
    # PrimeField.dlog reads every unit, p - y as dlog y + h
    for p in (11, 19, 97, 1009):
        fld = field(p)
        dlog = fld.dlog_mod(fld.n)
        assert dlog[0] == -1
        assert np.array_equal(dlog, enumerated_dlog(p, fld.generator)[: (p + 1) // 2])
        exps = sorted(fld.dlog(x, fld.n) for x in range(1, p))
        assert exps == list(range(p - 1))
        for x in (1, 2, p - 1, p // 2, p // 2 + 1):
            assert pow(fld.generator, fld.dlog(x, fld.n), p) == x % p


def test_field_table_immutable(field):
    with pytest.raises(ValueError):
        field(11).dlog_mod(10)[3] = 0


def test_reduce_rational():
    from fractions import Fraction

    assert reduce_mod(Fraction(3, 5), 11) == 3 * pow(5, -1, 11) % 11
    assert reduce_mod(-1, 11) == 10
    with pytest.raises(ZeroDivisionError):
        reduce_mod(Fraction(1, 11), 11)


def test_char_eval_examples(field):
    fld = field(11)
    assert char_eval(fld, 0, 7) == 1
    # -1 is an odd power of the generator, so the quadratic character sees -1
    assert char_eval(fld, 5, 10) == -1
    assert char_eval(fld, 3, 0) == 0
    assert char_eval(fld, 0, 0) == 0


def test_char_multiplicativity_exhaustive(field):
    # exponent-level identity for all p <= 50, full CycloElt check for p <= 11
    for p in prime_range(3, 50):
        fld = field(p)
        n = p - 1
        dlog = [None] + [fld.dlog(x, n) for x in range(1, p)]
        for a in range(n):
            for x in range(1, p):
                for y in range(1, p):
                    lhs = (a * (dlog[x] + dlog[y])) % n
                    rhs = (a * dlog[x * y % p]) % n
                    assert lhs == rhs
    for p in (3, 5, 7, 11):
        fld = field(p)
        for a in range(p - 1):
            for x in range(1, p):
                for y in range(1, p):
                    assert char_eval(fld, a, x) * char_eval(fld, a, y) == char_eval(
                        fld, a, x * y
                    )


def test_orthogonality(field):
    for p in (5, 7, 11, 13, 19):
        fld = field(p)
        for a in range(p - 1):
            total = CycloElt.zero(p - 1)
            for x in range(1, p):
                total = total + char_eval(fld, a, x)
            assert total == (p - 1 if a == 0 else 0)


def test_quadratic_character_is_legendre(field):
    for p in prime_range(3, 50):
        fld = field(p)
        half = (p - 1) // 2
        for x in range(p):
            val = char_eval(fld, half, x)
            euler = pow(x, half, p)
            if x == 0:
                assert val == 0
            elif euler == 1:
                assert val == 1
            else:
                assert euler == p - 1
                assert val == -1


def test_large_field_construction():
    fld = make_field(999983)
    dlog = fld.dlog_mod(fld.n)
    assert dlog.shape == (499992,)  # y <= (p-1)/2
    assert pow(fld.generator, int(dlog[123456]), 999983) == 123456
    assert pow(fld.generator, fld.dlog(999983 - 123456, fld.n), 999983) == 999983 - 123456
