import cmath
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stjac.cyclo import CycloElt, cyclotomic_poly, is_root_of_unity
from stjac.errors import NotCoprimeError
from stjac.primes import euler_phi

from oracles import embed, power


def test_cyclotomic_poly_base_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_degree_and_product():
    from stjac.primes import divisors

    for n in range(1, 50):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
    # the coefficients themselves, against sympy
    for n in range(1, 200):
        ref = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X).all_coeffs()[::-1]
        assert list(cyclotomic_poly(n)) == ref, n
    # prod over d | n of Phi_d = x^n - 1
    for n in (6, 10, 18, 30):
        prod = [1]
        for d in divisors(n):
            phi = list(cyclotomic_poly(d))
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == expected


def test_zeta_has_exact_order():
    # zeta_n^k is the product of k copies of zeta_n, and 1 exactly when n | k
    for n in (1, 2, 6, 10, 12, 18):
        z, w = CycloElt.zeta_pow(n, 1), CycloElt.from_int(n, 1)
        for k in range(2 * n + 1):
            assert w == CycloElt.zeta_pow(n, k)
            assert (w == 1) == (k % n == 0)
            w = w * z


def test_basic_arithmetic():
    z = CycloElt.zeta_pow(10, 1)
    assert CycloElt.zeta_pow(10, 5) == -1 and z * CycloElt.zeta_pow(10, 4) == -1
    assert z + 2 == 2 + z == CycloElt.from_int_coeffs(10, [2, 1])
    assert z * 0 == 0 == CycloElt.zero(10)
    assert CycloElt.from_int(10, 3) * 4 == 12


def test_only_int_scalars():
    z = CycloElt.zeta_pow(10, 1)
    half = Fraction(1, 2)
    for op in (
        lambda: z * half, lambda: half * z, lambda: z + half,
        lambda: half + z, lambda: z - half, lambda: half - z,
        lambda: z / 2, lambda: z * 0.5, lambda: -z, lambda: z**2,
    ):
        with pytest.raises(TypeError):
            op()
    assert z != half and CycloElt.from_int(10, 1) != Fraction(1)


def test_equality_with_an_int_is_equality_with_its_element():
    # the int k is (k, 0, ..., 0) at every conductor, the degree-1 cases
    # n = 1 and 2 included (zeta_1 = 1, zeta_2 = -1)
    rng = random.Random(38)
    for n in range(1, 61):
        phi = euler_phi(n)
        elements = [CycloElt.zeta_pow(n, k) for k in range(n)]
        elements += [CycloElt.from_int(n, k) for k in (-3, -1, 0, 1, 2, 7)]
        elements += [CycloElt.from_int_coeffs(n, [rng.randrange(-2, 3) for _ in range(phi)])
                     for _ in range(5)]
        for w in elements:
            for k in (-3, -1, 0, 1, 2, 7, True):
                want = w.coeffs == CycloElt.from_int(n, k).coeffs
                assert (w == k) is want and (k == w) is want and (w != k) is not want, (n, w, k)
    assert CycloElt.zeta_pow(1, 1) == 1 and CycloElt.zeta_pow(2, 1) == -1
    assert CycloElt.zeta_pow(3, 1) != 1 and CycloElt.zeta_pow(4, 2) == -1


def test_conj_is_ring_involution():
    rng = random.Random(2)
    n = 12
    elts = [
        CycloElt.from_int_coeffs(n, [rng.randrange(-3, 4) for _ in range(euler_phi(n))])
        for _ in range(6)
    ]
    for w in elts:
        assert w.conj().conj() == w
    for w, v in zip(elts, elts[1:]):
        assert (w * v).conj() == w.conj() * v.conj()
        assert (w + v).conj() == w.conj() + v.conj()


def test_embed_basics():
    z = CycloElt.zeta_pow(10, 1)
    assert abs(embed(z, 1) - cmath.exp(1j * cmath.pi / 5)) < 1e-12
    w = CycloElt.from_int(10, 7)
    assert abs(embed(w, 3) - 7) < 1e-12
    with pytest.raises(NotCoprimeError):
        embed(z, 5)


def test_embed_respects_ring_ops():
    rng = random.Random(3)
    n = 18
    for _ in range(10):
        w = CycloElt.from_int_coeffs(n, [rng.randrange(-2, 3) for _ in range(euler_phi(n))])
        v = CycloElt.from_int_coeffs(n, [rng.randrange(-2, 3) for _ in range(euler_phi(n))])
        for k in (1, 5, 7):
            assert abs(embed(w * v, k) - embed(w, k) * embed(v, k)) < 1e-9
            assert abs(embed(w + v, k) - (embed(w, k) + embed(v, k))) < 1e-9
        assert abs(embed(w.conj(), 1) - embed(w, 1).conjugate()) < 1e-12


def test_lift_preserves_value():
    z6 = CycloElt.zeta_pow(6, 1)
    assert z6.lift(12) == CycloElt.zeta_pow(12, 2)
    w = 2 * z6 + -3
    assert abs(embed(w.lift(12), 1) - embed(w, 1)) < 1e-12
    with pytest.raises(ValueError):
        z6.lift(10)


def test_root_of_unity_detection():
    assert is_root_of_unity(CycloElt.from_int(10, 1)) == 1
    assert is_root_of_unity(CycloElt.from_int(10, -1)) == 2
    assert is_root_of_unity(CycloElt.zeta_pow(10, 1)) == 10
    # -zeta_18 = zeta_18^10 already lies in mu_18: order 9, not lcm(2,18)
    assert is_root_of_unity(-1 * CycloElt.zeta_pow(18, 1)) == 9
    # odd conductor: -zeta_9 genuinely needs the factor of 2
    assert is_root_of_unity(-1 * CycloElt.zeta_pow(9, 1)) == 18
    assert is_root_of_unity(1 + CycloElt.zeta_pow(10, 1)) is None
    assert is_root_of_unity(CycloElt.zero(8)) is None
    assert is_root_of_unity(CycloElt.from_int(6, 2)) is None


def test_root_of_unity_exhaustive_small_conductor():
    import math

    for n in (6, 9, 12):
        bound = math.lcm(2, n)
        for s in (1, -1):
            for k in range(n):
                w = s * CycloElt.zeta_pow(n, k)
                order = is_root_of_unity(w)
                assert order is not None
                assert power(w, order) == 1
                for m in range(1, order):
                    assert power(w, m) != 1
                assert bound % order == 0


# -- is_root_of_unity against exponentiation -----------------------------


def _order_by_exponentiation(w):
    """Least N with w^N = 1, or None: one power w^lcm(2, n), then a walk
    down the prime divisors of lcm(2, n)."""
    import math

    from stjac.primes import factorize

    if w == 0:
        return None
    bound = math.lcm(2, w.n)
    if power(w, bound) != 1:
        return None
    order = bound
    for q in factorize(bound):
        while order % q == 0 and power(w, order // q) == 1:
            order //= q
    return order


def test_root_of_unity_table_matches_exponentiation():
    # 105: Phi_105 has a coefficient -2
    for n in (*range(1, 61), 105):
        for k in range(n):
            z = CycloElt.zeta_pow(n, k)
            for w in (z, -1 * z):
                assert is_root_of_unity(w) == _order_by_exponentiation(w), (n, k, w)


def test_root_of_unity_table_rejects_non_roots():
    rng = random.Random(4)
    for n in (*range(1, 61), 105):
        assert is_root_of_unity(CycloElt.zero(n)) is None
        assert is_root_of_unity(CycloElt.from_int(n, 2)) is None
        if n not in (1, 2, 3):
            assert is_root_of_unity(1 + CycloElt.zeta_pow(n, 1)) is None
        for _ in range(3):
            w = CycloElt.from_int_coeffs(n, [rng.randrange(-2, 3) for _ in range(euler_phi(n))])
            assert is_root_of_unity(w) == _order_by_exponentiation(w), (n, w)


# -- Z[zeta] representation: int coordinates, checked against sympy -------

_CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 30, 105)


@st.composite
def _int_elements(draw, pair=False):
    n = draw(st.sampled_from(_CONDUCTORS))
    coeffs = st.lists(
        st.integers(-6, 6), min_size=euler_phi(n), max_size=euler_phi(n)
    )
    a = CycloElt.from_int_coeffs(n, draw(coeffs))
    return (a, CycloElt.from_int_coeffs(n, draw(coeffs))) if pair else a


_X = sympy.Symbol("x")


def _sympy_poly(w):
    """w's coordinates as a sympy polynomial over ZZ (dense arithmetic, no
    expansion of expressions)."""
    return sympy.Poly([int(c) for c in reversed(w.coeffs)], _X, domain="ZZ")


def _sympy_coords(expr, n):
    """Ascending coefficients of (expr mod Phi_n), padded to phi(n): sympy's
    remainder over ZZ, exact as Phi_n is monic (over QQ it takes seconds at
    n = 840)."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)
    rem = sympy.Poly(expr, _X, domain="ZZ").rem(phi, auto=False)
    out = [int(c) for c in reversed(rem.all_coeffs())]
    return out + [0] * (euler_phi(n) - len(out))


def _all_int(w):
    return all(type(c) is int for c in w.coeffs)


@settings(max_examples=60, deadline=None)
@given(_int_elements(pair=True))
def test_product_has_int_coords_and_matches_sympy(pair):
    a, b = pair
    prod = a * b
    assert _all_int(prod)
    assert list(prod.coeffs) == _sympy_coords(_sympy_poly(a) * _sympy_poly(b), a.n)
    assert _all_int(a + b) and _all_int(a + -1 * b) and _all_int(3 * a)


@settings(max_examples=40, deadline=None)
@given(_int_elements(), st.integers(1, 60), st.integers(1, 3))
def test_galois_and_lift_have_int_coords_and_match_sympy(a, u, step):
    import math

    n = a.n
    u = next(v for v in range(u, u + n + 1) if math.gcd(v, n) == 1)
    image = a.galois(u)
    assert _all_int(image)
    # x^u = x^(u mod n) modulo x^n - 1, which Phi_n divides: u may pass n,
    # and the oracle folds each power of the composition below x^n before
    # sympy divides by Phi_n (at n = 105 the unfolded degree reaches 4,900)
    composed = _sympy_poly(a).compose(sympy.Poly(_X ** (u % n), _X))
    folded = sum(int(c) * _X ** (e % n) for (e,), c in composed.terms())
    assert list(image.coeffs) == _sympy_coords(folded, n)
    lifted = a.lift(n * step)
    assert _all_int(lifted)
    assert list(lifted.coeffs) == _sympy_coords(
        _sympy_poly(a).compose(sympy.Poly(_X**step, _X)), n * step
    )


def test_from_int_coeffs_reduces_any_degree_like_sympy():
    # degree 3n - 1, so every input folds mod x^n - 1 (odd n) or
    # x^(n/2) + 1 (even n) before the division; Phi_105 has a coefficient -2
    # and Phi_385 one of magnitude 3, and Phi_734 and Phi_794 (2 times a
    # prime) have n/2 nonzero terms
    rng = random.Random(15)
    for n in (*range(1, 61), 105, 385, 734, 794, 840):
        coeffs = [rng.randrange(-9, 10) for _ in range(3 * n)]
        # sympy's remainder over ZZ, exact as Phi_n is monic (its default,
        # over QQ, takes seconds at n = 840)
        phi = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X)
        rem = sympy.Poly(coeffs[::-1], _X).rem(phi, auto=False)
        expected = [int(c) for c in reversed(rem.all_coeffs())]
        expected += [0] * (euler_phi(n) - len(expected))
        assert list(CycloElt.from_int_coeffs(n, coeffs).coeffs) == expected, n


def test_canonical_int_coordinates():
    assert type(CycloElt.from_int(10, 2).coeffs[0]) is int
    assert CycloElt.from_int(10, 2) == 2 and CycloElt.from_int(10, 2) == CycloElt.from_int(10, 1) * 2
    assert _all_int(CycloElt.from_int(10, 3) * 4)
    assert CycloElt.from_int(6, 5).integer_value() == 5
    assert type(CycloElt.from_int(6, 5).integer_value()) is int
    with pytest.raises(ValueError):
        CycloElt.zeta_pow(6, 1).integer_value()
    assert repr(CycloElt.zeta_pow(5, 1)) == "CycloElt(n=5, coeffs=['0', '1', '0', '0'])"


@pytest.mark.parametrize("n", [3, 8, 40, 80])
def test_pow_is_repeated_product_with_fewest_products(n, monkeypatch):
    # the oracles' power, which the Z[zeta] references build on
    w = 2 + -1 * CycloElt.zeta_pow(n, 1) + 3 * CycloElt.zeta_pow(n, n - 1)
    powers = [CycloElt.from_int(n, 1)]
    for _ in range(9):
        powers.append(powers[-1] * w)
    real_mul = CycloElt.__mul__
    products = []

    def counted(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(CycloElt, "__mul__", counted)
    for k in range(10):
        products.clear()
        assert power(w, k) == powers[k], k
        assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k
    with pytest.raises(ValueError):
        power(w, -1)


def test_memory_stays_linear_in_the_conductor(deadline):
    import math
    import tracemalloc

    n = 4620  # phi = 960; Phi_n has 343 nonzero terms
    tracemalloc.start()
    try:
        with deadline(10):
            root = CycloElt.zeta_pow(n, 31337)
            order = is_root_of_unity(root)
            non_root = CycloElt.from_int_coeffs(n, [0] * (n - 1) + [3])
            non_order = is_root_of_unity(non_root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == n // math.gcd(31337 % n, n)
    assert non_order is None
    assert peak <= 64 * n, peak


def test_non_root_takes_at_most_ceil_n_over_phi_minus_one_long_divisions(monkeypatch):
    # n = 4620, phi = 960: the shape search walks w, w * zeta^phi, ... and
    # takes at most ceil(n / phi) - 1 = 4 long divisions, which decide a
    # non-root (it never takes the shape +-zeta^k) as well as a root
    import math

    from stjac import cyclo

    n = 4620
    limit = -(-n // euler_phi(n)) - 1
    real, calls = cyclo._reduce_mod_phi, []
    monkeypatch.setattr(cyclo, "_reduce_mod_phi", lambda cs, m: calls.append(m) or real(cs, m))
    root = CycloElt.zeta_pow(n, 31337)
    non_root = CycloElt.from_int_coeffs(n, [0] * (n - 1) + [3])
    unit_non_root = 1 + CycloElt.zeta_pow(n, 1) + CycloElt.zeta_pow(n, 7)
    for w in (non_root, unit_non_root):
        calls.clear()
        assert is_root_of_unity(w) is None
        assert calls == [n] * limit
    calls.clear()
    assert is_root_of_unity(root) == n // math.gcd(31337 % n, n)
    assert 1 < len(calls) <= limit
    # already of the shape -zeta^5: no division at all
    shaped = -1 * CycloElt.zeta_pow(n, 5)
    calls.clear()
    assert is_root_of_unity(shaped) == 2 * n // math.gcd(10 + n, 2 * n)
    assert calls == []
    # zeta_L^g, as a torsion verdict asks, has order L / g
    for L in (420, 840, 2520):
        for g in (g for g in range(1, L + 1) if L % g == 0):
            w = CycloElt.zeta_pow(L, g)
            calls.clear()
            assert is_root_of_unity(w) == L // g, (L, g)
            assert len(calls) <= -(-L // euler_phi(L)) - 1, (L, g)
