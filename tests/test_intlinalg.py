import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import oracles
from stjac import intlinalg
from stjac.groupid import generic_primes
from stjac.intlinalg import (
    hnf_rows,
    kernel_basis,
    rank,
    snf_invariant_factors,
    xgcd,
)
from stjac.pointcount import ADDITIVE, LINEAR
from stjac.primes import is_prime, ladder_prime
from stjac.stmatrix import build_matrix, right_kernel


def test_xgcd():
    for a, b in [(12, 18), (-12, 18), (0, 5), (7, 0), (0, 0), (240, 46)]:
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g >= 0


def test_hnf_canonical():
    # row order and scaling of the input must not matter
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    b = [[10, 4, 16], [2, 4, 4], [-6, 6, 12]]
    assert hnf_rows(a) == hnf_rows(b)
    assert hnf_rows([[0, 0], [0, 0]]) == []
    assert hnf_rows([[1, -1, 0, 0], [0, 0, 1, -1]]) == [[1, -1, 0, 0], [0, 0, 1, -1]]


def test_hnf_pivots_reduced():
    h = hnf_rows([[4, 1, 0], [0, 3, 1], [0, 0, 5]])
    for i, row in enumerate(h):
        piv_col = next(j for j, x in enumerate(row) if x)
        assert row[piv_col] > 0
        for above in h[:i]:
            assert 0 <= above[piv_col] < row[piv_col]


def test_kernel_basis_simple():
    assert kernel_basis([[1, 1]]) == ((1, -1),)
    # full kernel of zero map
    assert kernel_basis([[0, 0], [0, 0]]) == ((1, 0), (0, 1))
    assert kernel_basis([[1, 0], [0, 1]]) == ()


def test_kernel_is_saturated_and_annihilates():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 7)
        mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        basis = kernel_basis(mat)
        for v in basis:
            assert not any(sum(x * y for x, y in zip(row, v)) for row in mat)
        assert len(basis) == n - rank(mat)
        if basis:
            assert all(f == 1 for f in snf_invariant_factors(basis))


# det = -561028; a row/column pivot loop without entry control hangs on it
_SNF_7X7 = [
    [7, 0, -6, 0, 3, -3, -8],
    [0, 8, -9, 6, 7, 5, 0],
    [0, 4, 2, 0, 0, 0, 2],
    [1, 0, -3, -4, 0, -7, 0],
    [-7, 5, 0, 2, 7, 0, 0],
    [0, 0, -4, -5, -5, 5, 0],
    [6, 3, 4, 7, 4, 6, -3],
]


def test_snf_known_values(deadline):
    assert snf_invariant_factors([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == [1, 10, 30]
    assert snf_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert snf_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert snf_invariant_factors([[2, 1]]) == [1]
    assert snf_invariant_factors([[4, 2], [0, 2]]) == [2, 4]
    assert snf_invariant_factors([[6]]) == [6]
    with deadline(1):
        assert snf_invariant_factors(_SNF_7X7) == [1, 1, 1, 1, 1, 1, 561028]


def test_snf_matches_rank():
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        assert len(snf_invariant_factors(mat)) == rank(mat)


# -- sympy as an independent oracle for the lattice code ------------------


def _sympy_factors(rows):
    """Nonzero invariant factors, up to sign, from sympy's Smith form."""
    return [abs(int(f)) for f in invariant_factors(Matrix(rows)) if f != 0]


def _random_matrices(seed, count, max_rows=5, max_cols=6, bound=6):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randrange(1, max_rows + 1), rng.randrange(1, max_cols + 1)
        yield [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]


def _random_8x8(seed):
    """Shapes up to 8x8 with entries in [-9, 9]: large enough to make an
    elimination without entry control blow up."""
    return _random_matrices(seed, 120, 8, 8, 9)


def _with_repeats(seed, count=120):
    """8 x 8 matrices, entries in [-9, 9], with some columns repeated or zero."""
    rng = random.Random(seed)
    for mat in _random_matrices(seed, count, 8, 8, 9):
        cols = [list(col) for col in zip(*mat)]
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(len(cols))
            cols[j] = [0] * len(mat) if rng.random() < 0.3 else list(rng.choice(cols))
        yield [list(row) for row in zip(*cols)]


def _carry_matrices():
    """Carry matrices of a few st0 curves at their first generic prime."""
    for family, d in ((ADDITIVE, 10), (ADDITIVE, 12), (ADDITIVE, 18), (LINEAR, 7), (LINEAR, 11)):
        p = generic_primes(family, d, 1)[0]
        yield [list(row) for row in build_matrix(p, d, family).entries]


def _rank_deficient(seed, count):
    """Products of random 6 x k and k x 7 matrices, k < 6."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randrange(1, 6)
        left = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(6)]
        right = [[rng.randrange(-4, 5) for _ in range(7)] for _ in range(k)]
        yield [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def _unit_pivots(rows):
    return all(next(x for x in row if x) == 1 for row in hnf_rows(rows))


def test_snf_invariant_factors_match_sympy(deadline):
    # both exits: HNF pivots all 1 (kernels), and not ([[2, 1]] has pivot 2, factor 1)
    unit = [[[1, 1]], [[1, 2, 3], [0, 1, 4]]] + [kernel_basis(m) for m in _carry_matrices()]
    other = [[[2, 1]], [[2, 0], [0, 3]], [[2, 4], [4, 8]], _SNF_7X7, [[4, 2], [0, 2]]]
    deficient = list(_rank_deficient(31, 40))
    assert all(map(_unit_pivots, unit)) and not any(map(_unit_pivots, other))
    assert not all(map(_unit_pivots, deficient))
    for mat in itertools.chain(
        _random_matrices(11, 150), _random_8x8(21), _carry_matrices(), unit, other, deficient
    ):
        with deadline():
            factors = snf_invariant_factors(mat)
        assert factors == _sympy_factors(mat), mat


def test_kernel_basis_matches_sympy(deadline):
    for mat in itertools.chain(
        _random_matrices(12, 150), _random_8x8(22), _with_repeats(23), _carry_matrices()
    ):
        with deadline():
            basis = kernel_basis(mat)
        assert rank(mat) == Matrix(mat).rank(), mat
        assert len(basis) == len(mat[0]) - Matrix(mat).rank(), mat
        for v in basis:
            assert not any(sum(x * y for x, y in zip(row, v)) for row in mat), (mat, v)
        if basis:
            # saturated: the quotient Z^n / span(basis) is torsion-free
            assert _sympy_factors(basis) == [1] * len(basis), mat
            assert hnf_rows(basis) == list(map(list, basis)), mat


def _first_prime_matrices():
    """Distinct carry rows at the first generic prime of every additive
    d <= 60 and every linear d <= 41."""
    for family, ds in ((ADDITIVE, range(3, 61)), (LINEAR, range(3, 42, 2))):
        for d in ds:
            p = generic_primes(family, d, 1)[0]
            yield (family, d, p), build_matrix(p, d, family).distinct_rows


def test_kernel_basis_equals_the_augmented_hnf_oracle():
    cases = 0
    for case, rows in _first_prime_matrices():
        assert list(map(list, kernel_basis(rows))) == oracles.kernel_basis(rows), case
        cases += 1
    assert cases == 58 + 20
    for mat in itertools.chain(_with_repeats(24), _random_matrices(25, 150)):
        assert list(map(list, kernel_basis(mat))) == oracles.kernel_basis(mat), mat


@pytest.mark.parametrize("family, d, p", [(LINEAR, 211, 421), (ADDITIVE, 300, 601)])
def test_large_carry_kernels(deadline, family, d, p):
    # [A^T | I] elimination takes about a minute on linear x^211 + 3x
    mat = build_matrix(p, d, family)
    rows = mat.distinct_rows
    with deadline(20):
        basis = kernel_basis(rows)
        assert len(basis) == len(mat.cols) - rank(rows)
        assert set(snf_invariant_factors(basis)) == {1}
        assert hnf_rows(basis) == list(map(list, basis))
    for row in rows:
        assert not any(sum(x * y for x, y in zip(row, v)) for v in basis)


def test_kernel_over_several_primes_and_unlucky_ones(monkeypatch, deadline):
    # the count of eliminations starts from an empty memo
    intlinalg._kernel_hnf.cache_clear()
    calls = []
    rref = intlinalg._rref_mod
    monkeypatch.setattr(intlinalg, "_rref_mod", lambda m, ell: calls.append(ell) or rref(m, ell))
    ell = 2**31 - 1  # the first modulus
    rng = random.Random(26)
    big = [[rng.randrange(-10**6, 10**6) for _ in range(6)] for _ in range(5)]
    with deadline():
        # rank drops modulo ell; the next prime has one pivot more
        assert kernel_basis([[ell, 0]]) == ((0, 1),)
        # same rank modulo ell, with a later pivot; the next prime's is earlier
        assert kernel_basis([[1, ell]]) == ((ell, -1),)
        # the entry -ell needs three primes before it reconstructs
        calls.clear()
        assert kernel_basis([[ell, 1]]) == ((1, -ell),)
        assert len(calls) == 3
        calls.clear()
        assert list(map(list, kernel_basis(big))) == oracles.kernel_basis(big)
        assert len(calls) > 1


def test_equal_rows_share_one_kernel_basis_that_no_caller_can_change():
    # the HNF is memoized per matrix and handed out as it is: rows that
    # compare equal (tuples, lists or a numpy array) get the identical
    # tuple of int tuples, which a caller cannot change, and a warm
    # right_kernel keeps that very tuple as its basis
    mat = build_matrix(41, 40, ADDITIVE)
    rows = mat.distinct_rows
    one = kernel_basis(rows)
    assert type(one) is tuple and all(type(v) is tuple for v in one)
    assert all(type(x) is int for v in one for x in v)
    misses = intlinalg._kernel_hnf.cache_info().misses
    for again in (rows, [list(row) for row in rows], np.array(rows)):
        assert kernel_basis(again) is one
    with pytest.raises(TypeError):
        one[0][0] += 1
    with pytest.raises(AttributeError):
        one.pop()
    assert right_kernel(mat).basis is one
    assert intlinalg._kernel_hnf.cache_info().misses == misses


# -- the certified modular rank --------------------------------------------


@st.composite
def _rank_inputs(draw):
    """Integer matrices up to 7 x 7: entries up to 10^12, products of
    narrower factors (rank below both sizes) and repeated rows and columns."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    bound = draw(st.sampled_from([1, 9, 10**12]))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        k = draw(st.integers(1, min(m, n)))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        rows.append(list(rows[0]))
        rows = [row + [row[-1]] for row in rows]
    return rows


@settings(max_examples=200, deadline=None)
@given(_rank_inputs())
def test_rank_matches_the_hnf_oracle_and_sympy(rows):
    assert rank(rows) == oracles.rank(rows) == Matrix(rows).rank()


def test_rank_survives_primes_where_it_drops(monkeypatch):
    # each matrix loses rank modulo the first elimination primes; the
    # reconstructed kernel then fails its exact check and a later prime,
    # with more pivots, gives the rank over Q
    calls = []
    rref = intlinalg._rref_mod
    monkeypatch.setattr(intlinalg, "_rref_mod", lambda m, ell: calls.append(ell) or rref(m, ell))
    l0, l1, l2 = (ladder_prime(2, i) for i in range(3))
    assert l0 == 2**31 - 1
    for rows, primes in [
        ([[1, 0], [0, l0]], 2),
        ([[l0, 0], [0, l0 * l1]], 3),
        ([[1, 1, 0], [1, 1 + l0 * l1, 0], [0, 0, l0 * l1 * l2]], 4),
        ([[2, 4], [1, 2]], 1),
        ([[l0, l0], [l0, l0]], 2),
    ]:
        calls.clear()
        assert rank(rows) == oracles.rank(rows) == Matrix(rows).rank(), rows
        assert len(calls) == primes, (rows, calls)


def test_cold_elimination_prime_far_down_needs_no_recursion(monkeypatch, deadline):
    # the elimination primes are the ladder of L = 2: the 3000th, asked for
    # cold, comes from one walk down and equals a sequential walk from the top
    monkeypatch.setattr("stjac.primes._ladders", {})
    with deadline(20):
        cold = ladder_prime(2, 3000)
    ells, ell = [], 2**31 - 1
    while len(ells) <= 3000:
        if is_prime(ell):
            ells.append(ell)
        ell -= 2
    assert cold == ells[-1]
    assert [ladder_prime(2, i) for i in range(3001)] == ells


def test_rref_mod_matches_sympy_over_gf_ell():
    # one int64 elimination at every size, small matrices included, against
    # sympy's RREF over GF(l) with its entries normalised to [0, l)
    rng = random.Random(28)
    ell = ladder_prime(2, 0)
    gf = GF(ell)
    for m, n in [(3, 4), (9, 11), (10, 10), (12, 20), (25, 9), (6, 40)]:
        for k in (1, min(m, n) // 2 + 1, min(m, n)):
            left = [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(m)]
            right = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
            red, pivots = DomainMatrix.from_list(rows, ZZ).convert_to(gf).rref()
            expected = [[gf.to_int(x) % ell for x in row] for row in red.to_list()[: len(pivots)]]
            assert intlinalg._rref_mod(rows, ell) == (list(pivots), expected), (m, n, k)
            assert len(pivots) == Matrix(rows).rank(), (m, n, k)


def test_rank_of_large_carry_matrices_is_quick(deadline):
    # the unmodular HNF did not finish in 17 minutes on the rows of x^600
    for d, p, r in [(600, 601, 81), (420, 421, 49)]:
        rows = build_matrix(p, d, ADDITIVE).distinct_rows
        with deadline(10):
            assert rank(rows) == r
            assert rank([(*row, 1) for row in rows]) == r
