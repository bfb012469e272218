import itertools
import random

from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from stjac.groupid import generic_primes
from stjac.intlinalg import (
    hnf_rows,
    kernel_basis,
    rank,
    snf_invariant_factors,
    xgcd,
)
from stjac.pointcount import ADDITIVE, LINEAR
from stjac.stmatrix import build_matrix


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
    assert kernel_basis([[1, 1]]) == [[1, -1]]
    # full kernel of zero map
    assert kernel_basis([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert kernel_basis([[1, 0], [0, 1]]) == []


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


def _carry_matrices():
    """Carry matrices of a few st0 curves at their first generic prime."""
    for family, d in ((ADDITIVE, 10), (ADDITIVE, 12), (ADDITIVE, 18), (LINEAR, 7), (LINEAR, 11)):
        p = generic_primes(family, d, 1)[0]
        yield [list(row) for row in build_matrix(p, d, family).entries]


def test_snf_invariant_factors_match_sympy(deadline):
    for mat in itertools.chain(_random_matrices(11, 150), _random_8x8(21), _carry_matrices()):
        with deadline():
            factors = snf_invariant_factors(mat)
        assert factors == _sympy_factors(mat), mat


def test_kernel_basis_matches_sympy(deadline):
    for mat in itertools.chain(_random_matrices(12, 150), _random_8x8(22), _carry_matrices()):
        with deadline():
            basis = kernel_basis(mat)
        assert len(basis) == len(mat[0]) - Matrix(mat).rank(), mat
        for v in basis:
            assert not any(sum(x * y for x, y in zip(row, v)) for row in mat), (mat, v)
        if basis:
            # saturated: the quotient Z^n / span(basis) is torsion-free
            assert _sympy_factors(basis) == [1] * len(basis), mat
            assert hnf_rows(basis) == basis, mat
