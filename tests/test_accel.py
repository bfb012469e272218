import math

import numpy as np

from stjac import _accel
from stjac._accel import affine_count, char_pair_histogram, dlog_table, step_factorials


def test_numpy_dlog_table_correct():
    for p, g in [(11, 2), (19, 2), (7, 3), (1009, 11)]:
        table = dlog_table(p, g)
        assert table[0] == -1
        for x in range(1, p):
            assert pow(g, int(table[x]), p) == x


def test_numpy_histogram_counts_all_pairs():
    table = dlog_table(11, 2)
    hist = char_pair_histogram(table, 1, 5, 10)
    assert hist.sum() == 9  # x runs over F_11 minus {0, 1}
    assert hist.min() >= 0


def test_residue_histogram_is_chunked_into_need_squared_bins():
    # p > 2 * 2^16 spans three chunks; the reference is one unchunked pass
    p, need = 131113, 6
    red = np.remainder(dlog_table(p, 5), need, dtype=np.int32)
    keys = (need * red[2:] + red[:1:-1]) % (p - 1)
    hist = char_pair_histogram(red, need, 1, p - 1)
    assert hist.shape == (need * need,)
    assert hist.tolist() == np.bincount(keys, minlength=need * need).tolist()


def test_step_factorials_match_math_factorial():
    for p, h, step in [(3, 1, 1), (23, 11, 11), (101, 50, 5), (757, 378, 63),
                       (757, 378, 54), (1009, 504, 7)]:
        assert step_factorials(p, h, step) == [
            math.factorial(k * step) % p for k in range(h // step + 1)
        ], (p, step)


def test_numpy_affine_count_tiny():
    # y^2 = x^3 + 1 over F_5 has 5 affine points
    assert affine_count(5, 3, 1, False) == 5
    # y^2 = x^7 + x over F_7 has 7 affine points
    assert affine_count(7, 7, 1, True) == 7


def test_dispatch_names_bound():
    assert _accel.BACKEND == "numpy"
    table = _accel.dlog_table(13, 2)
    assert pow(2, int(table[5]), 13) == 5
    assert _accel.affine_count(5, 3, 1, False) == 5
