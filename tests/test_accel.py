import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stjac import _accel
from stjac._accel import (
    affine_count,
    char_pair_histogram,
    dlog_table,
    pow_mod,
    prefix_factorials,
)
from stjac.ffield import PrimeField, smallest_primitive_root
from stjac.primes import prime_range

from oracles import enumerated_dlog


def test_numpy_dlog_table_correct():
    # the table holds y <= h = (p-1)/2; PrimeField.dlog reads p - y from it
    for p, g in [(11, 2), (19, 2), (7, 3), (1009, 11)]:
        table = dlog_table(p, g, p - 1)
        h = (p - 1) // 2
        assert table[0] == -1
        assert len(table) == h + 1
        for y in range(1, h + 1):
            assert pow(g, int(table[y]), p) == y
        fld = PrimeField(p, g)
        for y in range(1, p):
            assert pow(g, fld.dlog(y, p - 1), p) == y


def _check_half_table(r, p, g, m, full, every_unit=True):
    """r = dlog_table(p, g, m) holds the enumerated logs mod m on [0, h],
    h = (p-1)/2, and ``PrimeField.dlog`` reads them mod m at every unit
    (or, with every_unit false, at the units p - y for y <= 999 and at h + 1)."""
    h = (p - 1) // 2
    assert len(r) == h + 1, (p, m)
    assert r[0] == -1
    assert np.array_equal(r[1:], full[1 : h + 1] % m), (p, m)
    fld = PrimeField(p, g)
    fld.residues[m] = r
    ys = range(1, p) if every_unit else [h + 1, *range(max(h + 1, p - 999), p)]
    assert [fld.dlog(y, m) for y in ys] == (full[list(ys)] % m).tolist(), (p, m)


def test_dlog_residues_match_the_full_table_mod_every_divisor():
    # p = 131113 > 4 * 2^15: the chunks of the large moduli cross boundaries.
    # 3, 7, 11, 19, 4099 and 131071 are 3 mod 4: h = (p-1)/2 is odd, so the
    # label of y = g^e > h, (e + h) mod m, takes a shift h mod m != 0 for every
    # even m, and the walk stops at h.  PrimeField.dlog reads every unit below
    # 5000; above, the units p - y next to p and h + 1
    for p in (3, 5, 7, 11, 19, 1009, 4099, 131071, 131113):
        g = smallest_primitive_root(p)
        full = enumerated_dlog(p, g)
        for m in (m for m in range(1, p) if (p - 1) % m == 0):
            r = dlog_table(p, g, m)
            _check_half_table(r, p, g, m, full, every_unit=p < 5000)
            smallest = next(t for t in (np.int8, np.int16, np.int32) if m - 1 <= np.iinfo(t).max)
            assert r.dtype == smallest, (p, m, r.dtype)


def test_large_moduli_near_a_million_match_the_enumerated_table():
    # m > 2^15 labels each power by e itself, reduced mod m only when m is
    # below the walk's stop h = (p-1)/2: (p-1)/3 and (p-1)/5 are, p-1 and
    # (p-1)/2 are not
    for p in (1000081, 1188721):
        g = smallest_primitive_root(p)
        full = enumerated_dlog(p, g)
        for m in (p - 1, (p - 1) // 2, (p - 1) // 3, (p - 1) // 5):
            r = dlog_table(p, g, m)
            assert r.dtype == np.int32, (p, m)
            _check_half_table(r, p, g, m, full, every_unit=False)


def _enumerated_pair_histogram(full, m, k):
    """#{x : dlog x = i mod m, (dlog(1-x) mod m) mod k = j} over x in F_p
    minus {0, 1}, from the enumerated logs ``full`` of all of F_p, by np.add.at."""
    p = len(full)
    x = np.arange(2, p)
    ref = np.zeros((m, k), dtype=np.int64)
    np.add.at(ref, (full[x] % m, full[(1 - x) % p] % m % k), 1)
    return ref


def test_numpy_histogram_counts_all_pairs():
    # both shapes at p = 11: the 10 x 10 joint table and the 10 x 2 table
    table = dlog_table(11, 2, 10)
    full = enumerated_dlog(11, 2)
    for k in (10, 2):
        hist = char_pair_histogram(table, 10, k, 10)
        assert hist.shape == (10 * k,)
        assert np.array_equal(hist.reshape(10, k), _enumerated_pair_histogram(full, 10, k))
        assert hist.sum() == 9  # x runs over F_11 minus {0, 1}
        assert hist.min() >= 0


def test_residue_histogram_is_chunked_into_need_squared_bins():
    # p > 4 * 2^15 spans five chunks of F_p (three for the half-range
    # passes); the reference is one unchunked enumeration
    p, need = 131113, 6
    red = dlog_table(p, 5, need)
    full = enumerated_dlog(p, 5)
    for k in (need, 2):
        hist = char_pair_histogram(red, need, k, p - 1)
        assert hist.shape == (need * k,)
        assert np.array_equal(hist.reshape(need, k), _enumerated_pair_histogram(full, need, k)), k


def test_pair_code_histogram_matches_the_brute_force_joint_table():
    # every prime < 3000 and every m | p - 1: the m x 2 table, and with
    # m^2 <= p - 1 the m x m table (the pass over x <= (p-1)/2 plus its
    # transpose and x = 1/2), each against all of F_p enumerated
    for p in prime_range(3, 3000):
        g = smallest_primitive_root(p)
        full = enumerated_dlog(p, g)
        for m in (m for m in range(1, p) if (p - 1) % m == 0):
            u = dlog_table(p, g, m)
            for k in (m, 2) if m * m <= p - 1 else (2,):
                hist = char_pair_histogram(u, m, k, p - 1)
                assert hist.shape == (m * k,), (p, m, k)
                table = hist.reshape(m, k)
                assert np.array_equal(table, _enumerated_pair_histogram(full, m, k)), (p, m, k)
                assert table.sum() == p - 2, (p, m, k)
                if k == m:
                    assert np.array_equal(table, table.T), (p, m)


def test_parity_pass_over_the_half_table_matches_the_enumeration():
    # the m x 2 pass with m^2 > p - 1, as _phi_profile runs it: two forward
    # counts over x = 2 .. h, one with its columns swapped for odd s and one
    # with its rows rolled by s = h mod m, plus x = h + 1.  Every prime below
    # 2000 and every such m; s = m/2 occurs wherever (p-1)/m is odd (every
    # even m at p = 3 mod 4), odd s where m = 2 mod 4 as well.  Then the
    # count pool's s = m/2 case: linear x^9 reads M = 16 at p = 1000081,
    # (p-1)/16 = 62505 odd, through both shapes
    seen = set()
    for p in prime_range(3, 2000):
        g = smallest_primitive_root(p)
        full = enumerated_dlog(p, g)
        for m in (m for m in range(1, p) if (p - 1) % m == 0 and m * m > p - 1):
            hist = char_pair_histogram(dlog_table(p, g, m), m, 2, p - 1)
            assert np.array_equal(hist.reshape(m, 2), _enumerated_pair_histogram(full, m, 2)), (p, m)
            s = (p - 1) // 2 % m
            seen.add("s = 0" if s == 0 else "s odd" if s % 2 else "s even")
    assert seen == {"s = 0", "s odd", "s even"}
    p, m = 1000081, 16
    g = smallest_primitive_root(p)
    assert (p - 1) // 2 % m == m // 2
    u, full = dlog_table(p, g, m), enumerated_dlog(p, g)
    for k in (m, 2):
        hist = char_pair_histogram(u, m, k, p - 1)
        assert np.array_equal(hist.reshape(m, k), _enumerated_pair_histogram(full, m, k)), k


@pytest.mark.parametrize("chunk, below", [(1, 300), (5, 1000), (64, 1000)])
def test_small_chunks_cross_every_seam(monkeypatch, chunk, below):
    # chunks far below 2^15 put the walk and both histogram passes across
    # many chunk seams (chunk 1 costs a Python step per element, hence its
    # lower bound on p).  Both passes read u(1-x) as u(x-1) + h mod m, so a
    # wrong roll of the joint columns or of the parity rows shows wherever
    # (p-1)/m is odd (h mod m = m/2).  Some joint passes end on a full chunk,
    # whose last element is x = (p-1)/2: p = 13 at chunk 5, p = 131 at chunk 64
    monkeypatch.setattr(_accel, "_CHUNK", chunk)
    full_last_chunks = 0
    for p in prime_range(3, below):
        g = smallest_primitive_root(p)
        full = enumerated_dlog(p, g)
        for m in (m for m in range(1, p) if (p - 1) % m == 0):
            u = dlog_table(p, g, m)
            _check_half_table(u, p, g, m, full, every_unit=p < 300)
            for k in (m, 2) if m * m <= p - 1 else (2,):
                hist = char_pair_histogram(u, m, k, p - 1)
                assert np.array_equal(
                    hist.reshape(m, k), _enumerated_pair_histogram(full, m, k)
                ), (chunk, p, m, k)
            if m * m <= p - 1:
                full_last_chunks += ((p + 1) // 2 - 2) % max(chunk, m * m) == 0
    assert full_last_chunks


def _factorials(xs, ms):
    return [math.factorial(x) % m for x, m in zip(xs, ms)]


def _prefix_factorials(xs, ms):
    got = prefix_factorials(np.array(xs, dtype=np.int64), np.array(ms, dtype=np.int64))
    assert got.dtype == np.int64
    return got.tolist()


def test_prefix_factorials_match_math_factorial():
    cases = [
        ([], []),
        ([0], [7]),  # x = 0
        ([0, 0, 5, 5, 5], [3, 7, 11, 13, 7]),  # repeated x
        ([1, 4, 9, 16, 25, 36], [101] * 6),  # one modulus at several x
        # moduli from different primes interleaved in ascending x
        ([2, 3, 5, 8, 13, 21, 34, 55, 89], [757, 1009, 757, 3, 1009, 757, 2**31 - 1, 3, 1009]),
        ([0, 1, 1, 2], [1, 1, 2, 2]),
    ]
    for xs, ms in cases:
        assert _prefix_factorials(xs, ms) == _factorials(xs, ms), (xs, ms)
    # a sweep-like request list: x in {h, j, h - j} for every p < 2000, and a
    # narrow window of large x whose leaf products exceed the root modulus
    for ps, ks in [(range(3, 2000, 2), (3, 4, 6)), (range(20011, 20111, 2), (2, 5))]:
        pairs = sorted(
            (x, p) for p in ps for k in ks
            for x in {(p - 1) // 2, (p - 1) // k // 2, (p - 1) // 2 - (p - 1) // k // 2}
        )
        xs, ms = [x for x, _ in pairs], [p for _, p in pairs]
        assert _prefix_factorials(xs, ms) == _factorials(xs, ms)


def test_prefix_factorials_at_the_bundle_edges():
    # K - 1, K and K + 1 requests whose last x lies W - 1, W and W + 1 past
    # the first, with repeated x, x = 0, moduli 1, composite and 2^31 - 1;
    # a modulus of 2^31 or more in the middle raises, since the bundles
    # finish in int64, where a product of two residues must stay below 2^62
    K, W = _accel._BUNDLE, _accel._BUNDLE_WIDTH
    moduli = [1, 2**31 - 1, 12, 1009, 4096, 2**31 - 1, 7, 30030]
    for count in (K - 1, K, K + 1, 2 * K + 1):
        for gap in (W - 1, W, W + 1):
            for first in (0, 5, 3000):
                xs = [first + i * gap // (count - 1) for i in range(count)]
                xs[1] = xs[0]  # a repeated x
                ms = [moduli[i % len(moduli)] for i in range(count)]
                assert _prefix_factorials(xs, ms) == _factorials(xs, ms), (count, gap, first)
                for wide in (2**31, 2**61 - 1):
                    ms[count // 2] = wide
                    with pytest.raises(ValueError, match=f"got {wide}$"):
                        _prefix_factorials(xs, ms)
    # every request opens its own bundle, each x W + 1 past the last, so no
    # request has a gap to finish
    for count in (1, K + 1):
        xs = [5 + i * (W + 1) for i in range(count)]
        ms = [moduli[i % len(moduli)] for i in range(count)]
        assert _accel._bundle_starts(np.array(xs)) == list(range(count))
        assert _prefix_factorials(xs, ms) == _factorials(xs, ms), count


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 600),
            st.sampled_from([1, 2, 6, 12, 97, 1009, 65536, 2**31 - 2, 2**31 - 1]),
        ),
        max_size=80,
    )
)
def test_prefix_factorials_property(requests):
    requests.sort(key=lambda r: r[0])
    xs, ms = [x for x, _ in requests], [m for _, m in requests]
    assert _prefix_factorials(xs, ms) == _factorials(xs, ms)


def test_pow_mod_matches_python_pow():
    rng = np.random.default_rng(7)
    mods = np.array([3, 5, 7, 1009, 65537, 2**31 - 1] * 50, dtype=np.int64)
    base = rng.integers(0, mods)
    exp = rng.integers(0, 2**31, size=len(mods))
    exp[:6] = 0
    got = pow_mod(base, exp, mods)
    assert got.tolist() == [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mods)]
    empty = np.array([], dtype=np.int64)
    assert pow_mod(empty, empty, empty).tolist() == []
    # one call over mixed exponent widths, as a batch of the sweep makes it:
    # 0, 1, small exponents, p - 2 (Fermat inverses) and wide ones side by side
    p = np.array([3, 5, 1009, 20011, 2**31 - 1], dtype=np.int64)
    ps = np.tile(p, 6)
    exp = np.concatenate([0 * p, 0 * p + 1, 0 * p + 7, p - 2, p // 2, p - 1])
    base = rng.integers(1, ps)
    got = pow_mod(base, exp, ps)
    assert got.tolist() == [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, ps)]
    assert (got[15:20] * base[15:20] % ps[15:20]).tolist() == [1] * 5


def test_numpy_affine_count_tiny():
    # y^2 = x^3 + 1 over F_5 has 5 affine points
    assert affine_count(5, 3, 1, False) == 5
    # y^2 = x^7 + x over F_7 has 7 affine points
    assert affine_count(7, 7, 1, True) == 7


def test_dispatch_names_bound():
    assert _accel.BACKEND == "numpy"
    table = _accel.dlog_table(13, 2, 12)
    assert pow(2, int(table[5]), 13) == 5
    assert _accel.affine_count(5, 3, 1, False) == 5
