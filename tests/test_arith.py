import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from circlekit import arith
from circlekit.errors import CapacityError

from conftest import (LIMIT_1M, brute_divisors, brute_r, divisor_sieve, g_direct,
                      g_identity_first_failure, hyperbola_count, lattice_count, property_test,
                      sigma_count, traced_peak)


def test_chi_values():
    assert arith.chi(1) == 1
    assert arith.chi(4) == 0
    assert arith.chi(7) == -1
    assert [arith.chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    with pytest.raises(ValueError):
        arith.chi(0)


def test_v2():
    assert arith.v2(1) == 0
    assert arith.v2(8) == 3
    assert arith.v2(12) == 2
    assert arith.v2(3 * 2**17) == 17


def test_build_tables_small_values():
    t = arith.build_tables(10)
    assert t.r[1:].tolist() == [4, 4, 0, 4, 8, 0, 0, 4, 4, 8]
    assert t.d[1:].tolist() == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]
    assert t.sigma[1:].tolist() == [1, 3, 4, 7, 6, 12, 8, 15, 13, 18]


def test_build_tables_n1():
    t = arith.build_tables(1)
    assert t.r[1] == 4 and t.d[1] == 1 and t.sigma[1] == 1


def test_build_tables_rejects_bad_limit():
    with pytest.raises(ValueError):
        arith.build_tables(0)


def test_build_tables_impossible_limit_is_capacity_error():
    # numpy cannot describe arrays of 10**19 entries, so this fails before allocating
    with pytest.raises(CapacityError, match="N=10000000000000000000") as info:
        arith.build_tables(10**19)
    assert info.value.required_limit == 10**19


def test_build_tables_entrywise_exact():
    # every N <= 300 (N < 4, perfect-square N, the delta^2 terms), and N around
    # 2^10, 2^12 and 100^2 (the last level of the 2-adic fill of r)
    edge = (1023, 1024, 1025, 4096, 9999, 10000, 10001)
    top = max(edge)
    r = [0] + [brute_r(n) for n in range(1, top + 1)]
    divisors = [[]] + [brute_divisors(n) for n in range(1, top + 1)]
    d = [len(ds) for ds in divisors]
    sigma = [sum(ds) for ds in divisors]
    for N in list(range(1, 301)) + list(edge):
        t = arith.build_tables(N)
        assert t.r.tolist() == r[:N + 1], N
        assert t.d.tolist() == d[:N + 1], N
        assert t.sigma.tolist() == sigma[:N + 1], N


def test_lazy_tables_equal_eager_sieves():
    # the eager path ran these three sieves at once; each lazy table is sieved
    # only when read, whatever the order, and is the same array with the same dtype
    for N in [*range(1, 301), 10**6]:
        eager = {name: arith._filled(name, N) for name in ("r", "d", "sigma")}
        for order in (("r", "d", "sigma"), ("sigma", "d", "r")):
            t = arith.build_tables(N)
            for i, name in enumerate(order):
                assert set(vars(t)) == {"limit", *order[:i]}, (N, name)
                table = getattr(t, name)
                assert table.dtype == eager[name].dtype and not table.flags.writeable
                assert np.array_equal(table, eager[name]), (N, name)
                assert getattr(t, name) is table


def _streamed(name: str, N: int) -> np.ndarray:
    """The named table as `arith._segments` streams it, each reused buffer copied out; the
    segments start at 0 and each begins where the last ended.  sigma's words are of the odd n
    only: its segments start at 1, and word i of a segment is n = lo + 2 i."""
    first, step = (1, 2) if name == "sigma" else (0, 1)
    starts, parts = [], []
    for lo, f in arith._segments(name, N):
        starts.append(lo)
        parts.append(f.copy())
    sizes = [0] + [p.size for p in parts[:-1]]
    assert starts == (first + step * np.cumsum(sizes)).tolist(), (name, N)
    assert sum(p.size for p in parts) == len(range(first, N + 1, step)), (name, N)
    return np.concatenate(parts)


def _packed(tables) -> np.ndarray:
    """The words d(n) 2^s + sigma(n) of sigma's stream, the odd n, from the d and sigma tables."""
    return ((tables.d.astype(np.int64) << arith._pack_shift(tables.limit)) + tables.sigma)[1::2]


@pytest.mark.parametrize("name", ["r", "d", "sigma"])
def test_streamed_segments_equal_the_table(name):
    # every N <= 300; N one below, at and one above the first and the second edge of r's
    # 2^15-entry, the packed 2^18-word and the 2^19-entry segments (the packed words' edges
    # in n are those of the 2^19-entry ones, as 2^18 words hold the odd n of 2^19 integers);
    # and 1e6 + 7.  sigma's stream is the packed words of the d and sigma tables at the odd n
    edges = [k * size + e for size in (arith._R_SEGMENT, arith._PAIR_SEGMENT, arith._SEGMENT)
             for k in (1, 2) for e in (-1, 0, 1)]
    for N in [*range(1, 301), *edges, 10**6 + 7]:
        tables = arith.build_tables(N)
        table = _packed(tables) if name == "sigma" else getattr(tables, name)
        assert np.array_equal(_streamed(name, N), table), (name, N)


def test_prebuilt_arrays_are_not_sieved(monkeypatch):
    for name in ("_d_segment", "_pair_segment"):   # any sieve of d or sigma would fail
        monkeypatch.setattr(arith, name, None)
    d = np.array([0, 1, 2])
    t = arith.ArithTables(limit=2, d=d)
    assert t.d is d and t.r.tolist() == [0, 4, 4]


# The independent oracle for r: the divisor form of the whole-table sieve that the
# lattice-point sieve replaced, kept here as its only caller's reference.
def _r_divisor_sieve(N: int) -> np.ndarray:
    """r(n) = 4 sum_{delta|n} chi(delta), n <= N, by a divisor/cofactor pair sieve.

    chi is completely multiplicative, so for odd n a pair adds chi(delta) (1 + chi(n)):
    2 chi(delta) at n = 1 (mod 4), 0 at n = 3 (mod 4).  Each odd delta <= sqrt(N) thus
    adds 8 chi(delta) at n = delta (delta + 4j), j >= 1, and 4 chi(delta) at delta^2; the
    even entries follow from r(2^k m) = r(m) by one slice copy per k <= log2(N).
    """
    r = np.zeros(N + 1, dtype=np.int32)
    for delta in range(1, math.isqrt(N) + 1, 2):
        c = 4 if delta % 4 == 1 else -4
        r[delta * (delta + 4)::4 * delta] += 2 * c
        r[delta * delta] += c
    for k in range(1, N.bit_length()):
        r[1 << k::2 << k] = r[1:(N >> k) + 1:2]
    return r


def _naive_divisor_sums(weights: np.ndarray) -> np.ndarray:
    out = np.zeros_like(weights)
    for delta in range(1, len(weights)):
        out[delta::delta] += weights[delta]
    return out


def _weights(N: int) -> dict:
    alternating = np.arange(N + 1, dtype=np.int64)
    alternating[1::2] *= -1
    return {"ones": np.ones(N + 1, dtype=np.int32),
            "arange": np.arange(N + 1, dtype=np.int64), "alternating": alternating}


def _check_sieves_against_naive(sizes, *labels):
    for N in sizes:
        for name, w in _weights(N).items():
            expected = _naive_divisor_sums(w)
            got = divisor_sieve(w)
            assert got.dtype == w.dtype and np.array_equal(got, expected), (*labels, N, name)
            if name == "ones":
                d = arith._filled("d", N)
                assert d.dtype == np.int32 and np.array_equal(d, expected), (*labels, N)
                assert np.array_equal(_streamed("d", N), expected), (*labels, N)   # int16
            if name == "arange":
                sigma = arith._filled("sigma", N)
                assert sigma.dtype == np.int64 and np.array_equal(sigma, expected), (*labels, N)
                d = _naive_divisor_sums(_weights(N)["ones"]).astype(np.int64)
                packed = (d << arith._pack_shift(N)) + expected
                assert np.array_equal(_streamed("sigma", N), packed[1::2]), (*labels, N)


@pytest.mark.parametrize("block, sizes", [
    (1, (1, 2, 3, 4, 50, 301)),
    (7, (1, 6, 7, 8, 49, 56, 57, 1000)),
    (arith._BLOCK, (2**17 + 3,)),   # the sieve's own buffer: delta = 1 crosses two block edges
])
def test_divisor_sieves_match_naive_sums(monkeypatch, block, sizes):
    monkeypatch.setattr(arith, "_BLOCK", block)
    monkeypatch.setattr(arith, "_PAIR_RUN", block)
    _check_sieves_against_naive(sizes, block)


@pytest.mark.parametrize("segment, block, sizes", [
    (1, arith._BLOCK, (1, 2, 3, 4, 50, 301)),   # one table entry per segment
    (7, 3, (6, 7, 8, 13, 14, 15, 48, 49, 50, 56, 57, 1000)),   # N at k segments and +- 1
    (64, 7, (63, 64, 65, 127, 128, 129, 4095, 4096, 4097)),
])
def test_segmented_divisor_sieves_match_naive_sums(monkeypatch, segment, block, sizes):
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    monkeypatch.setattr(arith, "_PAIR_SEGMENT", segment)
    monkeypatch.setattr(arith, "_BLOCK", block)
    monkeypatch.setattr(arith, "_PAIR_RUN", block)
    _check_sieves_against_naive(sizes, segment, block)


def test_segmented_sieves_match_one_segment(monkeypatch):
    # the real segment length, with N crossing two segment edges, against the same
    # sieve run as one segment, the whole-table loop
    N = 2**20 + 3
    sieves = [(name, lambda w=w: divisor_sieve(w)) for name, w in _weights(N).items()]
    sieves += [(name, lambda name=name: arith._filled(name, N)) for name in ("d", "sigma")]
    sieves += [("streamed d", lambda: _streamed("d", N))]   # 2^20-entry int16 segments
    sieves += [("packed d and sigma", lambda: _streamed("sigma", N))]   # 2^18-word int64 ones
    for name, sieve in sieves:
        got = sieve()
        with monkeypatch.context() as m:
            m.setattr(arith, "_SEGMENT", N + 1)
            m.setattr(arith, "_PAIR_SEGMENT", N + 1)
            expected = sieve()
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name


@pytest.mark.parametrize("segment", [1, 7, 64, arith._R_SEGMENT])
def test_r_and_sigma_sieves_match_oracles_on_small_segments(monkeypatch, segment):
    # every N <= 300 puts N at, and one off, many segment edges.  r's kernel carries each
    # column's next b from segment to segment, so r's stream is also checked against oracles
    # that share none of it: r_single at every n <= 3000, and lattice_count at the end of
    # every segment up to 2000 segments (31 at the real size, up to 1e6)
    monkeypatch.setattr(arith, "_R_SEGMENT", segment)
    assert _streamed("r", 3000).tolist() == [0, *map(arith.r_single, range(1, 3001))], segment
    total = 0
    for lo, f in arith._segments("r", min(10**6, 2000 * segment)):
        total += int(f.sum(dtype=np.int64))
        assert total == lattice_count(lo + f.size - 1), (segment, lo)
    monkeypatch.setattr(arith, "_PAIR_SEGMENT", segment)
    for N in range(1, 301):
        r = arith._filled("r", N)
        assert r.dtype == np.int32 and np.array_equal(r, _r_divisor_sieve(N)), (segment, N)
        w = np.arange(N + 1, dtype=np.int64)
        sigma = arith._filled("sigma", N)
        assert sigma.dtype == np.int64, (segment, N)
        assert np.array_equal(sigma, _naive_divisor_sums(w)), (segment, N)
        assert np.array_equal(sigma, divisor_sieve(w)), (segment, N)


@pytest.mark.parametrize("name", ["r", "sigma"])
def test_r_and_sigma_sieves_match_oracles_at_segment_edges(name):
    # N one below, at and one above the first and the second edge of the real segments: sigma's
    # 2^18 words are of the odd n, so its edges are at multiples of 2^19 (n = 2^19 is the last
    # n of the first segment, 2^19 + 1 the first word of the second)
    edge = arith._R_SEGMENT if name == "r" else 2 * arith._PAIR_SEGMENT
    for N in (edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge, 2 * edge + 1, 10**6 + 7):
        if name == "r":
            got, expected = arith._filled("r", N), _r_divisor_sieve(N)
        else:
            got, expected = arith._filled("sigma", N), divisor_sieve(np.arange(N + 1))
        assert got.dtype == expected.dtype and np.array_equal(got, expected), N


def test_d_stream_matches_the_weights_sieve_at_segment_edges():
    # N one below, at and one above the first and the second edge of the streamed d's
    # 2^20-entry int16 segments (2 _SEGMENT; a d table takes _SEGMENT-entry int32 ones)
    edge = 2 * arith._SEGMENT
    for N in (edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge, 2 * edge + 1, 10**6 + 7):
        segments = [(lo, f.copy()) for lo, f in arith._segments("d", N)]
        assert [lo for lo, _ in segments] == list(range(0, N + 1, edge)), N
        assert {f.dtype for _, f in segments} == {np.dtype(np.int16)}, N
        expected = divisor_sieve(np.ones(N + 1, np.int32))
        assert np.array_equal(np.concatenate([f for _, f in segments]), expected), N


def test_sigma_ramp_views_and_pair_runs_match_the_weights_sieve(monkeypatch):
    # segments of 64 words and runs of at most 7, so one segment adds some runs as views of
    # the ramp and others through the pair buffer, and some N have a run that ends exactly at
    # the ramp's end: the run of the odd k0 <= k < k1, n = (k1 - k0 + 1) // 2 words, reads
    # ramp[(k0 + delta) // 2:][:n]; table and packed stream against the weights form
    monkeypatch.setattr(arith, "_PAIR_SEGMENT", 64)
    monkeypatch.setattr(arith, "_PAIR_RUN", 7)
    both, at_end = set(), set()
    kernel = arith._pair_segment

    def spy(lo, hi, out, ramp, pair, shift):
        ends = {(k0 + delta) // 2 + (k1 - k0 + 1) // 2 - ramp.size
                for delta, k0, k1 in arith._segment_runs(lo, hi, pair.size, 2)}
        if ends and min(ends) <= 0 < max(ends):
            both.add(N)
        if 0 in ends:
            at_end.add(N)
        kernel(lo, hi, out, ramp, pair, shift)
    monkeypatch.setattr(arith, "_pair_segment", spy)
    for N in range(1, 400):
        expected = divisor_sieve(np.arange(N + 1))
        d = divisor_sieve(np.ones(N + 1, np.int64))
        assert np.array_equal(arith._filled("sigma", N), expected), N
        packed = (d << arith._pack_shift(N)) + expected
        assert np.array_equal(_streamed("sigma", N), packed[1::2]), N
    assert len(both) > 100 and len(at_end) > 10, (len(both), len(at_end))


def test_int64_scratch_equals_int32(monkeypatch):
    # the int64 path serves r past N = 2^31; a lowered limit takes it here
    N = 2 * arith._R_SEGMENT + 5
    seen = set()   # the dtypes of the pair values that r's bincount reads
    bincount = np.bincount

    def spy(x, **kwargs):
        seen.add(x.dtype)
        return bincount(x, **kwargs)
    monkeypatch.setattr(np, "bincount", spy)
    r = arith._filled("r", N)
    assert seen == {np.dtype(np.int32)}
    monkeypatch.setattr(arith, "_INT32_LIMIT", 2)
    seen.clear()
    assert np.array_equal(arith._filled("r", N), r) and seen == {np.dtype(np.int64)}


def test_int16_d_segments_equal_int32(monkeypatch):
    # the streamed d is int16 below N = 2^28 and int32 past it; a lowered limit takes the int32
    # path here, in segments of _SEGMENT entries instead of 2 _SEGMENT
    N = 4 * arith._SEGMENT + 5
    seen = []   # the dtype and length of each segment buffer the kernel fills
    kernel = arith._d_segment

    def spy(lo, hi, out):
        seen.append((out.dtype, out.size))
        kernel(lo, hi, out)
    monkeypatch.setattr(arith, "_d_segment", spy)
    assert arith._d_dtype(N) == np.int16
    d = _streamed("d", N)
    assert seen == [(np.dtype(np.int16), 2 * arith._SEGMENT)] * 2 + [(np.dtype(np.int16), 6)]
    monkeypatch.setattr(arith, "_INT16_LIMIT", 2 * math.isqrt(N))   # int32 from N on
    seen.clear()
    assert arith._d_dtype(math.isqrt(N) ** 2 - 1) == np.int16 and arith._d_dtype(N) == np.int32
    assert np.array_equal(_streamed("d", N), d)
    assert seen == [(np.dtype(np.int32), arith._SEGMENT)] * 4 + [(np.dtype(np.int32), 6)]
    assert np.array_equal(arith._filled("d", N), d)   # a table is int32 at any N


def test_d_fits_int16_exactly_below_2_28(tables_1m):
    # d(n) <= 2 isqrt(n) on the sieved table, and the streamed buffer turns int32 at 2^28,
    # where 2 isqrt(n) reaches 2^15
    n = np.arange(1, tables_1m.limit + 1)
    assert (tables_1m.d[1:] <= 2 * arith._isqrt(n)).all()
    assert arith._d_dtype(2**28 - 1) == np.int16 and arith._d_dtype(2**28) == np.int32
    assert 2 * math.isqrt(2**28 - 1) == 2**15 - 2 < np.iinfo(np.int16).max


def test_isqrt_exact_next_to_every_square_below_2_31():
    k = np.arange(1, math.isqrt(2**31 - 1) + 1, dtype=np.int64)
    for offset, root in ((-1, k - 1), (0, k), (1, k)):
        assert np.array_equal(arith._isqrt(k * k + offset), root), offset


@property_test
@given(st.integers(0, math.isqrt(2**62 - 1)))   # past k ~ 2^26.5, k^2 - 1 rounds up in float64
def test_isqrt_exact_next_to_squares(k):
    m = [max(k * k - 1, 0), k * k, k * k + 1]
    assert arith._isqrt(np.array(m, dtype=np.int64)).tolist() == [math.isqrt(x) for x in m]


_PACKED_TOP = 2**38 - 1   # the largest N whose d(n) 2^s + sigma(n) fit one int64 word


@property_test
@given(st.integers(1, _PACKED_TOP))
def test_pack_shift_is_the_least_that_keeps_the_fields_apart(n):
    # sigma(m) <= m H_m <= n (ln n + gamma + 1/(2n)) < 2^s, the least such s of the bound
    # n (1 + ln n), and d(m) <= 2 isqrt(n) < 2^(63 - s), so no word reaches the sign bit
    s = arith._pack_shift(n)
    assert n * (1 + math.log(n)) < 2**s and n * (math.log(n) + 0.5773 + 1 / (2 * n)) < 2**s
    assert s == 1 or n * (1 + math.log(n)) >= 2**(s - 1)
    assert 2 * math.isqrt(n) < 2**(63 - s)


def test_sigma_bound_on_the_table_and_the_packing_limit(tables_1m):
    # sigma(n) / n <= 1 + ln n on the sieved table; the words pack up to N = 2^38 - 1, where
    # s = 43 and d(n) <= 2 isqrt(N) < 2^20, and no further
    n = np.arange(1, tables_1m.limit + 1)
    assert (tables_1m.sigma[1:] <= n * (1 + np.log(n))).all()
    top = _PACKED_TOP
    assert arith._pack_shift(top) == 43 and 2 * math.isqrt(top) < 2**20 <= 2 * math.isqrt(top + 1)
    for N in (top + 1, 10**19):
        with pytest.raises(CapacityError, match=f"only for N <= {top}, not N={N}$") as info:
            arith._pack_shift(N)
        assert info.value.required_limit == top


def _unpacked(N: int) -> tuple[np.ndarray, np.ndarray]:
    """d(m) and sigma(m) of the odd m <= N from sigma's packed stream."""
    words, shift = _streamed("sigma", N), arith._pack_shift(N)
    return words >> shift, words & ((1 << shift) - 1)


def _two_adic_weights(N: int) -> tuple[np.ndarray, np.ndarray]:
    """How often d(m) and sigma(m) of each odd m <= N count in sum_{n<=N} d(n) and
    sum sigma(n): once per n = 2^e m <= N, as d(2^e m) = (e + 1) d(m) and
    sigma(2^e m) = (2^(e+1) - 1) sigma(m), added up one e at a time."""
    m = np.arange(1, N + 1, 2)
    wd, ws = np.zeros_like(m), np.zeros_like(m)
    for e in range(N.bit_length()):
        has = (m << e) <= N
        wd += has * (e + 1)
        ws += has * ((2 << e) - 1)
    return wd, ws


@pytest.mark.parametrize("segment", [1, 2, 3, 4, 5, 6, 7, 2**18])
def test_packed_stream_equals_the_d_stream_the_sigma_table_and_the_counts(monkeypatch, segment):
    # a segment of w words covers the odd n of 2w integers.  N in 1, 2 and 3 segments + 7, and
    # odd squares on the first word of a segment: of the short segments every N up to 200 (a
    # square opens a segment below 170 at each w); at the real 2^18 words also N = 2^19 + 1,
    # the first word of the second segment (no odd square opens one below 2^36)
    monkeypatch.setattr(arith, "_PAIR_SEGMENT", segment)
    sizes = {2 * k * segment + 7 for k in (1, 2, 3)}
    sizes |= set(range(1, 201)) if segment < 8 else {2 * segment + 1}
    for N in sorted(sizes):
        d, sigma = _unpacked(N)
        assert np.array_equal(d, _streamed("d", N)[1::2]), (segment, N)
        assert np.array_equal(sigma, arith._filled("sigma", N)[1::2]), (segment, N)
        assert arith._pair_sums(N) == (hyperbola_count(N), sigma_count(N)), (segment, N)
        wd, ws = _two_adic_weights(N)
        assert int(wd @ d) == hyperbola_count(N) and int(ws @ sigma) == sigma_count(N), N
    if segment < 8:
        starts = range(1 + 2 * segment, max(sizes), 2 * segment)
        assert any(math.isqrt(lo) ** 2 == lo for lo in starts), segment


@pytest.mark.parametrize("segment, top", [(1, 2**10), (7, 2**13), (64, 2**16), (2**18, 2**20)])
def test_pair_sums_and_the_sigma_table_are_exact_where_the_weights_step(monkeypatch, segment,
                                                                         top):
    # the even n come from the odd m by weights that step where m = N >> e, and the even table
    # entries from table[n >> v2(n)]: every N <= 300, and N = 2^k - 1, 2^k and 2^k + 1 up to
    # top, where a new power of 2 fits, against the counts and the weights sieve
    monkeypatch.setattr(arith, "_PAIR_SEGMENT", segment)
    powers = [2**k + e for k in range(1, top.bit_length()) for e in (-1, 0, 1)]
    for N in sorted({*range(1, 301), *powers}):
        assert arith._pair_sums(N) == (hyperbola_count(N), sigma_count(N)), (segment, N)
        expected = divisor_sieve(np.arange(N + 1))
        assert np.array_equal(arith._filled("sigma", N), expected), (segment, N)


def test_pair_sums_are_exact_when_a_segments_words_wrap_past_2_64(monkeypatch):
    # a shift of 45 still keeps the fields apart here (d(n) < 2^11 < 2^18) and takes each
    # segment's word sum past 2^64, so sigma's part comes back from the wrapped sum mod 2^64
    N = 3 * arith._PAIR_SEGMENT + 7
    monkeypatch.setattr(arith, "_pack_shift", lambda n: 45)
    assert int(_streamed("sigma", N)[:arith._PAIR_SEGMENT].sum(dtype=object)) >= 2**64
    assert arith._pair_sums(N) == (hyperbola_count(N), sigma_count(N))


def test_packing_past_a_patched_carry_bound_raises(monkeypatch):
    # 24-bit words: the largest N that packs is found, its words fill no more than 24 bits
    # and equal the tables'; one more raises before any sieving, from the stream, the sums
    # and the table alike
    monkeypatch.setattr(arith, "_WORD_BITS", 24)
    with pytest.raises(CapacityError) as info:
        arith._pack_shift(10**6)
    top = info.value.required_limit
    assert 1000 < top < 10**4
    shift = arith._pack_shift(top)
    words = _streamed("sigma", top)
    assert 0 <= words.min() and words.max() < 2**24
    assert np.array_equal(words, _packed(arith.build_tables(top)))
    assert 2 * math.isqrt(top) < 2**(24 - shift) and (words >> shift).max() <= 2 * math.isqrt(top)
    for name in ("_pair_segment", "_d_segment"):   # any sieve would fail
        monkeypatch.setattr(arith, name, None)
    for call in (lambda: next(arith._segments("sigma", top + 1)),
                 lambda: arith._pair_sums(top + 1), lambda: arith._filled("sigma", top + 1)):
        with pytest.raises(CapacityError, match=f"only for N <= {top}, not N={top + 1}$"):
            call()


def test_sieve_scratch_memory_is_bounded():
    # d needs its own table only; sigma its table, into which its packed words are sieved and
    # masked, an int64 ramp of _PAIR_RUN + sqrt(N) entries and a _PAIR_RUN-entry pair buffer;
    # r its table and one segment's pair arrays and counts
    N = 10**6
    assert traced_peak(lambda: arith.build_tables(N).d) <= 4 * N + 0.1 * 2**20
    assert traced_peak(lambda: arith.build_tables(N).sigma) <= 8 * N + 3 * 2**20
    assert traced_peak(lambda: arith.build_tables(N).r) <= 4 * N + 2**20


def test_table_sums_match_integer_counts(tables_1m):
    N = tables_1m.limit
    assert int(tables_1m.r.sum(dtype=np.int64)) == lattice_count(N)
    assert int(tables_1m.d.sum(dtype=np.int64)) == hyperbola_count(N)
    assert int(tables_1m.sigma.sum()) == sigma_count(N)


@st.composite
def _coprime_pairs(draw):
    m = draw(st.integers(1, LIMIT_1M))
    n = draw(st.integers(1, LIMIT_1M // m))
    assume(math.gcd(m, n) == 1)
    return m, n


@property_test
@given(_coprime_pairs())
def test_multiplicative_on_coprime_pairs(tables_1m, pair):
    m, n = pair
    t = tables_1m
    assert int(t.r[m * n]) * 4 == int(t.r[m]) * int(t.r[n])
    assert int(t.d[m * n]) == int(t.d[m]) * int(t.d[n])
    assert int(t.sigma[m * n]) == int(t.sigma[m]) * int(t.sigma[n])


@property_test
@given(st.integers(1, LIMIT_1M // 2))
def test_r_even_part_ignored(tables_1m, n):
    assert tables_1m.r[2 * n] == tables_1m.r[n]


@property_test
@given(st.integers(0, (LIMIT_1M - 3) // 4))
def test_r_vanishes_at_3_mod_4(tables_1m, j):
    assert tables_1m.r[4 * j + 3] == 0


@property_test
@given(st.integers(1, LIMIT_1M))
def test_r_table_matches_r_single(tables_1m, n):
    assert int(tables_1m.r[n]) == arith.r_single(n)


@property_test
@given(st.integers(1, 10**9))
def test_g_direct_equals_g_closed(h):
    assert g_direct(h) == arith.g_closed(h)


def test_tables_immutable(tables_4k):
    with pytest.raises(ValueError):
        tables_4k.r[1] = 0


def test_r_table_against_lattice_enumeration(tables_4k):
    for n in list(range(1, 200)) + [977, 2025, 3999]:
        assert tables_4k.r[n] == brute_r(n), n
    assert tables_4k.r[1] == 4 and tables_4k.r[4000] == 16   # 4000 = 2^5 5^3: r = 4 (3 + 1)


def test_r_invariants(tables_4k):
    r = tables_4k.r[1:]
    assert (r % 4 == 0).all()
    # zero whenever a prime p = 3 (mod 4) divides to an odd power
    for n in (3, 7, 12, 21, 48, 2001):
        assert tables_4k.r[n] == 0
    assert (tables_4k.d[2:] >= 2).all()
    n = np.arange(2, tables_4k.limit + 1)
    assert (tables_4k.sigma[2:] >= n + 1).all()


def test_r_single_examples():
    assert arith.r_single(25) == 12
    assert arith.r_single(3) == 0
    assert arith.r_single(65) == 16
    assert arith.r_single(1) == 4


def test_r_single_matches_table(tables_4k):
    rng = np.random.default_rng(42)
    for n in rng.integers(1, tables_4k.limit + 1, size=300):
        assert arith.r_single(int(n)) == int(tables_4k.r[n])


def test_r_over_4_multiplicative(tables_4k):
    rng = np.random.default_rng(7)
    found = 0
    while found < 200:
        m = int(rng.integers(2, 60))
        n = int(rng.integers(2, tables_4k.limit // m))
        if math.gcd(m, n) != 1:
            continue
        found += 1
        assert tables_4k.r[m * n] * 4 == tables_4k.r[m] * tables_4k.r[n]


def test_r_partial_sum_is_lattice_count(tables_4k):
    for N in (1, 10, 97, 500):
        assert int(tables_4k.r[1 : N + 1].sum()) == lattice_count(N)


def test_g_closed_examples():
    assert arith.g_closed(1) == 8
    assert arith.g_closed(2) == 4
    assert arith.g_closed(4) == 10


def test_g_direct_examples():
    assert g_direct(1) == 8
    assert g_direct(3) == Fraction(32, 3)
    assert g_direct(4) == 10


def test_g_direct_matches_definition():
    # ((-1)^h 8/h) sum_{d|h} (-1)^d d, by independent divisor enumeration
    for h in range(1, 200):
        s = sum((-1) ** d * d for d in brute_divisors(h))
        assert g_direct(h) == Fraction((-1) ** h * 8 * s, h)


def test_g_identity_small_range_exact():
    for h in range(1, 3000):
        assert g_direct(h) == arith.g_closed(h), h


def test_g_identity_scan_matches_single_ops():
    assert g_identity_first_failure(10**4) is None
    rng = np.random.default_rng(3)
    for h in rng.integers(1, 10**6, size=50):
        assert g_direct(int(h)) == arith.g_closed(int(h))


def test_g_denominator_divides_h():
    for h in (1, 2, 12, 97, 360, 2**10 * 3):
        assert h % arith.g_closed(h).denominator == 0


def test_capacity_error_names_limit():
    err = CapacityError("no room", required_limit=123)
    assert err.required_limit == 123


@pytest.mark.parametrize("fn", [arith.v2, arith.r_single, arith.g_closed, g_direct,
                                g_identity_first_failure])
def test_domain_checks_reject_0(fn):
    with pytest.raises(ValueError, match=">= 1, got 0"):
        fn(0)


def _cut(table: np.ndarray, rng: random.Random) -> list:
    """table as ascending (lo, f) segments of 1-7 entries each."""
    out, lo = [], 0
    while lo < table.size:
        out.append((lo, table[lo:lo + rng.randint(1, 7)]))
        lo += out[-1][1].size
    return out


_SIGMA_40 = arith.build_tables(40).sigma   # a built table, no two neighbours equal


@pytest.mark.parametrize("whole", [True, False], ids=["one-segment", "segments-of-1-to-7"])
def test_windows_are_the_table_slices(whole):
    # keep runs past a block and past a segment; lo below keep reads n < 0 as 0
    rng, table = random.Random(41), _SIGMA_40
    hi = table.size
    for keep in range(13):
        for block in range(1, 10):
            for lo in sorted({0, 1, keep // 2, max(keep - 1, 0), 23}):
                a, buf = lo, np.full(keep + block, np.nan)
                for w in arith._windows([(0, table)] if whole else _cut(table, rng), lo, hi,
                                        buf, keep):
                    b = min(a + block, hi)
                    assert np.shares_memory(w, buf)
                    assert w.tolist() == [table[n] if n >= 0 else 0 for n in range(a - keep, b)]
                    a = b
                assert a == hi, (keep, block, lo)


@pytest.mark.parametrize("whole", [True, False], ids=["one-segment", "segments-of-1-to-7"])
def test_windows_carry_what_their_reader_left(whole):
    rng, table = random.Random(7), _SIGMA_40
    for keep, block in [(1, 1), (3, 2), (12, 5), (5, 9)]:
        left = None
        for w in arith._windows([(0, table)] if whole else _cut(table, rng), 2, table.size,
                                np.empty(keep + block), keep):
            if left is not None:
                assert w[:keep].tolist() == left
            w += 0.5   # a reader that overwrites its window in place
            left = w[w.size - keep:].tolist()


@pytest.mark.parametrize("whole", [True, False], ids=["one-segment", "segments-of-1-to-7"])
def test_block_sums_rows_carry_and_head(whole):
    rng, table = random.Random(3), _SIGMA_40
    S = np.cumsum(table)
    hi = table.size - 1
    for rows in range(13):
        for block in range(1, 10):
            for lo in sorted({0, 1, rows // 2, rows, 23}):
                a, last = lo, None
                for n, s in arith._block_sums([(0, table)] if whole else _cut(table, rng),
                                              lo, hi, block, rows):
                    b = min(a + block, hi)
                    assert n.tolist() == list(range(a - rows, b + 1))
                    assert s.tolist() == [S[m] if m >= 0 else 0 for m in range(a - rows, b + 1)]
                    if last is None and a > rows:   # the head, f's int64 sum before the window
                        assert s[0] - table[a - rows] == table[:a - rows].sum(dtype=np.int64)
                    elif last is not None:   # the rows and S(a) are the last block's last sums
                        assert s[:rows + 1].tolist() == last
                    last, a = s[s.size - rows - 1:].tolist(), b
                assert a == hi, (rows, block, lo)


def test_block_sums_fill_the_buffers_they_are_given():
    table, rows, block = _SIGMA_40, 4, 6
    out = (np.empty(rows + block + 1), np.empty(rows + block + 1))
    given = list(arith._block_sums([(0, table)], 3, 40, block, rows, out))
    own = list(arith._block_sums([(0, table)], 3, 40, block, rows))
    assert all(np.shares_memory(n, out[0]) and np.shares_memory(s, out[1]) for n, s in given)
    assert [(n.tolist(), s.tolist()) for n, s in given] == \
        [(n.tolist(), s.tolist()) for n, s in own]


def _fsum_cases(rng):
    """Float64 arrays of signed terms: magnitudes 1e+-300, subnormals, near-cancelling pairs,
    exact ties of the final rounding, sums far below their largest term."""
    cases = [np.array([1.0, 2.0**-53]), np.array([1.0 + 2.0**-52, 2.0**-53]),   # ties to even
             np.array([2.0**-1074, 2.0**-1074, -2.0**-1073, 2.0**-1075 * 2]),   # subnormals
             np.array([1e300, 1.0, -1e300, 2.0**-1074]), np.array([-0.0, 0.0, 5.0]),
             np.array([1.0, 2.0**-53, 2.0**-1074]), np.array([1.0, -2.0**-54, -2.0**-1074])]
    for k in range(60):
        size = int(rng.integers(1, 300))
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
        if k % 3 == 0:   # each with a partner that cancels it to ~1e-15 relative
            x = np.concatenate([x, -x * (1 + rng.standard_normal(size) * 1e-15)])
        if k % 4 == 0:
            x = np.concatenate([x, rng.integers(-2**20, 2**20, 30) * 2.0**-1074])
        rng.shuffle(x)
        cases.append(x)
    return cases


def _series_of(x: np.ndarray, segments) -> float:
    """`arith._series_sum` of the terms x, fed as the term of n = 1..x.size from segments of
    nonzero f cut at the given lengths."""
    starts = np.cumsum([1, *segments])
    pieces = [(int(lo), np.ones(hi - lo)) for lo, hi in zip(starts, starts[1:])]
    return arith._series_sum(pieces, lambda n, f: x[n.astype(np.int64) - 1])


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6, 7, arith._BLOCK])
def test_series_sum_equals_fsum_bit_for_bit(monkeypatch, block):
    # each case as one segment and as random segments of 1-7 terms
    monkeypatch.setattr(arith, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for x in _fsum_cases(rng):
        cuts = rng.integers(1, 8, x.size).tolist()
        cuts = np.diff(np.minimum(np.cumsum([0] + cuts), x.size)).tolist()
        expected = math.fsum(x.tolist()).hex()
        for segments in ([x.size], [c for c in cuts if c]):
            assert _series_of(x, segments).hex() == expected, (block, x.size, segments)


def test_series_sum_of_nothing_is_0():
    assert arith._series_sum([], None) == 0.0
    got = arith._series_sum([(0, np.zeros(9, np.int16)), (9, np.zeros(0))], None)
    assert got.hex() == math.fsum([]).hex() == "0x0.0p+0"


@pytest.mark.parametrize("x", [[1.0, math.inf], [-math.inf, 1e308, 1e308], [math.nan, 1.0],
                               [math.inf, math.nan], [2.0, math.inf, -math.inf]])
def test_series_sum_of_non_finite_terms_raises(x):
    # the mantissa split's inf - inf warns first; int() of an inf or nan bin is what raises
    with np.errstate(invalid="ignore"), pytest.raises((ValueError, OverflowError)):
        _series_of(np.array(x), [len(x)])


def test_series_sum_past_the_largest_double_raises_as_fsum_does():
    x = [1e308, 1e308]
    with pytest.raises(OverflowError):
        math.fsum(x)
    with pytest.raises(OverflowError):
        _series_of(np.array(x), [len(x)])
