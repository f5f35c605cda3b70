import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from circlekit import arith, lattice
from circlekit.errors import CapacityError
from conftest import (LIMIT_1M, brute_r, lattice_count, p_60_digits, p_gauss_oracle, partial_sums,
                      traced_peak)
from circlekit.lattice import (
    CIRCLE,
    DIVISOR,
    EULER_GAMMA,
    error_term,
    mean_square_p,
    pointwise_report,
    step_profile,
)


def test_circle_error_term_basic_values(circle_4k):
    # r(1) + r(2) = 8 nonzero lattice points inside radius sqrt(2.5)
    assert error_term(circle_4k, 2.5) == pytest.approx(8 + 1 - 2.5 * math.pi, abs=1e-14)
    # integer x: the final term r(x) is halved
    assert error_term(circle_4k, 1.0) == pytest.approx(4 / 2 - math.pi + 1, abs=1e-14)
    # sum_{n<=10} r(n) = 36, r(10) = 8 halved at the endpoint
    assert error_term(circle_4k, 10.0) == pytest.approx(36 - 4 + 1 - 10 * math.pi, abs=1e-13)


def test_p_right_limit_at_10_is_unhalved_count(circle_4k):
    # Straddling the halving convention: the lattice count through n = 10
    # is 36, so just above x = 10 the error term is 37 - 10 pi; the
    # enumeration oracle at x = 10 counts the full circle and agrees.
    right_limit = float(partial_sums(circle_4k.tables.r)[10]) + 1.0 - math.pi * 10.0
    assert right_limit == pytest.approx(37 - 10 * math.pi, abs=1e-13)
    assert abs(p_gauss_oracle(10.0) - right_limit) <= 1e-12


def test_p_oracle_examples():
    assert p_gauss_oracle(0.5) == pytest.approx(1 - 0.5 * math.pi, abs=1e-14)
    assert p_gauss_oracle(2.5) == pytest.approx(9 - 2.5 * math.pi, abs=1e-14)
    for x in (-0.5, math.nan, math.inf):   # nan fails every comparison; inf has no integer floor
        with pytest.raises(ValueError, match="x must be finite and >= 0"):
            p_gauss_oracle(x)


def test_p_matches_oracle_at_random_noninteger_x(circle_4k):
    rng = np.random.default_rng(2024)
    xs = rng.uniform(1.0, 4000.0, size=100)
    xs = xs[np.floor(xs) != xs]
    for x in xs:
        assert error_term(circle_4k, float(x)) == p_gauss_oracle(float(x))


@pytest.mark.parametrize("block", [1, 7])
def test_circle_sums_never_depend_on_the_column_block(monkeypatch, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    for m in range(1, 301):
        S = lattice_count(m)
        assert lattice._circle_sums(m).tolist() == [S - brute_r(m), S], m


def test_circle_sums_equal_the_lattice_count_and_r():
    # every m <= 5000 (its squares and 2 a^2 among them), squares and 2 a^2 up to 1e10, the
    # column block edge (isqrt(m) = 2^16 = arith._BLOCK) and random m up to 1e10
    edge = arith._BLOCK**2
    rng = np.random.default_rng(43)
    large = [10**10, 2 * 70_710**2, 2 * 70_710**2 - 1, edge - 1, edge, (arith._BLOCK + 1)**2,
             *rng.integers(10**6, 10**10, 4).tolist()]
    for m in [*range(1, 5001), *large]:
        S = lattice_count(m)
        assert lattice._circle_sums(m).tolist() == [S - brute_r(m), S], m


def test_counted_p_equals_error_term_bit_for_bit(circle_1m):
    # the count's sums, through error_term's float64 main term, against the sieved profile's
    # P(x) at integer and non-integer x, the final term halved at the integers
    circle_1m.tables.r   # built, so each error_term reads two entries
    rng = np.random.default_rng(615)
    xs = [*map(float, range(1, 101)), 2.5, 1024.0, 1024.5, 999_999.0, 1_000_000.5,
          *map(float, rng.integers(2, LIMIT_1M, 200)), *rng.uniform(1.0, LIMIT_1M, 200)]
    for x in xs:
        counted = lattice._error_from_sums(CIRCLE, x, lattice._circle_sums(int(x)), 1)
        assert counted == error_term(circle_1m, x), x


@pytest.mark.parametrize("x", [100000.5, 100000.0, 1e9 + 0.5, 1e12 + 0.5, 2e15 + 0.5])
def test_counted_p_is_the_60_digit_value_rounded_once(x):
    # voronoi's P(x): pi x at 40 digits, then one rounding.  error_term's float64 pi x is off
    # by 3.7e-11 at 100000.5, 2.7e-4 at 1e12 + 0.5 and 0.048 at 2e15 + 0.5
    before, S = map(int, lattice._circle_sums(int(x)))
    final = S - before if x == int(x) else 0
    assert lattice._circle_p(x) == float(p_60_digits(x, S, final))


def test_p_domain_error(circle_4k):
    for x in (4001.0, 0.5, math.nan):   # nan fails every comparison, so it must fail the check
        with pytest.raises(ValueError, match="outside profile domain"):
            error_term(circle_4k, x)
        with pytest.raises(ValueError, match="outside profile domain"):
            pointwise_report(circle_4k, x, samples=4)
    for X in (4001.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="outside profile domain"):
            mean_square_p(circle_4k, X)


def test_p_affine_between_jumps(circle_4k):
    # slope is exactly -pi between consecutive integers
    for x in (7.2, 123.4, 3999.1):
        v1 = error_term(circle_4k, x)
        v2 = error_term(circle_4k, x + 0.3)
        assert v2 - v1 == pytest.approx(-0.3 * math.pi, abs=1e-9)


def test_p_jump_size(circle_4k, tables_4k):
    # crossing integer n the error term jumps by r(n)
    for n in (5, 25, 1000):
        below = error_term(circle_4k, n - 1e-9)
        above = error_term(circle_4k, n + 1e-9)
        assert above - below == pytest.approx(float(tables_4k.r[n]), abs=1e-5)
        # primed convention sits halfway
        assert error_term(circle_4k, float(n)) == pytest.approx((below + above) / 2, abs=1e-5)


def test_delta_values(divisor_4k):
    # d(1) = 1, d(2) = 2 halved at the integer endpoint
    expect_2 = 1 + 2 / 2 - 2 * (math.log(2) + 2 * EULER_GAMMA - 1) - 0.25
    assert error_term(divisor_4k, 2.0) == pytest.approx(expect_2, abs=1e-14)
    assert expect_2 == pytest.approx(0.0548429793, abs=1e-9)
    # only d(1) contributes below x = 2
    expect_15 = 1 - 1.5 * (math.log(1.5) + 2 * EULER_GAMMA - 1) - 0.25
    assert error_term(divisor_4k, 1.5) == pytest.approx(expect_15, abs=1e-14)
    assert expect_15 == pytest.approx(-0.0898446569, abs=1e-9)


def test_delta_jump_structure(divisor_4k, tables_4k):
    for n in (6, 100, 3600):
        below = error_term(divisor_4k, n - 1e-9)
        above = error_term(divisor_4k, n + 1e-9)
        assert above - below == pytest.approx(float(tables_4k.d[n]), abs=1e-4)


def test_kind_guards(circle_4k, divisor_4k):
    with pytest.raises(ValueError):
        mean_square_p(divisor_4k, 2.0)


def test_mean_square_closed_forms(circle_4k):
    assert mean_square_p(circle_4k, 0.0) == 0.0
    # int_0^1 (1 - pi x)^2 dx
    assert mean_square_p(circle_4k, 1.0) == pytest.approx(
        1 - math.pi + math.pi**2 / 3, rel=1e-14
    )
    # plus int_1^2 (5 - pi x)^2 dx, antiderivative -(5 - pi x)^3 / (3 pi)
    second = ((5 - math.pi) ** 3 - (5 - 2 * math.pi) ** 3) / (3 * math.pi)
    assert mean_square_p(circle_4k, 2.0) == pytest.approx(
        1 - math.pi + math.pi**2 / 3 + second, rel=1e-14
    )


def _p_squared_quadrature(profile, lo: float, hi: float) -> float:
    """Independent integral of P^2 over [lo, hi]: 4-point Gauss-Legendre per
    piece between breakpoints, exact for the piecewise-quadratic integrand."""
    nodes, weights = np.polynomial.legendre.leggauss(4)

    def p_sq(x: float) -> float:
        return (1 - math.pi * x) ** 2 if x < 1 else error_term(profile, x) ** 2

    edges = sorted({lo, hi} | {float(n) for n in range(math.ceil(lo), math.floor(hi) + 1)})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        total += half * sum(w * p_sq(mid + half * t) for t, w in zip(nodes, weights))
    return total


def test_mean_square_against_quadrature(circle_4k):
    for X in (0.7, 2.0, 37.6):
        assert mean_square_p(circle_4k, X) == pytest.approx(
            _p_squared_quadrature(circle_4k, 0.0, X), rel=1e-12
        )


def _mean_square_oracle(tables, X: float):
    """int_0^X P^2 from exact integer sums: on [n, n+1) with A = S_n + 1,
    P^2 integrates to A^2 - pi A (2n + 1) + pi^2 (n^2 + n + 1/3), and
    sum_{n<N} (n^2 + n + 1/3) = N^3 / 3; pi enters at 40 digits."""
    nf = math.floor(X)
    A = np.cumsum(tables.r[: nf + 1], dtype=np.int64).astype(object) + 1
    n = np.arange(nf, dtype=np.int64).astype(object)
    sum_a2 = int(np.sum(A[:nf] ** 2))
    sum_a_odd = int(np.sum(A[:nf] * (2 * n + 1)))
    with mp.workdps(40):
        total = sum_a2 - mp.pi * sum_a_odd + mp.pi**2 * mp.mpf(nf) ** 3 / 3
        u = mp.mpf(X) - nf
        b = int(A[nf]) - mp.pi * nf
        total += u * (b * b - mp.pi * b * u + mp.pi**2 * u * u / 3)
        return total


def test_mean_square_sieve_scale_oracle(monkeypatch, tables_1m, circle_1m):
    refs = {X: _mean_square_oracle(tables_1m, X) for X in (1e5, 12345.6)}
    for block in (7, 64, arith._BLOCK):   # the block fixes only the last bits
        monkeypatch.setattr(arith, "_BLOCK", block)
        for X, ref in refs.items():
            assert abs((mean_square_p(circle_1m, X) - ref) / ref) <= 1e-14, (X, block)


def test_step_profile_checks_float64_exactness(monkeypatch):
    # step_profile reads nothing; the first fold raises once a sum it reaches is 2^53, for a
    # given table and for a streamed one (one entry per segment), and 2^53 - 1 passes
    def given(d):
        zeros = np.zeros(len(d), dtype=np.int64)
        return arith.ArithTables(limit=len(d) - 1, r=zeros, d=np.array(d, dtype=np.int64),
                                 sigma=zeros)

    def streamed(d):
        values = np.array(d, dtype=np.int64)
        monkeypatch.setattr(arith, "_segments",
                            lambda name, N: ((lo, values[lo:lo + 1]) for lo in range(N + 1)))
        return arith.ArithTables(limit=len(d) - 1)

    main = 2 * (math.log(2) + 2 * EULER_GAMMA - 1) + 0.25
    for tables in (given, streamed):
        prof = step_profile(tables([0, 2**52, 2**52 - 1]), DIVISOR)
        assert next(arith._block_sums(prof._segments(2), 0, 2, 2))[1][-1] == 2**53 - 1   # exact
        expect = 2**53 - 1 - (2**52 - 1) / 2 - main   # the final term halved at x = 2
        assert error_term(prof, 2.0) == pointwise_report(prof, 2.0, samples=1).rows[0].value \
            == expect
        prof = step_profile(tables([0, 2**52, 2**52]), DIVISOR)   # no fold yet, so no raise
        assert error_term(prof, 1.5) == 2**52 - 1.5 * (math.log(1.5) + 2 * EULER_GAMMA - 1) - 0.25
        for fold in (lambda: pointwise_report(prof, 2.0, samples=1), lambda: error_term(prof, 2.0)):
            with pytest.raises(CapacityError, match=r"2\^53"):
                fold()
        assert ("d" in vars(prof.tables)) == (tables is given)   # the stream kept no table


def test_mean_square_monotone_and_additive(circle_4k):
    xs = [0.0, 0.5, 1.0, 7.3, 7.9, 50.0, 3999.0]
    vals = [mean_square_p(circle_4k, x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    whole = mean_square_p(circle_4k, 100.0)
    first = mean_square_p(circle_4k, 61.7)
    assert whole == pytest.approx(
        first + _p_squared_quadrature(circle_4k, 61.7, 100.0), rel=1e-12
    )


def test_q_of_x(circle_4k):
    # Q(X) = int_0^X P^2 - c32 X^(3/2), written inline where it is used (ACC-06)
    assert mean_square_p(circle_4k, 0.0) - 1.7 * 0.0**1.5 == 0.0
    X = 2000.0
    c32 = 1.69
    assert mean_square_p(circle_4k, X) - c32 * X**1.5 == pytest.approx(
        _p_squared_quadrature(circle_4k, 0.0, X) - c32 * X**1.5, rel=1e-12
    )


def test_pointwise_report(circle_4k):
    rep = pointwise_report(circle_4k, 100.0, samples=16)
    assert len(rep.rows) == 16
    assert rep.kind == CIRCLE
    # the maximum must live at a one-sided limit of an integer; compare with
    # a dense brute-force scan
    dense = 0.0
    for n in range(1, 101):
        for x in (n - 1e-9, n + 1e-9):
            dense = max(dense, abs(error_term(circle_4k, min(max(x, 1.0), 100.0))))
    assert rep.max_abs >= dense - 1e-5
    assert rep.max_ratio_quarter >= rep.max_abs / 100.0**0.25
    with pytest.raises(ValueError):
        pointwise_report(circle_4k, 100.0, samples=0)


def test_pointwise_report_divisor(divisor_4k):
    rep = pointwise_report(divisor_4k, 500.0, samples=8)
    assert rep.kind == DIVISOR
    assert rep.max_abs > 0
    assert all(r.ratio_quarter >= 0 for r in rep.rows)


@pytest.mark.parametrize("kind", [CIRCLE, DIVISOR])
def test_error_at_jumps_interior_range(tables_4k, kind):
    profile = step_profile(tables_4k, kind)
    lo, hi = 1000, 1100
    n_all, err_all = lattice.error_at_jumps(profile, 1, hi)
    n, err = lattice.error_at_jumps(profile, lo, hi)
    assert np.array_equal(n, n_all[lo - 1 :])
    assert np.array_equal(err, err_all[lo - 1 :])
    assert n[0] == lo and n[-1] == hi
    for m, e in zip(n, err):
        sides = (error_term(profile, m - 1e-9), error_term(profile, m + 1e-9))
        assert e == pytest.approx(max(abs(v) for v in sides), abs=1e-6)
    with pytest.raises(ValueError):
        lattice.error_at_jumps(profile, 0, hi)
    with pytest.raises(ValueError):
        lattice.error_at_jumps(profile, lo, profile.limit + 1)


def _two_abs_jump_maxima(kind, n, S):
    """max(|S(n-1) - m|, |S(n) - m|) in the five ops that `lattice._jump_maxima` replaced:
    its oracle."""
    main = np.pi * n - 1.0 if kind == CIRCLE else lattice.divisor_main(n)
    return np.maximum(np.abs(S[:-1] - main), np.abs(S[1:] - main))


@pytest.mark.parametrize("kind", [CIRCLE, DIVISOR])
def test_jump_maxima_equal_the_two_abs_form(tables_4k, kind):
    # bit for bit, through error_at_jumps on a table and on a stream, and straight on sums
    # with long runs of f = 0 (r has pairs of zeros at 3 mod 4; d none past 0), into fresh
    # arrays and into reused buffers
    ref = partial_sums(getattr(tables_4k, lattice._table_name(kind))).astype(np.float64)
    for profile in (step_profile(tables_4k, kind), step_profile(arith.build_tables(4000), kind)):
        for lo, hi in [(1, 4000), (1, 1), (6, 7), (1000, 1100), (3999, 4000)]:
            n, v = lattice.error_at_jumps(profile, lo, hi)
            assert v.tobytes() == _two_abs_jump_maxima(kind, n, ref[lo - 1:hi + 1]).tobytes()
    rng = np.random.default_rng(1)
    f = rng.integers(0, 40, 5000) * (rng.random(5000) < 0.3)   # mostly 0, and 1000 zeros
    f[1000:2000] = 0
    for scale in (1, 2**40):   # sums near the main term, and far above it
        S = np.cumsum(f * scale).astype(np.float64)
        n = np.arange(1.0, S.size)
        main, out = np.empty((2, n.size))
        assert lattice._jump_maxima(kind, n, S).tobytes() == \
            lattice._jump_maxima(kind, n, S, main, out).tobytes() == \
            _two_abs_jump_maxima(kind, n, S).tobytes(), scale


@pytest.mark.parametrize("p", [0.25, 23.0 / 73.0])
def test_ratio_max_equals_the_whole_array_maximum(p):
    # M at and one ulp either side of the block's largest ratios, and random, so candidates
    # sit on both sides of the threshold; at n0 = 2^40 the powers of n differ from n0's by
    # far less than the 2^-20 margin; M <= 0 takes every entry
    rng = np.random.default_rng(2)
    for n0 in (1.0, 1000.0, 2.0**40):
        n = n0 + np.arange(64.0)
        v = rng.random(64) * n**p
        v[rng.random(64) < 0.2] = 0.0
        ratios = v / n**p
        top = np.sort(ratios)[-3:]
        Ms = [-1.0, 0.0, *top, *rng.random(3)]
        Ms += [np.nextafter(M, s) for M in top for s in (-np.inf, np.inf)]
        for M in map(float, Ms):
            got = lattice._ratio_max(M, v, n, p, np.empty(64))
            assert got == max(M, float(ratios.max())), (n0, M)


def _whole_range_maxima(profile, x_max):
    """The report's four maxima from one error_at_jumps call over 1..floor(x_max),
    then from |error| at the report's 3 sample points, first maximiser kept."""
    n, absval = lattice.error_at_jumps(profile, 1, int(math.floor(x_max)))
    i = int(np.argmax(absval))
    abs_max, argmax = float(absval[i]), float(n[i])
    quarter = float((absval / n**0.25).max())
    huxley = float((absval / n ** (23.0 / 73.0)).max())
    for x in np.geomspace(1.0, x_max, 3):
        v = abs(error_term(profile, float(x)))
        if v > abs_max:
            abs_max, argmax = v, float(x)
        quarter = max(quarter, float(v / x**0.25))
        huxley = max(huxley, float(v / x ** (23.0 / 73.0)))
    return abs_max, argmax, quarter, huxley


def _report_maxima(profile, x_max):
    rep = pointwise_report(profile, x_max, samples=3)
    return rep.max_abs, rep.argmax, rep.max_ratio_quarter, rep.max_ratio_huxley


@pytest.mark.parametrize("kind, x_max", [(CIRCLE, 3960.07), (DIVISOR, 179.98), (CIRCLE, 3.999)])
def test_report_maxima_cover_the_sampled_rows(tables_4k, kind, x_max):
    # the last sample lies past the last jump, where |error| exceeds every one-sided
    # limit: 39.93 against 39.71 for the circle, 9.65 against 9.02 for the divisor,
    # 3.56 against 2.72 at 3.999; a single sample is x_max itself
    profile = step_profile(tables_4k, kind)
    for samples in (3, 1):
        rep = pointwise_report(profile, x_max, samples=samples)
        last = rep.rows[-1]
        assert len(rep.rows) == samples and last.x == x_max
        assert abs(last.value) > lattice.error_at_jumps(profile, 1, int(x_max))[1].max()
        assert (rep.max_abs, rep.argmax) == (abs(last.value), x_max)
        assert rep.max_ratio_quarter >= max(r.ratio_quarter for r in rep.rows)
        assert rep.max_ratio_huxley >= max(r.ratio_huxley for r in rep.rows)


def _tied_profile(monkeypatch, d):
    """A divisor profile to 200 whose |error| at the jumps is exactly 20 at n = 100 and
    n = 150 and below 20 elsewhere, so only a first-maximiser fold reports 100 (the two
    lie in different blocks at every block size tested).

    Integer sums never tie exactly against pi n - 1 or n log n, so the main term the
    fold uses, `divisor_main`, is patched to S(n) - 20 at both n: there the right
    limit is exactly 20 and the left 20 - d(n)."""
    sums, divisor_main = partial_sums(d[:201]), lattice.divisor_main

    def tied_main(n):
        main = divisor_main(n)
        for m in (100, 150):
            main[n == m] = sums[m] - 20.0
        return main
    monkeypatch.setattr(lattice, "divisor_main", tied_main)
    return lattice.StepProfile(kind=DIVISOR, tables=arith.ArithTables(200, d=d[:201]))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_folded_report_equals_whole_range_maxima(monkeypatch, tables_4k, circle_4k, divisor_4k,
                                                 block):
    tied = _tied_profile(monkeypatch, tables_4k.d)
    assert [lattice.error_at_jumps(tied, n, n)[1][0] for n in (100, 150)] == [20.0, 20.0]
    assert _whole_range_maxima(tied, 200.0)[:2] == (20.0, 100.0)
    monkeypatch.setattr(arith, "_BLOCK", block)
    edges = [k * block + e for k in (1, 3) for e in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    for profile in (circle_4k, divisor_4k, tied):
        for x_max in [1.0, 1.5, 2.0, 99.5, 100.0, 120.25, 128.0, 150.25, *edges, profile.limit]:
            if 1 <= x_max <= profile.limit:
                assert _report_maxima(profile, x_max) == _whole_range_maxima(profile, x_max), \
                    (profile.kind, profile.limit, x_max)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_sums_and_error_term_across_block_edges(monkeypatch, circle_4k, divisor_4k, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    edges = [k * block + e for k in (1, 3) for e in (-1, 0, 1)]
    for profile, table in ((circle_4k, circle_4k.tables.r), (divisor_4k, divisor_4k.tables.d)):
        ref = partial_sums(table)
        ranges = [(lo, hi) for lo in (0, 1, 5, *edges) for hi in (lo + 1, *edges, 200) if hi > lo]
        ranges += [(profile.limit - 2, profile.limit), (5, profile.limit)]   # a head near the end
        pieces = [(a, table[a:a + 5]) for a in range(0, profile.limit + 1, 5)]
        for (lo, hi), segments in itertools.product(ranges, ([(0, table)], pieces)):
            # the fold reuses its buffers, so each block is copied before the next
            blocks = [(n.copy(), S.copy()) for n, S in
                      arith._block_sums(segments, lo, hi, arith._BLOCK)]
            assert [n[0] for n, _ in blocks] == list(range(lo, hi, block)), (lo, hi)
            for n, S in blocks:   # S(a), ..., S(b): the block [a, b) and its right edge
                a = int(n[0])
                b = min(a + block, hi)
                assert n.dtype == S.dtype == np.float64, (lo, hi, a)
                assert np.array_equal(n, np.arange(a, b + 1)), (lo, hi, a)
                assert np.array_equal(S, ref[a : b + 1]), (lo, hi, a)
        for x in (k * block + e for k in (1, 3) for e in (0.0, 0.5, 1.0)):
            k = math.floor(x)
            s = ref[k] - (table[k] / 2 if x == k else 0)
            main = (math.pi * x - 1 if profile.kind == CIRCLE
                    else x * (math.log(x) + 2 * EULER_GAMMA - 1) + 0.25)
            assert error_term(profile, x) == pytest.approx(s - main, abs=1e-9), (profile.kind, x)


def test_folded_report_equals_whole_range_maxima_at_scale(circle_1m, divisor_1m):
    block = arith._BLOCK
    streamed = arith.build_tables(LIMIT_1M)   # no table: both sides fold the sieve's segments
    profiles = [step_profile(streamed, kind) for kind in (CIRCLE, DIVISOR)]
    for profile in (circle_1m, divisor_1m, *profiles):
        for x_max in (block - 0.5, block, block + 1.5, 7 * block + 0.25, 10**6, profile.limit):
            assert _report_maxima(profile, x_max) == _whole_range_maxima(profile, x_max), \
                (profile.kind, x_max)
    assert "r" not in vars(streamed) and "d" not in vars(streamed)


def test_profile_and_report_scratch_memory_is_bounded(tables_1m, circle_1m):
    N = tables_1m.limit
    tables_1m.r, tables_1m.d   # sieved already: only the profile's own allocation is traced
    for kind in (CIRCLE, DIVISOR):
        assert traced_peak(lambda: step_profile(tables_1m, kind)) <= 0.1 * 2**20, kind
    assert traced_peak(lambda: pointwise_report(circle_1m, N, samples=64)) <= 8 * 2**20


def test_step_profile_structure(tables_4k):
    prof = step_profile(tables_4k, CIRCLE)
    assert prof.tables is tables_4k and not tables_4k.r.flags.writeable   # no copy
    sums = partial_sums(tables_4k.r)
    assert sums[0] == 0
    assert (np.diff(sums) >= 0).all()
    assert tables_4k.r[5] == 8
    with pytest.raises(ValueError):
        step_profile(tables_4k, "unknown")


def _same_readers(streamed, table, x_maxes):
    """pointwise_report, mean_square_p, error_term and error_at_jumps of two profiles of one
    f, compared with ==, at each x_max, with samples 1 and 64, integer and fractional x."""
    for x_max in x_maxes:
        for samples in (1, 64):
            assert pointwise_report(streamed, x_max, samples) == \
                pointwise_report(table, x_max, samples), (x_max, samples)
        assert error_term(streamed, x_max) == error_term(table, x_max), x_max
        if streamed.kind == CIRCLE:
            assert mean_square_p(streamed, x_max) == mean_square_p(table, x_max), x_max
        hi = int(x_max)
        for lo in {1, min(2, hi), hi // 2 + 1, hi}:
            for a, b in zip(lattice.error_at_jumps(streamed, lo, hi),
                            lattice.error_at_jumps(table, lo, hi)):
                assert np.array_equal(a, b), (lo, hi)


@pytest.mark.parametrize("kind", [CIRCLE, DIVISOR])
def test_streamed_profile_equals_the_table_profile(monkeypatch, kind):
    # coprime segment and block sizes, so blocks start inside segments and span several;
    # x_max at every kind of edge, one either side and halfway past it
    monkeypatch.setattr(arith, "_R_SEGMENT", 11)
    monkeypatch.setattr(arith, "_SEGMENT", 13)
    monkeypatch.setattr(arith, "_BLOCK", 7)
    N = 400
    tables = arith.build_tables(N)
    streamed = step_profile(tables, kind)
    table = step_profile(arith.ArithTables(N, r=arith._filled("r", N), d=arith._filled("d", N)),
                         kind)
    edges = {k * size + e for size in (7, 11, 13) for k in (1, 2, 5, 23) for e in (-1, 0, 0.5, 1)}
    _same_readers(streamed, table, sorted(x for x in edges | {1, 1.5, 2, N - 0.5, N} if x <= N))
    assert "r" not in vars(tables) and "d" not in vars(tables)   # no reader built a table


@pytest.mark.parametrize("kind", [CIRCLE, DIVISOR])
def test_streamed_profile_equals_the_table_profile_at_scale(kind):
    # the real sizes: r's 2^15-entry segments inside 2^16-entry blocks, d in one segment
    N = 2 * arith._BLOCK + 3
    tables = arith.build_tables(N)
    streamed = step_profile(tables, kind)
    table = step_profile(arith.ArithTables(N, r=arith._filled("r", N), d=arith._filled("d", N)),
                         kind)
    _same_readers(streamed, table, [arith._BLOCK - 0.5, arith._BLOCK + 1, N - 0.25, N])
    assert "r" not in vars(tables) and "d" not in vars(tables)
