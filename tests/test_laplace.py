import bisect
import decimal
import itertools
import math
import threading

import mpmath as mp
import numpy as np
import pytest

from circlekit import arith, cli, laplace, lattice
from circlekit.errors import CapacityError
from circlekit.laplace import (
    A1_EXPECTED,
    LaplaceEstimate,
    ResidualScan,
    _fit_log_quadratic,
    fit_a1,
    laplace_d2,
    laplace_main,
    laplace_p2,
    residual_scan,
    series_constant,
    series_limit,
)
from circlekit.lattice import CIRCLE, DIVISOR, error_term, step_profile
from conftest import partial_sums


# ------------------------------------------------------------ series constant


def test_series_constant_single_term(tables_4k):
    sc = series_constant(step_profile(tables_4k, CIRCLE), 1)
    assert sc.value == 16.0
    assert sc.kind == CIRCLE and sc.terms_used == 1


def test_series_constant_five_terms(tables_4k):
    sc = series_constant(step_profile(tables_4k, CIRCLE), 5)
    expect = 16 + 16 / 2**1.5 + 16 / 4**1.5 + 64 / 5**1.5   # r(3) = 0 drops out
    assert sc.value == pytest.approx(expect, rel=1e-15)


def test_series_constant_divisor(tables_4k):
    sc = series_constant(step_profile(tables_4k, DIVISOR), 2)
    assert sc.value == pytest.approx(1 + 4 / 2**1.5, rel=1e-15)
    assert sc.value == pytest.approx(2.414213562373095, rel=1e-12)


def test_series_constant_domain(tables_4k):
    with pytest.raises(ValueError):
        series_constant(step_profile(tables_4k, CIRCLE), tables_4k.limit + 1)
    with pytest.raises(ValueError):
        series_constant(step_profile(tables_4k, "bogus"), 10)
    assert series_constant(step_profile(arith.build_tables(1), CIRCLE), 1).value == 16.0


def _whole_range_value(tables, kind, terms):
    """The partial sum as one fsum of every term over the whole range at once."""
    f2 = getattr(tables, lattice._table_name(kind))[1:terms + 1].astype(np.float64) ** 2
    return math.fsum(f2 * np.arange(1, terms + 1, dtype=np.float64) ** -1.5)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_folded_value_equals_whole_range_fsum(monkeypatch, tables_4k, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    # the blocks start at n = 0, so a table of limit k block - 1 ends on a block edge
    limits = sorted({1, 2, 3, *(k * block + e for k in (1, 3) for e in (-1, 0, 1, 2))} - {0})
    for tables in [*(arith.build_tables(L) for L in limits), tables_4k]:
        for kind in (CIRCLE, DIVISOR):
            for terms in sorted({1, 2, block, tables.limit} & set(range(1, tables.limit + 1))):
                sc = series_constant(step_profile(tables, kind), terms)
                assert sc.value == _whole_range_value(tables, kind, terms), \
                    (tables.limit, kind, terms)
                assert sc.tail_bound == laplace._series_tail(kind, terms)   # reads no table


def test_folded_value_equals_whole_range_fsum_at_scale(tables_1m):
    for kind in (CIRCLE, DIVISOR):
        for terms in (arith._BLOCK + 1, tables_1m.limit):
            sc = series_constant(step_profile(tables_1m, kind), terms)
            assert sc.value == _whole_range_value(tables_1m, kind, terms), (kind, terms)


def test_streamed_series_value_equals_the_table_fold(tables_1m):
    # tables that have not built f stream it and keep no table; the fold is bit-equal to
    # the one over the built table
    for kind in (CIRCLE, DIVISOR):
        table = getattr(tables_1m, lattice._table_name(kind))
        for terms in (1, 2, 10**3, 10**6):
            tables = arith.build_tables(terms)
            streamed = series_constant(step_profile(tables, kind), terms).value
            assert set(vars(tables)) == {"limit"}, (kind, terms)
            assert streamed == arith._series_sum([(0, table[:terms + 1])],
                                                 lambda n, f: f**2 * n**-1.5), (kind, terms)
            assert streamed == series_constant(step_profile(tables_1m, kind), terms).value, \
                (kind, terms)


def test_series_value_squares_in_float64():
    # f^2 is formed in float64, where r(1)^2 = 2^52 is exact
    zeros = np.zeros(3, dtype=np.int64)
    r = np.array([0, 2**26, 2**26 - 1], dtype=np.int64)
    tables = arith.ArithTables(limit=2, r=r, d=zeros, sigma=zeros)
    assert series_constant(step_profile(tables, CIRCLE), 1).value == 2.0**52


def _envelopes(n, log=np.log):
    """The envelopes E >= F = sum_{m<=n} f(m)^2 that `laplace._series_tail` integrates,
    written out from its docstring: 16 B for r, n P(log n) for d."""
    c, c0 = laplace._ENVELOPES[CIRCLE]
    al, be, ga = math.pi / 4, c / 4, (c0 - 1) / 4
    ell = log(n)
    B = (al**2 * n * ell + 2 * al * (al + 2 * be + ga) * n + 2 * al * be * n**0.75
         + be**2 / 2 * n**0.5 * ell + 2 * (be**2 - al * be + be * ga + al * ga) * n**0.5
         + 2 * be * ga * n**0.25 + 2 * ga**2)
    return {CIRCLE: 16 * B, DIVISOR: n * (1 + 3 * ell + 1.5 * ell**2 + ell**3 / 6)}


def test_series_envelopes_hold_on_the_table(tables_1m):
    # F is constant on [n, n+1) and both envelopes increase, so integers n suffice
    n = np.arange(1, tables_1m.limit + 1, dtype=np.float64)
    for kind, envelope in _envelopes(n).items():
        f = getattr(tables_1m, lattice._table_name(kind))
        F = np.cumsum(f[1:].astype(np.int64) ** 2)   # < 2^53
        assert np.all(F <= envelope), kind


@pytest.mark.parametrize("X", [1, 2, 10, 10**3, 10**6, 10**7])
def test_series_tail_is_the_envelope_integral(X):
    with mp.workdps(30):
        for kind in (CIRCLE, DIVISOR):
            ref = 1.5 * mp.quad(lambda t: _envelopes(t, mp.log)[kind] * t**-2.5,
                                [X * 100**k for k in range(4)] + [mp.inf])
            assert laplace._series_tail(kind, X) == pytest.approx(float(ref), rel=1e-11), \
                (kind, X)


def test_series_constant_monotone_with_bracketing_tail(tables_120k):
    for kind in (CIRCLE, DIVISOR):
        closed, prev = series_limit(kind), None
        for terms in (1, 2, 10**2, 10**3, 10**4, 10**5):
            sc = series_constant(step_profile(tables_120k, kind), terms)
            assert sc.value <= closed <= sc.value + sc.tail_bound, (kind, terms)
            if prev is not None:
                assert sc.value >= prev.value                 # non-negative summands
                assert sc.tail_bound < prev.tail_bound        # bound falls strictly with terms
                assert sc.value - prev.value <= prev.tail_bound
            prev = sc


def test_series_limits_bracketed_by_partial_sums(tables_120k):
    for kind in (CIRCLE, DIVISOR):
        closed = series_limit(kind)
        sc = series_constant(step_profile(tables_120k, kind), tables_120k.limit)
        assert sc.value <= closed <= sc.value + sc.tail_bound, kind


def _euler_product(kind, dps):
    """sum f(n)^2 n^(-3/2) from the Euler products in `series_limit`'s docstring, at dps
    digits: the evaluation series_limit ran at 30 digits before its values were pinned."""
    with mp.workdps(dps):
        s = mp.mpf(3) / 2
        if kind == CIRCLE:
            beta = 4**-s * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
            val = 16 * mp.zeta(s) ** 2 * beta**2 / ((1 + 2**-s) * mp.zeta(2 * s))
        elif kind == DIVISOR:
            val = mp.zeta(s) ** 4 / mp.zeta(2 * s)
        else:
            raise ValueError(f"unknown profile kind {kind!r}")
        return float(val)


def test_series_limit_values():
    # each pinned double is its Euler product rounded once, at 30 digits and at 50
    for kind, dps in itertools.product((CIRCLE, DIVISOR), (30, 50)):
        assert series_limit(kind) == _euler_product(kind, dps), (kind, dps)
    with pytest.raises(ValueError):
        series_limit("bogus")


# --------------------------------------------------------------- transforms


def _midpoint_oracle(values_fn, x_hi: float, step: float) -> float:
    """Deliberately naive fine-grid quadrature, sampled at non-integer points."""
    xs = np.arange(step / 2.0, x_hi, step)
    return float(np.sum(values_fn(xs)) * step)


def _p2_integrand(profile, T):
    partial = partial_sums(profile.tables.r)

    def fn(xs):
        n = np.floor(xs).astype(np.int64)
        p = partial[n].astype(np.float64) + 1.0 - np.pi * xs
        return p * p * np.exp(-xs / T)

    return fn


def test_laplace_p2_against_fine_grid_oracle(circle_4k):
    for T, x_hi in ((1.0, 60.0), (10.0, 500.0), (100.0, 3900.0)):
        value, trunc = laplace_p2(circle_4k, T, rel_tol=1e-9)
        fn = _p2_integrand(circle_4k, T)
        coarse = _midpoint_oracle(fn, x_hi, 1.0 / 128)
        fine = _midpoint_oracle(fn, x_hi, 1.0 / 256)
        oracle_err = 2.0 * abs(coarse - fine) + 1e-9 * abs(fine)
        assert abs(value - fine) <= oracle_err + trunc + 1e-7 * abs(value), T


def test_laplace_p2_truncation_monotone(circle_1m):
    v6, b6 = laplace_p2(circle_1m, 512.0, rel_tol=1e-6)
    v9, b9 = laplace_p2(circle_1m, 512.0, rel_tol=1e-9)
    assert b9 < b6
    # extending the integration range moves the value by at most the
    # previously reported truncation bound
    assert abs(v9 - v6) <= b6


def test_laplace_p2_capacity_error(circle_4k):
    with pytest.raises(CapacityError) as err:
        laplace_p2(circle_4k, 1024.0, rel_tol=1e-6)
    assert err.value.required_limit is not None
    assert err.value.required_limit > circle_4k.limit
    assert str(err.value.required_limit) in str(err.value) or "required" in str(err.value)


@pytest.mark.parametrize("kind, transform", [(CIRCLE, laplace_p2), (DIVISOR, laplace_d2)])
def test_transform_never_depends_on_the_profile_size(tables_120k, kind, transform):
    # Cut short, a profile gives the full value bit for bit or names a block
    # edge that does.  Cut inside the stop block it used to return a truncated
    # value: the circle at T = 100 cut at 2090 (stop 2100) was 4e-7 off.
    profile = step_profile(tables_120k, kind)

    def cut(limit):
        name = lattice._table_name(kind)
        table = {name: getattr(profile.tables, name)[: limit + 1]}
        return lattice.StepProfile(kind, arith.ArithTables(limit, **table))

    for T in (1.0, 10.0, 100.0, 150.5):
        block = laplace.block_size(T)
        for rel_tol in (1e-3, 1e-6, 1e-9):
            full = transform(profile, T, rel_tol)
            stop = next(x for x in itertools.count(block, block)
                        if laplace._tail_bound(kind, T, x) == full[1])
            limits = {1, 63, 64, 65, 2090, stop + block // 2}
            limits |= {stop + d for d in (-block - 1, -block, -block + 1, -1, 0, 1)}
            for limit in sorted(x for x in limits if x >= 1):
                try:
                    got = transform(cut(limit), T, rel_tol)
                except CapacityError as err:
                    need = err.required_limit
                    assert need > limit and need % block == 0, (T, rel_tol, limit, need)
                    got = transform(cut(need), T, rel_tol)
                assert got == full, (T, rel_tol, limit)


@pytest.mark.parametrize("T", [1.0, 7.5, 64.0, 100.0, 1000.5, 32768.0])
@pytest.mark.parametrize("kind", [CIRCLE, DIVISOR])
def test_tail_bound_falls_strictly_from_edge_to_edge(kind, T):
    # a scan tests only its current edge x against rel_tol times its total; that stops where
    # stop_edge's search from the first edge stops only while the bound at the edges falls
    block = laplace.block_size(T)
    bounds = [laplace._tail_bound(kind, T, k * float(block))
              for k in range(1, laplace._LAST_BLOCK + 1)]
    zero = bounds.index(0.0)   # exp(-x/T) underflows by x = 746 T
    assert all(a > b for a, b in zip(bounds[:zero], bounds[1:zero + 1])), (kind, T)
    assert set(bounds[zero:]) == {0.0}, (kind, T)


def test_every_d2_chunk_fits_its_buffers():
    # a fold writes each chunk's p into block (K(block) + 1) doubles, for the block of the T
    # (or of the fold) whose chunk it is: blocks past the first have at most block rows at
    # order <= K(block); the first block's octave [lo, min(2 lo, block)) has to fit too, at
    # the higher order K(lo)
    blocks = np.arange(64, 2**21)
    order = np.empty(blocks.size, dtype=np.int64)
    for K in range(laplace._taylor_order(64), laplace._taylor_order(2**21) - 1, -1):
        # the first block of order <= K, by bisection: _taylor_order falls with n
        first = 1 + bisect.bisect_left(range(1, 2**21), True,
                                       key=lambda n: laplace._taylor_order(n) <= K)
        order[blocks >= first] = K
    for b in (64, 999, 1000, 1024, 180000, 2**21 - 1):
        assert order[b - 64] == laplace._taylor_order(b), b
    size = blocks * (order + 1)
    for j in range(21):
        lo = 1 << j
        rows = np.clip(blocks - lo, 0, lo)
        assert np.all(rows * (laplace._taylor_order(lo) + 1) <= size), lo


def test_laplace_p2_validates_input(circle_4k, divisor_4k):
    with pytest.raises(ValueError):
        laplace_p2(divisor_4k, 10.0)
    for profile, transform in ((circle_4k, laplace_p2), (divisor_4k, laplace_d2)):
        for T in (0.5, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be"):
                transform(profile, T)
    for rel_tol in (0.0, math.nan, math.inf, 1.0):
        with pytest.raises(ValueError):
            laplace_p2(circle_4k, 10.0, rel_tol=rel_tol)


def test_laplace_main_p():
    c_r, c_d = series_limit(CIRCLE), series_limit(DIVISOR)
    assert laplace_main(CIRCLE, math.pi) == pytest.approx(c_r / 4 - math.pi, rel=1e-15)
    assert laplace_main(DIVISOR, math.pi) == pytest.approx(c_d / 8, rel=1e-15)
    tiny = laplace_main(CIRCLE, 1e-9)
    assert abs(tiny) < 1e-8


def test_leading_coefficient_convergence(circle_1m):
    # integral / T^(3/2) approaches (1/4) pi^(-3/2) * c as T grows
    c = series_limit(CIRCLE)
    target = 0.25 * math.pi**-1.5 * c
    gaps = []
    for T in (64.0, 256.0, 1024.0):
        value, _ = laplace_p2(circle_1m, T)
        gaps.append(abs(value / T**1.5 - target))
    assert gaps[0] > gaps[-1]
    assert gaps[-1] <= 2.0 / math.sqrt(1024.0)


def test_residual_scan_rows_and_validation(circle_1m, divisor_1m):
    scan = residual_scan(circle_1m, [128.0])
    assert scan.kind == CIRCLE
    assert len(scan.rows) == 1
    row = scan.rows[0]
    assert row.residual == row.integral - row.main_term
    assert row.ratio_t23 == pytest.approx(abs(row.residual) / 128.0 ** (2 / 3))
    assert math.isnan(scan.slope)
    with pytest.raises(ValueError):
        residual_scan(circle_1m, [256.0, 128.0])
    with pytest.raises(ValueError):
        residual_scan(circle_1m, [128.0, 128.0])
    with pytest.raises(ValueError):
        residual_scan(circle_1m, [])

    scan = residual_scan(divisor_1m, [128.0, 256.0])
    assert scan.kind == DIVISOR
    assert [row.T for row in scan.rows] == [128.0, 256.0]
    for row in scan.rows:
        assert (row.integral, row.truncation_bound) == laplace_d2(divisor_1m, row.T)
        assert row.main_term == laplace_main(DIVISOR, row.T)
        assert row.residual == row.integral - row.main_term
    assert not math.isnan(scan.slope)
    with pytest.raises(ValueError):
        residual_scan(divisor_1m, [256.0, 128.0])
    with pytest.raises(ValueError):
        residual_scan(divisor_1m, [])


def test_scan_main_term_is_the_kinds_closed_form(circle_4k, divisor_4k):
    # the scan pairs the profile's kind with its series constant itself
    for profile, series in ((circle_4k, CIRCLE), (divisor_4k, DIVISOR)):
        scan = residual_scan(profile, [16.0, 32.0])
        assert scan.constant == series_limit(series)
        for row in scan.rows:
            assert row.main_term == laplace_main(profile.kind, row.T)


def _d2_integrand(profile, T):
    partial = partial_sums(profile.tables.d)

    def fn(xs):
        n = np.floor(xs).astype(np.int64)
        d = partial[n].astype(np.float64)
        main = xs * (np.log(xs) + 2.0 * lattice.EULER_GAMMA - 1.0) + 0.25
        return (d - main) ** 2 * np.exp(-xs / T)

    return fn


def test_laplace_d2_against_fine_grid_oracle(divisor_4k):
    for T, x_hi in ((1.0, 60.0), (10.0, 500.0)):
        value, trunc = laplace_d2(divisor_4k, T, rel_tol=1e-9)
        fn = _d2_integrand(divisor_4k, T)
        coarse = _midpoint_oracle(fn, x_hi, 1.0 / 128)
        fine = _midpoint_oracle(fn, x_hi, 1.0 / 256)
        oracle_err = 2.0 * abs(coarse - fine) + 1e-9 * abs(fine)
        assert abs(value - fine) <= oracle_err + trunc + 1e-7 * abs(value), T


def test_laplace_d2_kind_guard(circle_4k):
    with pytest.raises(ValueError):
        laplace_d2(circle_4k, 10.0)


def test_quadrature_self_check_compares_both_orders(monkeypatch, divisor_4k):
    # a negative tolerance fails any comparison that actually takes place
    monkeypatch.setattr(laplace, "_QUAD_SELF_CHECK", -1.0)
    with pytest.raises(RuntimeError, match="quadrature self-check failed"):
        laplace_d2(divisor_4k, 10.0)


def _reference_d2(profile, T, rel_tol=laplace.DEFAULT_REL_TOL):
    """laplace_d2 as first written, kept as its oracle: the Taylor columns through np.stack,
    each row's p^T H p as np.sum(..., axis=1), the certificate with its own exp(-n/T), and
    `stop_edge` searched from the first edge at every block edge."""
    k_max = laplace._taylor_order(1)
    mu = laplace._moments(T, 2 * k_max, 0.5)
    H = np.array(mu)[np.add.outer(range(k_max + 1), range(k_max + 1))]
    block = laplace.block_size(T)
    pieces, errors = [], []
    for n_all, S in arith._block_sums([(0, profile.tables.d)], 0, profile.limit, block):
        a, hi = int(n_all[0]), int(n_all[-1])
        assert hi == a + block, "the profile must reach the stop"
        value, lo = (laplace._first_interval(T), 1) if a == 0 else (0.0, a)
        while lo < hi:
            top = min(hi, 1 << lo.bit_length())
            K = laplace._taylor_order(lo)
            n, D = n_all[lo - a : top - a], S[lo - a : top - a]
            c = n + 0.5
            cols = [D - lattice.divisor_main(c), -(np.log(c) + 2.0 * lattice.EULER_GAMMA)]
            cols += [-((-1.0) ** k) / (k * (k - 1) * c ** (k - 1)) for k in range(2, K + 1)]
            p = np.stack(cols, axis=-1)
            value += float(np.sum(np.exp(-n / T) * np.sum((p @ H[: K + 1, : K + 1]) * p, axis=1)))
            R = laplace._taylor_remainder(n, K)
            errors.append(float(np.sum(
                np.exp(-n / T) * R * (2.0 * (np.abs(p) @ 0.5 ** np.arange(K + 1)) + R))))
            lo = top
        pieces.append(value)
        total = math.fsum(pieces)
        if laplace.stop_edge(DIVISOR, T, rel_tol, total) <= hi:
            assert math.fsum(errors) <= laplace._QUAD_SELF_CHECK * max(1.0, abs(total))
            return total, laplace._tail_bound(DIVISOR, T, hi)
    raise AssertionError("the profile must reach the stop")


def _reference_p2(profile, T, rel_tol=laplace.DEFAULT_REL_TOL):
    """laplace_p2 as a scan of T alone over a built table, kept as its oracle: each block's
    exp(-n/T) (b^2 m0 - 2 pi b m1 + pi^2 m2), b = S + 1 - pi n, formed left to right in fresh
    arrays and summed by one np.sum, and `stop_edge` searched from the first edge at every
    block edge."""
    m0, m1, m2 = laplace._moments(T, 2, 0.0)
    block = laplace.block_size(T)
    pieces = []
    for n_all, S in arith._block_sums([(0, profile.tables.r)], 0, profile.limit, block):
        a, hi = int(n_all[0]), int(n_all[-1])
        assert hi == a + block, "the profile must reach the stop"
        n, S = n_all[:-1], S[:-1]
        b = S + 1.0 - np.pi * n
        u = (b * b * m0 - 2.0 * np.pi * b * m1 + np.pi * np.pi * m2) * np.exp(-n / T)
        pieces.append(float(np.sum(u)))
        total = math.fsum(pieces)
        if laplace.stop_edge(CIRCLE, T, rel_tol, total) <= hi:
            return total, laplace._tail_bound(CIRCLE, T, hi)
    raise AssertionError("the profile must reach the stop")


@pytest.mark.parametrize("T", [1.0, 10.0, 16.0, 32.0, 100.0, 1000.5, 4096.0])
def test_laplace_d2_equals_its_reference_bit_for_bit(divisor_1m, T):
    # compared on this machine, not against pinned bits: np.exp and np.log round differently
    # on other CPUs (ROADMAP item 16)
    assert laplace_d2(divisor_1m, T) == _reference_d2(divisor_1m, T)


@pytest.mark.parametrize("kind, t_list, rel_tol", [
    (CIRCLE, "64..32768", 1e-6), (DIVISOR, "128..32768", 1e-6),   # the transform benchmark's
    *((kind, t_list, rel_tol) for kind in (CIRCLE, DIVISOR)
      for t_list in ("7.5,33.3,1000.5", "1,2,3,5,10,16,32,64,100", "4096")
      for rel_tol in (1e-3, 1e-6, 1e-9)),
])
def test_one_pass_equals_each_T_alone(tables_1m, kind, t_list, rel_tol):
    # one fold over a streamed profile carries every T: each row has the bits of that T's
    # transform scanned alone over a built table.  7.5, 33.3, 1000.5 has blocks of 64 that
    # do not divide the fold's 1001, so chunks begin in the previous fold block
    Ts = cli._parse_t_list(t_list)
    streamed = step_profile(arith.build_tables(tables_1m.limit), kind)
    scan = residual_scan(streamed, Ts, rel_tol)
    assert set(vars(streamed.tables)) == {"limit"}   # no table was built
    reference = _reference_p2 if kind == CIRCLE else _reference_d2
    built = step_profile(tables_1m, kind)
    assert [row.T for row in scan.rows] == Ts
    for row in scan.rows:
        assert (row.integral, row.truncation_bound) == reference(built, row.T, rel_tol), row.T
        assert row.main_term == laplace_main(kind, row.T)


@pytest.mark.parametrize("kind", [CIRCLE, DIVISOR])
@pytest.mark.parametrize("t_list", ["64..1024", "7.5,33.3,1000.5"])
def test_the_fold_window_is_in_the_scratch(monkeypatch, circle_1m, divisor_1m, kind, t_list):
    # with carried rows or none (a doubling list), the fold reads S through the n/S window
    # that _scratch allocates and counts, L + W + 1 doubles each: _block_sums allocates none
    Ts = cli._parse_t_list(t_list)
    W, L = laplace.block_size(Ts[-1]), laplace._carried(Ts)
    assert (L == 0) == (t_list == "64..1024")
    windows = []
    block_sums = arith._block_sums

    def given(segments, lo, hi, block, rows=0, out=None):
        windows.append(out)
        return block_sums(segments, lo, hi, block, rows, out)
    monkeypatch.setattr(arith, "_block_sums", given)
    laplace.residual_scan(circle_1m if kind == CIRCLE else divisor_1m, Ts, 1e-3)
    assert [[buf.size for buf in out] for out in windows] == [[L + W + 1] * 2]


@pytest.mark.parametrize("t_list", ["128..32768", "7.5,33.3,1000.5", "100,150,1000.5"])
def test_each_T_integrates_its_own_chunks(monkeypatch, divisor_1m, t_list):
    # every T integrates the chunks a fold of that T alone has, at the same order: the
    # doubling list has T whose chunks begin past a step-down of K inside the fold's chunk
    # (T = 512 at n = 6656, T = 8192 at 188416), the others T whose blocks straddle the fold's
    seen = []
    integrate = laplace._d2_chunk

    def recorded(run, n, rows, temps):
        seen.append((run.T, int(n[0]), n.size, rows[0].shape[1]))
        integrate(run, n, rows, temps)
    monkeypatch.setattr(laplace, "_d2_chunk", recorded)
    Ts = cli._parse_t_list(t_list)
    laplace.residual_scan(divisor_1m, Ts)
    together = sorted(seen)
    seen.clear()
    for T in Ts:
        laplace_d2(divisor_1m, T)
    assert together == sorted(seen)


def test_laplace_command_writes_the_rows_of_each_T_alone(tmp_path, divisor_1m):
    # these stops lie past the edge where the largest T's main term stops the tail bound:
    # the command reads the stream as far as its last T needs
    out = tmp_path / "lapd.csv"
    assert cli.main(["laplace", "divisor", "--t-list", "100,150,1000.5", "--rel-tol", "1e-3",
                     "--out", str(out)]) == 0
    rows = []
    for T in (100.0, 150.0, 1000.5):
        integral, bound = _reference_d2(divisor_1m, T, 1e-3)
        main = laplace_main(DIVISOR, T)
        rows.append((T, integral, bound, main, integral - main))
    cli.write_csv(str(tmp_path / "ref.csv"),
                  ["T", "integral", "truncation_bound", "main_term", "residual"], rows)
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_taylor_columns_do_not_depend_on_the_order():
    # a fold forms p once per chunk at the chunk's order; a T that needs a lower order reads
    # columns that, column k a function of c and k alone, are those of any higher order
    rng = np.random.default_rng(21)
    n = np.unique(np.concatenate([[1, 2, 97, 245, 903, 6515, 181761, 2**21],
                                  rng.integers(1, 2**21, 4000)])).astype(np.float64)
    D = n * np.log(n) + rng.integers(-1000, 1000, n.size)   # sums near divisor_main(n)
    p32 = laplace._taylor_coefficients(n, D, np.empty((n.size, 33)))
    for K in range(1, 33):
        p = laplace._taylor_coefficients(n, D, np.empty((n.size, K + 1)))
        assert np.array_equal(p, p32[:, :K + 1]), K
        # the fold's R, formed in its buffers, is _taylor_remainder's, op for op
        _, R, t = laplace._taylor_rows(n, D, K, [np.empty(p.size), np.empty(n.size),
                                                 np.empty(n.size)],
                                       [np.empty(p.size), None, np.empty(n.size)])
        assert np.array_equal(R, laplace._taylor_remainder(n, K)), K
        assert np.array_equal(t, 2.0 * (np.abs(p) @ 0.5 ** np.arange(K + 1)) + R), K


@pytest.mark.parametrize("width", [4, 5, 6, 7, 8, 33])
def test_a_chunks_rows_integrate_as_a_fresh_array(width):
    # a T's chunk is rows i:j of the fold chunk's p; its p @ H and |p| @ w run on that slice,
    # which must give the bits of the same rows in an array of their own, as a scan of that
    # T alone has them.  (Rows i:j of the whole chunk's products need not: on OpenBLAS
    # 0.3.31 a gemv row differs in a longer matrix at 8 columns and more, and any one-row
    # product in the row of a longer one.)
    rng = np.random.default_rng(width)
    p = rng.standard_normal((4200, width)) * 10.0 ** rng.integers(-8, 9, (4200, width))
    H = rng.standard_normal((width, width))
    w = 0.5 ** np.arange(width)
    for rows in (1, 7, 8, 63, 64, 65, 4097):
        for i in (0, 1, 7, 64):
            view, fresh = p[i:i + rows], p[i:i + rows].copy()
            q = np.empty_like(fresh)
            assert np.array_equal(laplace._quadratic_forms(view, H, q),
                                  laplace._quadratic_forms(fresh, H, q)), (rows, i)
            assert np.array_equal(np.abs(view) @ w, np.abs(fresh) @ w), (rows, i)


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 9, 33])
def test_quadratic_forms_equal_numpys_row_sums(width):
    # rows of at most 7 columns are added left to right, numpy's own order for rows that
    # short; wider rows keep np.sum.  Random rows of mixed scale, where the order shows
    rng = np.random.default_rng(width)
    p = rng.standard_normal((4099, width)) * 10.0 ** rng.integers(-8, 9, (4099, width))
    H = rng.standard_normal((width, width))
    expected = np.sum((p @ H) * p, axis=1)
    assert np.array_equal(laplace._quadratic_forms(p, H, np.empty_like(p)), expected)


@pytest.mark.parametrize("n, D", [(1, 1), (10, 27), (1000, 7069)])
def test_taylor_remainder_is_an_upper_bound(n, D):
    # D is the divisor partial sum on [n, n+1): D_1, D_10, D_1000
    with mp.workdps(50):
        c, gamma = mp.mpf(n) + mp.mpf(1) / 2, mp.euler

        def delta(x):
            return D - x * (mp.log(x) + 2 * gamma - 1) - mp.mpf(1) / 4

        for T in (1.0, 10.0, 1e4):
            for K in sorted({1, 2, 4, laplace._taylor_order(n)}):
                def delta_k(x):
                    u = x - c
                    return delta(c) - u * (mp.log(c) + 2 * gamma) - mp.fsum(
                        (-1) ** k * u**k / (k * (k - 1) * c ** (k - 1)) for k in range(2, K + 1))

                # the certificate of `laplace._d2_chunk`, (exp(-n/T) R) t, on the one row n
                _, R, t = laplace._taylor_rows(np.array([float(n)]), np.array([float(D)]), K,
                                               [np.empty(K + 1), np.empty(1), np.empty(1)],
                                               [np.empty(K + 1), None, np.empty(1)])
                bound = float(np.exp(-float(n) / T) * R[0] * t[0])
                if bound == 0.0:    # exp(-n/T) underflows: nothing to compare
                    continue
                gap = mp.quad(lambda x: (delta(x)**2 - delta_k(x)**2) * mp.exp(-x / T), [n, n + 1])
                assert abs(gap) <= bound, (T, K)


def test_first_interval_closed_form():
    # Delta = -main on [0, 1); the log singularity at 0 is tanh-sinh's endpoint case
    with mp.workdps(30):
        for T in (1.0, 10.0, 4096.0, 1e6):
            ref = mp.quad(lambda x: (x * (mp.log(x) + 2 * mp.euler - 1) + mp.mpf(1) / 4) ** 2
                          * mp.exp(-x / T), [0, 1])
            assert abs(laplace._first_interval(T) - ref) <= 1e-15 * ref, T


@pytest.mark.parametrize("T", [1.0, 150.5, 32768.0])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_moments_against_quadrature(T, shift):
    # against 40-digit tanh-sinh, to 1e-15 of int_0^1 |s - shift|^k exp(-s/T) ds:
    # at shift 1/2 odd k cancel, so |mu_k| itself is no scale for the rounding
    mu = laplace._moments(T, 64, shift)
    with mp.workdps(40):
        edges = [0, shift, 1] if shift else [0, 1]
        for k in (0, 1, 2, 31, 64):
            ref = mp.quad(lambda s: (s - shift) ** k * mp.exp(-s / T), edges)
            scale = mp.quad(lambda s: abs(s - shift) ** k * mp.exp(-s / T), edges)
            assert abs(mu[k] - ref) <= 1e-15 * scale, k


def test_moments_ignore_other_decimal_contexts():
    # the 40 digits are entered per call: neither another thread's context nor the
    # caller's own changes a value, so transforms may run in several threads at once
    def values():
        return laplace._moments(64.0, 64, 0.5), laplace._first_interval(64.0)

    expected = values()
    held, release = threading.Event(), threading.Event()

    def hold():
        with decimal.localcontext(decimal.Context(prec=3)):
            held.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert held.wait(timeout=60)
        assert values() == expected
        with decimal.localcontext(decimal.Context(prec=3)):
            assert values() == expected
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


def _long_double_order24(profile, T, x_max):
    """int_0^x_max Delta^2 exp(-x/T) dx by a 24-point Gauss-Legendre rule per
    unit interval, [0, 1) on dyadic panels [2^-j-1, 2^-j], summed in long double."""
    ld = np.longdouble
    nodes, weights = (a.astype(ld) for a in np.polynomial.legendre.leggauss(24))
    s, w = (nodes + 1) / 2, weights / 2
    a = 2 * ld("0.577215664901532860606512090082") - 1

    def main(x):
        return x * (np.log(x) + a) + ld(0.25)

    partial = partial_sums(profile.tables.d)
    right = ld(2) ** -np.arange(60, dtype=ld)
    x = right[:, None] * (1 + s[None, :]) / 2          # panels [r/2, r]
    total = np.sum((main(x) ** 2 * np.exp(-x / T)) @ w * (right / 2))
    for lo in range(1, x_max, 4096):
        n = np.arange(lo, min(lo + 4096, x_max), dtype=ld)
        x = n[:, None] + s[None, :]
        D = partial[lo : lo + n.size].astype(ld)[:, None]
        total += np.sum(((D - main(x)) ** 2 * np.exp(-x / T)) @ w)
    return total


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs 80-bit long double")
def test_laplace_d2_against_long_double_reference(divisor_1m):
    T = 4096.0
    value, trunc = laplace_d2(divisor_1m, T)
    x_max = next(x for x in itertools.count(4096, 4096)
                 if laplace._tail_bound(DIVISOR, T, x) == trunc)
    ref = _long_double_order24(divisor_1m, T, x_max)
    assert abs(value - ref) <= 5e-14 * ref


def test_fit_log_quadratic_recovers_synthetic_exactly():
    a, b, c = -0.025, 0.37, -1.2
    Ts = [2.0**k for k in range(7, 14)]
    ys = [a * math.log(T) ** 2 + b * math.log(T) + c for T in Ts]
    fa, fb, fc = _fit_log_quadratic(Ts, ys)
    assert fa == pytest.approx(a, abs=1e-10)
    assert fb == pytest.approx(b, abs=1e-10)
    assert fc == pytest.approx(c, abs=1e-10)


def test_fit_underdetermined():
    with pytest.raises(ValueError):
        _fit_log_quadratic([10.0, 20.0], [1.0, 2.0])
    rows = [LaplaceEstimate(T, 1.0, 0.0, 0.5, 0.5) for T in (128.0, 256.0, 512.0)]
    with pytest.raises(ValueError):
        fit_a1(ResidualScan(kind=DIVISOR, constant=0.5, rows=rows[:2], slope=0.0))
    with pytest.raises(ValueError):
        fit_a1(ResidualScan(kind=CIRCLE, constant=0.5, rows=rows, slope=0.0))


# ------------------------------------------------------------------ weights
# The weight functions of the correlation-to-transform argument live here, next to
# their only checks: no command reads them.


def _sqrt_gap_sq(t: float, h: float) -> float:
    """(sqrt(t+h) - sqrt(t))^2 without cancellation: h^2 / (sqrt(t+h) + sqrt(t))^2."""
    return (h / (math.sqrt(t + h) + math.sqrt(t))) ** 2 if h else 0.0


def _weight_f_raw(t: float, h: float, T: float) -> float:
    root = math.sqrt(t * (t + h))
    brace = -_sqrt_gap_sq(t, h) + (3.0 * (2.0 * t + h) + 2.0 * root) / (
        16.0 * math.pi**2 * root * T
    )
    return brace * t**-0.75 * (t + h) ** -0.75


def _check_weight_domain(t: float, h: float, T: float) -> None:
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if not h * h <= t:
        raise ValueError(f"weight functions need h^2 <= t, got h={h}, t={t}")
    if t > float(T) ** 10:
        raise ValueError(f"weight functions need t <= T^10, got t={t}, T={T}")


def weight_f(t: float, h: float, T: float) -> float:
    """Smoothing weight pairing the correlation sums with the transform:

        f(t, h) = ( -(sqrt(t+h) - sqrt(t))^2
                    + (3 (2t+h) + 2 sqrt(t(t+h))) / (16 pi^2 sqrt(t(t+h)) T) )
                  * t^(-3/4) (t+h)^(-3/4)

    on the domain h^2 <= t <= T^10.
    """
    _check_weight_domain(t, h, T)
    return _weight_f_raw(t, h, T)


def _u_parts(t: float, h: float, T: float) -> tuple[float, float]:
    """(E, f' - E' f) for E = pi^2 T G, G = (sqrt(t+h) - sqrt(t))^2, in closed form.

    With rho = sqrt(t(t+h)): E' = -E/rho, the brace of f has derivative
    G/rho - 3 h^2 / (32 pi^2 T rho^3), and t^(-3/4) (t+h)^(-3/4) has
    logarithmic derivative -3 (2t+h) / (4 rho^2).
    """
    rho = math.sqrt(t * (t + h))
    gap = _sqrt_gap_sq(t, h)
    E, f = math.pi**2 * T * gap, _weight_f_raw(t, h, T)
    brace_prime = gap / rho - 3.0 * h * h / (32.0 * math.pi**2 * T * rho**3)
    f_prime = t**-0.75 * (t + h) ** -0.75 * brace_prime - f * 3.0 * (2.0 * t + h) / (4.0 * rho**2)
    return E, f_prime + E / rho * f


def weight_u(t: float, h: float, T: float) -> float:
    """u(t, h) = d/dt [ exp(-pi^2 T (sqrt(t+h) - sqrt(t))^2) f(t, h) ].

    Differentiated as exp(-E) (f' - E' f) with f' and E' both in closed
    form; the exponential factor may underflow to zero for strongly damped
    arguments (use `weight_u_log_ratio` in that regime).
    """
    _check_weight_domain(t, h, T)
    E, inner = _u_parts(t, h, T)
    return math.exp(-E) * inner


def _envelope_log(t: float, h: float, T: float) -> float:
    """log of exp(-2 T h^2 / t) (h^2 t^(-7/2) + T^-1 t^(-5/2) + T h^4 t^(-9/2))."""
    poly = h * h * t**-3.5 + t**-2.5 / T + T * h**4 * t**-4.5
    return -2.0 * T * h * h / t + math.log(poly)


def weight_u_log_ratio(t: float, h: float, T: float) -> float:
    """log( |u(t, h)| / envelope ), computed without under/overflow.

    The comparison envelope is exp(-2 T h^2/t) (h^2 t^(-7/2) + T^(-1)
    t^(-5/2) + T h^4 t^(-9/2)); a bounded log-ratio across a grid is the
    numeric content of the integration-by-parts estimate.
    """
    _check_weight_domain(t, h, T)
    E, inner = _u_parts(t, h, T)
    if inner == 0.0:
        return float("-inf")
    return -E + math.log(abs(inner)) - _envelope_log(t, h, T)


def test_weight_f_degenerate_h0():
    for t in (1.0, 25.0, 1e4):
        T = 1e3
        assert weight_f(t, 0.0, T) == pytest.approx(t**-1.5 / (2 * math.pi**2 * T), rel=1e-12)


def test_weight_f_matches_display():
    t, h, T = 400.0, 3.0, 50.0
    gap = (math.sqrt(t + h) - math.sqrt(t)) ** 2
    root = math.sqrt(t * (t + h))
    brace = -gap + (3 * (2 * t + h) + 2 * root) / (16 * math.pi**2 * root * T)
    assert weight_f(t, h, T) == pytest.approx(brace * t**-0.75 * (t + h) ** -0.75, rel=1e-10)


def test_weight_domain_errors():
    with pytest.raises(ValueError):
        weight_f(8.9, 3.0, 10.0)       # h^2 > t
    with pytest.raises(ValueError):
        weight_f(1e21, 1.0, 10.0)      # t > T^10
    with pytest.raises(ValueError):
        weight_u(3.9, 2.0, 10.0)


def test_weight_u_bound_on_grid():
    # envelope comparison for the differentiated weight; C <= 100 everywhere
    # except the known degenerate corner t = h^2 at h = 1, where
    # pi^2/(1+sqrt(2))^2 < 2 makes the envelope exponentially smaller than
    # the derivative itself
    T = 1e3
    for h in (1.0, 10.0):
        for mult in (1.0, 10.0, 1e4):
            t = mult * h * h
            ok = weight_u_log_ratio(t, h, T) <= math.log(100.0)
            if h == 1.0 and mult == 1.0:
                assert not ok
                assert weight_u_log_ratio(t, h, T) > 100.0
            else:
                assert ok, (t, h)


def test_weight_u_matches_log_ratio():
    t, h, T = 250.0, 1.0, 100.0
    u = weight_u(t, h, T)
    env_log = -2.0 * T * h * h / t + math.log(
        h * h * t**-3.5 + t**-2.5 / T + T * h**4 * t**-4.5
    )
    assert math.log(abs(u)) - env_log == pytest.approx(weight_u_log_ratio(t, h, T), abs=1e-9)


def _u_inner_reference(t: float, h: float, T: float):
    """exp(E) d/dt [exp(-E) f] by 50-digit numerical differentiation."""
    with mp.workdps(50):
        h, T = mp.mpf(h), mp.mpf(T)

        def damped_f(x):
            root = mp.sqrt(x * (x + h))
            gap = (mp.sqrt(x + h) - mp.sqrt(x)) ** 2
            brace = -gap + (3 * (2 * x + h) + 2 * root) / (16 * mp.pi**2 * root * T)
            return mp.exp(-mp.pi**2 * T * gap) * brace * (x * (x + h)) ** mp.mpf(-0.75)

        t = mp.mpf(t)
        return mp.diff(damped_f, t) * mp.exp(mp.pi**2 * T * (mp.sqrt(t + h) - mp.sqrt(t)) ** 2)


def test_weight_u_derivative_against_mpmath():
    points = 0
    for T in (10.0, 1e3, 1e5):
        for h in (0.0, 0.5, 1.0, 3.0, 10.0, 100.0):
            for t in sorted({max(10.0**k * h * h, 1.0) for k in range(9)}):
                if t > T**10:
                    continue
                ref = _u_inner_reference(t, h, T)
                assert abs((_u_parts(t, h, T)[1] - ref) / ref) <= 1e-12, (t, h, T)
                points += 1
    assert points == 136
