import math
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from circlekit import arith, special
from circlekit.laplace import series_constant
from circlekit.lattice import CIRCLE, DIVISOR, error_term, step_profile
from circlekit.special import (
    BESSEL_SWITCH,
    bessel_j,
    bessel_oracle,
    gauss_sum_sq,
    hardy_partial,
    truncated_p,
)

from conftest import property_test


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_oracle(0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert bessel_oracle(1, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_bessel_j1_at_one():
    # frozen from the integral-representation oracle
    assert bessel_oracle(1, 1.0) == pytest.approx(0.4400505857449335, abs=1e-12)
    assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, abs=1e-12)


def test_bessel_first_zero_of_j0():
    z0 = 2.404825557695773
    assert abs(bessel_j(0, z0)) < 1e-12
    assert bessel_oracle(0, z0 - 0.01) > 0 > bessel_oracle(0, z0 + 0.01)


def test_bessel_matches_oracle_log_grid():
    zs = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 220)))
    for order in (0, 1):
        mine = bessel_j(order, zs)
        ref = np.array([bessel_oracle(order, float(z)) for z in zs])
        assert np.max(np.abs(mine - ref)) <= 1e-10


def test_bessel_branches_agree_at_switch():
    zs = np.linspace(BESSEL_SWITCH - 1.0, BESSEL_SWITCH + 1.0, 41)
    for order in (0, 1):
        series = special._bessel_series(order, zs)
        asym = special._bessel_asymptotic(order, zs, zs)
        assert np.max(np.abs(series - asym)) <= 1e-10


def test_bessel_bounded_by_one():
    zs = np.geomspace(1e-2, 1e6, 4000)
    for order in (0, 1):
        assert np.max(np.abs(bessel_j(order, zs))) <= 1.0 + 1e-12


def test_bessel_rejects_bad_args():
    with pytest.raises(ValueError):
        bessel_j(2, 1.0)
    for z in (-1.0, math.nan, math.inf, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            bessel_j(0, z)
    with pytest.raises(ValueError):
        bessel_oracle(2, 1.0)
    for z in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bessel_oracle requires finite z >= 0"):
            bessel_oracle(0, z)


def test_gauss_sum_examples():
    assert gauss_sum_sq(1, 1) == pytest.approx(1.0, abs=1e-12)
    assert gauss_sum_sq(5, 1) == pytest.approx(5.0, abs=1e-9)
    assert abs(gauss_sum_sq(6, 1)) < 1e-9
    with pytest.raises(ValueError):
        gauss_sum_sq(6, 2)
    with pytest.raises(ValueError):
        gauss_sum_sq(0, 1)


def test_gauss_sum_congruence_classes_small():
    for k in range(1, 80):
        for h in range(1, k + 1):
            if gcd(h, k) != 1:
                continue
            g = gauss_sum_sq(k, h)
            if k % 4 == 2:
                assert abs(g) <= 1e-6 * k, (k, h)
            elif k % 4 == 1:
                chi_k = 1 if k % 4 == 1 else -1
                assert abs(g - chi_k * k) <= 1e-6 * k, (k, h)


def test_gauss_sums_from_one_fft_match_the_direct_sums():
    for k in range(1, 151):
        g = special._gauss_sums_sq(k)
        assert g.shape == (k,)
        for h in range(1, k + 1):
            if gcd(h, k) == 1:
                assert abs(g[h - 1] - gauss_sum_sq(k, h)) <= 1e-12 * k, (k, h)


def test_hardy_partial_empty(tables_120k):
    assert hardy_partial(tables_120k, 10.5, 0) == 0.0


def test_hardy_partial_converges_to_p(tables_120k):
    profile = step_profile(tables_120k, CIRCLE)
    x = 10.5
    target = error_term(profile, x)
    residuals = [abs(hardy_partial(tables_120k, x, N) - target) for N in (10**3, 10**4, 10**5)]
    # bounded, not absolute, convergence: monitor that the residual shrinks
    # overall without asserting a rate
    assert residuals[-1] < 0.05
    assert residuals[-1] < residuals[0]


def test_hardy_partial_phase_against_mpmath(tables_120k):
    # the terms 99000 < n <= 1e5 at x = 100000.5 (z ~ 2e6): J1 at a double
    # z = 2 pi sqrt(x n) put this segment off by 3.5e-12, the reduced phase by 2e-15
    x, lo, hi = 100000.5, 99_000, 100_000
    got = hardy_partial(tables_120k, x, hi) - hardy_partial(tables_120k, x, lo)
    with mpmath.workdps(30):
        ref = mpmath.sqrt(x) * mpmath.fsum(
            int(tables_120k.r[n]) / mpmath.sqrt(n)
            * mpmath.besselj(1, 2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(x) * n))
            for n in range(lo + 1, hi + 1) if tables_120k.r[n]
        )
    assert abs(got - float(ref)) <= 1e-13


def test_truncated_p_smallest_n(tables_120k):
    v = truncated_p(tables_120k, 10.5, 2)
    expect = 0.0
    for n in (1, 2):
        expect += 4 * n**-0.75 * math.cos(2 * math.pi * math.sqrt(10.5 * n) + math.pi / 4)
    expect *= -(10.5**0.25) / math.pi
    assert v == pytest.approx(expect, abs=1e-12)


def test_truncated_p_approximates_p(tables_120k):
    profile = step_profile(tables_120k, CIRCLE)
    for x in (10**3 + 0.5, 10**4 + 0.5):
        # with N = x the leftover is O(x^eps): small
        assert abs(error_term(profile, x) - truncated_p(tables_120k, x, int(x))) < 5.0


def test_truncated_p_error_envelope_exponent(tables_120k):
    # fitted growth of log-residual at N = ceil(x^(1/3)) stays below 0.40
    profile = step_profile(tables_120k, CIRCLE)
    xs = [10**3 + 0.5, 10**4 + 0.5, 10**5 + 0.5]
    res = [
        abs(error_term(profile, x) - truncated_p(tables_120k, x, math.ceil(x ** (1 / 3))))
        for x in xs
    ]
    slope = np.polyfit(np.log(xs), np.log(res), 1)[0]
    assert slope <= 0.40


def test_truncated_p_domain_errors(tables_120k):
    with pytest.raises(ValueError):
        truncated_p(tables_120k, 1.5, 10)
    with pytest.raises(ValueError):
        truncated_p(tables_120k, 10.5, 1)
    with pytest.raises(ValueError):
        truncated_p(tables_120k, 10.5, tables_120k.limit + 1)
    with pytest.raises(ValueError):
        hardy_partial(tables_120k, 0.5, 10)
    with pytest.raises(ValueError):
        truncated_p(tables_120k, math.nan, 10)
    with pytest.raises(ValueError):
        hardy_partial(tables_120k, math.nan, 10)
    for N in (-1, tables_120k.limit + 1):
        with pytest.raises(ValueError, match="outside table range"):
            hardy_partial(tables_120k, 10.5, N)


def test_series_stream_r_and_build_no_table():
    # a streamed r gives the bits of the built table's, and the stream leaves no table behind
    streamed, built = arith.build_tables(3000), arith.build_tables(3000)
    built.r
    for series in (truncated_p, hardy_partial):
        assert series(streamed, 1000.5, 3000) == series(built, 1000.5, 3000)
        assert series(streamed, 7.25, 2) == series(built, 7.25, 2)
    assert "r" not in streamed.__dict__


def test_phase_reduction_matches_direct_cosine(tables_120k):
    # compensated phases agree with naive doubles where the naive path is
    # still accurate (moderate x*n)
    n = np.arange(1.0, 50.0)
    for x in (11.5, 1234.25):
        a = np.cos(2 * np.pi * special._reduced_phase(x, n)[0] + math.pi / 4)
        b = np.cos(2 * np.pi * np.sqrt(x * n) + math.pi / 4)
        assert np.max(np.abs(a - b)) < 1e-9


def test_phase_reduction_against_mpmath():
    # x n from 1e10 to 2e15, dyadic and non-dyadic x: rounding s0^2 instead of
    # forming it as a two-product errs by 3e-11 to 1e-8 on these cases
    rng = np.random.default_rng(5)
    for x, n_max in ((100000.5, 1e5), (100000.5, 1e7), (100000.5, 2e10),
                     (1000.3, 1e9), (math.pi * 1e5, 1e7)):
        n = np.sort(np.floor(rng.uniform(1.0, n_max, 400)))
        got = np.cos(2 * np.pi * special._reduced_phase(x, n)[0] + math.pi / 4)
        with mpmath.workdps(50):
            ref = [float(mpmath.cos(2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(x) * int(k))
                                    + mpmath.mpf(math.pi / 4))) for k in n]
        assert np.max(np.abs(got - ref)) <= 1e-14, x
    with pytest.raises(ValueError, match="2\\^53"):
        special._reduced_phase(2.0**40, np.array([1.0, 2.0**13]))


@pytest.mark.parametrize("block", [1, 7, 64])
def test_series_sums_never_depend_on_the_block(monkeypatch, tables_4k, block):
    # r(3) = r(7) = 0: at a block of 1 the folds meet blocks that keep no n
    def sums():
        return ([f(tables_4k, x, N) for f in (truncated_p, hardy_partial)
                 for x in (10.5, 1000.3, 100000.5) for N in (2, 3, 7, 64, 65, 4000)]
                + [series_constant(step_profile(tables_4k, kind), terms).value
                   for kind in (CIRCLE, DIVISOR) for terms in (1, 5, 4000)])
    expected = sums()
    monkeypatch.setattr(arith, "_BLOCK", block)
    assert sums() == expected


@pytest.mark.parametrize("size", range(1, 8))
def test_one_pass_series_equal_each_series_alone(monkeypatch, size):
    # voronoi's one pass over r, at r segments and blocks of 1..7 entries, gives the bits of
    # truncated_p and hardy_partial at the default sizes; r(3) = 0 leaves blocks with no n
    cases = [(x, N) for x in (2.0, 10.5, 1000.3, 100000.5) for N in (2, 3, 7, 64, 300)]
    tables = arith.build_tables(300)
    expected = [[truncated_p(tables, x, N), hardy_partial(tables, x, N)] for x, N in cases]
    monkeypatch.setattr(arith, "_R_SEGMENT", size)
    monkeypatch.setattr(arith, "_BLOCK", size)
    assert [special._series(tables, x, N, special._COSINE, special._BESSEL)
            for x, N in cases] == expected
    assert "r" not in tables.__dict__   # streamed, no table built


@property_test
@given(st.integers(2, 4000), st.integers(-3, 3))
def test_phase_guard_raises_exactly_when_x_times_the_last_kept_n_reaches_2_53(tables_4k, N, ulps):
    m = int(np.flatnonzero(tables_4k.r[:N + 1])[-1])   # the largest n <= N with r(n) != 0
    x = 2.0**53 / m
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    with pytest.MonkeyPatch.context() as patch:   # hypothesis rejects function-scoped fixtures
        patch.setattr(arith, "_BLOCK", 7)
        for f in (truncated_p, hardy_partial):
            if x * m >= 2.0**53:
                with pytest.raises(ValueError, match="2\\^53"):
                    f(tables_4k, x, N)
            else:
                assert math.isfinite(f(tables_4k, x, N))
