import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from circlekit import arith, laplace, lattice
from circlekit.errors import CapacityError
from circlekit.laplace import (
    A1_EXPECTED,
    D_SQUARED,
    R_SQUARED,
    LaplaceEstimate,
    ResidualScan,
    SeriesConstant,
    exp_power_peak,
    fit_a1,
    fit_log_quadratic,
    laplace_d2,
    laplace_main_d,
    laplace_main_p,
    laplace_p2,
    residual_scan,
    series_constant,
    series_limit,
    weight_f,
    weight_u,
    weight_u_bound_check,
    weight_u_log_ratio,
)
from circlekit.lattice import CIRCLE, DIVISOR, delta_of_x, p_of_x, step_profile


# ------------------------------------------------------------ series constant


def test_series_constant_single_term(tables_4k):
    sc = series_constant(tables_4k, R_SQUARED, 1)
    assert sc.value == 16.0
    assert sc.kind == R_SQUARED and sc.terms_used == 1


def test_series_constant_five_terms(tables_4k):
    sc = series_constant(tables_4k, R_SQUARED, 5)
    expect = 16 + 16 / 2**1.5 + 16 / 4**1.5 + 64 / 5**1.5   # r(3) = 0 drops out
    assert sc.value == pytest.approx(expect, rel=1e-15)


def test_series_constant_divisor(tables_4k):
    sc = series_constant(tables_4k, D_SQUARED, 2)
    assert sc.value == pytest.approx(1 + 4 / 2**1.5, rel=1e-15)
    assert sc.value == pytest.approx(2.414213562373095, rel=1e-12)


def test_series_constant_domain(tables_4k):
    with pytest.raises(ValueError):
        series_constant(tables_4k, R_SQUARED, tables_4k.limit + 1)
    with pytest.raises(ValueError):
        series_constant(tables_4k, "bogus", 10)
    with pytest.raises(ValueError, match="limit >= 2"):
        series_constant(arith.build_tables(1), R_SQUARED, 1)


def test_series_constant_monotone_with_bracketing_tail(tables_120k):
    prev = None
    for terms in (10**2, 10**3, 10**4, 10**5):
        sc = series_constant(tables_120k, R_SQUARED, terms)
        if prev is not None:
            assert sc.value >= prev.value                 # non-negative summands
            assert sc.tail_bound <= prev.tail_bound       # bound shrinks with terms
            assert sc.value - prev.value <= prev.tail_bound
        prev = sc


def test_series_limits_bracketed_by_partial_sums(tables_120k):
    for kind in (R_SQUARED, D_SQUARED):
        closed = series_limit(kind)
        sc = series_constant(tables_120k, kind, tables_120k.limit)
        assert sc.value <= closed <= sc.value + sc.tail_bound, kind


def test_series_limit_values():
    # frozen from the 30-digit evaluation of the closed forms
    assert series_limit(R_SQUARED) == pytest.approx(50.156056142639436, rel=1e-14)
    assert series_limit(D_SQUARED) == pytest.approx(38.745144143901322, rel=1e-14)
    with pytest.raises(ValueError):
        series_limit("bogus")


# --------------------------------------------------------------- transforms


def _midpoint_oracle(values_fn, x_hi: float, step: float) -> float:
    """Deliberately naive fine-grid quadrature, sampled at non-integer points."""
    xs = np.arange(step / 2.0, x_hi, step)
    return float(np.sum(values_fn(xs)) * step)


def _p2_integrand(profile, T):
    partial = profile.partial

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
        return lattice.StepProfile(kind, limit, profile.partial[: limit + 1])

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


def test_laplace_p2_validates_input(circle_4k, divisor_4k):
    with pytest.raises(ValueError):
        laplace_p2(divisor_4k, 10.0)
    with pytest.raises(ValueError):
        laplace_p2(circle_4k, 0.5)
    for rel_tol in (0.0, math.nan, math.inf, 1.0):
        with pytest.raises(ValueError):
            laplace_p2(circle_4k, 10.0, rel_tol=rel_tol)


def test_laplace_main_p():
    c = SeriesConstant(kind=R_SQUARED, terms_used=10, value=50.0, tail_bound=1.0)
    assert laplace_main_p(c, math.pi) == pytest.approx(50.0 / 4 - math.pi, rel=1e-15)
    assert laplace_main_p(50.0, math.pi) == laplace_main_p(c, math.pi)
    tiny = laplace_main_p(c, 1e-9)
    assert abs(tiny) < 1e-8
    with pytest.raises(ValueError):
        laplace_main_p(SeriesConstant(D_SQUARED, 10, 38.0, 1.0), 10.0)


def test_leading_coefficient_convergence(circle_1m):
    # integral / T^(3/2) approaches (1/4) pi^(-3/2) * c as T grows
    c = series_limit(R_SQUARED)
    target = 0.25 * math.pi**-1.5 * c
    gaps = []
    for T in (64.0, 256.0, 1024.0):
        value, _ = laplace_p2(circle_1m, T)
        gaps.append(abs(value / T**1.5 - target))
    assert gaps[0] > gaps[-1]
    assert gaps[-1] <= 2.0 / math.sqrt(1024.0)


def test_residual_scan_rows_and_validation(circle_1m, divisor_1m):
    c = series_limit(R_SQUARED)
    scan = residual_scan(circle_1m, c, [128.0])
    assert scan.kind == CIRCLE
    assert len(scan.rows) == 1
    row = scan.rows[0]
    assert row.residual == row.integral - row.main_term
    assert row.ratio_t23 == pytest.approx(abs(row.residual) / 128.0 ** (2 / 3))
    assert math.isnan(scan.slope)
    with pytest.raises(ValueError):
        residual_scan(circle_1m, c, [256.0, 128.0])
    with pytest.raises(ValueError):
        residual_scan(circle_1m, c, [])

    c_d = series_limit(D_SQUARED)
    scan = residual_scan(divisor_1m, c_d, [128.0, 256.0])
    assert scan.kind == DIVISOR
    assert [row.T for row in scan.rows] == [128.0, 256.0]
    for row in scan.rows:
        assert (row.integral, row.truncation_bound) == laplace_d2(divisor_1m, row.T)
        assert row.main_term == laplace_main_d(c_d, row.T)
        assert row.residual == row.integral - row.main_term
    assert not math.isnan(scan.slope)
    with pytest.raises(ValueError):
        residual_scan(divisor_1m, c_d, [256.0, 128.0])
    with pytest.raises(ValueError):
        residual_scan(divisor_1m, c_d, [])


def _d2_integrand(profile, T):
    partial = profile.partial

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


def _mp_gauss_legendre(m):
    """m-point Gauss-Legendre nodes and weights on [-1, 1] at the working precision."""
    nodes, weights = [], []
    for guess in np.polynomial.legendre.leggauss(m)[0]:
        x = mp.findroot(lambda t: mp.legendre(m, t), mp.mpf(guess))
        dp = m * (x * mp.legendre(m, x) - mp.legendre(m - 1, x)) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp**2))
    return nodes, weights


@pytest.mark.parametrize("lo, hi, D", [
    (2.0**-11, 2.0**-10, 0), (0.5, 1.0, 0), (1.0, 2.0, 1), (10.0, 11.0, 27), (1000.0, 1001.0, 7069),
])
def test_gauss_error_bound_is_an_upper_bound(lo, hi, D):
    # D is the divisor partial sum on [lo, hi): 0 below 1, then D_1, D_10, D_1000
    with mp.workdps(50):
        rules = {m: _mp_gauss_legendre(m) for m in (2, 3, 4, 6)}
        c, h = (mp.mpf(lo) + hi) / 2, (mp.mpf(hi) - lo) / 2
        for T in (1.0, 10.0, 1e4):
            def f(x):
                return (D - x * (mp.log(x) + 2 * mp.euler - 1) - mp.mpf(1) / 4) ** 2 * mp.exp(-x / T)

            exact = mp.quad(f, [lo, hi])
            for m, (nodes, weights) in rules.items():
                bound = laplace._gauss_error_bound(lo, hi, D, T, m)
                if bound == 0.0:    # exp(-x/T) underflows: nothing to compare
                    continue
                approx = h * mp.fsum(w * f(c + h * t) for t, w in zip(nodes, weights))
                assert abs(approx - exact) <= bound, (T, m)


def test_fit_log_quadratic_recovers_synthetic_exactly():
    a, b, c = -0.025, 0.37, -1.2
    Ts = [2.0**k for k in range(7, 14)]
    ys = [a * math.log(T) ** 2 + b * math.log(T) + c for T in Ts]
    fa, fb, fc = fit_log_quadratic(Ts, ys)
    assert fa == pytest.approx(a, abs=1e-10)
    assert fb == pytest.approx(b, abs=1e-10)
    assert fc == pytest.approx(c, abs=1e-10)


def test_fit_underdetermined():
    with pytest.raises(ValueError):
        fit_log_quadratic([10.0, 20.0], [1.0, 2.0])
    rows = [LaplaceEstimate(T, 1.0, 0.0, 0.5, 0.5) for T in (128.0, 256.0, 512.0)]
    with pytest.raises(ValueError):
        fit_a1(ResidualScan(kind=DIVISOR, rows=rows[:2], slope=0.0))
    with pytest.raises(ValueError):
        fit_a1(ResidualScan(kind=CIRCLE, rows=rows, slope=0.0))


# ------------------------------------------------------------------ weights


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
            ok = weight_u_bound_check(t, h, T, c_cap=100.0)
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
                assert abs((laplace._u_parts(t, h, T)[1] - ref) / ref) <= 1e-12, (t, h, T)
                points += 1
    assert points == 136


def test_exp_power_inequality():
    alpha = 11.0 / 6.0
    peak = exp_power_peak(alpha)
    xs = np.geomspace(1e-6, 1e3, 400)
    vals = np.exp(-xs) * xs**alpha
    assert (vals <= peak * (1 + 1e-12)).all()
    # the maximum is attained at x = alpha
    assert np.exp(-alpha) * alpha**alpha == pytest.approx(peak, rel=1e-15)
    dense = np.linspace(alpha - 0.5, alpha + 0.5, 2001)
    assert float(np.max(np.exp(-dense) * dense**alpha)) == pytest.approx(peak, rel=1e-7)


@pytest.mark.parametrize("alpha", [150.0, 171.0])
def test_exp_power_peak_near_the_float_range_end(alpha):
    # the peak is finite here, though alpha**alpha alone is past the largest float
    with mp.workdps(30):
        ref = mp.exp(-mp.mpf(alpha)) * mp.mpf(alpha) ** mp.mpf(alpha)
    assert exp_power_peak(alpha) == pytest.approx(float(ref), rel=1e-14)
