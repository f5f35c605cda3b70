"""Acceptance suite: one test per criterion, each printing a measured
summary line (run with -v -s to see them).  Shared large fixtures live in
conftest; the 1e7 table is module-local since only the mean-square
criterion, the table-sum check and the envelope check need it.
"""

import math
import time
from math import gcd

import numpy as np
import pytest

from circlekit import arith, cli, correlate, laplace, lattice, special
from circlekit.lattice import divisor_main

from conftest import (bessel_oracle, brute_divisors, corr_sum, e_term, g_direct,
                      g_identity_first_failure, hyperbola_count, lattice_count, p_gauss_oracle,
                      partial_sums, sigma_count)

GRID_BASES = (10**3, 10**4, 10**5, 10**6)


@pytest.fixture(scope="module")
def tables_10m():
    return arith.build_tables(10**7)


@pytest.fixture(scope="module")
def circle_10m(tables_10m):
    return lattice.step_profile(tables_10m, lattice.CIRCLE)


@pytest.fixture(scope="module")
def divisor_10m(tables_10m):
    return lattice.step_profile(tables_10m, lattice.DIVISOR)


def _announce(tag: str, started: float, detail: str) -> None:
    print(f"\n{tag}: {detail}  [{time.perf_counter() - started:.1f}s]")


def test_acc01_g_identity_exact_to_1e6():
    t0 = time.perf_counter()
    first_bad = g_identity_first_failure(10**6)
    # tie the batch scan to the single-h operations on random arguments
    rng = np.random.default_rng(17)
    for h in rng.integers(1, 10**6 + 1, size=100):
        assert g_direct(int(h)) == arith.g_closed(int(h))
    _announce("ACC-01 g identity h=1..1e6", t0,
              f"first failure: {first_bad} (exact integer arithmetic)")
    assert first_bad is None


def test_acc02_lattice_oracle_equivalence(circle_1m):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    xs = []
    while len(xs) < 100:
        x = float(rng.uniform(1.0, 10**4))
        if x != math.floor(x):
            xs.append(x)
    for x in xs:
        assert lattice.error_term(circle_1m, x) == p_gauss_oracle(x)
    # the quantity 37 - 10 pi both ways: the unprimed profile count through
    # n = 10 versus the direct lattice enumeration at x = 10
    profile_path = float(partial_sums(circle_1m.tables.r[:11])[10]) + 1.0 - 10.0 * math.pi
    oracle_path = p_gauss_oracle(10.0)
    assert abs(profile_path - oracle_path) <= 1e-12
    assert abs(profile_path - (37 - 10 * math.pi)) <= 1e-12
    # under the primed convention the endpoint term r(10) = 8 is halved
    assert lattice.error_term(circle_1m, 10.0) == pytest.approx(33 - 10 * math.pi, abs=1e-12)
    _announce("ACC-02 lattice oracle", t0,
              "100/100 exact matches; 37-10pi dual-path gap "
              f"{abs(profile_path - oracle_path):.2e}")


def _p_from_count(x: float) -> float:
    """P(x) from the O(sqrt x) lattice count, primed at integer x, by error_term's main term."""
    m = math.floor(x)
    count = float(lattice_count(m))
    if x == m:
        count -= arith.r_single(m) / 2.0
    return count - math.pi * x + 1.0


def _delta_from_count(x: float) -> float:
    """Delta(x) from the O(sqrt x) hyperbola count, primed at integer x, by error_term's main term."""
    m = math.floor(x)
    count = float(hyperbola_count(m))
    if x == m:
        count -= len(brute_divisors(m)) / 2.0
    return count - x * (math.log(x) + 2.0 * lattice.EULER_GAMMA - 1.0) - 0.25


def test_acc02b_exact_error_terms_at_sieve_scale(circle_1m, divisor_1m, circle_10m):
    t0 = time.perf_counter()
    checked = 0
    for k in range(1, 7):
        for x in (10.0**k, 10.0**k + 0.5):
            assert lattice.error_term(circle_1m, x) == _p_from_count(x), x
            assert lattice.error_term(divisor_1m, x) == _delta_from_count(x), x
            checked += 2
    for x in (1e7 - 0.5, 1e7):   # the 1e7 table ends at x = 1e7
        assert lattice.error_term(circle_10m, x) == _p_from_count(x), x
        checked += 1
    _announce("ACC-02b exact error terms at x = 10^k and 10^k + 0.5", t0,
              f"{checked}/{checked} equal to O(sqrt x) counts (P to 1e7, Delta to 1e6)")


def test_acc03_gauss_sum_congruence_classes():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for k in range(1, 501):
        cls = k % 4
        if cls not in (1, 2):
            continue
        target = arith.chi(k) * k if cls == 1 else 0.0
        for h in range(1, k + 1):
            if gcd(h, k) != 1:
                continue
            gap = abs(special.gauss_sum_sq(k, h) - target)
            worst = max(worst, gap / k)
            assert gap <= 1e-6 * k, (k, h, gap)
            checked += 1
    _announce("ACC-03 Gauss sums k<=500", t0,
              f"{checked} pairs, worst |error|/k = {worst:.2e} (tol 1e-6)")


def test_acc04_bessel_vs_oracle():
    t0 = time.perf_counter()
    zs = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 999)))
    worst = 0.0
    for order in (0, 1):
        mine = special.bessel_j(order, zs)
        ref = np.array([bessel_oracle(order, float(z)) for z in zs])
        worst = max(worst, float(np.max(np.abs(mine - ref))))
    _announce("ACC-04 Bessel accuracy", t0,
              f"1000 z in [0,1e3], orders 0 and 1, max |diff| = {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def _truncation_residuals(tables, profile, n_of_x):
    out = []
    for base in GRID_BASES:
        x = base + 0.5
        n = n_of_x(x)
        out.append(abs(lattice.error_term(profile, x) - special.truncated_p(tables, x, n)))
    return out


def test_acc05a_truncated_formula_slope(tables_1m, circle_1m):
    t0 = time.perf_counter()
    res = _truncation_residuals(tables_1m, circle_1m, lambda x: math.ceil(x ** (1 / 3)))
    xs = [b + 0.5 for b in GRID_BASES]
    slope = float(np.polyfit(np.log(xs), np.log(res), 1)[0])
    # context: the same regression over a dense 41-point log grid (where
    # single-point oscillation fades average out)
    dense_x = np.floor(np.exp(np.linspace(math.log(10**3), math.log(10**6), 41))) + 0.5
    dense_r = [
        abs(lattice.error_term(circle_1m, float(x))
            - special.truncated_p(tables_1m, float(x), math.ceil(float(x) ** (1 / 3))))
        for x in dense_x
    ]
    dense_slope = float(np.polyfit(np.log(dense_x), np.log(dense_r), 1)[0])
    _announce("ACC-05a truncated-sum error slope", t0,
              f"residuals {['%.3f' % v for v in res]}, slope {slope:.4f} "
              f"(window [0.15, 0.45]); dense 41-point slope {dense_slope:.4f}")
    assert 0.15 <= slope <= 0.45, (
        f"slope {slope:.4f} outside [0.15, 0.45] on the 4-point grid; the "
        f"dense-grid slope is {dense_slope:.4f} -- the pinned decade points "
        "sit in oscillation fades, see the decisions ledger"
    )


def test_acc05a_dense_grid_slope(tables_1m, circle_1m):
    t0 = time.perf_counter()
    xs = np.floor(np.exp(np.linspace(math.log(10**3), math.log(10**6), 41))) + 0.5
    res = [
        abs(lattice.error_term(circle_1m, float(x))
            - special.truncated_p(tables_1m, float(x), math.ceil(float(x) ** (1 / 3))))
        for x in xs
    ]
    slope = float(np.polyfit(np.log(xs), np.log(res), 1)[0])
    _announce("ACC-05a companion, dense 41-point grid", t0,
              f"slope {slope:.4f} (window [0.15, 0.45])")
    assert 0.15 <= slope <= 0.45


def test_acc05b_truncated_formula_full_cutoff(tables_1m, circle_1m):
    t0 = time.perf_counter()
    res = _truncation_residuals(tables_1m, circle_1m, lambda x: int(x))
    _announce("ACC-05b truncated sum at N=x", t0,
              f"max residual {max(res):.4f} (tol 5)")
    assert max(res) <= 5.0


def test_acc06_mean_square_remainder_bound(tables_10m, circle_10m):
    t0 = time.perf_counter()
    # Q(X) = int_0^X P^2 - c32 X^(3/2), classically O(X log^2 X)
    c32 = laplace.series_constant(lattice.step_profile(tables_10m, lattice.CIRCLE),
                                  10**7).value / (3 * math.pi**2)
    worst = 0.0
    for X in (10**4, 10**5, 10**6, 10**7):
        q = lattice.mean_square_p(circle_10m, float(X)) - c32 * float(X)**1.5
        worst = max(worst, abs(q) / (X * math.log(X) ** 2))
    _announce("ACC-06 mean-square remainder", t0,
              f"max |Q(X)|/(X log^2 X) = {worst:.5f} over X in 1e4..1e7 (bound 1)")
    assert worst <= 1.0


def test_acc06b_table_sums_at_1e7(tables_10m):
    t0 = time.perf_counter()
    N = tables_10m.limit
    sums = (int(tables_10m.r.sum(dtype=np.int64)), int(tables_10m.d.sum(dtype=np.int64)),
            int(tables_10m.sigma.sum()))
    counts = (lattice_count(N), hyperbola_count(N), sigma_count(N))
    _announce("ACC-06b sieve sums at N=1e7", t0,
              f"(sum r, sum d, sum sigma) = {sums}, O(sqrt N) counts {counts}")
    assert sums == counts


def test_acc06c_proven_truncation_envelopes_at_1e7(circle_10m, divisor_10m):
    # The Laplace tail bounds integrate these envelopes past the stop; here
    # they hold at both one-sided limits of every jump up to 1e7, and so does
    # the theorem behind the divisor's, in its own convention.
    t0 = time.perf_counter()
    (c, c0), (cd, cd0) = (laplace._ENVELOPES[k] for k in (lattice.CIRCLE, lattice.DIVISOR))
    chunks, sums = [], partial_sums(divisor_10m.tables.d)
    circle_10m.tables.r   # built once: each chunk would otherwise re-sieve r from 0
    for lo in range(1, 10**7, 10**6):   # chunked to bound the temporaries
        n, p_abs = lattice.error_at_jumps(circle_10m, lo, lo + 10**6 - 1)
        root = np.sqrt(n)
        delta_abs = lattice.error_at_jumps(divisor_10m, lo, lo + 10**6 - 1)[1]
        bbr_main = divisor_main(n) - 0.25   # x (log x + 2 gamma - 1), without Delta's 1/4
        partial = sums[lo - 1 : lo + 10**6]
        bbr_abs = np.maximum(np.abs(partial[:-1] - bbr_main), np.abs(partial[1:] - bbr_main))
        chunks.append((np.min(c * root + c0 - p_abs), np.max(p_abs / root),
                       np.max(delta_abs / root), np.max(bbr_abs / root)))
    slack = float(min(ch[0] for ch in chunks))
    p_sup, delta_sup, bbr_sup = (float(max(ch[i] for ch in chunks)) for i in (1, 2, 3))
    _announce("ACC-06c proven envelopes to 1e7", t0,
              f"sup |P|/sqrt(n) {p_sup:.5f}, min slack {slack:.3f} to {c:.4f} sqrt(n) + {c0:.4f}; "
              f"sup |Delta|/sqrt(n) {delta_sup:.4f} (<= {cd:g}); "
              f"sup |sum d - n (log n + 2 gamma - 1)|/sqrt(n) {bbr_sup:.6f} (<= 0.961)")
    assert (c, c0) == (math.sqrt(2) * math.pi, math.pi / 2) and slack > 0
    assert (cd, cd0) == (3.0, 0.0) and delta_sup <= cd
    assert bbr_sup <= 0.961 and 0.961 + 0.25 <= cd   # BBR's bound, plus Delta's 1/4


def test_acc07_laplace_transform_remainder_order(circle_1m):
    t0 = time.perf_counter()
    c = laplace.series_limit(lattice.CIRCLE)
    Ts = [2.0**k for k in range(6, 14)]
    scan = laplace.residual_scan(circle_1m, Ts, rel_tol=1e-6)
    scaled = [row.residual / row.T**1.5 for row in scan.rows]
    decreasing = all(a > b for a, b in zip(scaled, scaled[1:]))
    top = scan.rows[-1]
    coef_gap = abs(top.integral / top.T**1.5 - 0.25 * math.pi**-1.5 * c)
    coef_tol = 2.0 / math.sqrt(top.T)
    _announce("ACC-07 transform remainder order", t0,
              f"slope {scan.slope:.4f} (<= 0.75); residual/T^1.5 decreasing: {decreasing}; "
              f"leading-coef gap {coef_gap:.5f} <= {coef_tol:.5f}")
    assert decreasing, [f"{v:.2e}" for v in scaled]
    assert scan.slope <= 0.75
    assert coef_gap <= coef_tol
    for row in scan.rows:
        assert row.truncation_bound <= 1e-6 * row.integral * (1 + 1e-9)


def test_acc08_divisor_transform_a1(divisor_1m):
    t0 = time.perf_counter()
    Ts = [2.0**k for k in range(7, 14)]
    fit = laplace.fit_a1(laplace.residual_scan(divisor_1m, Ts, rel_tol=1e-6))
    rel_gap = abs(fit.a1 - laplace.A1_EXPECTED) / abs(laplace.A1_EXPECTED)
    _announce("ACC-08 divisor transform log^2 coefficient", t0,
              f"fitted {fit.a1:.7f} vs -1/(4 pi^2) = {laplace.A1_EXPECTED:.7f} "
              f"({100 * rel_gap:.2f}% off, tol 25%)")
    assert rel_gap <= 0.25


def test_acc09_correlation_dual_path_and_ratios(tables_1m):
    t0 = time.perf_counter()
    records = correlate.corr_grid(tables_1m, 10**5, 100)
    for rec in records:
        assert rec.raw == corr_sum(tables_1m, rec.N, rec.h)
    assert e_term(tables_1m, 10, 1).e_value == 16.0
    maxima = []
    for N in (10**4, 10**5, 10**6):
        grid = correlate.corr_grid(tables_1m, N, math.isqrt(N))
        maxima.append(correlate.pointwise_bound_report(grid).max_ratio)
    growth = [b / a for a, b in zip(maxima, maxima[1:])]
    _announce("ACC-09 correlation dual path + envelope", t0,
              f"grid == recompute for N=1e5, h<=100; max ratios "
              f"{['%.3f' % m for m in maxima]}, growth factors "
              f"{['%.3f' % g for g in growth]} (tol 2)")
    assert all(g <= 2.0 for g in growth)


def test_acc10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    pairs = []
    for name, args in (
        ("corr", ["correlate", "--n", "2000", "--h-max", "16"]),
        ("lap", ["laplace", "circle", "--t-list", "16,32"]),
        ("err", ["error-term", "divisor", "--x-max", "500", "--samples", "9"]),
    ):
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        identical = a.read_bytes() == b.read_bytes()
        pairs.append((name, identical))
        assert identical, name
    _announce("ACC-10 CLI determinism", t0,
              f"byte-identical reruns: {pairs}")
