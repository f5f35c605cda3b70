import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from circlekit import arith, correlate
from circlekit.correlate import (
    CorrelationRecord,
    corr_grid,
    pointwise_bound_report,
)

from conftest import corr_sum, e_term, g_direct


def test_corr_sum_examples(tables_4k):
    assert corr_sum(tables_4k, 10, 1) == 96
    assert corr_sum(tables_4k, 1, 1) == 16
    # brute force from the table
    expect = sum(int(tables_4k.r[n]) * int(tables_4k.r[n + 3]) for n in range(1, 11))
    assert corr_sum(tables_4k, 10, 3) == expect


def test_corr_sum_domain(tables_4k):
    with pytest.raises(ValueError):
        corr_sum(tables_4k, tables_4k.limit, 1)
    with pytest.raises(ValueError):
        corr_sum(tables_4k, 10, 0)
    assert corr_sum(tables_4k, 0, 1) == 0


def test_e_term_examples(tables_4k):
    rec = e_term(tables_4k, 10, 1)
    assert (rec.raw, rec.main, rec.e_value) == (96, 80, 16.0)
    rec2 = e_term(tables_4k, 10, 2)
    assert rec2.main == 40
    assert rec2.e_value == rec2.raw - 40
    rec0 = e_term(tables_4k, 0, 1)
    assert (rec0.raw, rec0.main, rec0.e_value) == (0, 0, 0.0)


def test_e_term_exactness(tables_4k):
    rec = e_term(tables_4k, 100, 3)
    assert rec.main == arith.g_closed(3) * 100
    assert rec.e_exact == Fraction(rec.raw) - rec.main
    assert rec.e_value == float(rec.e_exact)


def test_e_unit_step_identity(tables_4k):
    # E(N+1, h) - E(N, h) = r(N+1) r(N+1+h) - g(h), exactly
    rng = np.random.default_rng(11)
    for _ in range(25):
        N = int(rng.integers(1, 3000))
        h = int(rng.integers(1, 900))
        a = e_term(tables_4k, N, h)
        b = e_term(tables_4k, N + 1, h)
        step = Fraction(int(tables_4k.r[N + 1]) * int(tables_4k.r[N + 1 + h])) - arith.g_closed(h)
        assert b.e_exact - a.e_exact == step


def test_corr_grid_matches_individual_calls(tables_4k):
    records = corr_grid(tables_4k, 10, 3)
    assert len(records) == 3
    for rec in records:
        solo = e_term(tables_4k, rec.N, rec.h)
        assert (rec.raw, rec.main) == (solo.raw, solo.main)


def test_corr_grid_dual_path_exact(tables_4k):
    records = corr_grid(tables_4k, 2000, 50) + corr_grid(tables_4k, 3000, 50)
    for rec in records:
        assert rec.raw == corr_sum(tables_4k, rec.N, rec.h)


def test_corr_grid_empty_and_domain(tables_4k):
    with pytest.raises(ValueError):
        corr_grid(tables_4k, tables_4k.limit, 1)
    for H_max in (1, 4):   # an empty sum, and one np.dot used to reject by shape
        with pytest.raises(ValueError, match="N must be >= 0"):
            corr_grid(tables_4k, -3, H_max)
    with pytest.raises(ValueError, match="H_max must be >= 1"):
        corr_grid(tables_4k, 10, 0)
    with pytest.raises(ValueError, match="N must be >= 0"):
        corr_sum(tables_4k, -1, 1)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_corr_grid_never_depends_on_the_block(tables_4k, monkeypatch, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    for N in sorted({block - 1, block, block + 1, 3 * block - 1, 3 * block, 3 * block + 1, 130}):
        for H_max in (1, 9, N + 2):   # the last overlaps past N
            raws = [rec.raw for rec in corr_grid(tables_4k, N, H_max)]
            assert raws == [corr_sum(tables_4k, N, h) for h in range(1, H_max + 1)], (N, H_max)
            assert all(type(raw) is int for raw in raws)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("segment", [7, 64])
def test_corr_grid_streams_r_with_no_table(tables_4k, monkeypatch, segment, block):
    # no table built: r comes segment by segment, and the window's carry crosses segments
    monkeypatch.setattr(arith, "_R_SEGMENT", segment)
    monkeypatch.setattr(arith, "_BLOCK", block)
    Ns = {k * m + d for m in (segment, block) for k in (1, 3) for d in (-1, 0, 1)} - {0}
    for N in sorted(Ns):
        for H_max in (1, 9, segment + 1, N + 2):   # past a whole segment; past N
            tables = arith.ArithTables(N + H_max)
            raws = [rec.raw for rec in corr_grid(tables, N, H_max)]
            assert raws == [corr_sum(tables_4k, N, h) for h in range(1, H_max + 1)], (N, H_max)
            assert "r" not in tables.__dict__


def test_corr_grid_checks_each_streamed_block_against_2_53(monkeypatch):
    # a |r| too large for exact float64 dots that only a later block reads still raises
    monkeypatch.setattr(arith, "_R_SEGMENT", 64)
    monkeypatch.setattr(arith, "_BLOCK", 64)
    top = math.isqrt((2**53 - 1) // 64)   # the largest |r| with block * r^2 < 2^53
    sieve, spike = arith._r_segment, [top]

    def spiked(lo, hi, out, nxt):   # r(200), past the first block's window 1..74, set to spike[0]
        sieve(lo, hi, out, nxt)
        if lo <= 200 < hi:
            out[200 - lo] = spike[0]
    monkeypatch.setattr(arith, "_r_segment", spiked)
    built = arith.ArithTables(310)
    assert built.r[200] == top
    raws = [rec.raw for rec in corr_grid(arith.ArithTables(310), 300, 10)]
    assert raws == [corr_sum(built, 300, h) for h in range(1, 11)]
    spike[0] = top + 1
    with pytest.raises(ValueError, match="2\\^53"):
        corr_grid(arith.ArithTables(310), 300, 10)


def test_corr_grid_float64_dots_are_exact_up_to_their_bound():
    limit = arith._BLOCK + 100   # two blocks of n
    top = math.isqrt((2**53 - 1) // arith._BLOCK)   # the largest |r| with block * r^2 < 2^53
    r = np.random.default_rng(5).integers(top - 1000, top + 1, size=limit + 1)
    r[1::3] *= -1
    tables = arith.ArithTables(limit, r=r)
    for rec in corr_grid(tables, limit - 10, 10):
        assert rec.raw == corr_sum(tables, rec.N, rec.h)
    r[limit // 2] = top + 1
    with pytest.raises(ValueError, match="2\\^53"):
        corr_grid(tables, limit - 10, 10)
    with pytest.raises(ValueError, match="2\\^53"):
        corr_grid(arith.ArithTables(100, r=np.full(101, 2**24, dtype=np.int32)), 90, 10)


def test_main_term_two_forms_interchangeable():
    # g in closed form equals the alternating divisor-sum form as exact
    # rationals, so either main term normalisation gives the same E
    for h in range(1, 500):
        assert arith.g_closed(h) == g_direct(h)


def test_pointwise_bound_report(tables_4k):
    rec = e_term(tables_4k, 10, 1)
    rep = pointwise_bound_report([rec])
    assert rep.max_ratio == pytest.approx(16 / 10 ** (2 / 3), rel=1e-12)
    assert rep.argmax == (10, 1)
    with pytest.raises(ValueError):
        pointwise_bound_report([])
    with pytest.raises(ValueError):
        pointwise_bound_report([e_term(tables_4k, 3, 5)])  # needs h <= N


# The random-coefficient dyadic report lives here, next to its only checks: no
# command reads it.
@dataclass(frozen=True)
class WeightedTrialRow:
    trial: int
    weighted_abs: float   # |sum_m alpha_m E(N, m)| for unit-norm alpha
    envelope: float       # N^(2/3) M^(1/2) + N^(1/3) M^(5/6)
    ratio: float


@dataclass(frozen=True)
class WeightedBoundReport:
    N: int
    M: int
    seed: int
    rows: list[WeightedTrialRow]
    max_ratio: float


def weighted_bound_report(
    records: list[CorrelationRecord], trials: int, seed: int
) -> WeightedBoundReport:
    """Random-coefficient probes of the dyadic weighted bound.

    ``records`` must cover exactly one dyadic block M < m <= 2M at a fixed N.
    Each trial draws alpha_m uniformly from the complex unit disc, rescales
    to unit l2 norm, and reports |sum alpha_m E(N, m)| against the envelope
    N^(2/3) M^(1/2) + N^(1/3) M^(5/6).  Deterministic under ``seed``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not records:
        raise ValueError("weighted_bound_report needs a dyadic block of records")
    N = records[0].N
    if any(rec.N != N for rec in records):
        raise ValueError("weighted_bound_report needs records at a single N")
    hs = sorted(rec.h for rec in records)
    M, top = hs[0] - 1, hs[-1]
    if M < 1 or top != 2 * M or hs != list(range(M + 1, 2 * M + 1)):
        raise ValueError(
            f"records must cover a dyadic block M < m <= 2M with M >= 1, got h in [{hs[0]}, {top}]"
        )
    e = np.array([rec.e_value for rec in sorted(records, key=lambda rec: rec.h)])
    envelope = N ** (2.0 / 3.0) * M**0.5 + N ** (1.0 / 3.0) * M ** (5.0 / 6.0)
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        radius = np.sqrt(rng.uniform(size=M))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=M)
        alpha = radius * np.exp(1j * angle)
        alpha /= np.linalg.norm(alpha)
        weighted = abs(np.dot(alpha, e))
        rows.append(
            WeightedTrialRow(
                trial=t, weighted_abs=weighted, envelope=envelope, ratio=weighted / envelope
            )
        )
    return WeightedBoundReport(
        N=N, M=M, seed=seed, rows=rows, max_ratio=max(r.ratio for r in rows)
    )


def test_weighted_bound_report_determinism(tables_4k):
    records = corr_grid(tables_4k, 1000, 32)
    block = [r for r in records if 16 < r.h <= 32]
    rep1 = weighted_bound_report(block, trials=5, seed=99)
    rep2 = weighted_bound_report(block, trials=5, seed=99)
    assert [r.ratio for r in rep1.rows] == [r.ratio for r in rep2.rows]
    rep3 = weighted_bound_report(block, trials=5, seed=100)
    assert [r.ratio for r in rep1.rows] != [r.ratio for r in rep3.rows]


def test_weighted_bound_envelope_and_norm(tables_4k):
    N, M = 1000, 16
    records = [e_term(tables_4k, N, h) for h in range(M + 1, 2 * M + 1)]
    rep = weighted_bound_report(records, trials=8, seed=1)
    envelope = N ** (2 / 3) * M**0.5 + N ** (1 / 3) * M ** (5 / 6)
    assert rep.rows[0].envelope == pytest.approx(envelope, rel=1e-12)
    assert rep.M == M and rep.N == N
    # coefficients are unit l2-norm, so Cauchy-Schwarz caps every draw
    e_norm = math.sqrt(sum(r.e_value**2 for r in records))
    for row in rep.rows:
        assert row.weighted_abs <= e_norm + 1e-9
    # a unit-norm indicator vector gives exactly the single-term ratio,
    # which the random draws should not exceed by the same bound
    indicator_max = max(abs(r.e_value) for r in records) / envelope
    assert indicator_max <= e_norm / envelope


def test_weighted_bound_validates_block(tables_4k):
    with pytest.raises(ValueError):
        # gap: h in {3, 5} is not a full dyadic block
        weighted_bound_report([e_term(tables_4k, 100, 3), e_term(tables_4k, 100, 5)], 2, 0)
    with pytest.raises(ValueError):
        # mixed N
        weighted_bound_report(
            [e_term(tables_4k, 100, h) for h in (3, 4)] + [e_term(tables_4k, 99, 4)], 2, 0
        )
    with pytest.raises(ValueError):
        weighted_bound_report([], 2, 0)
