"""Correlation sums sum_{n<=N} r(n) r(n+h) and their error term E(N, h).

The main term of the correlation sum is linear, g(h) * N, with g(h) the
exact rational from `arith.g_closed`.  E(N, h) = raw - g(h) N is kept as
(exact integer raw, exact rational main); floating point enters only in
reports.  Empirically E obeys the pointwise envelope
N^(2/3) h^(5/42) (for h <= N) and dyadic weighted sums obey
||alpha||_2 (N^(2/3) M^(1/2) + N^(1/3) M^(5/6)); both are probed here as
fitted-constant ratio reports, never as absolute claims.

Grids cap h at sqrt(N): that is the range in which the linear main term
is known to hold uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ArithTables, g_closed


@dataclass(frozen=True)
class CorrelationRecord:
    """One correlation sum with its exact main term.

    ``e_value`` is the float image of the exact difference raw - main,
    which is recoverable exactly as Fraction(raw) - main.
    """

    N: int
    h: int
    raw: int             # exact integer sum_{n<=N} r(n) r(n+h)
    main: Fraction       # g(h) * N, exact rational
    e_value: float

    @property
    def e_exact(self) -> Fraction:
        return Fraction(self.raw) - self.main


def corr_sum(tables: ArithTables, N: int, h: int) -> int:
    """Exact integer sum_{n<=N} r(n) r(n+h); needs N + h <= tables.limit."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N + h > tables.limit:
        raise ValueError(
            f"corr_sum needs tables up to N+h={N + h}, limit is {tables.limit}"
        )
    if N == 0:
        return 0
    a = tables.r[1 : N + 1].astype(np.int64)
    b = tables.r[1 + h : N + 1 + h].astype(np.int64)
    return int(np.dot(a, b))


def _record(N: int, h: int, raw: int) -> CorrelationRecord:
    main = g_closed(h) * N
    return CorrelationRecord(N=N, h=h, raw=raw, main=main, e_value=float(Fraction(raw) - main))


def e_term(tables: ArithTables, N: int, h: int) -> CorrelationRecord:
    """Correlation record with exact main term g(h) N and error E = raw - main."""
    return _record(N, h, corr_sum(tables, N, h))


def corr_grid(tables: ArithTables, N_list: list[int], H_max: int) -> list[CorrelationRecord]:
    """All records for N in N_list, 1 <= h <= H_max.

    One pass per (N, h) pair over contiguous int64 slices: O(N * H_max)
    multiply-adds total with cache-friendly streaming access, which is the
    point -- building each record via scattered per-n updates would touch
    the same data in a worse order.
    """
    if not N_list:
        return []
    if H_max < 1:
        raise ValueError(f"H_max must be >= 1, got {H_max}")
    worst = max(N_list)
    if worst + H_max > tables.limit:
        raise ValueError(
            f"corr_grid needs tables up to {worst + H_max}, limit is {tables.limit}"
        )
    r64 = tables.r.astype(np.int64)
    out = []
    for N in N_list:
        a = r64[1 : N + 1]
        for h in range(1, H_max + 1):
            raw = int(np.dot(a, r64[1 + h : N + 1 + h])) if N else 0
            out.append(_record(N, h, raw))
    return out


@dataclass(frozen=True)
class BoundRatioRow:
    N: int
    h: int
    e_value: float
    ratio: float     # |E| / (N^(2/3) h^(5/42))


@dataclass(frozen=True)
class PointwiseBoundReport:
    rows: list[BoundRatioRow]
    max_ratio: float
    argmax: tuple[int, int]   # (N, h) attaining the max


def pointwise_bound_report(records: list[CorrelationRecord]) -> PointwiseBoundReport:
    """Ratios |E(N, h)| / (N^(2/3) h^(5/42)) per record plus the grid maximum."""
    if not records:
        raise ValueError("pointwise_bound_report needs at least one record")
    rows = []
    best = (-1.0, (0, 0))
    for rec in records:
        if rec.h > rec.N:
            raise ValueError(f"pointwise envelope needs h <= N, got h={rec.h} > N={rec.N}")
        ratio = abs(rec.e_value) / (rec.N ** (2.0 / 3.0) * rec.h ** (5.0 / 42.0))
        rows.append(BoundRatioRow(N=rec.N, h=rec.h, e_value=rec.e_value, ratio=ratio))
        if ratio > best[0]:
            best = (ratio, (rec.N, rec.h))
    return PointwiseBoundReport(rows=rows, max_ratio=best[0], argmax=best[1])


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
