"""Correlation sums sum_{n<=N} r(n) r(n+h) and their error term E(N, h).

The main term of the correlation sum is linear, g(h) * N, with g(h) the
exact rational from `arith.g_closed`.  E(N, h) = raw - g(h) N is kept as
(exact integer raw, exact rational main); floating point enters only in
reports.  Empirically E obeys the pointwise envelope
N^(2/3) h^(5/42) (for h <= N); `pointwise_bound_report` probes it as a
fitted-constant ratio report, never as an absolute claim.

Grids cap h at sqrt(N): that is the range in which the linear main term
is known to hold uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .arith import ArithTables, g_closed
from .errors import CapacityError


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
    a = tables.r[1 : N + 1].astype(np.int64)
    b = tables.r[1 + h : N + 1 + h].astype(np.int64)
    return int(np.dot(a, b))


def _record(N: int, h: int, raw: int) -> CorrelationRecord:
    main = g_closed(h) * N
    return CorrelationRecord(N=N, h=h, raw=raw, main=main, e_value=float(Fraction(raw) - main))


def e_term(tables: ArithTables, N: int, h: int) -> CorrelationRecord:
    """Correlation record with exact main term g(h) N and error E = raw - main."""
    return _record(N, h, corr_sum(tables, N, h))


def corr_grid(tables: ArithTables, N: int, H_max: int) -> list[CorrelationRecord]:
    """All records at N for 1 <= h <= H_max.

    One pass over r's segment stream, `tables._stream("r", N + H_max)` (a built or given
    table is one slice of it, else no N-entry table is held): each arith._BLOCK of n is an
    `arith._windows` window of float64, led by the H_max values of r before it, and each h
    adds one BLAS dot over it to an exact int.  Every product and partial sum in a block is
    an integer below 2^53, checked against the block's own max |r| before its dots, so each
    dot is exact in any summation order.
    """
    if H_max < 1:
        raise ValueError(f"H_max must be >= 1, got {H_max}")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N + H_max > tables.limit:
        raise ValueError(
            f"corr_grid needs tables up to {N + H_max}, limit is {tables.limit}"
        )
    block, window = arith._BLOCK, min(arith._BLOCK, N) + H_max
    try:   # a failed stream raises its own CapacityError in arith
        buf, raws = np.empty(window), [0] * H_max
    except MemoryError as exc:   # an H_max no machine holds
        kib = -(-(window + H_max) * 8 // 1024)
        raise CapacityError(f"cannot allocate the correlation window and sums for "
                            f"N={N + H_max} (~{kib} KiB for H_max={H_max})",
                            required_limit=N + H_max) from exc
    # the window over [a, b) holds r(a - H_max..b - 1): the block of n is a - H_max..b - H_max - 1
    for w in arith._windows(tables._stream("r", N + H_max), 1 + H_max, N + 1 + H_max, buf, H_max):
        # never fails for a sieved r: r(n) <= 4 d(n) <= 6400 below 2^31, and 2^16 6400^2 < 2^53
        top = int(max(w.max(), -w.min()))
        if block * top * top >= 2**53:
            raise ValueError(
                f"exact float64 dots need block * max r^2 < 2^53, got {block} * {top}^2"
            )
        size = w.size - H_max
        raws = [raw + int(np.dot(w[:size], w[h : h + size])) for h, raw in enumerate(raws, 1)]
    return [_record(N, h, raw) for h, raw in enumerate(raws, 1)]


@dataclass(frozen=True)
class PointwiseBoundReport:
    max_ratio: float
    argmax: tuple[int, int]   # (N, h) attaining the max


def pointwise_bound_report(records: list[CorrelationRecord]) -> PointwiseBoundReport:
    """The grid maximum of |E(N, h)| / (N^(2/3) h^(5/42)) and where it is attained."""
    if not records:
        raise ValueError("pointwise_bound_report needs at least one record")
    best = (-1.0, (0, 0))
    for rec in records:
        if rec.h > rec.N:
            raise ValueError(f"pointwise envelope needs h <= N, got h={rec.h} > N={rec.N}")
        ratio = abs(rec.e_value) / (rec.N ** (2.0 / 3.0) * rec.h ** (5.0 / 42.0))
        if ratio > best[0]:
            best = (ratio, (rec.N, rec.h))
    return PointwiseBoundReport(max_ratio=best[0], argmax=best[1])
