"""Exact error terms of the circle and divisor problems.

``P(x)``  = (primed count of lattice points in the disk of radius sqrt(x))
            - pi x + 1, where the primed sum halves the final term r(x)
            when x is an integer.
``Delta(x)`` = primed divisor summatory function - x (log x + 2 gamma - 1) - 1/4.

Both are step-plus-smooth functions; between consecutive integers P is
affine with slope -pi and jumps by r(n) at n, so extremes of |P| live at
one-sided limits of integers.  The mean square of P over [0, X] is computed
exactly (to rounding) from the closed-form integral of the quadratic
polynomial on each unit interval.

Folds over a range of n read the partial sums from `arith._block_sums`, which
sums the blocks of `arith._windows` in place, at every n: `error_term`,
`mean_square_p`, `error_at_jumps` and a DIVISOR `pointwise_report`.  A CIRCLE
`pointwise_report` reads only the jumps of P, the `arith._kept_blocks` of r, as no
maximum of |P| lies between them (`_jump_sums`).  Each reader of one range folds the
profile's segments: a slice of a table already built, else the sieve's own
segments, so `error-term` holds no table.  `_circle_sums` counts S(m) for
``voronoi``'s P(x) from the lattice points in O(sqrt(m)), with no sieve, and `_circle_p`
rounds S - pi x + 1 once from a 40-digit pi x; the folds keep the float64 main term.  All
operations are read-only over an immutable `StepProfile` and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from . import arith

# Euler's constant to 30 significant digits (double rounds it at 16).
EULER_GAMMA = 0.577215664901532860606512090082

# pi to 40 significant digits: voronoi's pi x, x < 2^53, within 2e-24
_PI = Decimal("3.141592653589793238462643383279502884197")

CIRCLE = "circle"
DIVISOR = "divisor"


@dataclass(frozen=True)
class StepProfile:
    """An arithmetic function f in {r, d} of `arith.ArithTables`, with no copy: each reader
    forms the sums S(n) = sum_{m<=n} f(m) it needs block by block (`arith._block_sums`),
    which checks every sum it reaches to be below 2^53, so exact in float64, from the
    `_segments` of one range.  Immutable and shareable across threads.
    """

    kind: str                   # CIRCLE (f = r) or DIVISOR (f = d)
    tables: arith.ArithTables   # f(0..limit), f(0) = 0

    @property
    def limit(self) -> int:
        return self.tables.limit

    def _segments(self, N: int):
        """The ascending (lo, f) segments of f(0..N): a slice of a built table, else streamed."""
        return self.tables._stream(_table_name(self.kind), N)


def _table_name(kind: str) -> str:
    """The `arith.ArithTables` table of kind's f: r for CIRCLE, d for DIVISOR."""
    if kind == CIRCLE:
        return "r"
    if kind == DIVISOR:
        return "d"
    raise ValueError(f"unknown profile kind {kind!r}")


def step_profile(tables: arith.ArithTables, kind: str) -> StepProfile:
    """The summatory profile of r (kind=CIRCLE) or d (kind=DIVISOR); nothing is sieved
    until a reader folds it."""
    _table_name(kind)   # an unknown kind fails here
    return StepProfile(kind=kind, tables=tables)


def error_term(profile: StepProfile, x: float) -> float:
    """The profile's error term at x: P(x) = sum'_{n<=x} r(n) - pi x + 1 for
    CIRCLE, Delta(x) = sum'_{n<=x} d(n) - x(log x + 2 gamma - 1) - 1/4 for DIVISOR.
    sum' halves the final term when x is an integer.  One prefix sum of f(0..floor(x))."""
    if not 1 <= x <= profile.limit:   # nan fails too
        raise ValueError(f"x={x} outside profile domain [1, {profile.limit}]")
    k = int(math.floor(x))
    _, S = next(arith._block_sums(profile._segments(k), k - 1, k, 1))   # S(k - 1), S(k)
    return _error_from_sums(profile.kind, x, S, 1)


def _error_from_sums(kind: str, x: float, S: np.ndarray, i: int) -> float:
    """The error term at x from the exact float64 sums S[i] = S(floor(x)) and
    S[i - 1] = S(floor(x) - 1), whose difference is the final term f(floor(x))."""
    s = float(S[i])
    if x == math.floor(x):
        s -= float(S[i] - S[i - 1]) / 2.0
    if kind == CIRCLE:
        return s - math.pi * x + 1.0
    return s - x * (math.log(x) + 2.0 * EULER_GAMMA - 1.0) - 0.25


def _circle_sums(m: int) -> np.ndarray:
    """float64 [S(m - 1), S(m)], S(n) = sum_{k<=n} r(k), for 1 <= m < 2^62, from the lattice
    points 0 < a^2 + b^2 <= m counted column by column, with no table: S(m) = 4 isqrt(m) +
    4 sum_{1<=a<=isqrt(m)} isqrt(m - a^2), in int64 blocks of arith._BLOCK columns a
    (`arith._isqrt`), O(sqrt(m)) time and O(block) scratch.  The same columns give
    r(m) = 4 #{a >= 1 : m - a^2 is a square}, and S(m - 1) = S(m) - r(m).  A sum that reaches
    2^53 raises CapacityError, as `arith._block_sums` does; below it both are exact."""
    s, columns, squares = math.isqrt(m), 0, 0
    for lo in range(1, s + 1, arith._BLOCK):
        a = np.arange(lo, min(lo + arith._BLOCK, s + 1), dtype=np.int64)
        rest = m - a * a
        b = arith._isqrt(rest)
        columns += int(b.sum())   # each b < 2^31, so a block's sum stays below 2^47
        squares += int(np.count_nonzero(b * b == rest))
    S = 4 * (s + columns)
    if S >= 2**53:
        raise arith._inexact_sum(S, m)
    return np.array([S - 4 * squares, S], dtype=np.float64)


def _circle_p(x: float) -> float:
    """P(x) from `_circle_sums`' exact count (CapacityError once it reaches 2^53), the final
    term halved at integer x, with pi x formed at 40 digits and S - pi x + 1 rounded to float64
    once."""
    S = _circle_sums(int(x))
    with localcontext(Context(prec=40)):
        s = Decimal(int(S[1])) - (Decimal(int(S[1] - S[0])) / 2 if x == int(x) else 0)
        return float(s - _PI * Decimal(x) + 1)


def divisor_main(x: np.ndarray) -> np.ndarray:
    """Vectorised divisor main term x (log x + 2 gamma - 1) + 1/4."""
    return x * (np.log(x) + 2.0 * EULER_GAMMA - 1.0) + 0.25


def mean_square_p(profile: StepProfile, X: float) -> float:
    """Exact integral of P^2 over [0, X].

    On [n, n+1) with b = P(n+) the integrand is (b - pi s)^2, s = x - n, so a
    unit interval contributes b (b - pi) + pi^2/3 and a final one of length u
    contributes u (b^2 - pi b u + pi^2 u^2/3).  One np.sum per arith._BLOCK block,
    then math.fsum: the block fixes the last bit, as block_size(T) a transform's.
    """
    if profile.kind != CIRCLE:
        raise ValueError("mean_square_p needs a CIRCLE profile")
    if not 0 <= X <= profile.limit:   # nan fails too
        raise ValueError(f"X={X} outside profile domain [0, {profile.limit}]")
    nf = int(math.floor(X))
    pieces, S = [nf * math.pi**2 / 3.0], np.zeros(1)   # S(0) = 0 when X < 1
    for n, S in arith._block_sums(profile._segments(nf), 0, nf, arith._BLOCK):
        b = S[:-1] + 1.0 - np.pi * n[:-1]
        pieces.append(float(np.sum(b * (b - np.pi))))
    b, u = S[-1] + 1.0 - math.pi * nf, X - nf
    pieces.append(u * (b * b - math.pi * b * u + math.pi**2 * u * u / 3.0))
    return math.fsum(pieces)


@dataclass(frozen=True)
class PointwiseRow:
    x: float
    value: float
    ratio_quarter: float   # |value| / x^(1/4)
    ratio_huxley: float    # |value| / x^(23/73)


@dataclass(frozen=True)
class PointwiseReport:
    """Scan of the error term over a log grid plus every integer jump.

    ``max_abs`` is taken over both one-sided limits at every integer up to
    x_max (where the extremes of the step function live) as well as the
    sampled grid.  The x^(1/4) ratio should stay away from 0 (omega-result);
    the x^(23/73) ratio should grow at most polylogarithmically (best known
    pointwise bound).
    """

    kind: str
    x_max: float
    rows: list[PointwiseRow]
    max_abs: float
    argmax: float
    max_ratio_quarter: float
    max_ratio_huxley: float


def _jump_maxima(kind: str, n: np.ndarray, S: np.ndarray, main=None, out=None) -> np.ndarray:
    """`error_at_jumps`' values at n = lo..hi from the sums S = S(lo-1), ..., S(hi), in
    three array ops after the main term m(n), written into out and, for CIRCLE, main (fresh
    arrays when not given; DIVISOR's m is `divisor_main`'s fresh array).  f >= 0, so
    S(n-1) <= S(n), and max(|S(n-1) - m|, |S(n) - m|) equals max(S(n) - m, m - S(n-1)) bit
    for bit: fl(m - s) = -fl(s - m), and rounding is monotone, so at most one of the two
    differences is negative, and the other is the larger |.|."""
    if kind == CIRCLE:
        main = np.multiply(n, np.pi, out=main)
        main -= 1.0
    else:
        main = divisor_main(n)
    out = np.subtract(S[1:], main, out=out)
    np.subtract(main, S[:-1], out=main)
    return np.maximum(out, main, out=out)


def error_at_jumps(profile: StepProfile, lo: int, hi: int):
    """Integers n = lo..hi and the larger of |error(n-)| and |error(n+)| at each.

    The left limit is S(n-1) - main(n) and the right S(n) - main(n), with
    main(n) = pi n - 1 for CIRCLE and `divisor_main` for DIVISOR; the extremes
    of the error term live at these limits.  Needs 1 <= lo <= hi <= limit.
    Both arrays are fresh.  With no table built, each call sieves f from 0 up to hi, so a
    caller reading many ranges should build the table first.
    """
    if not 1 <= lo <= hi <= profile.limit:
        raise ValueError(f"[{lo}, {hi}] outside profile domain [1, {profile.limit}]")
    n, S = next(arith._block_sums(profile._segments(hi), lo - 1, hi, hi - lo + 1))
    return n[1:], _jump_maxima(profile.kind, n[1:], S)


def _ratio_max(M: float, v: np.ndarray, n: np.ndarray, p: float, scratch: np.ndarray) -> float:
    """max(M, max(v / n**p)) for v >= 0 at ascending n >= 1, each v / n**p formed as over
    the whole array but only at the candidates v > t, t = M n[0]**p (1 - 2^-20) in float64;
    when every entry is one (as with M <= 0, in the first block), in scratch, n's size.

    No other entry can raise M.  With M <= 0, t <= 0: every v > 0 is a candidate, and a
    ratio 0 does not exceed M.  With M > 0, an entry's computed ratio is
    v / (n^p (1 + e1)) (1 + e2), e1 the error of pow and e2 of the divide; if it exceeds
    M, then v > M n^p (1 + e1) / (1 + e2) >= M n[0]^p (1 + e1) / (1 + e2), as n >= n[0].
    And t = M n[0]^p (1 + e3)(1 + e4)(1 + e5)(1 - 2^-20), e3 the error of pow at n[0] and
    e4, e5 of the two products.  Each |e| is a few ulps, far below 2^-40, so t is the
    smaller and the entry a candidate.  Past the first block few entries are: 57 and 7 of
    the 10^7 jumps of r, for p = 1/4 and 23/73, and 29 and 15 of d's."""
    c = v > M * float(n[0]) ** p * (1.0 - 2.0**-20)
    if c.all():
        ratio = np.divide(v, np.power(n, p, out=scratch), out=scratch)
    elif c.any():
        ratio = v[c] / n[c] ** p
    else:
        return M
    return max(M, float(ratio.max()))


def _jump_sums(profile: StepProfile, nf: int):
    """Yield float64 (n, S) for the folds of `pointwise_report` over 1..nf: ascending n and
    S = S(n[0] - 1), S(n[0]), ..., S(n[-1]), so that S[:-1] and S[1:] are the left and the
    right limits at n, as `_jump_maxima` reads them.  DIVISOR's n are every integer, in the
    blocks of `arith._block_sums`.  CIRCLE's are the jumps of P, the n with r(n) != 0, in the
    `arith._kept_blocks` of r: there S(n - 1) is the S of the jump before, and each S is
    summed onto the last in place, exact and checked against 2^53 as in `_block_sums`.  Last
    comes nf with S(nf - 1) = S(nf) if r(nf) = 0.  Between jumps P falls with slope -pi, so
    at an n with r(n) = 0, |P(n)| is below the right limit at the jump before it or the left
    limit at the next jump (or at nf) by pi times its distance from that n, at least pi, and
    its ratio to n^p, p < 1, below theirs, as |P(n)| < pi n: no maximum of `pointwise_report`
    is taken there.  The arrays are fresh for each CIRCLE block, buffers the next block
    overwrites for DIVISOR."""
    segments = profile._segments(nf)
    if profile.kind == DIVISOR:   # d(n) >= 1: every n is a jump
        for n, S in arith._block_sums(segments, 0, nf, arith._BLOCK):
            yield n[1:], S
        return
    head, last = 0.0, 0   # S and n at the last jump
    for n, f in arith._kept_blocks(segments):
        S = np.empty(n.size + 1)
        S[0], f[0] = head, f[0] + head
        np.cumsum(f, out=S[1:])
        head, last = float(S[-1]), int(n[-1])
        if head >= 2.0**53:
            raise arith._inexact_sum(head, last)
        yield n, S
    if last < nf:
        yield np.array([float(nf)]), np.array([head, head])


def pointwise_report(profile: StepProfile, x_max: float, samples: int) -> PointwiseReport:
    """Sample the error term at `samples` points log-spaced over [1, x_max], or at x_max
    alone for one sample, and report the extremal ratios up to x_max.

    The jumps are folded block by block from `_jump_sums`, CIRCLE's only where r(n) != 0
    (~20% of n up to 1e7): `_jump_maxima` writes each block's |error| (and CIRCLE's main term)
    into two buffers allocated once, and the two ratio maxima divide by a power of n only at
    `_ratio_max`'s candidates, so a CIRCLE block costs a few array ops on its jumps; a DIVISOR
    block allocates the ones `divisor_main` forms.  Every maximum is the one over the whole
    range, bit for bit.  At 1e7 on a 2-vCPU x86 VM the CIRCLE fold of a built table took
    ~0.047 s, against ~0.073 s over every n (medians of 6 interleaved runs)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 1 <= x_max <= profile.limit:   # nan fails too
        raise ValueError(f"x_max={x_max} outside profile domain [1, {profile.limit}]")
    # fold error_at_jumps over the blocks of `_jump_sums`, one carried pass over the profile's
    # segments; a block takes the maximum only when strictly larger, so argmax is the first
    # maximiser, as over the whole range.  Each ascending sample x is read from the first
    # block whose last n is floor(x) = k or past it: S(k) is S[i] for the i of its n up to k,
    # and S(k - 1) is S[i - 1] if k is one of them, else S(k) too
    xs = np.geomspace(1.0 if samples > 1 else float(x_max), float(x_max), samples)
    max_abs = argmax = max_ratio_quarter = max_ratio_huxley = -1.0
    values = []
    nf = int(math.floor(x_max))
    main, absval = np.empty((2, min(nf, arith._BLOCK)))
    for n, S in _jump_sums(profile, nf):
        while len(values) < samples and (k := int(xs[len(values)])) <= n[-1]:
            i = int(np.searchsorted(n, k, side="right"))
            j = i - 1 if i and n[i - 1] == k else i
            values.append(_error_from_sums(profile.kind, float(xs[len(values)]), S[[j, i]], 1))
        scratch = main[:n.size]   # the main term, spent once v is formed, then the ratios'
        v = _jump_maxima(profile.kind, n, S, scratch, absval[:n.size])
        i = int(np.argmax(v))
        if v[i] > max_abs:
            max_abs, argmax = float(v[i]), float(n[i])
        max_ratio_quarter = _ratio_max(max_ratio_quarter, v, n, 0.25, scratch)
        max_ratio_huxley = _ratio_max(max_ratio_huxley, v, n, 23.0 / 73.0, scratch)
    # the sampled rows join the maxima after the jumps: at a non-integer x_max the last
    # sample lies past the last jump, where |error| can exceed every one-sided limit
    rows = []
    for x, value in zip(xs, values):
        row = PointwiseRow(
            x=float(x),
            value=value,
            ratio_quarter=abs(value) / x**0.25,
            ratio_huxley=abs(value) / x ** (23.0 / 73.0),
        )
        rows.append(row)
        if abs(value) > max_abs:
            max_abs, argmax = abs(value), row.x
        max_ratio_quarter = max(max_ratio_quarter, float(row.ratio_quarter))
        max_ratio_huxley = max(max_ratio_huxley, float(row.ratio_huxley))
    return PointwiseReport(
        kind=profile.kind,
        x_max=float(x_max),
        rows=rows,
        max_abs=max_abs,
        argmax=argmax,
        max_ratio_quarter=max_ratio_quarter,
        max_ratio_huxley=max_ratio_huxley,
    )
