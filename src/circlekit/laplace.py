"""Laplace transforms of the squared error terms and their asymptotics.

The central quantity is

    L_P(T) = int_0^infty P^2(x) exp(-x/T) dx
           = (1/4) (T/pi)^(3/2) * sum_{n>=1} r^2(n) n^(-3/2)  -  T  + R(T),

whose remainder R(T) `residual_scan` measures across an ascending range
of T; the analogous divisor transform L_D(T) carries main term
(1/8) (T/pi)^(3/2) * sum d^2(n) n^(-3/2) followed by
T (A1 log^2 T + A2 log T + A3) with A1 = -1/(4 pi^2), which `fit_a1`
recovers empirically from the rows of a divisor scan.  `laplace_main` gives
the main term by kind, with the series sum in closed form (`series_limit`);
a scan takes both from its profile's kind, so no caller supplies a constant.
The series sums are keyed by the same kinds: `series_constant` and
`series_limit` take CIRCLE for sum r^2(n) n^(-3/2) and DIVISOR for
sum d^2(n) n^(-3/2).

Both transforms integrate one way: on each unit interval [n, n+1) the
error term is a polynomial p in local coordinates, so the interval
contributes exp(-n/T) p^T H p with H[i][j] = mu_{i+j}, the moments
int_0^1 (s - shift)^k exp(-s/T) ds (`_moments`) formed once per T to 40
digits, from unit integrals formed once per scan -- the naive antiderivative
difference cancels catastrophically when T >> 1.  P is affine, so p is
exact.  Delta's p is its Taylor polynomial about n + 1/2, with a certified
remainder; on [0, 1), where Delta = -main has a log singularity, Delta^2 is
integrated in closed form.
Float rounding is not bounded yet (ROADMAP item 35).

Truncation policy: integrate whole blocks of `block_size(T)` unit intervals
until, at a block edge x_max, the tail bound `_tail_bound` drops below
rel_tol times the running total.  `stop_edge` owns that rule; as the bound
falls from edge to edge, a scan tests only the edge it has reached.  The bound
integrates a proven envelope |error(x)| <= c sqrt(x) + c0 (x >= 1, both
one-sided limits, `_ENVELOPES`) over [x_max, infty), so the reported
truncation_bound is a theorem, not an extrapolation of checked values.  A
scan stops only at block edges, so no value depends on the profile's
length: a profile that ends before the stop raises CapacityError naming a
block edge that suffices.  One pass over the profile's segments (`_fold`)
carries every T of a scan and ends when the last T stops, so the sieve a scan
reads is fixed by the T and rel_tol and needs no sizing: the `laplace` command
streams it (`_streamed_scan`) and holds no table.

Interval sums are chunked and reduced in a fixed ascending order, so runs
are bit-reproducible in a given build, and the order is part of the value.
`laplace_d2` adds a row's p^T H p left to right, column by column, only while
the row has at most 7 columns: numpy's axis-1 reduce takes that order for so
short a row, and its 8-way pairwise order for wider ones, which keep np.sum.
Each chunk's terms are then summed by one np.sum.  The functions may run in
several threads at once: each 40-digit step enters its own `decimal` context,
and decimal contexts are per thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from . import arith, lattice
from .errors import CapacityError
from .lattice import CIRCLE, DIVISOR, EULER_GAMMA, StepProfile, divisor_main

DEFAULT_REL_TOL = 1e-6
_QUAD_SELF_CHECK = 1e-12
_LAST_BLOCK = 747         # blocks span >= T, so x >= 747 T here, where exp(-x/T) is 0.0
_DIGITS = Context(prec=40)   # the moments' precision, entered per call (a context is per thread)
_EULER_GAMMA = Decimal("0.5772156649015328606065120900824024310422")   # float: lattice.EULER_GAMMA
_SERIES_LIMITS = {CIRCLE: 50.15605614263944, DIVISOR: 38.74514414390132}   # see series_limit


@dataclass(frozen=True)
class SeriesConstant:
    """Partial sum of sum f(n)^2 n^(-3/2) for f in {r, d} with a tail bound.

    ``value`` is the partial sum over n <= terms_used; ``tail_bound`` bounds the rest,
    proven, in closed form in kind and terms_used alone (`_series_tail`).
    """

    kind: str          # CIRCLE (f = r) or DIVISOR (f = d)
    terms_used: int
    value: float
    tail_bound: float


@dataclass(frozen=True)
class LaplaceEstimate:
    """One row of a transform scan: residual = integral - main_term."""

    T: float
    integral: float
    truncation_bound: float
    main_term: float
    residual: float

    @property
    def ratio_t23(self) -> float:
        """|residual| / T^(2/3), the scale the remainder estimate predicts."""
        return abs(self.residual) / self.T ** (2.0 / 3.0)


def series_constant(profile: StepProfile, terms: int) -> SeriesConstant:
    """Partial sum of sum_{n<=terms} f(n)^2 n^(-3/2), f the profile's r (CIRCLE) or d
    (DIVISOR), summed exactly over 2^16-entry blocks, f(n) = 0 skipped, and rounded once
    (`arith._series_sum`): exactly rounded whatever the grouping.  f is read from the
    profile's segments: its table when built, else streamed with no table kept.  The tail
    bound is proven and reads the kind and terms alone (`_series_tail`).  Each term f^2 n^-1.5
    is formed in the block's own arrays, which `arith._kept_blocks` makes fresh for each block:
    three fresh block-sized arrays set `constants d_squared --terms 1e7`'s peak RSS, ~0.7 MiB
    above this (2-vCPU x86 VM)."""
    if terms < 1 or terms > profile.limit:
        raise ValueError(f"terms={terms} outside table range [1, {profile.limit}]")
    value = arith._series_sum(profile._segments(terms), lambda n, f: np.multiply(
        np.square(f, out=f), np.power(n, -1.5, out=n), out=f))
    return SeriesConstant(profile.kind, terms, value, _series_tail(profile.kind, terms))


def series_limit(kind: str) -> float:
    """Full value of sum f(n)^2 n^(-3/2) (f = r for CIRCLE, d for DIVISOR) from
    the Euler product of its generating Dirichlet series, evaluated at 30 digits
    and kept as the nearest double (0x1.913f9a5ce7cf8p+5 and 0x1.35f60e2206e59p+5):

        sum r^2(n) n^(-s) = 16 zeta(s)^2 L(s, chi4)^2 / ((1 + 2^(-s)) zeta(2s))
        sum d^2(n) n^(-s) = zeta(s)^4 / zeta(2s)

    at s = 3/2.  Both identities follow by matching Euler factors of the
    multiplicative functions (r/4)^2 and d^2; tests re-evaluate the products and
    check these values against the sieved partial sums plus their tail bounds.
    Needed wherever the remainder under study (O(T^(2/3)) scale) is far
    smaller than the partial-sum truncation bias of any sievable range.
    """
    if kind not in _SERIES_LIMITS:
        raise ValueError(f"unknown profile kind {kind!r}")
    return _SERIES_LIMITS[kind]


def _exp_coefficients(T: float) -> list[Decimal]:
    """c_j = (-1/T)^j/j!, exp(-s/T) as a series in s, at 40 digits while (1/T)^j/j!
    >= 10^-40: T >= 1 bounds the omitted tail against terms |t_j| <= 1 by that,
    and the stop never depends on the terms, which can be exactly 0."""
    with localcontext(_DIGITS):
        c, coefficients = Decimal(1), []
        while abs(c) >= Decimal("1e-40"):
            coefficients.append(c)
            c /= -Decimal(T) * len(coefficients)
        return coefficients


def _exp_sum(T: float, term) -> Decimal:
    """sum_j c_j term(j) at 40 digits over `_exp_coefficients(T)`, every |term(j)| <= 1."""
    with localcontext(_DIGITS):
        return sum(c * term(j) for j, c in enumerate(_exp_coefficients(T)))


def _unit_integrals(shift: float, count: int) -> list[Decimal]:
    """I_i = int u^i du = (b^(i+1) - a^(i+1))/(i+1) over [a, b] = [-shift, 1 - shift] for
    i < count, at 40 digits: `_moments`' integrals, which do not depend on T."""
    with localcontext(_DIGITS):
        a, b = -Decimal(shift), 1 - Decimal(shift)
        return [(b**e - a**e) / e for e in range(1, count + 1)]


def _moments(T: float, k_max: int, shift: float, integrals=None) -> list[float]:
    """mu_k = int_0^1 (s - shift)^k exp(-s/T) ds for k = 0..k_max, at 40 digits:
    exp(-shift/T) sum_j c_j I_(k+j), with c_j the `_exp_coefficients` and the I_i the
    `_unit_integrals` at shift, formed here unless given (at least k_max + len(c) of them):
    a scan forms them once for all its T (`_fold`).  In closed form these are tiny
    differences of near-equal exponentials when T >> 1, so they are formed in 40-digit
    decimal."""
    if not 1 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 1, got {T}")
    with localcontext(_DIGITS):
        scale = (-Decimal(shift) / Decimal(T)).exp()
        c = _exp_coefficients(T)
        if integrals is None:
            integrals = _unit_integrals(shift, k_max + len(c))
        return [float(scale * sum(c_j * integrals[k + j] for j, c_j in enumerate(c)))
                for k in range(k_max + 1)]


def _moment_order(kind: str) -> tuple[int, float]:
    """(k_max, shift) of a `_Run`'s moments: mu_0..mu_2 at shift 0 for P, affine on each
    unit interval; mu_0..mu_2K at shift 1/2 for Delta's Taylor polynomials, K the largest
    order, `_taylor_order(1)`."""
    return (2, 0.0) if kind == CIRCLE else (2 * _taylor_order(1), 0.5)


# (c, c0) with |error(x)| <= c sqrt(x) + c0 for x >= 1, at both one-sided limits.
# Circle (Gauss): the unit squares centred at the lattice points of the closed
# disk of radius R = sqrt(x) are disjoint, lie inside the disk of radius
# R + 1/sqrt(2) and cover the one of radius R - 1/sqrt(2), so |N(x) - pi x| <=
# sqrt(2) pi R + pi/2; the open disk's count, the left limit, is a limit of these.
# Divisor: |sum_{n<=x} d(n) - x (log x + 2 gamma - 1)| <= 0.961 sqrt(x) for x >= 1
# (Berkane, Bordelles, Ramare, Math. Comp. 81 (2012)), so Delta, which carries a
# further -1/4, is within 0.961 sqrt(x) + 1/4 <= 3 sqrt(x): not tight, but proven.
_ENVELOPES = {CIRCLE: (math.sqrt(2.0) * math.pi, math.pi / 2.0), DIVISOR: (3.0, 0.0)}


def _tail_bound(kind: str, T: float, x: float) -> float:
    """int_x^infty (c sqrt(t) + c0)^2 exp(-t/T) dt <= (c + c0/sqrt(x))^2 T (x + T) exp(-x/T),
    since (c sqrt(t) + c0)^2 <= (c + c0/sqrt(x))^2 t for t >= x."""
    c, c0 = _ENVELOPES[kind]
    return (c + c0 / math.sqrt(x)) ** 2 * T * (x + T) * math.exp(-x / T)


def _series_tail(kind: str, X: int) -> float:
    """(3/2) int_X^infty E(t) t^(-5/2) dt, a bound on sum_{n>X} f(n)^2 n^(-3/2) by partial
    summation for any E >= F = sum_{n<=t} f(n)^2 on t >= 1; the dropped -F(X) X^(-3/2) means
    it reads no table and falls strictly in X.  Both E rest on (a+1)^2 <= C(a+3, 3) at p^a.
    Circle: g = r/4 has g^2 <= g*g (that at p = 1 mod 4, else g^2 <= 1 <= g*g or g = 0), and
    Gauss (`_ENVELOPES`) gives A(y) = sum_{k<=y} g(k) <= al y + be sqrt(y) + ga with (al, be,
    ga) = (pi, c, c0 - 1)/4.  The hyperbola split less its -A(sqrt x)^2, then partial summation of
    sum g(a)/a and sum g(a)/sqrt(a) over a <= sqrt(x), give F <= 16 B, where
      B(x) = al^2 x ln x + 2 al (al + 2 be + ga) x + 2 al be x^(3/4) + (be^2/2) sqrt(x) ln x
             + 2 (be^2 - al be + be ga + al ga) sqrt(x) + 2 be ga x^(1/4) + 2 ga^2.
    Divisor: d^2 <= d_4, and sum_{n<=x} d_4(n) <= x sum_{abc<=x} 1/(abc) <= x (1 + 3 l +
    3 l^2/2 + l^3/6), l = ln x: each factor a >= 2 has 1/a <= int_{a-1}^a dt/t, so the terms
    with j factors >= 2 sum to at most l^j/j!."""
    ell, root = math.log(X), math.sqrt(X)
    if kind == DIVISOR:
        return 3.0 * (ell**3 / 6 + 2.5 * ell**2 + 13.0 * ell + 27.0) / root
    c, c0 = _ENVELOPES[CIRCLE]
    al, be, ga = math.pi / 4, c / 4, (c0 - 1) / 4
    # (3/2) int_X^infty B(t) t^(-5/2) dt, term by term
    return 16.0 * ((3 * al**2 * (ell + 2) + 6 * al * (al + 2 * be + ga)) / root
                   + (0.75 * be**2 * (ell + 1) + 3 * (be**2 - al * be + be * ga + al * ga)) / X
                   + 4 * al * be / X**0.75 + 2.4 * be * ga / X**1.25 + 2 * ga**2 / X**1.5)


def block_size(T: float) -> int:
    """Unit intervals per block of a transform at T: scans stop only at the
    multiples of this, the block edges."""
    return max(64, int(math.ceil(T)))


def stop_edge(kind: str, T: float, rel_tol: float, total: float) -> int:
    """The first block edge x with _tail_bound(kind, T, x) < rel_tol * total:
    where a scan of ``kind`` at T whose integral is ``total`` stops.

    The bound decreases from edge to edge, so a running total, which only
    grows, names an edge at or past the scan's true stop.  The search ends
    at the _LAST_BLOCK-th edge: past x = 745.2 T the bound's exp factor is
    0.0, so from there on the bound is 0 or nan (inf times 0), and if that
    edge fails, every later one fails too.  Then no limit suffices, and the
    CapacityError names the limit searched up to.
    """
    block = block_size(T)
    for k in range(1, _LAST_BLOCK + 1):
        # k * float(block) equals float(k * block), but is inf, not an
        # OverflowError, past the largest float
        if _tail_bound(kind, T, k * float(block)) < rel_tol * total:
            return k * block
    raise CapacityError(
        f"T={T:g} at rel_tol={rel_tol:g} needs sieve limit > {_LAST_BLOCK} T: the tail "
        f"bound is not below rel_tol times the integral (~{total:.4g}) at any block "
        "edge up to there, nor, in float64, beyond",
        required_limit=_LAST_BLOCK * block + 1,
    )


def _chunk_top(kind: str, lo: int, hi: int) -> int:
    """The end of a chunk from lo in a block ending at hi: a DIVISOR one ends with its octave."""
    return min(hi, 1 << lo.bit_length()) if kind == DIVISOR else hi


class _Run:
    """One T of a fold: its open block [a, a + block), its next chunk's start lo, the open
    block's value, the closed blocks' values (pieces), each chunk's certificate (errors) and,
    once stopped, (integral, truncation_bound) and its stop edge."""

    def __init__(self, kind: str, T: float, integrals: list[Decimal]):
        self.T, self.block, self.a = T, block_size(T), 0
        mu = _moments(T, *_moment_order(kind), integrals)
        if kind == CIRCLE:   # (m0, m1, m2)
            self.weights, self.lo, self.value = mu, 0, 0.0
        else:   # H[i][j] = mu_{i+j} at shift 1/2; Delta^2 on [0, 1) is _first_interval
            K = len(mu) // 2   # mu_0..mu_2K
            self.weights = np.array(mu)[np.add.outer(range(K + 1), range(K + 1))]
            self.lo, self.value = 1, _first_interval(T)
        self.pieces: list[float] = []
        self.errors: list[float] = []
        self.result, self.edge = None, 0

    def chunk(self, kind: str, top: int):
        """The next chunk (lo, b) if the T still runs and b <= top, else None."""
        b = _chunk_top(kind, self.lo, self.a + self.block)
        return (self.lo, b) if self.result is None and b <= top else None

    def close(self, kind: str, rel_tol: float) -> None:
        """Adds the open block to the total; stops at its edge x if the tail bound there is
        below rel_tol times the total, after the certificate's self-check, else goes on."""
        self.pieces.append(self.value)
        x, total = self.a + self.block, math.fsum(self.pieces)
        bound = _tail_bound(kind, self.T, x)
        if bound < rel_tol * total:
            error = math.fsum(self.errors)
            if not error <= _QUAD_SELF_CHECK * max(1.0, abs(total)):
                raise RuntimeError(
                    f"quadrature self-check failed for T={self.T}: the certified Taylor "
                    f"remainder bound {error:.3e} exceeds {_QUAD_SELF_CHECK} rel"
                )
            self.result, self.edge = (total, bound), x
        else:
            if x >= _LAST_BLOCK * self.block:
                # The _LAST_BLOCK-th edge: exp(-x/T) is 0.0 and T (x + T) is finite (a fold
                # holds W >= T doubles), so the bound is 0.0.  It failed, so rel_tol * total is
                # <= 0 (5e-324 times a total below 0.5 underflows) or nan; no edge's bound, never
                # negative, is below that, so `stop_edge` raises its CapacityError here.
                stop_edge(kind, self.T, rel_tol, total)
            self.a, self.value = x, 0.0


def _too_short(limit: int, T: float, rel_tol: float, need: int) -> CapacityError:
    return CapacityError(
        f"profile limit {limit} too small for T={T} at rel_tol={rel_tol}; required limit {need}",
        required_limit=need,
    )


def _carried(Ts: list) -> int:
    """The rows a fold keeps from its previous block: the largest block of a T that does not
    divide the fold block, as only such a T's open block can begin there; 0 for doubling T."""
    W = block_size(Ts[-1])
    return max((B for B in map(block_size, Ts) if W % B), default=0)


def _scratch(kind: str, Ts: list, rel_tol: float) -> list[list[np.ndarray]]:
    """Every buffer of a fold over Ts, once Ts and rel_tol are checked, shared by its T: the n
    and S that `arith._block_sums` fills, the fold block, the `_carried` rows before it and
    S(a), counted with or without rows; a chunk's rows (CIRCLE: b b and 2 pi b; DIVISOR: p, R
    and t); and a T's products (CIRCLE: u, e; DIVISOR: |p| or (p @ H) p, exp(-n/T) and one
    row), as three lists.  A chunk's p fits in B (K(B) + 1) doubles for the
    block B of its T or of the fold (test_every_d2_chunk_fits_its_buffers), not monotone in B."""
    if not Ts or any(a >= b for a, b in zip(Ts, Ts[1:])):
        raise ValueError(f"T_list must be non-empty and strictly ascending, got {Ts}")
    for T in Ts:
        if not 1 <= T < math.inf:   # nan fails too
            raise ValueError(f"T must be finite and >= 1, got {T}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    W, L = block_size(Ts[-1]), _carried(Ts)
    if kind == CIRCLE:
        rows = [W, W]
    else:
        rows = [max(B * (_taylor_order(B) + 1) for B in map(block_size, Ts)), W, W]
    sizes = [[L + W + 1] * 2, rows, rows]
    size = sum(map(sum, sizes))
    if size * 8 > np.iinfo(np.intp).max:   # no numpy array holds it
        raise _scratch_error(kind, Ts[-1], rel_tol, size)
    try:
        return [[np.empty(n) for n in part] for part in sizes]
    except MemoryError as exc:
        raise _scratch_error(kind, Ts[-1], rel_tol, size) from exc


def _scratch_error(kind: str, T: float, rel_tol: float, size: int) -> CapacityError:
    """The CapacityError of a scan to T whose size doubles of scratch cannot be allocated: it
    names where `stop_edge` stops T's main term (inf past the largest float), or raises
    `stop_edge`'s own when no edge does."""
    try:
        estimate = laplace_main(kind, T)
    except OverflowError:   # T^1.5 overflows
        estimate = math.inf
    need = stop_edge(kind, T, rel_tol, estimate)
    return CapacityError(
        f"cannot allocate a scan's scratch for blocks of {block_size(T)} intervals (T={T:g}), "
        f"~{-(-size * 8 // 2**30)} GiB; at rel_tol={rel_tol:g} the scan needs sieve limit "
        f"~{need}, where the tail bound falls below rel_tol times T's main term",
        required_limit=need,
    )


def _fold(profile: StepProfile, Ts: list, rel_tol: float) -> tuple[list, int]:
    """(integral, truncation_bound) of the profile's transform at each T of Ts, from one pass
    over its segments, and the last stop edge read.

    The pass reads S in fold blocks of W = block_size(Ts[-1]), each led by the `_carried` rows
    before it, and cuts them into chunks (a DIVISOR one also at octaves, at the order K of its
    first n), whose T-independent rows it forms once.  Each running T then integrates its own
    chunks that end there, in order, as a fold of that T alone would: from the shared rows while
    its chunk lies in the fold's at the same order, then, after every T has read those, from
    rows formed for its chunk alone in the same buffers (a chunk begun in the previous fold
    block or past a step-down of K).  Its matmul and sums run on its own chunk's rows, a slice
    with the bits of a fresh array, so `laplace_p2` and `laplace_d2` at T are this fold with
    Ts = [T].  Only the certificate's t = 2 (|p| @ w) + R comes from rows of the fold's chunk,
    where a BLAS gemv row can take other bits than alone (8 or more columns, or one row, on
    OpenBLAS 0.3.31); the self-check alone reads it.  A T stops at the first block edge where
    `_tail_bound` is below rel_tol times its total, which is where `stop_edge` stops as the
    bound falls strictly from edge to edge.  The pass ends when the last T stops.

    A T unstopped at its _LAST_BLOCK-th edge never stops: `stop_edge` raises.  A profile that
    ends first raises for the least T still running, as a scan of one T at a time would, naming
    an edge that suffices: where `stop_edge` stops its total so far, or before its first edge,
    its last one."""
    kind = profile.kind
    window, buffers, temps = _scratch(kind, Ts, rel_tol)
    W, L = block_size(Ts[-1]), _carried(Ts)
    rows, integrate = (_p2_rows, _p2_block) if kind == CIRCLE else (_taylor_rows, _d2_chunk)
    order = _taylor_order if kind == DIVISOR else (lambda lo: 0)
    k_max, shift = _moment_order(kind)   # the least T's exp series is the longest
    integrals = _unit_integrals(shift, k_max + len(_exp_coefficients(Ts[0])))
    runs = [_Run(kind, T, integrals) for T in Ts]
    running, first = runs, runs[0].lo   # every T's first chunk starts at 0, or at 1 past [0, 1)

    def step(run, a, b, chunk_rows):
        integrate(run, n[a - base:b - base], chunk_rows, temps)
        run.lo = b
        if b == run.a + run.block:
            run.close(kind, rel_tol)

    for n, S in arith._block_sums(profile._segments(profile.limit), 0, profile.limit, W, L,
                                  window):
        base, end = int(n[0]), int(n[-1])   # n[x - base] = x, the fold block's L rows before it
        lo = max(base + L, first)
        while lo < end:
            top, K = _chunk_top(kind, lo, end), order(lo)
            formed = rows(n[lo - base:top - base], S[lo - base:top - base], K, buffers, temps)
            for run in running:
                while (ab := run.chunk(kind, top)) and ab[0] >= lo and order(ab[0]) == K:
                    step(run, *ab, [r[ab[0] - lo:ab[1] - lo] for r in formed])
            for run in running:   # the rest, each with rows of its own in the same buffers
                while ab := run.chunk(kind, top):
                    a, b = ab
                    step(run, a, b, rows(n[a - base:b - base], S[a - base:b - base], order(a),
                                         buffers, temps))
            lo = top
        running = [run for run in running if run.result is None]
        if not running:
            return [run.result for run in runs], max(run.edge for run in runs)
    run = running[0]
    need = (stop_edge(kind, run.T, rel_tol, math.fsum(run.pieces)) if run.pieces
            else _LAST_BLOCK * run.block)
    raise _too_short(profile.limit, run.T, rel_tol, need)


def _p2_rows(n, S, K, buffers, temps):
    """b b and 2 pi b, b = S + 1 - pi n = P(n+): the T-independent rows of `laplace_p2`."""
    bb, tb = (buf[:n.size] for buf in buffers)
    np.add(S, 1.0, out=tb)
    tb -= np.multiply(np.pi, n, out=bb)   # b
    np.multiply(tb, tb, out=bb)
    tb *= 2.0 * np.pi
    return bb, tb


def _p2_block(run: _Run, n, rows, temps) -> None:
    """Adds exp(-n/T) (b^2 m0 - 2 pi b m1 + pi^2 m2) over the rows n, formed left to right as
    written, by one np.sum to run's block."""
    bb, tb = rows
    u, e = (buf[:n.size] for buf in temps)
    m0, m1, m2 = run.weights
    np.multiply(bb, m0, out=u)
    u -= np.multiply(tb, m1, out=e)
    u += (np.pi * np.pi) * m2
    np.negative(n, out=e)
    e /= run.T
    u *= np.exp(e, out=e)
    run.value += float(np.sum(u))


def laplace_p2(
    profile: StepProfile, T: float, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[float, float]:
    """int_0^infty P^2(x) exp(-x/T) dx by exact per-interval integration.

    Returns (integral, truncation_bound).  On [n, n+1) with b = P(n+) the
    integrand is (b - pi s)^2 exp(-n/T) exp(-s/T) in local coordinates, so
    each interval contributes exp(-n/T) (b^2 m0 - 2 pi b m1 + pi^2 m2), formed
    left to right as written: b b and 2 pi b once per n for every T of a scan
    (`_p2_rows`), the rest per T (`_p2_block`).  This is `_fold` with T alone.
    """
    if profile.kind != CIRCLE:
        raise ValueError("laplace_p2 needs a CIRCLE profile")
    return _fold(profile, [T], rel_tol)[0][0]


def laplace_main(kind: str, T: float) -> float:
    """Main term of the ``kind`` transform at T, with c = `series_limit(kind)`:
    (1/4) (T/pi)^(3/2) c - T for CIRCLE (c = sum r^2(n) n^(-3/2)),
    (1/8) (T/pi)^(3/2) c for DIVISOR (c = sum d^2(n) n^(-3/2))."""
    c = series_limit(kind)
    if kind == CIRCLE:
        return 0.25 * (T / math.pi) ** 1.5 * c - T
    return 0.125 * (T / math.pi) ** 1.5 * c


@dataclass(frozen=True)
class ResidualScan:
    kind: str        # CIRCLE or DIVISOR, the kind of the scanned profile
    constant: float  # series_limit(kind), the main terms' constant
    rows: list[LaplaceEstimate]
    slope: float     # least-squares slope of log |residual| against log T


def residual_scan(profile: StepProfile, T_list, rel_tol: float = DEFAULT_REL_TOL) -> ResidualScan:
    """Residuals of the profile's transform over strictly ascending T plus their log-log slope.

    A CIRCLE profile is scanned as `laplace_p2`, a DIVISOR profile as `laplace_d2`, each
    against the kind's `laplace_main`: the scan pairs the closed-form constant with the
    profile's kind itself.  Every T is integrated in one pass over the profile's segments
    (`_fold`), with the bits of its transform computed alone.
    """
    return _scan(profile, list(T_list), rel_tol)[0]


def _scan(profile: StepProfile, Ts: list, rel_tol: float) -> tuple[ResidualScan, int]:
    """`residual_scan` from `_fold`'s rows, and the last stop edge the fold read."""
    results, edge = _fold(profile, Ts, rel_tol)
    rows = []
    for T, (integral, trunc) in zip(Ts, results):
        main = laplace_main(profile.kind, T)
        rows.append(
            LaplaceEstimate(
                T=float(T),
                integral=integral,
                truncation_bound=trunc,
                main_term=main,
                residual=integral - main,
            )
        )
    if len(rows) >= 2:
        lt = np.log([r.T for r in rows])
        lr = np.log([max(abs(r.residual), 1e-300) for r in rows])
        slope = float(np.polyfit(lt, lr, 1)[0])
    else:
        slope = float("nan")
    constant = series_limit(profile.kind)
    return ResidualScan(kind=profile.kind, constant=constant, rows=rows, slope=slope), edge


def _streamed_scan(kind: str, Ts: list, rel_tol: float) -> tuple[ResidualScan, int]:
    """`residual_scan` of the ``kind`` profile streamed from the sieve, and the last stop edge
    it read: the sieve limit the scan needed.  Ts are ascending, each finite and >= 1, as the
    `laplace` command parses them.  The stream source is an `arith.ArithTables` with no table
    built, which reaches the largest T's _LAST_BLOCK-th edge, past which no T runs, and is
    sieved only as far as the pass reads."""
    tables = arith.ArithTables(_LAST_BLOCK * block_size(Ts[-1]))
    return _scan(lattice.step_profile(tables, kind), Ts, rel_tol)


def _first_interval(T: float) -> float:
    """int_0^1 main(x)^2 exp(-x/T) dx (Delta = -main on [0, 1)) at 40 digits:
    main^2 = x^2 (L + a)^2 + x (L + a)/2 + 1/16, L = log x, a = 2 gamma - 1,
    and int_0^1 x^k L^b dx = (-1)^b b!/(k+1)^(b+1)."""
    with localcontext(_DIGITS):
        a = 2 * _EULER_GAMMA - 1

        def J(k, b):
            return (-1) ** b * math.factorial(b) / Decimal(k + 1) ** (b + 1)

        return float(_exp_sum(T, lambda j: J(j + 2, 2) + 2 * a * J(j + 2, 1) + a * a * J(j + 2, 0)
                              + (J(j + 1, 1) + a * J(j + 1, 0)) / 2 + J(j, 0) / 16))


def _taylor_coefficients(n, D, p: np.ndarray) -> np.ndarray:
    """p, one row per n, with Delta(c + u) = sum_{k<=K} p_k u^k on [n, n+1) to
    within `_taylor_remainder`: about c = n + 1/2, main^(k) = (-1)^k (k-2)!/x^(k-1)
    for k >= 2 gives Delta(c + u) = (D - main(c)) - u (log c + 2 gamma)
    - sum_{k>=2} (-1)^k u^k / (k (k-1) c^(k-1)), D the step value on [n, n+1).
    Written into p, whose width is K + 1, one column at a time: each is formed in
    one contiguous scratch array by exactly the operations of `divisor_main` and
    of the expressions above, log c + 2 gamma once for p_0 and p_1, so its bits
    are theirs, with no per-column arrays."""
    c = n + 0.5
    t = np.empty_like(c)
    L = np.log(c) + 2.0 * EULER_GAMMA
    np.negative(L, out=p[..., 1])
    np.subtract(L, 1.0, out=t)   # divisor_main(c) = c (L - 1) + 1/4
    t *= c
    t += 0.25
    np.subtract(D, t, out=p[..., 0])
    for k in range(2, p.shape[-1]):
        np.power(c, k - 1, out=t)
        t *= k * (k - 1)
        np.divide(-((-1.0) ** k), t, out=p[..., k])
    return p


def _taylor_remainder(n, K: int):
    """R = c rho^(K+1) / (K (K+1) (1 - rho)) >= the order-K terms' omitted
    sum, since |u|/c <= rho = 1/(2n+1) and term k > K is <= c (|u|/c)^k/(K (K+1))."""
    rho = 1.0 / (2.0 * n + 1.0)
    return (n + 0.5) * rho ** (K + 1) / (K * (K + 1) * (1.0 - rho))


def _taylor_order(n: int) -> int:
    """Least K with R <= 2^-60 on [n, n+1), 1/256 ulp of main(c) >= 1, whose
    rounding in p_0 then dominates: 32 at n = 1, 5 at n = 1000, 3 from n ~ 1.8e5."""
    return next(K for K in range(1, 64) if _taylor_remainder(n, K) <= 2.0**-60)


_POWERS = 0.5 ** np.arange(64)   # w_k = 2^-k >= |u|^k on [n, n+1)


def _taylor_rows(n, S, K, buffers, temps):
    """p at order K (`_taylor_coefficients`), R = `_taylor_remainder(n, K)` and
    t = 2 (|p| @ w) + R, w_k = 2^-k, for the rows n with sums S: the part of `laplace_d2` and
    of its certificate that does not depend on T.  p, R and t go into the buffers, |p| into
    temps[0]; temps[2] is scratch.  The certificate exp(-n/T) R t >= int |Delta^2 - Delta_K^2|
    exp(-x/T) over [n, n+1), as |Delta - Delta_K| <= R and |Delta_K| <= sum |p_k| 2^-k."""
    P, R, t = buffers
    p = P[:n.size * (K + 1)].reshape(n.size, K + 1)
    _taylor_coefficients(n, S, p)
    R, t, x = R[:n.size], t[:n.size], temps[2][:n.size]
    np.multiply(2.0, n, out=R)   # _taylor_remainder(n, K), operation for operation
    R += 1.0
    np.divide(1.0, R, out=R)   # rho
    np.subtract(1.0, R, out=t)
    t *= K * (K + 1)
    np.power(R, K + 1, out=R)
    R *= np.add(n, 0.5, out=x)
    R /= t
    np.matmul(np.abs(p, out=temps[0][:p.size].reshape(p.shape)), _POWERS[:K + 1], out=t)
    t *= 2.0
    t += R
    return p, R, t


def _quadratic_forms(p: np.ndarray, H: np.ndarray, q: np.ndarray, out=None) -> np.ndarray:
    """p_i^T H p_i for each row p_i, bit for bit np.sum((p @ H) * p, axis=1), into out (a
    fresh array when not given), with q, shaped like p, overwritten by (p @ H) * p.  numpy
    reduces a row of fewer than 8 doubles left to right, so rows of up to 7 columns are
    added that way, column by column, which skips the ~24 ns per row of an axis-1 reduce;
    wider rows keep np.sum, whose 8-way pairwise order column adds would not reproduce."""
    np.matmul(p, H, out=q)
    q *= p
    if q.shape[1] > 7:
        return np.sum(q, axis=1, out=out)
    s = np.add(q[:, 0], q[:, 1], out=out)
    for j in range(2, q.shape[1]):
        s += q[:, j]
    return s


def _d2_chunk(run: _Run, n, rows, temps) -> None:
    """Adds to run's block the sum over the rows n of exp(-n/T) p^T H p (one
    `_quadratic_forms`, one np.sum), and appends the chunk's certificate, the sum of
    (exp(-n/T) R) t."""
    p, R, t = rows
    q, decay, x = temps
    k = p.shape[1]
    decay, x = decay[:n.size], x[:n.size]
    np.negative(n, out=decay)
    decay /= run.T
    np.exp(decay, out=decay)
    s = _quadratic_forms(p, run.weights[:k, :k], q[:p.size].reshape(p.shape), out=x)
    run.value += float(np.sum(np.multiply(decay, s, out=s)))
    run.errors.append(float(np.sum(np.multiply(np.multiply(decay, R, out=x), t, out=x))))


def laplace_d2(
    profile: StepProfile, T: float, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[float, float]:
    """int_0^infty Delta^2(x) exp(-x/T) dx; returns (integral, truncation_bound).

    Integrated like `laplace_p2`: on [n, n+1), n >= 1, Delta is its Taylor
    polynomial p about n + 1/2, so the interval contributes exp(-n/T) p^T H p
    with H[i][j] = mu_{i+j} at shift 1/2; [0, 1) is `_first_interval`.  Each
    octave's [2^m, 2^(m+1)) share of a block is one chunk: its p, of the order
    K = `_taylor_order(lo)` at the chunk's first n = lo, every row's p^T H p from
    one matmul (`_quadratic_forms`) and one exp(-n/T) for the value and the
    certificate.  K falls within some octaves (at n = 97, 245, 903, 6515 and
    181761), so a block shorter than an octave can split it into chunks of
    different orders: an interval's order depends on T through the block edges.
    p, R and 2 (|p| @ w) + R do not depend on T: a scan forms them once per n for
    every T whose chunk has the fold chunk's order (`_taylor_rows`), and each T
    runs its own exp(-n/T), matmul and sums on its own chunk's rows (`_d2_chunk`),
    in buffers allocated once per scan (`_scratch`).  This is `_fold` with T alone.
    When the certified remainder, exp(-n/T) R (2 (|p| @ w) + R) summed over every
    interval integrated, exceeds _QUAD_SELF_CHECK * max(1, |integral|), it aborts
    rather than return a silently degraded value.  Float rounding is not covered.
    """
    if profile.kind != DIVISOR:
        raise ValueError("laplace_d2 needs a DIVISOR profile")
    return _fold(profile, [T], rel_tol)[0][0]


def _fit_log_quadratic(x_values, y_values) -> tuple[float, float, float]:
    """Least-squares coefficients (a, b, c) of y ~ a log^2 x + b log x + c."""
    xs = np.asarray(list(x_values), dtype=np.float64)
    ys = np.asarray(list(y_values), dtype=np.float64)
    if xs.size < 3:
        raise ValueError(f"need at least 3 points to fit a log-quadratic, got {xs.size}")
    L = np.log(xs)
    A = np.vstack([L**2, L, np.ones_like(L)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


@dataclass(frozen=True)
class A1Fit:
    a1: float
    a2: float
    a3: float


A1_EXPECTED = -1.0 / (4.0 * math.pi**2)


def fit_a1(scan: ResidualScan) -> A1Fit:
    """Fit the log^2 T coefficient of the divisor transform's secondary term.

    Takes the rows (at least 3) of a divisor `residual_scan`, whose
    residual is y(T) = laplace_d2(T) - (1/8) (T/pi)^(3/2) c_d, and fits
    y(T)/T against {log^2 T, log T, 1}; no transform is computed here.
    The leading fitted coefficient estimates A1 = -1/(4 pi^2) ~ -0.02533;
    recovering it requires c_d accurate well beyond any sievable partial
    sum, which is why the scan takes c_d from `series_limit` itself.
    """
    if scan.kind != DIVISOR:
        raise ValueError(f"fit_a1 needs a {DIVISOR} scan, got {scan.kind!r}")
    a1, a2, a3 = _fit_log_quadratic(
        [row.T for row in scan.rows], [row.residual / row.T for row in scan.rows]
    )
    return A1Fit(a1=a1, a2=a2, a3=a3)
