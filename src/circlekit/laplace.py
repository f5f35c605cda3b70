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
digits -- the naive antiderivative difference cancels catastrophically
when T >> 1.  P is affine, so p is exact.  Delta's p is its Taylor
polynomial about n + 1/2, with a certified remainder; on [0, 1), where
Delta = -main has a log singularity, Delta^2 is integrated in closed form.
Float rounding is not bounded yet (ROADMAP item 7).

Truncation policy: integrate whole blocks of `block_size(T)` unit intervals
until, at a block edge x_max, the tail bound `_tail_bound` drops below
rel_tol times the running total.  `stop_edge` owns that rule; as the bound
falls from edge to edge, a scan tests only the edge it has reached.  The bound
integrates a proven envelope |error(x)| <= c sqrt(x) + c0 (x >= 1, both
one-sided limits, `_ENVELOPES`) over [x_max, infty), so the reported
truncation_bound is a theorem, not an extrapolation of checked values.  A
scan stops only at block edges, so no value depends on the profile's
length: a profile that ends before the stop raises CapacityError naming a
block edge that suffices.  The sieve a scan needs is thus fixed by T and
rel_tol, and `_scan_limit` owns that sizing: `_sized_scan`, which the `laplace`
command runs, sieves to it and rebuilds at a larger limit a scan names.

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
    (DIVISOR), one math.fsum over 2^16-entry blocks, f(n) = 0 skipped: exactly rounded
    whatever the grouping.  f is read from the profile's segments: its table when built, else
    streamed with no table kept.  The tail bound is proven and reads the kind and terms alone
    (`_series_tail`)."""
    if terms < 1 or terms > profile.limit:
        raise ValueError(f"terms={terms} outside table range [1, {profile.limit}]")
    value = arith._series_sum(profile._segments(terms), lambda n, f: f**2 * n**-1.5)
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


def _moments(T: float, k_max: int, shift: float) -> list[float]:
    """mu_k = int_0^1 (s - shift)^k exp(-s/T) ds for k = 0..k_max, at 40 digits:
    exp(-shift/T) sum_j c_j I_(k+j), with c_j the `_exp_coefficients` and each
    I_i = int u^i du = (b^(i+1) - a^(i+1))/(i+1) over [a, b] = [-shift, 1 - shift]
    formed once.  In closed form these are tiny differences of near-equal
    exponentials when T >> 1, so they are formed in 40-digit decimal."""
    if not 1 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 1, got {T}")
    with localcontext(_DIGITS):
        a, b, scale = -Decimal(shift), 1 - Decimal(shift), (-Decimal(shift) / Decimal(T)).exp()
        c = _exp_coefficients(T)
        integrals = [(b**e - a**e) / e for e in range(1, k_max + len(c) + 1)]   # I_0, I_1, ...
        return [float(scale * sum(c_j * integrals[k + j] for j, c_j in enumerate(c)))
                for k in range(k_max + 1)]


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


def _integrate_to_tolerance(profile: StepProfile, T: float, rel_tol: float, block_fn):
    """Accumulate block_fn(n, S) over whole blocks [lo, hi) of unit intervals, n = lo..hi
    and S = S(lo), ..., S(hi) as `arith._block_sums` yields them, up to the first block
    edge at which `stop_edge` stops the running total.

    block_fn returns the block's integral as a float.  Returns (total,
    truncation_bound).  Each edge x is tested alone, `_tail_bound` at x against
    rel_tol times the total: the bound falls strictly from edge to edge until it
    is 0, so that stops where `stop_edge`'s search from the first edge stops.  A
    scan that has not stopped by `stop_edge`'s last edge never stops, and raises
    its CapacityError; so does a profile that ends before the stop, or it names
    a block edge that suffices.  The block a profile cuts short only raises the
    running total that names the edge, never a returned value.
    """
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    block = block_size(T)
    pieces: list[float] = []
    x, total = 0, 0.0   # a profile of limit 0 has no block
    for n, S in arith._block_sums([(0, profile.table)], 0, profile.limit, block):
        pieces.append(block_fn(n, S))
        x, total = int(n[0]) + block, math.fsum(pieces)
        if x > profile.limit:   # the profile cut this block short
            break
        bound = _tail_bound(profile.kind, T, x)
        if bound < rel_tol * total:
            return total, bound
        if x >= _LAST_BLOCK * block:   # exp(-n/T) is 0.0 from here: no later block adds to the total
            break
    need = max(x, stop_edge(profile.kind, T, rel_tol, total))
    raise CapacityError(
        f"profile limit {profile.limit} too small for T={T} at rel_tol={rel_tol}; "
        f"required limit {need}",
        required_limit=need,
    )


def laplace_p2(
    profile: StepProfile, T: float, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[float, float]:
    """int_0^infty P^2(x) exp(-x/T) dx by exact per-interval integration.

    Returns (integral, truncation_bound).  On [n, n+1) with b = P(n+) the
    integrand is (b - pi s)^2 exp(-n/T) exp(-s/T) in local coordinates, so
    each interval contributes exp(-n/T) (b^2 m0 - 2 pi b m1 + pi^2 m2), formed
    left to right as written: a block writes b, the products and exp(-n/T) into
    three buffers of block_size(T) doubles, allocated once per call, where about a
    dozen fresh arrays per block had the heap handed back and faulted in again.
    """
    if profile.kind != CIRCLE:
        raise ValueError("laplace_p2 needs a CIRCLE profile")
    m0, m1, m2 = _moments(T, 2, 0.0)
    buffers = [np.empty(block_size(T)) for _ in range(3)]   # b, the products, exp(-n/T)

    def block(n: np.ndarray, S: np.ndarray) -> float:
        n, S = n[:-1], S[:-1]
        b, u, e = (buf[:n.size] for buf in buffers)
        np.add(S, 1.0, out=b)
        b -= np.multiply(np.pi, n, out=u)   # b = S + 1 - pi n
        np.multiply(b, b, out=u)
        u *= m0
        np.multiply(2.0 * np.pi, b, out=e)
        e *= m1
        u -= e
        u += (np.pi * np.pi) * m2
        np.negative(n, out=e)
        e /= T
        u *= np.exp(e, out=e)
        return float(np.sum(u))

    return _integrate_to_tolerance(profile, T, rel_tol, block)


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

    A CIRCLE profile is scanned with `laplace_p2`, a DIVISOR profile with
    `laplace_d2`, each against the kind's `laplace_main`: the scan pairs
    the closed-form constant with the profile's kind itself.  Each transform
    is computed once per T.
    """
    Ts = list(T_list)
    if not Ts or any(a >= b for a, b in zip(Ts, Ts[1:])):
        raise ValueError(f"T_list must be non-empty and strictly ascending, got {Ts}")
    transform = laplace_p2 if profile.kind == CIRCLE else laplace_d2
    c = series_limit(profile.kind)
    rows = []
    for T in Ts:
        integral, trunc = transform(profile, T, rel_tol)
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
    return ResidualScan(kind=profile.kind, constant=c, rows=rows, slope=slope)


def _scan_limit(kind: str, T: float, rel_tol: float) -> int:
    """The sieve limit a ``kind`` scan at T is sized to: the block edge where `stop_edge`
    stops the main term's estimate of the integral, plus one block.  A main term past the
    largest float reads as inf, which no block edge stops."""
    try:
        estimate = laplace_main(kind, T)
    except OverflowError:   # T^1.5 overflows
        estimate = math.inf
    return stop_edge(kind, T, rel_tol, estimate) + block_size(T)


def _sized_scan(kind: str, T_list, rel_tol: float) -> tuple[ResidualScan, int]:
    """`residual_scan` of the ``kind`` profile sieved to `_scan_limit` at the largest T, and
    the limit finally sieved: a scan that still runs out is rebuilt at the block edge its
    CapacityError names, and one that names no larger limit raises."""
    limit = _scan_limit(kind, T_list[-1], rel_tol)
    while True:
        profile = lattice.step_profile(arith.build_tables(limit), kind)
        try:
            return residual_scan(profile, T_list, rel_tol), limit
        except CapacityError as exc:
            if not exc.required_limit > limit:   # the limit only grows, so this ends
                raise
            limit = exc.required_limit


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


def _taylor_certificate(n, abs_p: np.ndarray, decay):
    """decay R (2 sum |p_k| 2^-k + R) >= int |Delta^2 - Delta_K^2| exp(-x/T) over
    [n, n+1), abs_p = |p| and decay = exp(-n/T), as |Delta - Delta_K| <= R and
    |Delta_K| <= sum |p_k| 2^-k."""
    R = _taylor_remainder(n, abs_p.shape[-1] - 1)
    return decay * R * (2.0 * (abs_p @ 0.5 ** np.arange(abs_p.shape[-1])) + R)


def _quadratic_forms(p: np.ndarray, H: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p_i^T H p_i for each row p_i, bit for bit np.sum((p @ H) * p, axis=1), with q,
    shaped like p, overwritten by (p @ H) * p.  numpy reduces a row of fewer than 8
    doubles left to right, so rows of up to 7 columns are added that way, column by
    column, which skips the ~24 ns per row of an axis-1 reduce; wider rows keep
    np.sum, whose 8-way pairwise order column adds would not reproduce."""
    np.matmul(p, H, out=q)
    q *= p
    if q.shape[1] > 7:
        return np.sum(q, axis=1)
    s = q[:, 0] + q[:, 1]
    for j in range(2, q.shape[1]):
        s += q[:, j]
    return s


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
    p and (p @ H) * p are written into two buffers of block (K(block) + 1)
    doubles, allocated once per call: past the first block a chunk has at most
    block rows at an order <= K(block), and the first block's octaves fit too
    (checked for every block up to 2^21).  Fresh ~1 MiB arrays per chunk had
    glibc hand the heap back and fault it in again, ~18k page faults and ~40% of
    a T = 32768 scan (2-vCPU VM).  When the certified remainder,
    `_taylor_certificate` summed over every interval integrated, exceeds
    _QUAD_SELF_CHECK * max(1, |integral|), it aborts rather than return a
    silently degraded value.  Float rounding is not covered.
    """
    if profile.kind != DIVISOR:
        raise ValueError("laplace_d2 needs a DIVISOR profile")
    k_max = _taylor_order(1)
    mu = _moments(T, 2 * k_max, 0.5)
    H = np.array(mu)[np.add.outer(range(k_max + 1), range(k_max + 1))]   # H[i][j] = mu_{i+j}
    errors = []
    size = block_size(T) * (_taylor_order(block_size(T)) + 1)   # the largest chunk's p
    buffers = np.empty(size), np.empty(size)   # p and (p @ H) * p of the current chunk

    def block(n_all: np.ndarray, S: np.ndarray) -> float:
        a, hi = int(n_all[0]), int(n_all[-1])
        value, lo = (_first_interval(T), 1) if a == 0 else (0.0, a)
        while lo < hi:
            top = min(hi, 1 << lo.bit_length())   # the chunk ends with the octave or the block
            K = _taylor_order(lo)
            n = n_all[lo - a : top - a]
            p, q = (b[: n.size * (K + 1)].reshape(n.size, K + 1) for b in buffers)
            decay = np.exp(-n / T)
            _taylor_coefficients(n, S[lo - a : top - a], p)
            value += float(np.sum(decay * _quadratic_forms(p, H[: K + 1, : K + 1], q)))
            errors.append(float(np.sum(_taylor_certificate(n, np.abs(p, out=p), decay))))
            lo = top
        return value

    total, trunc = _integrate_to_tolerance(profile, T, rel_tol, block)
    bound = math.fsum(errors)
    if not bound <= _QUAD_SELF_CHECK * max(1.0, abs(total)):
        raise RuntimeError(
            f"quadrature self-check failed for T={T}: the certified Taylor remainder "
            f"bound {bound:.3e} exceeds {_QUAD_SELF_CHECK} rel"
        )
    return total, trunc


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
