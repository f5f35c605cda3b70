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

Integration is exact where possible: P is affine on every unit interval,
so P^2 exp(-x/T) has an elementary antiderivative per interval, evaluated
in local coordinates (x = n + s, s in [0, 1)) with the interval moments
int_0^1 s^k exp(-s/T) ds precomputed in high precision -- the naive
antiderivative difference cancels catastrophically when T >> 1.  The
divisor integrand is not polynomial, so each unit interval gets one
24-point Gauss-Legendre rule (the first interval is subdivided dyadically
because x log x has unbounded derivatives at 0), with a certified bound on
its discretisation error from a Bernstein ellipse around every panel; float
rounding is not bounded yet (ROADMAP item 7).

Truncation policy: integrate whole blocks of `block_size(T)` unit intervals
until, at a block edge x_max, the tail bound `_tail_bound` drops below
rel_tol times the running total.  `stop_edge` owns that rule.  The bound
integrates a proven envelope |error(x)| <= c sqrt(x) + c0 (x >= 1, both
one-sided limits, `_ENVELOPES`) over [x_max, infty), so the reported
truncation_bound is a theorem, not an extrapolation of checked values.  A
scan stops only at block edges, so no value depends on the profile's
length: a profile that ends before the stop raises CapacityError naming a
block edge that suffices.  The sieve a scan needs is thus fixed by T and
rel_tol, and the `laplace` command derives it from `stop_edge` rather than
asking.

Interval sums are chunked and reduced in a fixed ascending order, so runs
are bit-reproducible in a given build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import CapacityError
from .lattice import _CHUNK, CIRCLE, DIVISOR, EULER_GAMMA, StepProfile, divisor_main

R_SQUARED = "r_squared"
D_SQUARED = "d_squared"

DEFAULT_REL_TOL = 1e-6
_QUAD_ORDER = 24
_QUAD_SELF_CHECK = 1e-12
_LAST_BLOCK = 747         # blocks span >= T, so x >= 747 T here, where exp(-x/T) is 0.0


@dataclass(frozen=True)
class SeriesConstant:
    """Partial sum of sum f(n)^2 n^(-3/2) for f in {r, d} with a tail bound.

    ``value`` is the partial sum over n <= terms_used; ``tail_bound`` is an
    upper estimate of the omitted tail obtained by partial summation against
    the measured envelope sum_{n<=x} f^2(n) <= C_hat x log x (C_hat is the
    observed maximum over the sieve range times a safety factor of 2; its
    use beyond the sieve range is the one extrapolation step, stated here
    rather than hidden).  For a fixed table, increasing terms_used never
    increases the bound.
    """

    kind: str
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


def series_constant(tables, kind: str, terms: int) -> SeriesConstant:
    """Partial sum of sum_{n<=terms} f(n)^2 n^(-3/2) with compensated accumulation."""
    if kind == R_SQUARED:
        values = tables.r
    elif kind == D_SQUARED:
        values = tables.d
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    if terms < 1 or terms > tables.limit:
        raise ValueError(f"terms={terms} outside table range [1, {tables.limit}]")
    if tables.limit < 2:
        raise ValueError(f"C_hat needs tables.limit >= 2, got {tables.limit}")
    pieces = []
    for lo in range(1, terms + 1, _CHUNK):
        hi = min(lo + _CHUNK, terms + 1)
        f2 = values[lo:hi].astype(np.float64) ** 2
        n = np.arange(lo, hi, dtype=np.float64)
        pieces.append(math.fsum(f2 * n**-1.5))
    value = math.fsum(pieces)

    # Envelope constant over the full sieve range (not just `terms`):
    # C_hat = 2 * max_{2<=n<=limit} F(n) / (n log n), F = cumsum f^2.
    n_all = np.arange(2, tables.limit + 1, dtype=np.float64)
    F = np.cumsum(values[1:].astype(np.float64) ** 2)
    c_hat = 2.0 * float(np.max(F[1:] / (n_all * np.log(n_all))))
    # tail <= int_X^inf t^(-3/2) dF <= 3 C_hat (log X + 2) / sqrt(X); the
    # looser form without the -F(X) X^(-3/2) sharpening is monotone in X.
    tail_bound = 3.0 * c_hat * (math.log(terms) + 2.0) / math.sqrt(terms)
    return SeriesConstant(kind=kind, terms_used=terms, value=value, tail_bound=tail_bound)


def series_limit(kind: str) -> float:
    """Full value of sum f(n)^2 n^(-3/2) from the Euler product of its
    generating Dirichlet series, evaluated in high precision:

        sum r^2(n) n^(-s) = 16 zeta(s)^2 L(s, chi4)^2 / ((1 + 2^(-s)) zeta(2s))
        sum d^2(n) n^(-s) = zeta(s)^4 / zeta(2s)

    at s = 3/2.  Both identities follow by matching Euler factors of the
    multiplicative functions (r/4)^2 and d^2; the toolkit cross-validates
    these values against the sieved partial sums plus their tail bounds.
    Needed wherever the remainder under study (O(T^(2/3)) scale) is far
    smaller than the partial-sum truncation bias of any sievable range.
    """
    with mp.workdps(30):
        s = mp.mpf(3) / 2
        if kind == R_SQUARED:
            beta = 4**-s * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))
            val = 16 * mp.zeta(s) ** 2 * beta**2 / ((1 + 2**-s) * mp.zeta(2 * s))
        elif kind == D_SQUARED:
            val = mp.zeta(s) ** 4 / mp.zeta(2 * s)
        else:
            raise ValueError(f"unknown series kind {kind!r}")
        return float(val)


def _interval_moments(T: float) -> tuple[float, float, float]:
    """m_k = int_0^1 s^k exp(-s/T) ds for k = 0, 1, 2, in high precision.

    For large T these are tiny differences of near-equal exponentials, so
    they are formed once per call with mpmath rather than in doubles.
    """
    with mp.workdps(40):
        lam = 1 / mp.mpf(T)
        E = mp.e**-lam
        m0 = (1 - E) / lam
        m1 = (1 - E * (1 + lam)) / lam**2
        m2 = (2 - E * (2 + 2 * lam + lam**2)) / lam**3
        return float(m0), float(m1), float(m2)


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
    """Accumulate block_fn(lo, hi) over whole blocks of unit intervals up to
    the first block edge at which `stop_edge` stops the running total.

    block_fn returns the block's integral as a float.  Returns (total,
    truncation_bound).  A profile that ends before the stop raises
    CapacityError naming a block edge that suffices; the block it cuts
    short only raises the running total that names the edge, never a
    returned value.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    block = block_size(T)
    pieces: list[float] = []
    x = 0
    total = 0.0
    while x == 0 or stop_edge(profile.kind, T, rel_tol, total) > x:
        hi = x + block
        if hi > profile.limit:
            if profile.limit > x:
                pieces.append(block_fn(x, profile.limit))
            need = max(hi, stop_edge(profile.kind, T, rel_tol, math.fsum(pieces)))
            raise CapacityError(
                f"profile limit {profile.limit} too small for T={T} at rel_tol={rel_tol}; "
                f"required limit {need}",
                required_limit=need,
            )
        pieces.append(block_fn(x, hi))
        total = math.fsum(pieces)
        x = hi
    return total, _tail_bound(profile.kind, T, x)


def laplace_p2(
    profile: StepProfile, T: float, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[float, float]:
    """int_0^infty P^2(x) exp(-x/T) dx by exact per-interval integration.

    Returns (integral, truncation_bound).  On [n, n+1) with b = P(n+) the
    integrand is (b - pi s)^2 exp(-n/T) exp(-s/T) in local coordinates, so
    each interval contributes exp(-n/T) (b^2 m0 - 2 pi b m1 + pi^2 m2).
    """
    if profile.kind != CIRCLE:
        raise ValueError("laplace_p2 needs a CIRCLE profile")
    m0, m1, m2 = _interval_moments(T)

    def block(lo: int, hi: int) -> float:
        n = np.arange(lo, hi, dtype=np.float64)
        b = profile.partial[lo:hi] + 1.0 - np.pi * n
        vals = (b * b * m0 - 2.0 * np.pi * b * m1 + (np.pi * np.pi) * m2) * np.exp(-n / T)
        return float(np.sum(vals))

    return _integrate_to_tolerance(profile, T, rel_tol, block)


# The series sum f(n)^2 n^(-3/2) whose closed form a kind's main term carries.
_SERIES = {CIRCLE: R_SQUARED, DIVISOR: D_SQUARED}


def _main_term(kind: str, T: float, c: float) -> float:
    if kind == CIRCLE:
        return 0.25 * (T / math.pi) ** 1.5 * c - T
    return 0.125 * (T / math.pi) ** 1.5 * c


def laplace_main(kind: str, T: float) -> float:
    """Main term of the ``kind`` transform at T, with c = `series_limit` of
    the kind's series: (1/4) (T/pi)^(3/2) c - T for CIRCLE (c = sum r^2(n)
    n^(-3/2)), (1/8) (T/pi)^(3/2) c for DIVISOR (c = sum d^2(n) n^(-3/2))."""
    return _main_term(kind, T, series_limit(_SERIES[kind]))


@dataclass(frozen=True)
class ResidualScan:
    kind: str        # CIRCLE or DIVISOR, the kind of the scanned profile
    constant: float  # series_limit of the kind's series, the main terms' constant
    rows: list[LaplaceEstimate]
    slope: float     # least-squares slope of log |residual| against log T


def residual_scan(profile: StepProfile, T_list, rel_tol: float = DEFAULT_REL_TOL) -> ResidualScan:
    """Residuals of the profile's transform over ascending T plus their log-log slope.

    A CIRCLE profile is scanned with `laplace_p2`, a DIVISOR profile with
    `laplace_d2`, each against the kind's `laplace_main`: the scan pairs
    the closed-form constant with the profile's kind itself, reading it
    once.  Each transform is computed once per T.
    """
    Ts = list(T_list)
    if Ts != sorted(Ts):
        raise ValueError("T_list must be ascending")
    if not Ts:
        raise ValueError("T_list must be non-empty")
    transform = laplace_p2 if profile.kind == CIRCLE else laplace_d2
    c = series_limit(_SERIES[profile.kind])
    rows = []
    for T in Ts:
        integral, trunc = transform(profile, T, rel_tol)
        main = _main_term(profile.kind, T, c)
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


def _d2_first_interval(T: float, nodes, weights) -> float:
    """int_0^1 main(x)^2 exp(-x/T) dx (Delta = -main on [0, 1)) on a dyadic graded mesh.

    x log x has unbounded derivatives at 0, so a single Gauss panel loses
    ~1e-9 relative accuracy here; panels [2^-j-1, 2^-j] restore spectral
    convergence and the leftover [0, 2^-52] stub is integrated as the
    constant (1/4)^2.
    """
    edges = [2.0**-j for j in range(53)]
    total = 0.25**2 * edges[-1]    # exp(-x/T) ~ 1 below 2^-52
    for j in range(52):
        a, b = edges[j + 1], edges[j]
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        x = mid + half * nodes
        f = divisor_main(x) ** 2 * np.exp(-x / T)
        total += half * float(np.dot(weights, f))
    return total


def _gauss_error_bound(lo, hi, D, T: float, m: int) -> float:
    """Certified error of m-point Gauss-Legendre for (D - main(x))^2 exp(-x/T),
    summed over the panels [lo, hi] (arrays or scalars, D one value per panel).

    If f is analytic in the Bernstein ellipse E_rho of [-1, 1] with |f| <= M
    there, the m-point rule errs by at most (64/15) M rho^(-2m) / (rho^2 - 1)
    (Trefethen, SIAM Rev. 50 (2008), Thm 4.5); a panel of half-width h scales
    this by h.  With rho = 4 the ellipse of a panel with centre c lies in
    Re z in [c - 2.125 h, c + 2.125 h], |Im z| <= 1.875 h, with left end
    n - 0.5625 on [n, n+1] and 0.875 h on the dyadic panels of [0, 1).  So
    |arg z| < pi/2, |exp(-z/T)| = exp(-Re z/T) and, with R the modulus of the
    far corner, |main(z)| <= R (max |log|z|| + pi/2 + |2 gamma - 1|) + 1/4.
    A left end <= 0 makes the bound nan or inf, which fails any check.
    """
    rho = 4.0
    a, b = (rho + 1.0 / rho) / 2.0, (rho - 1.0 / rho) / 2.0   # semi-axes of E_rho
    c, h = (lo + hi) / 2.0, (hi - lo) / 2.0
    near, far = c - a * h, np.hypot(c + a * h, b * h)
    ell = np.maximum(np.abs(np.log(far)), np.abs(np.log(near)))
    main_sup = far * (ell + np.pi / 2.0 + abs(2.0 * EULER_GAMMA - 1.0)) + 0.25
    M = (np.abs(D) + main_sup) ** 2 * np.exp(-near / T)
    return float(np.sum(h * (64.0 / 15.0) * M * rho ** (-2 * m) / (rho * rho - 1.0)))


def _d2_first_interval_bound(T: float, m: int) -> float:
    """Certified error of `_d2_first_interval` at order m: its 52 dyadic
    panels (Delta = -main, so D = 0) plus the [0, 2^-52] stub.

    On (0, eps], eps = 2^-52, x |log x| is increasing, so |main(x) - 1/4| <=
    eps (52 log 2 + |2 gamma - 1|) =: delta and 1 - exp(-x/T) <= eps/T; the
    stub's constant (1/4)^2 is therefore off by at most eps (delta (1/2 +
    delta) + eps/(16 T)), ~1e-30.
    """
    eps = 2.0**-52
    delta = eps * (52.0 * math.log(2.0) + abs(2.0 * EULER_GAMMA - 1.0))
    stub = eps * (delta * (0.5 + delta) + eps / (16.0 * T))
    right = 2.0 ** -np.arange(52.0)
    return stub + _gauss_error_bound(right / 2.0, right, 0.0, T, m)


def laplace_d2(
    profile: StepProfile, T: float, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[float, float]:
    """int_0^infty Delta^2(x) exp(-x/T) dx; returns (integral, truncation_bound).

    Per unit interval the integrand is smooth but not polynomial, so each
    gets one _QUAD_ORDER-point Gauss-Legendre rule.  When the certified
    discretisation error, `_gauss_error_bound` summed over every panel
    integrated, exceeds _QUAD_SELF_CHECK * max(1, |integral|), it aborts
    rather than return a silently degraded value.  Float rounding is not
    covered.
    """
    if profile.kind != DIVISOR:
        raise ValueError("laplace_d2 needs a DIVISOR profile")
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    s, w = (nodes + 1.0) / 2.0, weights / 2.0
    errors = []

    def block(lo: int, hi: int) -> float:
        value = 0.0
        if lo == 0:
            value = _d2_first_interval(T, nodes, weights)
            errors.append(_d2_first_interval_bound(T, _QUAD_ORDER))
            lo = 1
        if hi > lo:
            n = np.arange(lo, hi, dtype=np.float64)
            Dn = profile.partial[lo:hi]
            x = n[:, None] + s[None, :]
            f = (Dn[:, None] - divisor_main(x)) ** 2 * np.exp(-x / T)
            value += float(np.sum(f @ w))
            errors.append(_gauss_error_bound(n, n + 1.0, Dn, T, _QUAD_ORDER))
        return value

    total, trunc = _integrate_to_tolerance(profile, T, rel_tol, block)
    bound = math.fsum(errors)
    if not bound <= _QUAD_SELF_CHECK * max(1.0, abs(total)):
        raise RuntimeError(
            f"quadrature self-check failed for T={T}: the certified order-{_QUAD_ORDER} "
            f"error bound {bound:.3e} exceeds {_QUAD_SELF_CHECK} rel"
        )
    return total, trunc


def fit_log_quadratic(x_values, y_values) -> tuple[float, float, float]:
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
    a1, a2, a3 = fit_log_quadratic(
        [row.T for row in scan.rows], [row.residual / row.T for row in scan.rows]
    )
    return A1Fit(a1=a1, a2=a2, a3=a3)


# ---------------------------------------------------------------------------
# Weight functions of the correlation-to-transform argument


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
