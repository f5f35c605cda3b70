"""Bessel functions J0/J1, quadratic Gauss sums, and the Bessel/cosine
series representations of the circle-problem error term.

Accuracy policy for `bessel_j`: ascending power series below z = 18
(accumulated in 80-bit extended precision, since plain doubles lose too
many digits to cancellation once z > ~12), Hankel asymptotic expansion
above.  Absolute error is <= 1e-10 for 0 <= z <= 1e6 against the integral
oracle; beyond z ~ 1e6 the *phase* z mod 2pi of the oscillation slowly
loses accuracy to argument rounding (about eps * z radians), although the
shrinking amplitude keeps the absolute error small.  This degradation is
inherent to double-precision arguments and is not silently hidden: it is
documented here and in the README.

The cosine sum `truncated_p` reduces its phases 2 pi sqrt(x n) by a
compensated split of sqrt(x n) into integer and fractional parts: x n and
s0^2 are exact two-products (Dekker 1971, Veltkamp split), so a Newton step
gives the fraction to ~1e-15 while x n < 2^53.  Rounding s0^2 instead would
let the phase error grow like sqrt(x n): 2.9e-11 at x n ~ 1e10 and 1.0e-8 at
2e15 against 50-digit mpmath.  `hardy_partial` takes the oscillation of
each J1 from the same reduced phase and only the amplitude from
2 pi sqrt(x n) as a double, so the argument rounding described above does
not reach it: at x = 100000.5 with 1e5 terms its error against a 30-digit
sum is 3.6e-14, not 6.0e-11.  Both sums add their slowly decaying, heavily
cancelling terms exactly, into one Python int rounded once, one 2^16-entry block
of n at a time with r(n) = 0 skipped (`arith._exact_sums`): O(block) scratch at any N.
`_series` forms both in one pass over r's segment stream, each block's phase
reduced once, for the ``voronoi`` command.

All operations are pure.
"""

from __future__ import annotations

import math
from math import gcd

import numpy as np

from .arith import ArithTables, _exact_sums, _kept_blocks

BESSEL_SWITCH = 18.0   # both branches agree to ~1.5e-13 here
_SERIES_TERMS = 60
_ASYM_TERMS = 30


def _bessel_series(order: int, z: np.ndarray) -> np.ndarray:
    """Ascending power series in 80-bit extended precision (z < ~20)."""
    z = z.astype(np.longdouble)
    q = -(z * z) / 4.0
    term = np.ones_like(z) if order == 0 else z / 2.0
    total = term.copy()
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * (k + order))
        total += term
    return total.astype(np.float64)


def _bessel_asymptotic(order: int, z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Hankel expansion sqrt(2/(pi z)) (P cos(chi) - Q sin(chi)), chi = z - (2*order+1)pi/4.

    The oscillation is taken at theta = z (mod 2 pi), which a caller that
    knows z only through its reduced phase passes more accurately than z;
    the 1/(8z) series needs z only to relative accuracy.  The phase shift
    by pi/4 (or 3pi/4) is applied through exact trigonometric identities
    instead of subtracting from theta, so no extra argument rounding is
    introduced.
    """
    mu = 4.0 * order * order
    w = 1.0 / (8.0 * z)
    P = np.ones_like(z)
    Q = np.zeros_like(z)
    a = np.ones_like(z)
    for k in range(1, _ASYM_TERMS + 1):
        a = a * (mu - (2.0 * k - 1.0) ** 2) / k * w
        rem = k % 4
        if rem == 0:
            P += a
        elif rem == 1:
            Q += a
        elif rem == 2:
            P -= a
        else:
            Q -= a
    c, s = np.cos(theta), np.sin(theta)
    rsqrt2 = 1.0 / math.sqrt(2.0)
    if order == 0:
        cos_chi = (c + s) * rsqrt2      # cos(z - pi/4)
        sin_chi = (s - c) * rsqrt2
    else:
        cos_chi = (s - c) * rsqrt2      # cos(z - 3pi/4)
        sin_chi = -(c + s) * rsqrt2
    return np.sqrt(2.0 / (np.pi * z)) * (P * cos_chi - Q * sin_chi)


def bessel_j(order: int, z):
    """J_order(z) for order in {0, 1}, finite z >= 0 scalar or array.

    Absolute error <= 1e-10 for z <= 1e6 (see module docstring for the
    behaviour beyond).
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    scalar = np.isscalar(z)
    zz = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if not (np.isfinite(zz) & (zz >= 0)).all():
        raise ValueError("bessel_j requires finite z >= 0")
    out = _bessel_j(order, zz, zz)
    return float(out[0]) if scalar else out


def _bessel_j(order: int, z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """J_order(z) for arrays z >= 0, the asymptotic branch oscillating at
    theta = z (mod 2 pi)."""
    out = np.empty_like(z)
    small = z < BESSEL_SWITCH
    if small.any():
        out[small] = _bessel_series(order, z[small])
    large = ~small
    if large.any():
        out[large] = _bessel_asymptotic(order, z[large], theta[large])
    return out


def bessel_oracle(order: int, z: float) -> float:
    """Independent check of bessel_j via the integral representation.

    J_n(z) = (1/pi) int_0^pi cos(n theta - z sin theta) d theta, evaluated
    by composite 16-point Gauss-Legendre quadrature with panel count scaled
    to z (integrand bandwidth ~ z), trustworthy to ~1e-12 for z <= 1e3.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    if not 0 <= z < math.inf:   # nan fails too
        raise ValueError("bessel_oracle requires finite z >= 0")
    panels = max(8, int(math.ceil(z / 2.0)) + 4)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, math.pi, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    theta = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return float(np.dot(w, np.cos(order * theta - z * np.sin(theta))) / math.pi)


def gauss_sum_sq(k: int, h: int) -> complex:
    """Squared quadratic Gauss sum (sum_{x=1}^{k} e(h x^2 / k))^2: the per-(k, h) oracle.

    Direct O(k) evaluation; the residues h x^2 mod k are reduced in integer
    arithmetic before touching floating point, so each phase is exact to an
    ulp.  Classical values: 0 when k = 2 (mod 4) and chi(k) * k when
    k = 1 (mod 4).  Requires gcd(h, k) = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if gcd(h, k) != 1:
        raise ValueError(f"gauss_sum_sq requires gcd(h, k) = 1, got h={h}, k={k}")
    x = np.arange(1, k + 1, dtype=np.int64)
    residues = (h * (x * x % k)) % k
    inner = np.exp(2j * np.pi * residues / k).sum()
    return complex(inner * inner)


def _gauss_sums_sq(k: int) -> np.ndarray:
    """G(h, k)^2 (`gauss_sum_sq` at coprime h) for h = 1..k at index h - 1, from one FFT (Cooley
    & Tukey, Math. Comp. 19 (1965)): with c(j) = #{x : x^2 = j (mod k)}, G(h, k) = sum_j c(j)
    e(h j / k) is the conjugate of entry h mod k of the DFT of c.  O(k log k), not O(k) per h."""
    x = np.arange(1, k + 1, dtype=np.int64)
    g = np.roll(np.fft.fft(np.bincount(x * x % k, minlength=k)), -1).conj()
    return g * g


def _veltkamp_split(a):
    """(hi, lo) with hi + lo = a exactly and each half at most 26 significant bits."""
    c = (2.0**27 + 1.0) * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, Numer. Math. 18 (1971))."""
    p = a * b
    a_hi, a_lo = _veltkamp_split(a)
    b_hi, b_lo = _veltkamp_split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _reduced_phase(x: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(frac, s0): sqrt(x n) = s0 + corr with s0 = fl(sqrt(fl(x n))), and
    frac = sqrt(x n) - floor(s0), the phase 2 pi sqrt(x n) reduced modulo 2 pi.

    x n = p + e_p and s0^2 = q + e_q are exact two-products, and p - q is
    exact (Sterbenz), so one Newton step recovers corr = sqrt(x n) - s0.
    The integer part of s0 drops out of the phase modulo 2 pi exactly, which
    leaves frac accurate to ~1e-15 however large sqrt(x n) is, while
    x n < 2^53 (n ascending; checked at its last entry).
    """
    p, e_p = _two_product(x, n)
    if p[-1] >= 2.0**53:
        raise ValueError("x*n exceeds 2^53; phase reduction would lose integer exactness")
    s0 = np.sqrt(p)
    q, e_q = _two_product(s0, s0)
    corr = ((p - q) + (e_p - e_q)) / (2.0 * s0)
    return (s0 - np.floor(s0)) + corr, s0


def _cosine_terms(n, rn, frac, root):
    """r(n) n^(-3/4) cos(2 pi sqrt(x n) + pi/4), from the reduced phase frac."""
    return rn * n**-0.75 * np.cos(2.0 * np.pi * frac + math.pi / 4.0)


def _bessel_terms(n, rn, frac, root):
    """r(n) n^(-1/2) J1(2 pi sqrt(x n)): J1 oscillates at the reduced phase frac, and only
    its amplitude reads the double root = sqrt(x n)."""
    return rn / np.sqrt(n) * _bessel_j(1, 2.0 * np.pi * root, 2.0 * np.pi * frac)


# the two series for P(x), each its factor at x and its terms (see `_series`)
_COSINE = (lambda x: -(x**0.25 / math.pi), _cosine_terms)
_BESSEL = (math.sqrt, _bessel_terms)


def _series(tables: ArithTables, x: float, N: int, *series) -> list[float]:
    """Each of series (`_COSINE`, `_BESSEL`) at x to N terms, from one pass over r(0..N):
    each block of `arith._kept_blocks` forms its `_reduced_phase` once, and each series' terms
    go to its exactly rounded sum (`arith._exact_sums`), so every value is the one that series
    has alone, bit for bit.  O(block) scratch, with r streamed unless its table is built."""
    blocks = ((n, rn, *_reduced_phase(x, n)) for n, rn in _kept_blocks(tables._stream("r", N)))
    sums = _exact_sums(blocks, *(terms for _, terms in series))
    return [factor(x) * total for (factor, _), total in zip(series, sums)]


def hardy_partial(tables: ArithTables, x: float, N: int) -> float:
    """N-th partial sum of the Bessel series for P(x):

        sqrt(x) * sum_{n<=N} r(n) n^(-1/2) J1(2 pi sqrt(x n)).

    The full series converges to P(x) boundedly but not absolutely, so
    partial sums oscillate; callers monitor the residual against error_term
    rather than asserting a rate.  Each J1 oscillates at the compensated
    `_reduced_phase` of sqrt(x n): x n < 2^53 at the last n <= N with r(n) != 0.
    """
    if not x >= 1:   # nan fails too
        raise ValueError(f"x must be >= 1, got {x}")
    if N < 0 or N > tables.limit:
        raise ValueError(f"N={N} outside table range [0, {tables.limit}]")
    return _series(tables, x, N, _BESSEL)[0]


def truncated_p(tables: ArithTables, x: float, N: int) -> float:
    """Truncated cosine-sum approximation to P(x):

        -(x^(1/4) / pi) * sum_{n<=N} r(n) n^(-3/4) cos(2 pi sqrt(x n) + pi/4),

    valid for x >= 2 and 2 <= N; the caller interprets the difference from
    error_term(x) as the truncation error, whose envelope decays like
    x^(1/2+eps) N^(-1/2).  Phases use the compensated reduction above; the terms go to one
    exactly rounded sum, a 2^16-entry block of n at a time, r(n) = 0 skipped (O(block) scratch).
    """
    if not x >= 2:   # nan fails too
        raise ValueError(f"x must be >= 2, got {x}")
    if N < 2 or N > tables.limit:
        raise ValueError(f"N={N} outside allowed range [2, {tables.limit}]")
    return _series(tables, x, N, _COSINE)[0]
