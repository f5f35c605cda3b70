"""Independent reference values for the benchmark's output checks.

Nothing here imports circlekit: each formula reaches the same quantity by a
different route than the package does, so a check that passes is evidence
rather than a re-run of the same code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def lattice_count(m: int) -> int:
    """#{(a, b) in Z^2 : a^2 + b^2 <= m}, origin included, in O(sqrt m)."""
    if m < 0:
        return 0
    a_max = math.isqrt(m)
    half = sum(2 * math.isqrt(m - a * a) + 1 for a in range(1, a_max + 1))
    return 2 * half + 2 * a_max + 1


def r_of(n: int) -> int:
    """r(n) as the difference of two lattice counts."""
    return lattice_count(n) - lattice_count(n - 1)


def p_error(x: float) -> float:
    """P(x) = sum'_{1<=n<=x} r(n) - pi x + 1, the final term halved at integer x."""
    m = math.floor(x)
    s = float(lattice_count(m) - 1)
    if x == m:
        s -= r_of(m) / 2.0
    return s - math.pi * x + 1.0


def sum_r(n: int) -> int:
    """sum_{1<=k<=n} r(k): the lattice points of the disk minus the origin."""
    return lattice_count(n) - 1


def sum_d(n: int) -> int:
    """sum_{k<=n} d(k) by the Dirichlet hyperbola: 2 sum_{k<=sqrt n} floor(n/k) - floor(sqrt n)^2."""
    s = math.isqrt(n)
    return 2 * sum(n // k for k in range(1, s + 1)) - s * s


def sum_sigma(n: int) -> int:
    """sum_{k<=n} sigma(k) = sum_{k<=n} k floor(n/k), summed over blocks of equal floor(n/k)."""
    total = 0
    lo = 1
    while lo <= n:
        q = n // lo
        hi = n // q
        total += q * (lo + hi) * (hi - lo + 1) // 2
        lo = hi + 1
    return total


def r_table(limit: int) -> np.ndarray:
    """r(0..limit) (index 0 left at zero) by binning the lattice points of one quadrant.

    The points with a >= 1, b >= 0 are one of four rotated copies of the
    nonzero lattice points, so r(n) is four times their count on a^2 + b^2 = n.
    """
    a = np.arange(1, math.isqrt(limit) + 1, dtype=np.int64)
    b_max = np.array([math.isqrt(limit - int(v) * int(v)) for v in a], dtype=np.int64)
    lengths = b_max + 1
    starts = np.cumsum(lengths) - lengths
    b = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)
    a_rep = np.repeat(a, lengths)
    return 4 * np.bincount(a_rep * a_rep + b * b, minlength=limit + 1).astype(np.int64)


def g_direct(h: int) -> Fraction:
    """g(h) = ((-1)^h 8 / h) sum_{d | h} (-1)^d d, by trial division."""
    s = 0
    d = 1
    while d * d <= h:
        if h % d == 0:
            for e in {d, h // d}:
                s += e if e % 2 == 0 else -e
        d += 1
    return Fraction((-1 if h % 2 else 1) * 8 * s, h)


def coprime_pairs(k_max: int, residue: int) -> int:
    """#{(k, h) : k <= k_max, k = residue (mod 4), 1 <= h <= k, gcd(h, k) = 1}."""
    return sum(
        1
        for k in range(1, k_max + 1)
        if k % 4 == residue
        for h in range(1, k + 1)
        if math.gcd(h, k) == 1
    )
