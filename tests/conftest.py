import math
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from circlekit import arith, correlate, lattice

LIMIT_1M = 1_001_024

property_test = settings(deadline=None, derandomize=True)   # the same examples on every run


@pytest.fixture(scope="session")
def tables_4k():
    return arith.build_tables(4000)


@pytest.fixture(scope="session")
def tables_120k():
    return arith.build_tables(120_000)


@pytest.fixture(scope="session")
def tables_1m():
    # Covers the transform scans (x_max ~ 2.1e5 at T = 8192), the truncated
    # formula at x = 1e6 + 0.5, and correlation grids N = 1e6, h <= 1000.
    return arith.build_tables(LIMIT_1M)


@pytest.fixture(scope="session")
def circle_1m(tables_1m):
    return lattice.step_profile(tables_1m, lattice.CIRCLE)


@pytest.fixture(scope="session")
def divisor_1m(tables_1m):
    return lattice.step_profile(tables_1m, lattice.DIVISOR)


@pytest.fixture(scope="session")
def circle_4k(tables_4k):
    return lattice.step_profile(tables_4k, lattice.CIRCLE)


@pytest.fixture(scope="session")
def divisor_4k(tables_4k):
    return lattice.step_profile(tables_4k, lattice.DIVISOR)


def brute_r(n: int) -> int:
    """Lattice-point count of a^2 + b^2 = n by direct enumeration."""
    count = 0
    for a in range(-math.isqrt(n), math.isqrt(n) + 1):
        rem = n - a * a
        s = math.isqrt(rem)
        if s * s == rem:
            count += 2 if s > 0 else 1
    return count


def brute_divisors(n: int) -> list[int]:
    """Divisors of n in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


# O(sqrt N) integer counts of the table sums, independent of any sieve.

def lattice_count(N: int) -> int:
    """sum_{n<=N} r(n): points with 0 < a^2 + b^2 <= N, counted by columns a."""
    s = math.isqrt(N)
    return sum(2 * math.isqrt(N - a * a) + 1 for a in range(-s, s + 1)) - 1


def p_60_digits(x: float, S: int, final: int = 0) -> Decimal:
    """P(x) = S - final/2 - pi x + 1 at 60 digits, S = sum_{n<=x} r(n) and final = r(x) at an
    integer x."""
    with localcontext(Context(prec=60)):
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        return Decimal(S) - Decimal(final) / 2 - pi * Decimal(x) + 1


def hyperbola_count(N: int) -> int:
    """sum_{n<=N} d(n): points with a b <= N, by the Dirichlet hyperbola method."""
    s = math.isqrt(N)
    return 2 * sum(N // k for k in range(1, s + 1)) - s * s


def sigma_count(N: int) -> int:
    """sum_{n<=N} sigma(n) = sum_{k<=N} k floor(N/k), summed over the blocks of
    k where floor(N/k) is constant."""
    total, lo = 0, 1
    while lo <= N:
        q = N // lo
        hi = N // q
        total += q * (lo + hi) * (hi - lo + 1) // 2
        lo = hi + 1
    return total


# Oracles: the independent references the library's results are checked against.

def p_gauss_oracle(x: float) -> float:
    """P(x) = lattice_count(floor(x)) - pi x + 1, as a^2 + b^2 <= x iff a^2 + b^2 <= floor(x).
    Exact at the count; meant for non-integer x (the primed halving at integers is
    deliberately not replicated) and x small enough for the O(sqrt(x)) loop."""
    if not 0 <= x < math.inf:   # nan fails too
        raise ValueError(f"x must be finite and >= 0, got {x}")
    return lattice_count(math.floor(x)) - math.pi * x + 1.0


def g_direct(h: int) -> Fraction:
    """g(h) = ((-1)^h 8 / h) sum_{d | h} (-1)^d d by direct divisor enumeration, equal to
    arith.g_closed(h) for every h."""
    if h < 1:
        raise ValueError(f"g_direct is defined for h >= 1, got {h}")
    s = sum(-d if d % 2 else d for d in brute_divisors(h))
    return Fraction((-8 if h % 2 else 8) * s, h)


def divisor_sieve(weights: np.ndarray) -> np.ndarray:
    """out[n] = sum_{delta | n} weights[delta] for n in 1..N, in the dtype of weights: the pair
    sieve of `arith._d_segment` with any weights, over arith._SEGMENT-entry segments of one
    table, a run's pair sums through one buffer of at most arith._BLOCK entries.  The segment
    and block sizes and `arith._segment_runs` are read at call time, so a test that patches
    them reaches this sieve too."""
    N, segment, block = len(weights) - 1, arith._SEGMENT, arith._BLOCK
    out = np.zeros(N + 1, dtype=weights.dtype)
    pair = np.empty(min(N, block), dtype=weights.dtype)
    for lo in range(0, N + 1, segment):
        for delta, k0, k1 in arith._segment_runs(lo, min(lo + segment, N + 1), block):
            out[delta * k0:delta * (k1 - 1) + 1:delta] += np.add(weights[k0:k1], weights[delta],
                                                                 out=pair[:k1 - k0])
    squares = np.arange(1, math.isqrt(N) + 1)
    out[squares ** 2] += weights[squares]
    return out


def g_identity_first_failure(limit: int) -> int | None:
    """The first h <= limit with g_direct(h) != arith.g_closed(h), or None: both sides sieved
    independently, the direct form by `divisor_sieve` of (-1)^d d, the closed form from the
    sigma table and 2-adic valuations, and compared as integers with the common denominator
    h cleared."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    w = np.arange(0, limit + 1, dtype=np.int64)
    w[1::2] *= -1
    t_alt = divisor_sieve(w)  # sum_{d|h} (-1)^d d
    sigma = arith._filled("sigma", limit)
    h = np.arange(1, limit + 1, dtype=np.int64)
    lowbit = h & -h
    k = np.log2(lowbit.astype(np.float64)).astype(np.int64)  # exact: lowbit is a power of 2
    lhs = np.where(h % 2 == 0, t_alt[1:], -t_alt[1:])        # (-1)^h sum (-1)^d d
    rhs = np.abs(2 * lowbit - 3) * sigma[h >> k]             # |2^(k+1)-3| sigma(h/2^k)
    bad = np.nonzero(lhs != rhs)[0]
    return int(bad[0]) + 1 if bad.size else None


def corr_sum(tables, N: int, h: int) -> int:
    """Exact integer sum_{n<=N} r(n) r(n+h) from r's table; needs N + h <= tables.limit."""
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


def e_term(tables, N: int, h: int) -> correlate.CorrelationRecord:
    """The correlation record of `corr_sum`, with exact main term g(h) N and E = raw - main."""
    return correlate._record(N, h, corr_sum(tables, N, h))


def bessel_oracle(order: int, z: float) -> float:
    """J_order(z) = (1/pi) int_0^pi cos(order theta - z sin theta) d theta, by composite
    16-point Gauss-Legendre quadrature with panel count scaled to z (integrand bandwidth
    ~ z), trustworthy to ~1e-12 for z <= 1e3."""
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


def partial_sums(table):
    """S(n) = sum_{m<=n} f(m) for every n of a table: the one oracle of a profile's sums."""
    return np.cumsum(table, dtype=np.int64)


def traced_peak(fn):
    """Peak bytes tracemalloc sees fn() allocate above what was allocated before it
    (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
