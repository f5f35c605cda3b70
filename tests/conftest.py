import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from circlekit import arith, lattice

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
