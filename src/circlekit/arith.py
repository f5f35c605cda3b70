"""Sieved arithmetic functions and the exact correlation main-term coefficient.

Everything here is exact integer (or rational) arithmetic:

* ``r(n)``      -- number of ways to write n as an ordered sum of two integer
                   squares, counting signs: r(1) = 4 for (+-1, 0), (0, +-1).
* ``d(n)``      -- number of divisors.
* ``sigma(n)``  -- sum of divisors.
* ``g(h)``      -- the coefficient of the linear term in the correlation sum
                   sum_{n<=N} r(n) r(n+h) ~ g(h) N, in closed form (`g_closed`).

Each of r, d and sigma has one kernel that sieves one cache-sized segment
[lo, hi) of it, with scratch that grows at most as sqrt(N): r by counting lattice
points, carrying each column's next b from segment to segment, d and sigma by
pairing divisors with cofactors (d's segments in int16 below 2^28; sigma's in int64
words d(m) 2^s + sigma(m) of the odd m only, so that one pass gives `sieve` both, and
the even n follow by multiplicativity at 2: d(2^e m) = (e + 1) d(m) and
sigma(2^e m) = (2^(e+1) - 1) sigma(m)).  `_segments` runs a kernel over 0..N in
ascending order.  Every command folds them, reading each value once, in order:
`sieve`'s sums; the series, summed exactly by one Python int per series, and
`error-term circle`'s maxima, which change only where P jumps, over
`_kept_blocks`, which skip the n with f(n) = 0 (~80% of r's up to 1e7); the
partial sums at every n behind `error-term divisor`, a single error term, the mean
square and `laplace` over `_block_sums`; `correlate.corr_grid`'s dots.  It takes
the segments from one reused buffer, through `_windows` when it needs aligned
blocks, and holds no table.  `_filled`, the one table builder, fills a
whole table from the same segments for the readers that need random access, none
of them a command: the tests and their oracles in tests/conftest.py, the benchmark's
tracer and bytes-per-entry probe, and the per-layer reports of tools/gates.py.  A command
streams only the functions it reads, and a table is sieved on the first access to
it.  Tables are read-only numpy arrays, safe to share across threads; all query
helpers are read-only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapacityError

_BLOCK = 1 << 16  # entries per scratch buffer and per fold block over a table; of all
                  # results it fixes only mean_square_p's last bit, as block_size(T) a transform's
_SEGMENT = 1 << 19  # table entries per segment of the d sieve (see _d_segment), 2 _SEGMENT
                    # for int16 d (see _d_dtype); it fixes no entry, only the time
_PAIR_SEGMENT = 1 << 18  # int64 words per segment of sigma's packed d and sigma (see
                         # _pair_segment), the same 2 MiB, for the odd n of 2^19; likewise
_R_SEGMENT = 1 << 15  # table entries per segment of the r sieve (see _r_segment); likewise.
                      # 2^16 streams r ~20% faster, but its int64 bincount counts put
                      # `constants r_squared --terms 1e6` at 1.42 MiB traced, past 1 MiB
_PAIR_RUN = 1 << 15  # the longest run of the packed kernel, the length of its pair buffer and
                     # of its ramp's first part (see _pair_segment); likewise
_WORD_BITS = 63   # the value bits of sigma's packed int64 words (see _pack_shift)
_INT32_LIMIT = 2**31  # scratch integers stay int32 while every value they hold is below this
_INT16_LIMIT = 2**15  # and d's segments int16 (see _d_dtype)
_SCALE = 1126   # `_scaled_sum`'s sums are of x 2^_SCALE, an integer for every double x


def _kept_blocks(segments):
    """Yield (n, f(n)) for the n with f(n) != 0, for each (lo, f) of segments, f(n) = f[n - lo]
    (f(0) = 0), one _BLOCK of n at a time: ascending float64 arrays, never empty, fresh for each
    block, so a reader may overwrite them."""
    for lo, f in segments:
        for a in range(0, f.size, _BLOCK):
            g = f[a:a + _BLOCK]
            keep = g != 0
            n = np.arange(lo + a, lo + a + g.size, dtype=np.float64).compress(keep)
            if n.size:
                yield n, g.compress(keep).astype(np.float64)


def _exact_sums(blocks, *terms) -> list[float]:
    """The exactly rounded sum over blocks of each term(*block), a float64 array per block that
    no other term returns.  `_scaled_sum` adds each block's terms into one Python int per term,
    overwriting them, and one int / int division, correctly rounded with ties to even, makes
    it a float.  That is math.fsum's value, as fsum is exactly rounded too (Shewchuk, DCG 18
    (1997)), so no bit depends on the blocks.
    fsum reads one Python float at a time: the divisor series constant to 1e7, its d stream
    included, took ~0.61 s with it and ~0.36 s this way (2-vCPU x86 VM).  No caller's term is
    inf or nan; one raises ValueError or OverflowError in `_scaled_sum`, and a sum past the
    largest double raises OverflowError, as fsum does."""
    totals = [0] * len(terms)
    for block in blocks:
        parts = [term(*block) for term in terms]
        del block   # its arrays are freed before the sums' (held, +0.5 MiB of peak at 1e6)
        totals = [total + _scaled_sum(part) for total, part in zip(totals, parts)]
    return [total / (1 << _SCALE) for total in totals]


def _series_sum(segments, term) -> float:
    """The exactly rounded sum of term(n, f(n)) over the `_kept_blocks` of segments, so no bit
    depends on the segments, the blocks or the skipped zeros (see `_exact_sums`)."""
    return _exact_sums(_kept_blocks(segments), term)[0]


def _scaled_sum(x: np.ndarray) -> int:
    """sum(x) 2^_SCALE, exactly, of at most _BLOCK doubles: Neal's small superaccumulator
    (arXiv:1505.05571), vectorised.  np.frexp writes each x as M 2^(e - 53), M an integer,
    |M| < 2^53 and e >= -1073 (subnormals included), and M = hi 2^26 + lo exactly, |hi| < 2^27,
    |lo| < 2^26.  One np.bincount per half sums them by e; each bin adds at most _BLOCK <= 2^25
    integers, so every partial sum is an integer below 2^52, exact in float64.  The bins then
    go into one Python int at the fixed scale 2^_SCALE, where every term is an integer.  An inf
    or nan term raises OverflowError or ValueError, from int() of its bin.  x, a float64 array
    its caller no longer reads, is overwritten by the M, and e is intp, which bincount reads
    uncopied: e and hi, 1 MiB at 2^16, are the only other scratch, where a fresh M, an int32 e
    and bincount's intp copy of it peaked ~1.8 MiB above x."""
    assert _BLOCK <= 2**25
    if not x.size:
        return 0
    m, e = np.frexp(x, out=(x, np.empty(x.size, np.intp)))
    m *= 2.0**27
    hi = np.trunc(m)
    lo = np.subtract(m, hi, out=m)
    lo *= 2.0**26
    base = int(e.min())
    e -= base
    hi, lo = np.bincount(e, hi), np.bincount(e, lo)
    k = np.flatnonzero(np.logical_or(hi, lo))   # the bins some term reached
    bins = zip(hi[k].tolist(), lo[k].tolist(), k.tolist())
    return sum(((int(h) << 26) + int(l)) << j for h, l, j in bins) << (base + _SCALE - 53)


def _windows(segments, lo: int, hi: int, buf: np.ndarray, keep: int):
    """Yield, for each block [a, b) of [lo, hi), a = lo + k block with block = buf.size - keep
    whatever the segments are, the window buf[:keep + b - a] of f(a - keep..b - 1), f(n) = 0 for
    n < 0, from segments, the ascending (seg_lo, f[seg_lo:]) pieces of f(0..hi - 1) (a built
    table is the one segment (0, table)).  A window's first keep entries are the last keep of
    the one before, as its reader left them: a reader that sums in place carries its sums.  The
    one place a fold copies segment pieces or carries entries; the next window overwrites it."""
    if hi <= lo:
        return
    block, a, k = buf.size - keep, lo, max(keep - lo, 0)   # the block [a, b), buf[:k] filled
    buf[:k] = 0
    for seg_lo, f in segments:
        i = a - keep + k - seg_lo   # f[i] is f(a - keep + k)
        while i < f.size:
            b = min(a + block, hi)
            take = min(keep + b - a - k, f.size - i)
            buf[k:k + take] = f[i:i + take]
            k, i = k + take, i + take
            if k < keep + b - a:   # the window goes on in the next segment
                break
            yield buf[:k]
            if b == hi:
                return
            buf[:keep] = buf[k - keep:k]   # the carry opens the next window
            a, k = b, keep


def _block_sums(segments, lo: int, hi: int, block: int, rows: int = 0, out=None):
    """Yield float64 (n, S) for the blocks [a, b) of [lo, hi): n = a - rows..b and
    S(a - rows)..S(b), S(n) = sum_{m<=n} f(m) >= 0, each the `_windows` window over
    [lo + 1, hi + 1) that keeps the rows and S(a), its f summed in place after them, so no sum
    depends on the segments; the first starts from the int64 sum of f before it.  Integer sums,
    so each float64 add is exact while S < 2^53.  A block whose S(b) reaches 2^53 raises
    CapacityError before it is yielded; rounding is monotone and 2^53 is a double, so that is
    exactly when the true S(b) does.  n and S are buffers the next block overwrites (out's when
    given, each rows + block + 1 long or more): fresh ones per block made a 1e7 fold ~1.8x
    slower (2-vCPU VM).  block has no default, so a patched _BLOCK reaches it."""
    if hi <= lo:
        return
    size = rows + min(block, hi - lo) + 1
    n, S = (np.empty(size), np.empty(size)) if out is None else (buf[:size] for buf in out)
    n[:] = np.arange(lo - rows - block, lo - rows - block + size)   # advanced before each block
    head, j = 0, 0   # the sum of f before the first window; the sums run from S[j]

    def counted(segments):   # the head with no O(lo) array
        nonlocal head
        for seg_lo, f in segments:
            head += int(f[:max(lo - rows - seg_lo, 0)].sum(dtype=np.int64))
            yield seg_lo, f

    for s in _windows(counted(segments), lo + 1, hi + 1, S, rows + 1):
        s[j] += head
        np.cumsum(s[j:], out=s[j:])
        n += block
        if s[-1] >= 2.0**53:
            raise _inexact_sum(s[-1], int(n[s.size - 1]))
        yield n[:s.size], s
        head, j = 0, rows


def _inexact_sum(S, n: int) -> CapacityError:
    """The error for a partial sum S that reached 2^53 by n, past float64's exact integers."""
    return CapacityError(f"partial sums reach {S:.6g} by n={n}; "
                         "float64 sums are exact only below 2^53")


def chi(n: int) -> int:
    """Non-principal Dirichlet character mod 4: +1, 0, -1 for n = 1, 0, 3 (mod 4)."""
    if n < 1:
        raise ValueError(f"chi is defined for n >= 1, got {n}")
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def v2(h: int) -> int:
    """Exponent of the highest power of 2 dividing h (h >= 1)."""
    if h < 1:
        raise ValueError(f"v2 is defined for h >= 1, got {h}")
    return (h & -h).bit_length() - 1


# each table's dtype; `sieve` prints the sum of their sizes as its bytes per entry
_DTYPES = {"r": np.dtype(np.int32), "d": np.dtype(np.int32), "sigma": np.dtype(np.int64)}


class ArithTables:
    """Sieved tables of r, d and sigma for 1..limit, each sieved on first access.

    Arrays are indexed by n (index 0 is unused and zero).  Invariants:
    4 | r(n); r(n) = 0 whenever some prime p = 3 (mod 4) divides n to an
    odd power; d(n) >= 2 and sigma(n) >= n + 1 for n >= 2.

    ``r``, ``d`` and ``sigma`` are cached properties, so a reader sieves only
    the tables it reads; arrays passed in are used as given.  Commands read none:
    they stream f through `_stream`.  A racing first
    access from two threads may sieve a table twice; both get equal arrays.
    """

    def __init__(self, limit: int, r=None, d=None, sigma=None):
        self.limit = limit
        given = {"r": r, "d": d, "sigma": sigma}
        self.__dict__.update((k, v) for k, v in given.items() if v is not None)  # never sieved

    @cached_property
    def r(self) -> np.ndarray:       # int32, r(n) <= 4 d(n) < 2**31 for any feasible limit
        return _filled("r", self.limit)

    @cached_property
    def d(self) -> np.ndarray:
        return _filled("d", self.limit)

    @cached_property
    def sigma(self) -> np.ndarray:   # int64, sigma(n) <= n (1 + ln n)
        return _filled("sigma", self.limit)

    def _stream(self, name: str, N: int):
        """(lo, f) segments of the named table's f(0..N), N <= limit, in ascending order: one
        slice when that table is built or given, else `_segments`, which keeps no table.  For
        r and d: sigma's segments are packed words of the odd n, which `_pair_sums` reads."""
        table = self.__dict__.get(name)
        return _segments(name, N) if table is None else [(0, table[:N + 1])]


def _capacity_error(N: int, dtype) -> CapacityError:
    """Names the (N + 1) entries of the one dtype table being sieved, in KiB rounded up,
    so a small table never reads 0 (integers: a float overflows past N ~ 1e302)."""
    kib = -(-(N + 1) * np.dtype(dtype).itemsize // 1024)
    return CapacityError(f"cannot allocate sieve tables for N={N} "
                         f"(~{kib} KiB needed)", required_limit=N)


def _segments(name: str, N: int, table: np.ndarray | None = None):
    """Yield (lo, f) for the segments [lo, hi) of 0..N in ascending order, f the named stream's
    f(lo..hi-1) from its kernel: `_r_segment` over _R_SEGMENT entries, `_d_segment` over
    _SEGMENT, a streamed d over 2 _SEGMENT while `_d_dtype` makes it int16 (the same 2 MiB), and
    sigma's `_pair_segment` over _PAIR_SEGMENT int64 words (2 MiB again).  sigma's stream is
    those words, d(m) 2^s + sigma(m) with s = `_pack_shift(N)`, of the odd m only: word i of a
    sigma segment is m = lo + 2 i, its segments start at lo = 1 and each covers 2 _PAIR_SEGMENT
    integers.  `_pair_sums` unpacks them, and `_filled` masks each table segment to sigma and
    lifts the even n from them.  f is a buffer that the next segment overwrites; given a table,
    f is table[lo:hi] (sigma's table[lo:hi:2]), each segment sieved straight into the table in
    the table's dtype.  Tables and streams take this one path, so both keep the overflow guard
    of r and d and name N in the CapacityError of a failed allocation: the table's size when
    filling one, else the size of the stream's segment buffers, which its kernel's per-segment
    scratch comes on top of."""
    dtype = _DTYPES[name]
    if name == "d" and table is None:   # a d table is sieved in its own int32
        dtype = _d_dtype(N)
    size = (_R_SEGMENT if name == "r" else _PAIR_SEGMENT if name == "sigma"
            else 2 * _SEGMENT if dtype == np.int16 else _SEGMENT)
    first, step = (1, 2) if name == "sigma" else (0, 1)   # sigma's words are the odd n
    words = min(len(range(first, N + 1, step)), size)
    ramp_size = pair_size = 0   # sigma's ramp and pair buffer (see _pair_segment)
    if name == "sigma":
        shift = _pack_shift(N)
        ramp_size, pair_size = min(N, _PAIR_RUN) + math.isqrt(N) + 1, min(N, _PAIR_RUN)
    try:
        if name == "sigma":
            ramp = np.arange(ramp_size, dtype=dtype)
            ramp <<= 1
            ramp += 2 << shift
            pair = np.empty(pair_size, dtype=dtype)
            kernel = lambda lo, hi, out: _pair_segment(lo, hi, out, ramp, pair, shift)
        elif name == "r":
            nxt = np.ones(math.isqrt(N) + 1, dtype=np.int64)   # each column's next b
            kernel = lambda lo, hi, out: _r_segment(lo, hi, out, nxt)
        else:
            kernel = _d_segment
        buf = None if table is not None else np.empty(words, dtype=dtype)
        for lo in range(first, N + 1, step * size):
            hi = min(lo + step * size, N + 1)
            f = buf[:len(range(lo, hi, step))] if table is None else table[lo:hi:step]
            kernel(lo, hi, f)
            # Overflow guard: r(n) <= 4 d(n) < 2**31 at any feasible N, and an int16 d(n) < 2**15
            # (`_d_dtype`), but check the built maxima.  sigma's words are bounded by `_pack_shift`
            if name != "sigma" and max(int(f.max()), -int(f.min())) >= np.iinfo(dtype).max:
                what = "table" if dtype == _DTYPES[name] else "segment"
                raise CapacityError(f"{np.dtype(dtype)} {what} overflow at N={N}",
                                    required_limit=N)
            yield lo, f
    except MemoryError as exc:
        if table is not None:
            raise _capacity_error(N, _DTYPES[name]) from exc
        kib = -(-(words + ramp_size + pair_size) * np.dtype(dtype).itemsize // 1024)
        raise CapacityError(f"cannot allocate the streamed {name} sieve for N={N} (~{kib} KiB "
                            f"of segment buffers, plus the kernel's scratch)",
                            required_limit=N) from exc


def _filled(name: str, N: int) -> np.ndarray:
    """The named table f(0..N), read-only, every segment of `_segments` left in it.  sigma's
    packed words of the odd m are masked to sigma(m) in place, and each even entry
    n = 2^e m is lifted from table[n >> e] = sigma(m) as sigma(2^e m) = (2^(e+1) - 1) sigma(m),
    one strided multiply per e.  A failed allocation, of the table here or of scratch in the
    fill, is the CapacityError naming N."""
    mask = (1 << _pack_shift(N)) - 1 if name == "sigma" else None
    try:
        table = np.empty(N + 1, dtype=_DTYPES[name])
    except MemoryError as exc:
        raise _capacity_error(N, _DTYPES[name]) from exc
    for _, f in _segments(name, N, table):
        if mask is not None:
            f &= mask
    if mask is not None:
        table[0] = 0
        for e in range(1, N.bit_length()):   # the n = 2^e m, m odd, m <= N >> e
            np.multiply(table[1:(N >> e) + 1:2], (2 << e) - 1, out=table[1 << e::2 << e])
    table.flags.writeable = False
    return table


def _pair_sums(N: int) -> tuple[int, int]:
    """(sum d(n), sum sigma(n)) over n <= N from one pass over sigma's packed stream of the odd
    m, unpacked in place with no other buffer.  Each odd m stands for the n = 2^e m <= N,
    e <= E(m) = floor(log2(N / m)), and d(2^e m) = (e + 1) d(m), sigma(2^e m) =
    (2^(e+1) - 1) sigma(m), so its d(m) counts (E + 1)(E + 2) / 2 times and its sigma(m)
    2^(E+2) - E - 3 times.  A segment is split where E steps, at m = N >> E; each piece's words
    d(m) 2^s + sigma(m) are summed mod 2^64, then shifted down to d(m) and summed, and sigma's
    sum is the difference mod 2^64, exact as a piece's sigma sum is below its size times
    2^s <= 2^64; both are weighted as Python ints.  A limit past `_pack_shift`'s raises its
    CapacityError before any sieving."""
    shift = _pack_shift(N)
    assert min((N + 1) // 2, _PAIR_SEGMENT) << shift <= 2**64
    d_sum = s_sum = 0
    for lo, words in _segments("sigma", N):
        i = 0
        while i < words.size:
            e = (N // (lo + 2 * i)).bit_length() - 1   # E of word i's m
            j = min(words.size, ((N >> e) - lo) // 2 + 1)   # the words to m = N >> e share it
            piece = words[i:j]
            total = int(piece.view(np.uint64).sum())
            d = int(np.right_shift(piece, shift, out=piece).sum())
            d_sum += (e + 1) * (e + 2) // 2 * d
            s_sum += ((4 << e) - e - 3) * ((total - (d << shift)) % 2**64)
            i = j
    return d_sum, s_sum


def _isqrt(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) of each int64 0 <= m < 2^62, exactly.  The truncated float64 root is
    off by at most one (past 2^53, m itself rounds to float64), and one integer step each
    way corrects it; (s + 1)^2 stays below 2^63."""
    s = np.sqrt(m).astype(np.int64)
    s -= s * s > m
    s += (s + 1) * (s + 1) <= m
    return s


def _squares(lo: int, hi: int) -> np.ndarray:
    """The a >= 1 with lo <= a^2 < hi, ascending."""
    return np.arange(math.isqrt(max(lo - 1, 0)) + 1, math.isqrt(max(hi - 1, 0)) + 1)


def _r_segment(lo: int, hi: int, out: np.ndarray, nxt: np.ndarray) -> None:
    """out = r(lo..hi-1) from its definition, r(n) = 4 #{(a, b) : a >= 1, b >= 0, a^2 + b^2 = n},
    given nxt[a], for each column a, the least b >= 1 with a^2 + b^2 >= lo; it leaves there the
    least one with a^2 + b^2 >= hi, so the segments of 0..N must come in ascending order, from
    nxt = 1 (`_segments` keeps it over the columns a <= isqrt(N)).

    Each pair a > b >= 1 stands for (a, b) and (b, a), so it counts twice; the squares a^2
    (b = 0) and the n = 2 a^2 (b = a) count once each.  The segment reads the b-range of every
    a <= sqrt(hi - 2) from nxt and one `_isqrt`, and counts a^2 + b^2 - lo over all its pairs
    with one np.bincount: O(sqrt(hi)) per-a values and ~(pi / 8) (hi - lo) pairs, int32 while
    hi <= _INT32_LIMIT, and no entry outside the segment; the counts are copied into out and
    shifted by 3 in place, and its few squares and 2 a^2 are added one at a time.  At N = 1e7
    on a 2-vCPU x86 VM the stream took ~0.034 s (median of 6 runs interleaved with the old
    kernel), against ~0.047 s with each column's first b from a second `_isqrt` and the
    counts scaled in int64, and ~0.16 s for the divisor form r(n) = 4 sum_{delta | n}
    chi(delta) over the whole table.  See _R_SEGMENT for why the segment stays at 2^15.
    """
    pairs = np.int32 if hi <= _INT32_LIMIT else np.int64   # holds every b, b^2 and a^2 + b^2 - lo
    # a < sqrt(lo / 2) has a^2 + b^2 < 2 a^2 < lo; a^2 + 1 <= hi - 1 for b >= 1
    a0, a1 = max(2, math.isqrt(lo // 2)), math.isqrt(max(hi - 2, 0)) + 1
    a = np.arange(a0, a1, dtype=np.int64)
    a2 = a * a
    b0 = nxt[a0:a1]   # the least b >= 1 with a^2 + b^2 >= lo
    top = _isqrt(hi - 1 - a2)   # the largest b with a^2 + b^2 < hi
    count = np.maximum(np.minimum(a - 1, top) - b0 + 1, 0)
    b = np.arange(int(count.sum()), dtype=pairs)   # pair j of a's run is b0 + j - start
    b -= np.repeat((np.cumsum(count) - count - b0).astype(pairs), count)
    nxt[a0:a1] = top + 1
    b *= b
    b += np.repeat((a2 - lo).astype(pairs), count)
    np.copyto(out, np.bincount(b, minlength=hi - lo), casting="unsafe")
    out <<= 3
    for a in range(math.isqrt(max(lo - 1, 0)) + 1, math.isqrt(hi - 1) + 1):   # lo <= a^2 < hi
        out[a * a - lo] += 4
    for a in range(math.isqrt(max(lo - 1, 0) // 2) + 1, math.isqrt((hi - 1) // 2) + 1):
        out[2 * a * a - lo] += 4   # lo <= 2 a^2 < hi


def _segment_runs(lo: int, hi: int, longest: int, step: int = 1):
    """Yield (delta, k0, k1), the runs of at most longest cofactors k in range(k0, k1, step) of
    each delta whose products delta k lie in the segment [lo, hi): each delta in
    range(1, isqrt(hi - 1) + 1, step), with k from the least k >= max(delta + 1, ceil(lo / delta))
    with k = delta (mod step), so over the segments of 0..N every pair delta < k with
    delta k <= N (both odd when step is 2) is yielded exactly once; a run is never empty."""
    span = longest * step   # the k of a run of longest cofactors
    for delta in range(1, math.isqrt(hi - 1) + 1, step):
        k0, k1 = -(-lo // delta), (hi - 1) // delta + 1
        if k0 <= delta:
            k0 = delta + 1
        k0 += (delta - k0) % step
        while k1 - k0 > span:   # only the deltas below (hi - lo) / span
            yield delta, k0, k0 + span
            k0 += span
        if k0 < k1:
            yield delta, k0, k1


def _d_segment(lo: int, hi: int, out: np.ndarray) -> None:
    """out = d(lo..hi-1) by the divisor pair sieve (Bays & Hudson, BIT 17 (1977)).

    sum_{delta | n} f(delta) = sum_{delta | n, delta < sqrt(n)} (f(delta) + f(n / delta))
    + [n = delta^2] f(delta): each divisor below sqrt(n) pairs with its cofactor, over the
    `_segment_runs` of the segment, and each square adds once.  The segment keeps the adds
    in cache: a whole-table add per delta touches a new cache line per update from delta ~ 16
    and a new page from ~1000, and 2^19 int32 entries, 2 MiB, stay in a 2 MiB L2 (at N = 1e7
    on a 2-vCPU x86 VM a d table took ~0.6 s unsegmented and ~0.26 s so; 2^18 and 2^20 were
    slower than 2^19).  The adds are integer, so their order changes no entry.

    For d every f(delta) is 1: a pair adds 1 + 1, so each run of cofactors k of delta adds 2
    at n = delta k, and each square delta^2 in the segment adds 1: in-place strided adds,
    with no weights array or pair buffer.  A streamed out is int16 while `_d_dtype` allows
    (N below 2^28): 2 MiB at 2^20 entries, so half the segments, and so half the runs, of
    2^19 int32 entries.  At N = 1e7 on a 2-vCPU x86 VM the streamed d took ~0.135 s, against
    ~0.175 s in int32 segments.  A table is int32 and sieved in place, with no int16 buffer.
    """
    out.fill(0)
    for delta, k0, k1 in _segment_runs(lo, hi, _BLOCK):
        out[delta * k0 - lo:delta * (k1 - 1) - lo + 1:delta] += 2
    out[_squares(lo, hi) ** 2 - lo] += 1


def _d_dtype(n: int):
    """The dtype of d's streamed segment buffer for entries up to n >= 1: int16 while
    2 isqrt(n) < _INT16_LIMIT, i.e. n < 2^28, as the divisors of m pair up as delta, m / delta
    with delta <= sqrt(m), so d(m) <= 2 isqrt(m) <= 2^15 - 2.  Past that, int32, as the table."""
    return np.int16 if 2 * math.isqrt(n) < _INT16_LIMIT else np.int32


def _pack_shift(N: int) -> int:
    """The shift s of sigma's packed words d(n) 2^s + sigma(n) for n <= N: the least s with
    N (1 + ln N) < 2^s, as sigma(n) / n = sum_{delta | n} 1 / delta <= H_n <= 1 + ln n (1 + ln n
    exceeds H_n by ~1 - gamma ~ 0.42, so the ~1e-16 relative rounding of the float product
    cannot matter).  No add then carries out of sigma's field, and d(n) <= 2 isqrt(n) must stay
    below 2^(_WORD_BITS - s), so that no word reaches int64's sign bit.  That holds up to
    N = 2^38 - 1 (s = 43 there, d(n) < 2^20); a larger N raises the CapacityError naming that
    largest N, a limit that would take days to stream."""
    def shift(n):
        return int(n * (1 + math.log(n))).bit_length()

    def packs(n):
        return shift(n) < _WORD_BITS and 2 * math.isqrt(n) < 1 << (_WORD_BITS - shift(n))
    if not packs(N):
        lo, hi = 1, N   # packs(n) holds up to some n and fails past it, as s and d(n) grow
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if packs(mid) else (lo, mid)
        raise CapacityError(f"d(n) and sigma(n) pack into one int64 word only for N <= {lo}, "
                            f"not N={N}", required_limit=lo)
    return shift(N)


def _pair_segment(lo: int, hi: int, out: np.ndarray, ramp: np.ndarray, pair: np.ndarray,
                  shift: int) -> None:
    """out[i] = d(m) 2^shift + sigma(m) for the odd m = lo + 2 i in lo..hi-1, lo odd, int64: the
    pair sieve of `_d_segment` with f(delta) = 2^shift + delta, d and sigma in one word per odd m.

    Every divisor of an odd m is odd, so only the `_segment_runs` of step 2 pair up: odd
    delta <= sqrt(hi - 1) with odd cofactors k > delta.  Word (delta k - lo) / 2 takes the pair,
    so a run of cofactors k0, k0 + 2, ... has stride delta, and it adds 2 to d and delta + k to
    sigma: 2^(shift+1) + k0 + delta, 2^(shift+1) + k0 + delta + 2, ..., which is even, read from
    ramp = 2^(shift+1) + (0, 2, 4, ...) with no weights array; each odd square a^2 adds
    2^shift + a.  A run of n words with (k0 + delta) / 2 + n <= ramp.size adds the view
    ramp[(k0 + delta) / 2:][:n] in one strided add.  `_segments` makes pair min(N, _PAIR_RUN)
    long, the longest run, and ramp pair.size + isqrt(N) + 1, which takes in every
    delta >= N / (2 _PAIR_RUN), as then k <= N / delta <= 2 pair.size and delta <= isqrt(N).
    The cofactors of the smaller deltas run up to N / delta, past any ramp that does not grow
    with N, so their runs form ramp[:n] + (k0 + delta) in the pair buffer first (one contiguous
    add).  Both are int64, ~0.5 MiB together at N = 1e7.  `_pack_shift` keeps the two fields
    apart.  One strided add per run serves both functions, and the even n follow from the odd
    by multiplicativity at 2 (see `_pair_sums` and `_filled`): at N = 1e7, 22,490 runs of
    22.1 million pairs, against 85,161 runs of 81.4 million over every n.  There, on a 2-vCPU
    x86 VM, `_pair_sums` took ~0.07 s (median of 7), against ~0.23 s over the words of every n
    and ~0.34 s as two kernels, int16 d and int32 sigma.  A stream of d alone (`error-term`,
    `laplace`, `constants` divisor) keeps `_d_segment`, which reads d at every n.
    """
    out.fill(0)
    for delta, k0, k1 in _segment_runs(lo, hi, pair.size, 2):
        n, i, j = (k1 - k0 + 1) >> 1, (delta * k0 - lo) >> 1, (k0 + delta) >> 1
        run = out[i:i + delta * (n - 1) + 1:delta]
        if j + n <= ramp.size:
            run += ramp[j:j + n]
        else:
            run += np.add(ramp[:n], k0 + delta, out=pair[:n])
    a = np.arange((math.isqrt(lo - 1) + 1) | 1, math.isqrt(hi - 1) + 1, 2)   # lo <= a^2 < hi, a odd
    out[(a * a - lo) >> 1] += a + (1 << shift)


def build_tables(N: int) -> ArithTables:
    """Tables of r, d and sigma up to N (inclusive): N is checked now, and each
    table is sieved when first read (see `ArithTables`)."""
    if N < 1:
        raise ValueError(f"sieve limit must be >= 1, got {N}")
    if (N + 1) * 8 > np.iinfo(np.intp).max:   # no numpy array can hold the int64 sigma table
        raise _capacity_error(N, np.int64)
    return ArithTables(limit=N)


def r_single(n: int) -> int:
    """r(n) for a single n by trial-division factorisation.

    Uses the multiplicative structure of r/4: each prime p = 1 (mod 4) with
    exponent e contributes a factor e + 1; any prime p = 3 (mod 4) with odd
    exponent kills the count; powers of 2 contribute nothing.  Intended for
    spot checks above the sieve limit.
    """
    if n < 1:
        raise ValueError(f"r_single is defined for n >= 1, got {n}")
    m = n >> v2(n)
    out = 4
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if p % 4 == 1:
                out *= e + 1
            elif e % 2 == 1:
                return 0
        p += 2
    if m > 1:  # leftover prime factor
        if m % 4 == 1:
            out *= 2
        else:
            return 0
    return out


def g_closed(h: int) -> Fraction:
    """Main-term coefficient g(h) in closed form: (8/h) |2^(k+1) - 3| sigma(h / 2^k).

    k is the 2-adic valuation of h.  Exact rational; the denominator always
    divides h.
    """
    if h < 1:
        raise ValueError(f"g_closed is defined for h >= 1, got {h}")
    k = v2(h)
    H = h >> k
    return Fraction(8 * abs(2 ** (k + 1) - 3) * _sigma_single(H), h)


def _sigma_single(n: int) -> int:
    """sigma(n) by trial division: each divisor i <= sqrt(n) with its cofactor n // i, a
    square root once."""
    s = math.isqrt(n)
    return sum(i + n // i for i in range(1, s + 1) if n % i == 0) - (s if s * s == n else 0)
