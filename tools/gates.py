#!/usr/bin/env python3
"""CI's three gates at N = 1e8 and its two per-layer reports, one function each.

    python3 tools/gates.py NAME

NAME is one of:

    sieve              `circlekit sieve --limit 1e8`: its sums of r, d and sigma must equal
                       the O(sqrt N) counts of tests/conftest.py
    error-term         `circlekit error-term KIND --x-max 1e8 --samples 64`, KIND circle and
                       divisor: the CSV must hold 64 rows, each value within 1e-6 of P(x) or
                       Delta(x) from those counts
    correlate          `circlekit correlate --n 1e8 --h-max 10`: each raw must equal the sum
                       recounted here from r's segment stream, each main N g_closed(h)
    report-sieves      the wall time and tracemalloc peak of r, d and sigma at 1e7, each as a
                       table and as the streamed fold that `sieve` runs (for sigma, the sums
                       of d and sigma from the packed words of the odd n)
    report-transforms  laplace_p2 and laplace_d2 per T over the transform benchmark's T lists,
                       then residual_scan over each list in one pass

A gate runs its command in a child process (`python -m circlekit.cli`, circlekit from src/).
It passes when its check holds and each child's peak RSS is at most 64 MiB, where r's table
alone would take ~0.4 GB at 1e8: it exits 0, else 1 with what failed.  A report only prints.
The checks need the test extras, as tests/conftest.py imports pytest and hypothesis.

The command line takes only NAME; the sizes are the functions' arguments, which the tests
set small.  No gate imports numpy, circlekit or conftest before its last child has exited:
a child's peak RSS also counts the pages of the parent it was started from.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]   # circlekit and conftest, for the checks
LIMIT_MIB = 64


def _child(*args: str) -> tuple[str, float, float]:
    """Run `python -m circlekit.cli ARGS` to its end, circlekit from src/: its stdout, its own
    peak RSS in MiB (os.wait4's ru_maxrss, KiB on Linux, of this child alone) and its wall
    time in s.  A nonzero exit raises CalledProcessError."""
    command = [sys.executable, "-m", "circlekit.cli", *args]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, command, out)
    return out, usage.ru_maxrss / 1024, wall


def _verdict(check: str, ok: bool, mib: float) -> str | None:
    """None when the check holds and the child peaked within LIMIT_MIB, else what failed."""
    if ok and mib <= LIMIT_MIB:
        return None
    return f"{check}: {ok}; peak RSS {mib:.1f} MiB (limit {LIMIT_MIB})"


def sieve(N: int = 10**8) -> str | None:
    """sieve folds each table segment by segment and holds none, where a whole sigma table
    alone would take ~0.8 GB at 1e8.  Its wall time is a report, not a gate: the d and sigma
    kernels are most of it."""
    out, mib, wall = _child("sieve", "--limit", str(N))
    print(out, end="")
    print(f"peak RSS {mib:.1f} MiB")
    print(f"wall time {wall:.2f} s (report only, not a gate)")
    return _verdict("sums exact", sieve_sums_exact(out, N), mib)


def sieve_sums_exact(out: str, N: int) -> bool:
    """Whether sieve's stdout to N prints the sums of r, d and sigma that conftest counts."""
    from conftest import hyperbola_count, lattice_count, sigma_count
    got = dict(line.rsplit(None, 1) for line in out.splitlines())
    return (int(got["sum r(n)"]) == lattice_count(N) and int(got["sum d(n)"]) == hyperbola_count(N)
            and int(got["sum sigma(n)"]) == sigma_count(N))


def error_term(N: int = 10**8) -> str | None:
    """error-term folds r's or d's segments and holds no table, one child per kind."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("circle", "divisor"):
            path = Path(tmp) / f"{kind}.csv"
            out, mib, _ = _child("error-term", kind, "--x-max", str(N), "--samples", "64",
                                 "--out", str(path))
            print(out, end="")
            print(f"{kind}: peak RSS {mib:.1f} MiB")
            runs[kind] = path.read_text(encoding="utf-8"), mib
    failed = [f"{kind}: {verdict}" for kind, (text, mib) in runs.items()
              if (verdict := _verdict("values within 1e-6", error_term_exact(kind, text), mib))]
    return "\n".join(failed) or None


def error_term_exact(kind: str, text: str) -> bool:
    """Whether error-term's CSV holds 64 rows, each value within 1e-6 of the error term from
    conftest's count: the final term halved at integer x, the main term formed as
    lattice._error_from_sums forms it."""
    from conftest import hyperbola_count, lattice_count
    from circlekit.lattice import EULER_GAMMA
    count, error = {
        "circle": (lattice_count, lambda s, x: s - math.pi * x + 1),
        "divisor": (hyperbola_count,
                    lambda s, x: s - x * (math.log(x) + 2.0 * EULER_GAMMA - 1.0) - 0.25),
    }[kind]

    def exact(x):
        k = math.floor(x)
        s = count(k)
        final = (s - count(k - 1)) / 2 if x == k else 0
        return error(s - final, x)

    rows = [(float(row["x"]), float(row["value"])) for row in csv.DictReader(io.StringIO(text))]
    worst = max((abs(value - exact(x)) for x, value in rows), default=math.inf)
    print(f"{kind}: {len(rows)} rows, largest |value - exact| {worst:.3g}")
    return len(rows) == 64 and worst <= 1e-6


def correlate(N: int = 10**8, H: int = 10) -> str | None:
    """correlate folds r's segment stream, carrying H entries from block to block, and holds
    no table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corr.csv"
        out, mib, _ = _child("correlate", "--n", str(N), "--h-max", str(H), "--out", str(path))
        text = path.read_text(encoding="utf-8")
    print(out, end="")
    print(f"peak RSS {mib:.1f} MiB")
    return _verdict("raw and main exact", correlate_exact(text, N, H), mib)


def correlate_exact(text: str, N: int, H: int) -> bool:
    """Whether correlate's CSV holds the rows h = 1..H at N, each raw the sum `raw_sums`
    recounts and each main N g_closed(h)."""
    from circlekit import arith
    rows = list(csv.DictReader(io.StringIO(text)))
    ok = ([(int(row["N"]), int(row["h"]), int(row["raw"])) for row in rows]
          == [(N, h, raw) for h, raw in enumerate(raw_sums(N, H), 1)]
          and all(Fraction(row["main"]) == N * arith.g_closed(int(row["h"])) for row in rows))
    print(f"{len(rows)} rows; raw and main exact: {ok}")
    return ok


def raw_sums(N: int, H: int) -> list[int]:
    """sum_{n<=N} r(n) r(n + h) for h = 1..H, from r's segments with no table: each segment in
    int64 behind the H entries carried from before it.  The segments fill r's table too, so
    this checks correlate's fold of them, and the sieve gate checks r itself."""
    import numpy as np
    from circlekit import arith
    raws = [0] * H
    window = np.zeros(H, dtype=np.int64)   # r(lo - H .. lo - 1), and r(n) = 0 at n <= 0
    for lo, f in arith._segments("r", N + H):
        window = np.concatenate((window[-H:], f))   # r(lo - H .. lo + f.size - 1)
        for h in range(1, H + 1):
            m = min(f.size, N + h + 1 - lo)   # the pairs (n, n + h), n + h in f and n <= N
            if m > 0:
                raws[h - 1] += int(np.dot(window[H - h:H - h + m], window[H:H + m]))
    return raws


def _wall(call, repeats: int = 1) -> float:
    """The least wall time of repeats calls, in s."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        walls.append(time.perf_counter() - start)
    return min(walls)


def _traced_mib(call) -> float:
    """The tracemalloc peak of one more call, in MiB."""
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def report_sieves(N: int = 10**7) -> None:
    """Each table's sieve, then the streamed fold that sieve runs, with no table held: for r
    and d the sum over the table's segments, for sigma `arith._pair_sums`, the sums of d and
    sigma from the packed words of the odd n (whose raw sum is neither)."""
    from circlekit import arith
    for name in ("r", "d", "sigma"):
        table = lambda: getattr(arith.build_tables(N), name)
        fold = ((lambda: arith._pair_sums(N)) if name == "sigma" else
                lambda: sum(int(f.sum(dtype="int64")) for _, f in arith._segments(name, N)))
        print(f"{name} at N = {N}: " + "; ".join(
            f"{what} {_wall(build):.3f} s, tracemalloc peak {_traced_mib(build):.1f} MiB"
            for what, build in (("table", table), ("streamed fold", fold))))


def report_transforms(t_max: float = 32768.0) -> None:
    """laplace_p2 over T = 64, 128, ..., t_max and laplace_d2 over 128, ..., t_max, each T the
    best of 3 one-T scans, on one table built to the last stop edge of the two lists' scans;
    then residual_scan over each whole list in one pass on a streamed profile (no table), the
    best of 3, and its tracemalloc peak."""
    from circlekit import arith, laplace, lattice
    lists = {kind: [first * 2.0**k for k in range(int(math.log2(t_max / first)) + 1)]
             for kind, first in ((lattice.CIRCLE, 64), (lattice.DIVISOR, 128))}
    limit = max(laplace._streamed_scan(kind, Ts, laplace.DEFAULT_REL_TOL)[1]
                for kind, Ts in lists.items())
    tables = arith.build_tables(limit)
    for (kind, Ts), transform in zip(lists.items(), (laplace.laplace_p2, laplace.laplace_d2)):
        profile = lattice.step_profile(tables, kind)
        getattr(tables, lattice._table_name(kind))   # built here, outside the timed calls
        walls = [_wall(lambda: transform(profile, T), 3) for T in Ts]
        print(f"{transform.__name__} at limit {limit}: {sum(walls):.4f} s over {len(Ts)} T; "
              + ", ".join(f"T={T:g} {wall:.4f} s" for T, wall in zip(Ts, walls)))

        def scan():
            laplace.residual_scan(lattice.step_profile(arith.build_tables(limit), kind), Ts)
        print(f"residual_scan {kind} over the {len(Ts)} T in one pass, streamed: "
              f"{_wall(scan, 3):.4f} s, tracemalloc peak {_traced_mib(scan):.1f} MiB")


NAMES = {"sieve": sieve, "error-term": error_term, "correlate": correlate,
         "report-sieves": report_sieves, "report-transforms": report_transforms}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in NAMES:
        print(f"usage: python3 tools/gates.py {{{','.join(NAMES)}}}", file=sys.stderr)
        sys.exit(2)
    sys.exit(NAMES[sys.argv[1]]())
