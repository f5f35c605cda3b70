"""Self-tests for the benchmark's checks.

    python3 perfbench/selftest.py

1. Each independent formula in oracles.py matches brute force at small N.
2. Small versions of the workloads pass every check.
3. Corrupted outputs (one altered CSV cell, one wrong checksum, a nonzero
   exit code, a pass whose CSV differs) drive fail_frac above 0.
Exits 1 if any test fails.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import checks
import oracles
import run
import workloads

SMALL = {
    "sieve": {"limit": 20_000, "x_max": 20_000, "samples": 16, "terms": 20_000},
    "transform": workloads.PARAMS["transform"],   # the A1 fit needs the full T range
    "corr-gauss": {"n": 10_000, "h_max": 50, "k_max": 60},
}
RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    RESULTS.append((name, bool(ok)))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def brute_r(n: int) -> int:
    a_max = math.isqrt(n)
    return sum(1 for a in range(-a_max, a_max + 1) for b in range(-a_max, a_max + 1)
               if a * a + b * b == n)


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_oracles() -> None:
    N = 400
    r = [brute_r(n) for n in range(N + 1)]
    expect("lattice_count = brute count of a^2+b^2 <= m",
           all(oracles.lattice_count(m) == sum(r[: m + 1]) for m in range(N + 1)))
    expect("sum_r = brute sum of r", all(oracles.sum_r(n) == sum(r[1 : n + 1]) for n in range(1, N + 1)))
    expect("sum_d (hyperbola) = brute sum of d",
           all(oracles.sum_d(n) == sum(len(brute_divisors(k)) for k in range(1, n + 1))
               for n in range(1, 200)))
    expect("sum_sigma (block sum) = brute sum of sigma",
           all(oracles.sum_sigma(n) == sum(sum(brute_divisors(k)) for k in range(1, n + 1))
               for n in range(1, 200)))
    expect("r_table = brute r", list(oracles.r_table(N)[1:]) == r[1:])
    xs = [1.0, 2.5, 25.0, 50.0, 99.999, 100.0, 250.5, 325.0]
    expect("p_error = brute primed P(x)", all(
        abs(oracles.p_error(x) - (sum(r[1 : math.floor(x) + 1])
                                  - (r[int(x)] / 2 if x == int(x) else 0) - math.pi * x + 1)) < 1e-9
        for x in xs))
    expect("g_direct = brute alternating divisor sum", all(
        oracles.g_direct(h) == Fraction((-1) ** h * 8 * sum((-1) ** d * d for d in brute_divisors(h)), h)
        for h in range(1, 300)))
    for residue in (1, 2):
        phi_sum = sum(_phi(k) for k in range(1, 121) if k % 4 == residue)
        expect(f"coprime_pairs(k=4m+{residue}) = sum of Euler phi", oracles.coprime_pairs(120, residue) == phi_sum)


def _phi(k: int) -> int:
    """Euler's totient by trial-division factorisation."""
    out, m, p = k, k, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    return out - out // m if m > 1 else out


def run_small(circlekit, name: str, out_dir, passes: int = 2) -> list[dict]:
    cmds = workloads.commands(name, SMALL[name], out_dir)
    return [workloads.run_pass(circlekit.cli.main, cmds)[1] for _ in range(passes)]


def fail_frac(circlekit, name: str, outputs: list[dict], seed: int = 1) -> float:
    p = SMALL[name]
    ck = checks.run_checks(name, p, outputs, workloads.spot_samples(name, p, seed),
                           circlekit.arith.r_single)
    return len(ck.failures) / ck.attempted


def altered(outputs: list[dict], index: int, key: str, **changes) -> list[dict]:
    out = [dict(o) for o in outputs]
    out[index][key] = dataclasses.replace(out[index][key], **changes)
    return out


def alter_cell(csv: bytes, row: int, col: int) -> bytes:
    lines = csv.decode().split("\n")
    cells = lines[row].split(",")
    cell = cells[col]
    cells[col] = str(int(cell) + 4) if cell.lstrip("-").isdigit() else repr(float(cell) + 0.75)
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


def test_workloads(circlekit, out_dir) -> None:
    runs = {name: run_small(circlekit, name, out_dir) for name in SMALL}
    for name, outputs in runs.items():
        for seed in (1, 2):
            expect(f"{name}: clean outputs, seed {seed}, fail_frac = 0",
                   fail_frac(circlekit, name, outputs, seed) == 0.0)

    sieve = runs["sieve"]
    so = sieve[0]["sieve"].stdout
    wrong = so.replace(f"sum r(n)         {oracles.sum_r(SMALL['sieve']['limit'])}",
                       f"sum r(n)         {oracles.sum_r(SMALL['sieve']['limit']) + 4}")
    expect("sieve: corruption applied", wrong != so)
    bad = altered(altered(sieve, 0, "sieve", stdout=wrong), 1, "sieve", stdout=wrong)
    expect("sieve: wrong checksum in every pass -> fail_frac > 0", fail_frac(circlekit, "sieve", bad) > 0)

    cell = alter_cell(sieve[0]["error-term"].csv, 5, 1)
    bad = altered(altered(sieve, 0, "error-term", csv=cell), 1, "error-term", csv=cell)
    expect("sieve: altered error-term cell in every pass -> fail_frac > 0",
           fail_frac(circlekit, "sieve", bad) > 0)
    bad = altered(sieve, 1, "error-term", csv=cell)
    expect("sieve: CSV differing from pass 0 -> fail_frac > 0", fail_frac(circlekit, "sieve", bad) > 0)
    bad = altered(sieve, 0, "constants", rc=1)
    expect("sieve: nonzero exit code -> fail_frac > 0", fail_frac(circlekit, "sieve", bad) > 0)

    corr = runs["corr-gauss"]
    p = SMALL["corr-gauss"]
    h = workloads.spot_samples("corr-gauss", p, 1)["h"][0]
    cell = alter_cell(corr[0]["correlate"].csv, h, 2)     # raw of a re-dotted lag
    bad = altered(altered(corr, 0, "correlate", csv=cell), 1, "correlate", csv=cell)
    expect(f"corr-gauss: altered raw at h={h} -> fail_frac > 0", fail_frac(circlekit, "corr-gauss", bad) > 0)

    tr = runs["transform"]
    cell = alter_cell(tr[0]["laplace-divisor"].csv, 2, 2)  # truncation_bound
    bad = altered(altered(tr, 0, "laplace-divisor", csv=cell), 1, "laplace-divisor", csv=cell)
    expect("transform: altered truncation_bound -> fail_frac > 0", fail_frac(circlekit, "transform", bad) > 0)
    bad = altered(altered(tr, 0, "laplace-circle", csv=None), 1, "laplace-circle", csv=None)
    expect("transform: missing CSV -> fail_frac > 0", fail_frac(circlekit, "transform", bad) > 0)


def main() -> int:
    circlekit = run.import_circlekit()
    test_oracles()
    run.OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=run.OUT_ROOT))
    try:
        test_workloads(circlekit, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            run.OUT_ROOT.rmdir()
        except OSError:
            pass
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
