"""Output checks behind `fail_frac`.

Each check compares what the CLI printed or wrote with a value reached
independently (see oracles.py).  A check that raises while parsing counts
as one failed check, so a malformed or missing output can never pass.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import numpy as np

import oracles

A1_EXPECTED = -1.0 / (4.0 * math.pi**2)
A1_REL_TOL = 0.25
P_ABS_TOL = 1e-6        # P(x) from the CSV vs the lattice count; a counting error is >= 0.5
VORONOI_ABS_TOL = 1e-8  # "P(x) exact" prints 12 decimals


class Checker:
    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def check(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))

    @contextlib.contextmanager
    def section(self, name: str):
        try:
            yield
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError,
                AttributeError, UnicodeDecodeError) as exc:
            self.results.append((f"{name}: {type(exc).__name__}: {exc}", False))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def field(stdout: str, prefix: str) -> str:
    """The text after ``prefix`` on the first stdout line that starts with it."""
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise KeyError(f"no line starting with {prefix!r}")


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = [line.split(",") for line in lines[:-1]]
    return rows[0], rows[1:]


def doubling(lo: float, hi: float) -> list[float]:
    out, t = [], float(lo)
    while t <= hi:
        out.append(t)
        t *= 2
    return out


def check_passes(ck: Checker, passes: list[dict]) -> None:
    """Every command exits 0 in every pass and repeats the first pass's bytes."""
    first = passes[0]
    for i, outputs in enumerate(passes):
        for key, out in outputs.items():
            why = f": {out.stderr.strip()[:200]}" if out.rc else ""
            ck.check(f"pass {i} {key}: exit code {out.rc}{why}", out.rc == 0)
            if i:
                ck.check(f"pass {i} {key}: stdout repeats pass 0", out.stdout == first[key].stdout)
                if first[key].csv is not None or out.csv is not None:
                    ck.check(f"pass {i} {key}: CSV repeats pass 0", out.csv == first[key].csv)


def check_sieve(ck: Checker, p: dict, out: dict, spots: dict, r_single) -> None:
    n = p["limit"]
    with ck.section("sieve"):
        so = out["sieve"].stdout
        ck.check("sieve: limit", int(field(so, "sieve limit")) == n)
        ck.check("sieve: sum r(n) vs lattice count", int(field(so, "sum r(n)")) == oracles.sum_r(n))
        ck.check("sieve: sum d(n) vs hyperbola", int(field(so, "sum d(n)")) == oracles.sum_d(n))
        ck.check("sieve: sum sigma(n) vs block sum",
                 int(field(so, "sum sigma(n)")) == oracles.sum_sigma(n))
    with ck.section("error-term"):
        header, rows = parse_csv(out["error-term"].csv)
        ck.check("error-term: header", header == ["x", "value", "ratio_quarter", "ratio_huxley"])
        ck.check("error-term: row count", len(rows) == p["samples"])
        for row in rows:
            x, value, rq, rh = map(float, row)
            ref = oracles.p_error(x)
            ck.check(
                f"error-term: row x={row[0]} vs lattice count",
                abs(value - ref) <= P_ABS_TOL
                and abs(rq - abs(ref) / x**0.25) <= P_ABS_TOL
                and abs(rh - abs(ref) / x ** (23.0 / 73.0)) <= P_ABS_TOL,
            )
    with ck.section("constants"):
        so = out["constants"].stdout
        ck.check("constants: terms", int(field(so, "terms")) == p["terms"])
        ck.check("constants: closed form bracketed",
                 field(so, "closed form in [partial, partial+tail]:") == "yes")


def _check_transform_rows(ck: Checker, key: str, rows, t_range, rel_tol: float) -> None:
    ts = doubling(*t_range)
    ck.check(f"{key}: T column", [float(r[0]) for r in rows] == ts)
    for r in rows:
        T, integral, trunc, main, residual = map(float, r[:5])
        ck.check(f"{key}: T={r[0]} truncation_bound <= rel_tol*integral", trunc <= rel_tol * integral)
        ck.check(f"{key}: T={r[0]} residual = integral - main_term", residual == integral - main)


def check_transform(ck: Checker, p: dict, out: dict, spots: dict, r_single) -> None:
    with ck.section("laplace-circle"):
        header, rows = parse_csv(out["laplace-circle"].csv)
        ck.check("laplace-circle: header", header == [
            "T", "integral", "truncation_bound", "main_term", "residual", "ratio_t23"])
        _check_transform_rows(ck, "laplace-circle", rows, p["t_circle"], p["rel_tol"])
        # ACC-07: integral / T^1.5 approaches (1/4) pi^(-3/2) c_r within 2 / sqrt(T).
        c_r = float(field(out["laplace-circle"].stdout, "series constant (closed form)"))
        T, integral = float(rows[-1][0]), float(rows[-1][1])
        gap = abs(integral / T**1.5 - 0.25 * math.pi**-1.5 * c_r)
        ck.check(f"laplace-circle: leading-coefficient gap {gap:.5f} at T={T:g}", gap <= 2.0 / math.sqrt(T))
    with ck.section("laplace-divisor"):
        header, rows = parse_csv(out["laplace-divisor"].csv)
        ck.check("laplace-divisor: header", header == [
            "T", "integral", "truncation_bound", "main_term", "residual"])
        _check_transform_rows(ck, "laplace-divisor", rows, p["t_divisor"], p["rel_tol"])
        a1 = float(field(out["laplace-divisor"].stdout, "fitted A1").split()[0])
        ck.check(f"laplace-divisor: fitted A1 {a1} within 25% of -1/(4 pi^2)",
                 abs(a1 - A1_EXPECTED) <= A1_REL_TOL * abs(A1_EXPECTED))
    with ck.section("voronoi"):
        exact = float(field(out["voronoi"].stdout, "P(x) exact"))
        ck.check("voronoi: P(x) exact vs lattice count",
                 abs(exact - oracles.p_error(p["vor_x"])) <= VORONOI_ABS_TOL)


def check_corr_gauss(ck: Checker, p: dict, out: dict, spots: dict, r_single) -> None:
    n, h_max = p["n"], p["h_max"]
    with ck.section("correlate"):
        header, rows = parse_csv(out["correlate"].csv)
        ck.check("correlate: header", header == ["N", "h", "raw", "main", "e_value"])
        ck.check("correlate: h column", [int(r[1]) for r in rows] == list(range(1, h_max + 1)))
        for N, h, raw, main, e_value in rows:
            h, main = int(h), Fraction(main)
            ck.check(f"correlate: h={h} main = N g(h)", int(N) == n and main == n * oracles.g_direct(h))
            ck.check(f"correlate: h={h} e_value = raw - main", float(e_value) == float(int(raw) - main))
        table = oracles.r_table(n + h_max)
        for m in spots["n"]:
            ck.check(f"correlate: lattice r({m}) = arith.r_single", int(table[m]) == r_single(m))
        for h in spots["h"]:
            raw = int(np.dot(table[1 : n + 1], table[1 + h : n + 1 + h]))
            ck.check(f"correlate: h={h} raw re-dotted", int(rows[h - 1][2]) == raw)
    with ck.section("gauss"):
        so = out["gauss"].stdout
        for residue in (2, 1):
            words = field(so, f"k=4m+{residue}:").split()
            ck.check(f"gauss: k=4m+{residue} passes = coprime pairs",
                     int(words[0]) == oracles.coprime_pairs(p["k_max"], residue))
            ck.check(f"gauss: k=4m+{residue} none outside", int(words[-2]) == 0)


CHECKS = {"sieve": check_sieve, "transform": check_transform, "corr-gauss": check_corr_gauss}


def run_checks(name: str, p: dict, passes: list[dict], spots: dict, r_single) -> Checker:
    ck = Checker()
    check_passes(ck, passes)
    CHECKS[name](ck, p, passes[0], spots, r_single)
    return ck
