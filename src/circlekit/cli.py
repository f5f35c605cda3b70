"""Command-line front end: every computation as a reproducible, scriptable run.

Data goes to CSV (comma separated, LF line endings, mandatory header,
UTF-8); each written file is accompanied by ``<out>.manifest.json``
holding the flat run manifest.  Reals print with 17 significant digits,
so ``float(cell)`` gives back the exact double; integers print exactly;
exact rationals print as ``p/q`` and are never converted to floats.
Identical parameters produce byte-identical CSV in a fixed build.

Only ``sieve`` takes ``--limit``, because there the limit is the result.
``error-term``, ``correlate``, ``constants`` and ``voronoi`` sieve exactly
what their inputs need (``voronoi`` only its series' terms: its P(x) comes from a
lattice count), and ``laplace`` streams the sieve until its transforms' tail
bound stops the last T.  Every command folds the sieve segment by segment and
holds no N-entry table.

Exit codes: 0 success, 2 usage error, 3 capacity error (the message names
the sieve limit that would have sufficed), 1 internal failure.  Usage errors
come from the parser, which checks each option's range where the option is
declared, and from checks that compare two options or parse ``--t-list``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import ceil, gcd, inf
from fractions import Fraction
from pathlib import Path

from . import __version__, arith, correlate, laplace, lattice, special
from .errors import CapacityError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Turns argparse's own errors into UsageError, so main has one exit-2 path."""

    def error(self, message):
        raise UsageError(message)


def _ranged(convert, ok, domain: str):
    """An argparse type: convert the text, then require ok(value); nan fails any comparison."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text}")
        return value
    parse.__name__ = convert.__name__   # argparse names it in "invalid int value"
    return parse


_POSITIVE_INT = _ranged(int, lambda v: v >= 1, "an integer >= 1")
# checked at parse time, so a missing directory fails before the computation, not after
_OUT_PATH = _ranged(str, lambda v: Path(v).parent.is_dir() and not Path(v).is_dir(),
                    "a file path in an existing directory")


def format_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"   # the other cells are floats: 17 digits round-trip every double


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def _parse_t_list(text: str) -> list[float]:
    """'64..8192' doubles geometrically; '64,96,128' is taken literally.

    The result is non-empty, strictly ascending, finite and >= 1.
    """
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = float(lo_s), float(hi_s)
            if not 1 <= lo <= hi < inf:
                raise UsageError(f"bad T range {text!r}: need 1 <= lo <= hi, both finite")
            out = []
            t = lo
            # capped at the largest float: t doubles to inf there, and inf <= inf
            top = min(hi * (1 + 1e-12), sys.float_info.max)
            while t <= top:
                out.append(t)
                t *= 2
            return out
        out = [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"bad T list {text!r}") from exc
    if not out:
        raise UsageError("empty T list")
    if not all(1 <= t < inf for t in out):
        raise UsageError(f"bad T list {text!r}: every T must be finite and >= 1")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise UsageError(f"bad T list {text!r}: T values must be strictly ascending")
    return out


# ----------------------------------------------------------------- commands


def cmd_sieve(args) -> int:
    tables = arith.build_tables(args.limit)
    N = tables.limit
    # each function is folded segment by segment as it is sieved, so no N-entry table is held:
    # d and sigma first, from one pass of packed words, whose limit is checked before any
    # sieving; bytes per entry is what ArithTables would hold: the sizes of its three dtypes
    d_sum, s_sum = arith._pair_sums(N)
    r_sum = r_max = 0
    for _, r in tables._stream("r", N):
        r_sum, r_max = r_sum + int(r.sum(dtype="int64")), max(r_max, int(r.max()))
    print(f"sieve limit      {N}")
    print(f"sum r(n)         {r_sum}")
    print(f"sum d(n)         {d_sum}")
    print(f"sum sigma(n)     {s_sum}")
    print(f"max r(n)         {r_max}")
    print(f"bytes per entry  {sum(dtype.itemsize for dtype in arith._DTYPES.values())}")
    return 0


def cmd_error_term(args) -> int:
    args.limit = ceil(args.x_max)   # the manifest's sieve_limit
    tables = arith.build_tables(args.limit)
    profile = lattice.step_profile(tables, args.kind)
    report = lattice.pointwise_report(profile, args.x_max, args.samples)
    rows = [
        (r.x, r.value, r.ratio_quarter, r.ratio_huxley)
        for r in report.rows
    ]
    write_csv(args.out, ["x", "value", "ratio_quarter", "ratio_huxley"], rows)
    print(f"max |error| {report.max_abs:.6f} at x={report.argmax:.17g}")   # as the CSV prints x
    print(f"max ratio_quarter {report.max_ratio_quarter:.6f}")
    print(f"max ratio_huxley  {report.max_ratio_huxley:.6f}")
    return 0


def cmd_correlate(args) -> int:
    if args.h_max > args.n:   # the E(N, h) envelope report needs h <= N
        raise UsageError(f"--h-max {args.h_max} exceeds --n {args.n}")
    args.limit = args.n + args.h_max
    tables = arith.build_tables(args.limit)
    records = correlate.corr_grid(tables, args.n, args.h_max)
    rows = [(rec.N, rec.h, rec.raw, rec.main, rec.e_value) for rec in records]
    write_csv(args.out, ["N", "h", "raw", "main", "e_value"], rows)
    report = correlate.pointwise_bound_report(records)
    print(f"max |E|/(N^(2/3) h^(5/42)) = {report.max_ratio:.6f} at (N,h)={report.argmax}")
    return 0


def cmd_laplace(args) -> int:
    scan, args.limit = laplace._streamed_scan(args.kind, _parse_t_list(args.t_list), args.rel_tol)
    circle = args.kind == lattice.CIRCLE
    header = ["T", "integral", "truncation_bound", "main_term", "residual"]
    rows = [(r.T, r.integral, r.truncation_bound, r.main_term, r.residual) for r in scan.rows]
    if circle:   # the T^(2/3) remainder scale is the circle problem's
        header.append("ratio_t23")
        rows = [row + (r.ratio_t23,) for row, r in zip(rows, scan.rows)]
    write_csv(args.out, header, rows)
    print(f"series constant (closed form) {scan.constant:.12f}")
    if circle and len(scan.rows) >= 2:   # a slope needs 2 points, the A1 fit 3
        print(f"slope log|residual| vs log T: {scan.slope:.4f}")
    elif not circle and len(scan.rows) >= 3:
        fit = laplace.fit_a1(scan)
        print(
            f"fitted A1 {fit.a1:.7f} (expected {laplace.A1_EXPECTED:.7f}), "
            f"A2 {fit.a2:.4f}, A3 {fit.a3:.4f}"
        )
    return 0


def cmd_constants(args) -> int:
    tables = arith.build_tables(args.terms)
    kind = _SERIES_KINDS[args.kind]
    sc = laplace.series_constant(lattice.step_profile(tables, kind), args.terms)
    closed = laplace.series_limit(kind)
    print(f"kind              {args.kind}")
    print(f"terms             {sc.terms_used}")
    print(f"partial sum       {sc.value:.12f}")
    print(f"tail bound        {sc.tail_bound:.6e}")
    print(f"closed form       {closed:.12f}")
    bracketed = sc.value <= closed <= sc.value + sc.tail_bound
    print(f"closed form in [partial, partial+tail]: {'yes' if bracketed else 'NO'}")
    return 0 if bracketed else 1


def cmd_gauss(args) -> int:
    tol_passes = {1: 0, 2: 0}
    tol_fails = {1: 0, 2: 0}
    for k in range(1, args.k_max + 1):
        cls = k % 4
        if cls not in (1, 2):
            continue
        target = arith.chi(k) * k if cls == 1 else 0.0
        coprime = [gcd(h, k) == 1 for h in range(1, k + 1)]   # a mask over h = 1..k
        within = int((abs(special._gauss_sums_sq(k)[coprime] - target) <= 1e-6 * k).sum())
        tol_passes[cls] += within
        tol_fails[cls] += sum(coprime) - within
    print(f"k=4m+2: {tol_passes[2]} within 1e-6*k of 0, {tol_fails[2]} outside")
    print(f"k=4m+1: {tol_passes[1]} within 1e-6*k of chi(k)*k, {tol_fails[1]} outside")
    return 0 if tol_fails[1] == tol_fails[2] == 0 else 1


def cmd_voronoi(args) -> int:
    # both series reduce their phases exactly only while fl(x n) < 2^53 up to
    # n = n_terms; min() keeps n_terms a finite, exact float (x >= 2 fails it anyway)
    if args.x * min(args.n_terms, 2**53) >= 2.0**53:
        raise UsageError(f"--x {args.x:g} times --n-terms {args.n_terms} must be below 2^53, "
                         "the range where the phases 2 pi sqrt(x n) are reduced exactly")
    tables = arith.build_tables(args.n_terms)
    # P(x) from the O(sqrt x) lattice count, so only the series' n_terms entries are sieved
    exact = lattice._circle_p(args.x)
    trunc, hardy = special._series(tables, args.x, args.n_terms, special._COSINE, special._BESSEL)
    print(f"P(x) exact            {exact:.12f}")
    print(f"cosine sum (N terms)  {trunc:.12f}   residual {exact - trunc:.6e}")
    print(f"Bessel sum (N terms)  {hardy:.12f}   residual {exact - hardy:.6e}")
    return 0


# ------------------------------------------------------------------- driver

# `constants` names each series by its square; scripts pass these names.
_SERIES_KINDS = {"r_squared": lattice.CIRCLE, "d_squared": lattice.DIVISOR}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="circlekit",
        description="Exact circle-problem error terms, correlation sums and "
        "Laplace-transform asymptotics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sieve", help="build tables and print checksums")
    sp.add_argument("--limit", type=_POSITIVE_INT, default=10**6, help="sieve limit (default 10^6)")
    sp.set_defaults(func=cmd_sieve)

    sp = sub.add_parser("error-term", help="scan P(x) or Delta(x) and bound ratios")
    sp.add_argument("kind", choices=[lattice.CIRCLE, lattice.DIVISOR])
    sp.add_argument("--x-max", dest="x_max", required=True,
                    type=_ranged(float, lambda v: 1 <= v < inf, "finite and >= 1"))
    sp.add_argument("--samples", type=_POSITIVE_INT, default=64)
    sp.add_argument("--out", required=True, type=_OUT_PATH, help="output CSV path")
    sp.set_defaults(func=cmd_error_term)

    sp = sub.add_parser("correlate", help="correlation sums and E(N, h) records")
    sp.add_argument("--n", type=_POSITIVE_INT, required=True)
    sp.add_argument("--h-max", dest="h_max", type=_POSITIVE_INT, required=True)
    sp.add_argument("--out", required=True, type=_OUT_PATH, help="output CSV path")
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("laplace", help="Laplace transform scan of P^2 or Delta^2")
    sp.add_argument("kind", choices=[lattice.CIRCLE, lattice.DIVISOR])
    sp.add_argument("--t-list", dest="t_list", required=True,
                    help="'64..8192' (doubling) or comma-separated values")
    sp.add_argument("--rel-tol", dest="rel_tol", default=laplace.DEFAULT_REL_TOL,
                    type=_ranged(float, lambda v: 0 < v < 1, "in (0, 1)"),
                    help="relative truncation tolerance for transforms")
    sp.add_argument("--out", required=True, type=_OUT_PATH, help="output CSV path")
    sp.set_defaults(func=cmd_laplace)

    sp = sub.add_parser("constants", help="series constant sum f^2(n) n^(-3/2)")
    sp.add_argument("kind", choices=_SERIES_KINDS)
    sp.add_argument("--terms", type=_POSITIVE_INT, required=True)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("gauss", help="quadratic Gauss sum congruence classes")
    sp.add_argument("--k-max", dest="k_max", type=_POSITIVE_INT, required=True)
    sp.set_defaults(func=cmd_gauss)

    sp = sub.add_parser("voronoi", help="compare P(x) against its series approximations")
    sp.add_argument("--x", required=True,
                    type=_ranged(float, lambda v: 2 <= v < inf, "finite and >= 2"))
    sp.add_argument("--n-terms", dest="n_terms", required=True,
                    type=_ranged(int, lambda v: v >= 2, "an integer >= 2"))
    sp.set_defaults(func=cmd_voronoi)
    return p


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        rc = args.func(args)
    except SystemExit as exc:   # --help; parse errors raise UsageError instead
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "out", None):
        manifest = {
            "command": args.command,
            "parameters": {k: v for k, v in vars(args).items()
                           if k not in {"func", "command", "out", "limit"}},
            "sieve_limit": args.limit,
            "tool_version": __version__,
            "wall_time": time.perf_counter() - started,
        }
        Path(args.out + ".manifest.json").write_text(
            json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
