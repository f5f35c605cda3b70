"""Command-line front end: every computation as a reproducible, scriptable run.

Data goes to CSV (comma separated, LF line endings, mandatory header,
UTF-8); each written file is accompanied by ``<out>.manifest.json``
holding the flat run manifest.  Reals print with 17 significant digits,
so ``float(cell)`` gives back the exact double; integers print exactly;
exact rationals print as ``p/q`` and are never converted to floats.
Identical parameters produce byte-identical CSV in a fixed build.

Only ``sieve`` takes ``--limit``, because there the limit is the result.
``error-term``, ``correlate``, ``constants`` and ``voronoi`` sieve exactly
what their inputs need, and ``laplace`` sieves to where its transforms'
tail bound predicts they stop.

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
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"   # 17 digits round-trip every double
    return str(v)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    if "/" in cell:
        try:
            return Fraction(cell)
        except ValueError:
            pass
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv(path: str):
    """Parse a CSV written by this tool back into typed cells."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = [[_parse_cell(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


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
    r_sum = int(tables.r.sum(dtype="int64"))
    d_sum = int(tables.d.sum(dtype="int64"))
    s_sum = int(tables.sigma.sum(dtype="int64"))
    print(f"sieve limit      {tables.limit}")
    print(f"sum r(n)         {r_sum}")
    print(f"sum d(n)         {d_sum}")
    print(f"sum sigma(n)     {s_sum}")
    print(f"max r(n)         {int(tables.r.max())}")
    print(f"bytes per entry  {tables.r.itemsize + tables.d.itemsize + tables.sigma.itemsize}")
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
    print(f"max |error| {report.max_abs:.6f} at x={report.argmax:.0f}")
    print(f"max ratio_quarter {report.max_ratio_quarter:.6f}")
    print(f"max ratio_huxley  {report.max_ratio_huxley:.6f}")
    return 0


def cmd_correlate(args) -> int:
    if args.h_max > args.n:   # the E(N, h) envelope report needs h <= N
        raise UsageError(f"--h-max {args.h_max} exceeds --n {args.n}")
    args.limit = args.n + args.h_max
    tables = arith.build_tables(args.limit)
    records = correlate.corr_grid(tables, [args.n], args.h_max)
    rows = [(rec.N, rec.h, rec.raw, rec.main, rec.e_value) for rec in records]
    write_csv(args.out, ["N", "h", "raw", "main", "e_value"], rows)
    report = correlate.pointwise_bound_report(records)
    print(f"max |E|/(N^(2/3) h^(5/42)) = {report.max_ratio:.6f} at (N,h)={report.argmax}")
    return 0


def cmd_laplace(args) -> int:
    t_list = _parse_t_list(args.t_list)
    circle = args.kind == lattice.CIRCLE
    c = laplace.series_limit(laplace.R_SQUARED if circle else laplace.D_SQUARED)
    main_term = laplace.laplace_main_p if circle else laplace.laplace_main_d
    # Sieve to where the largest T's main term predicts its stop, plus one
    # block; a scan that still runs out names the block edge it needs.
    T = t_list[-1]
    try:
        estimate = main_term(c, T)
    except OverflowError:   # T^1.5 past the largest float: no block edge can stop the scan
        estimate = inf
    args.limit = laplace.stop_edge(args.kind, T, args.rel_tol, estimate) + laplace.block_size(T)
    while True:
        profile = lattice.step_profile(arith.build_tables(args.limit), args.kind)
        try:
            scan = laplace.residual_scan(profile, c, t_list, args.rel_tol)
            break
        except CapacityError as exc:
            if not exc.required_limit > args.limit:   # the limit only grows, so this ends
                raise
            args.limit = exc.required_limit
    header = ["T", "integral", "truncation_bound", "main_term", "residual"]
    rows = [(r.T, r.integral, r.truncation_bound, r.main_term, r.residual) for r in scan.rows]
    if circle:   # the T^(2/3) remainder scale is the circle problem's
        header.append("ratio_t23")
        rows = [row + (r.ratio_t23,) for row, r in zip(rows, scan.rows)]
    write_csv(args.out, header, rows)
    print(f"series constant (closed form) {c:.12f}")
    if circle:
        print(f"slope log|residual| vs log T: {scan.slope:.4f}")
    elif len(scan.rows) >= 3:
        fit = laplace.fit_a1(scan)
        print(
            f"fitted A1 {fit.a1:.7f} (expected {laplace.A1_EXPECTED:.7f}), "
            f"A2 {fit.a2:.4f}, A3 {fit.a3:.4f}"
        )
    return 0


def cmd_constants(args) -> int:
    tables = arith.build_tables(max(args.terms, 2))   # C_hat needs 2
    sc = laplace.series_constant(tables, args.kind, args.terms)
    closed = laplace.series_limit(args.kind)
    print(f"kind              {sc.kind}")
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
        for h in range(1, k + 1):
            if gcd(h, k) != 1:
                continue
            g = special.gauss_sum_sq(k, h)
            if abs(g - target) <= 1e-6 * k:
                tol_passes[cls] += 1
            else:
                tol_fails[cls] += 1
    print(f"k=4m+2: {tol_passes[2]} within 1e-6*k of 0, {tol_fails[2]} outside")
    print(f"k=4m+1: {tol_passes[1]} within 1e-6*k of chi(k)*k, {tol_fails[1]} outside")
    return 0 if tol_fails[1] == tol_fails[2] == 0 else 1


def cmd_voronoi(args) -> int:
    # both series reduce their phases exactly only while fl(x n) < 2^53 up to
    # n = n_terms; min() keeps n_terms a finite, exact float (x >= 2 fails it anyway)
    if args.x * min(args.n_terms, 2**53) >= 2.0**53:
        raise UsageError(f"--x {args.x:g} times --n-terms {args.n_terms} must be below 2^53, "
                         "the range where the phases 2 pi sqrt(x n) are reduced exactly")
    tables = arith.build_tables(max(int(args.x) + 1, args.n_terms))
    profile = lattice.step_profile(tables, lattice.CIRCLE)
    exact = lattice.p_of_x(profile, args.x)
    trunc = special.truncated_p(tables, args.x, args.n_terms)
    hardy = special.hardy_partial(tables, args.x, args.n_terms)
    print(f"P(x) exact            {exact:.12f}")
    print(f"cosine sum (N terms)  {trunc:.12f}   residual {exact - trunc:.6e}")
    print(f"Bessel sum (N terms)  {hardy:.12f}   residual {exact - hardy:.6e}")
    return 0


# ------------------------------------------------------------------- driver


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
    sp.add_argument("kind", choices=[laplace.R_SQUARED, laplace.D_SQUARED])
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
