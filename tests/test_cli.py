import argparse
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import circlekit
from circlekit import arith, cli, correlate, laplace, lattice, special
from circlekit.errors import CapacityError
from conftest import hyperbola_count, lattice_count, p_60_digits, sigma_count, traced_peak


def run(args):
    return cli.main(args)


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
    """Parse a CSV written by the CLI back into typed cells."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = [[_parse_cell(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


def test_sieve_checksums(capsys):
    assert run(["sieve", "--limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "sum r(n)         36" in out
    assert "sum d(n)         27" in out


def test_sieve_usage_error(capsys):
    assert run(["sieve", "--limit", "0"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_exits_2():
    assert run(["definitely-not-a-command"]) == 2


def test_error_term_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = run(["error-term", "circle", "--x-max", "200", "--samples", "12",
              "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["x", "value", "ratio_quarter", "ratio_huxley"]
    assert len(rows) == 12
    assert all(isinstance(r[0], (int, float)) for r in rows)
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    assert manifest["command"] == "error-term"
    assert manifest["sieve_limit"] == 200
    assert manifest["tool_version"]
    assert "wall_time" in manifest and "parameters" in manifest


def test_error_term_rejects_zero_samples(tmp_path):
    rc = run(["error-term", "circle", "--x-max", "100", "--samples", "0",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["error-term", "circle", "--x-max", "inf"],
    ["error-term", "circle", "--x-max", "nan"],
    ["voronoi", "--x", "inf", "--n-terms", "10"],
    ["voronoi", "--x", "nan", "--n-terms", "10"],
])
def test_non_finite_input_exits_2(tmp_path, capsys, argv):
    if argv[0] == "error-term":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["voronoi", "--x", "10.5", "--n-terms", "ten"], "--n-terms"),
    (["sieve", "--limit", "0"], "--limit"),
    (["error-term", "circle", "--x-max", "100", "--samples", "-3"], "--samples"),
    (["error-term", "circle", "--x-max", "0.5"], "--x-max"),
    (["correlate", "--n", "0", "--h-max", "3"], "--n"),
    (["correlate", "--n", "10", "--h-max", "0"], "--h-max"),
    (["correlate", "--n", "5", "--h-max", "10"], "--h-max"),
    (["laplace", "circle", "--t-list", "16", "--rel-tol", "0"], "--rel-tol"),
    (["laplace", "circle", "--t-list", "16", "--rel-tol", "nan"], "--rel-tol"),
    (["laplace", "circle", "--t-list", "16", "--rel-tol", "inf"], "--rel-tol"),
    (["laplace", "divisor", "--t-list", "16", "--rel-tol", "1"], "--rel-tol"),
    (["constants", "r_squared", "--terms", "0"], "--terms"),
    (["gauss", "--k-max", "0"], "--k-max"),
    (["voronoi", "--x", "1.5", "--n-terms", "10"], "--x"),
    (["voronoi", "--x", "10.5", "--n-terms", "1"], "--n-terms"),
])
def test_out_of_range_option_exits_2(tmp_path, capsys, argv, named):
    if {"error-term", "correlate", "laplace"} & set(argv):
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["error-term", "circle", "--x-max", "1.5", "--samples", "1"],
    ["correlate", "--n", "10", "--h-max", "3"],
    ["laplace", "circle", "--t-list", "16"],
])
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_out_outside_an_existing_directory_exits_2(tmp_path, monkeypatch, capsys, argv, where):
    # a path that cannot be written is a usage error before any sieve, not an
    # internal error after the whole computation
    def unreachable(limit):
        raise AssertionError("sieved before the usage check")
    monkeypatch.setattr(arith, "build_tables", unreachable)
    assert run(argv + ["--out", str(tmp_path / where)]) == 2
    assert capsys.readouterr().err.startswith("usage error: argument --out: ")
    assert list(tmp_path.iterdir()) == []


def test_voronoi_outside_the_phase_domain_exits_2(monkeypatch, capsys):
    # x n_terms = 1e16 >= 2^53 is rejected before sieving 1e8 entries; just
    # below 2^53 the command goes on to the sieve, stubbed here to fail
    def no_sieve(limit):
        raise CapacityError("stub sieve", required_limit=limit)
    monkeypatch.setattr(arith, "build_tables", no_sieve)
    assert run(["voronoi", "--x", "1e8", "--n-terms", "100000000"]) == 2
    assert run(["voronoi", "--x", str(2.0**52), "--n-terms", "2"]) == 2
    assert run(["voronoi", "--x", "2", "--n-terms", str(10**400)]) == 2
    err = capsys.readouterr().err
    assert err.count("usage error: --x ") == 3 and "must be below 2^53" in err
    assert run(["voronoi", "--x", str(2.0**52 - 0.5), "--n-terms", "2"]) == 3
    assert "capacity error: stub sieve" in capsys.readouterr().err


def test_error_term_fractional_x_max(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["error-term", "circle", "--x-max", "100.5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    assert manifest["sieve_limit"] == 101
    assert manifest["parameters"]["x_max"] == 100.5


def test_error_term_prints_argmax_as_the_csv_prints_x(tmp_path, capsys):
    # the maximum lies at the last sample, x_max itself; it printed as x=180, past x_max
    out = tmp_path / "p.csv"
    assert run(["error-term", "divisor", "--x-max", "179.98", "--samples", "8",
                "--out", str(out)]) == 0
    last_x = out.read_text().splitlines()[-1].split(",")[0]
    assert last_x == "179.97999999999999"
    assert f"at x={last_x}\n" in capsys.readouterr().out


def test_impossible_limit_exits_3(tmp_path, capsys):
    assert run(["sieve", "--limit", str(10**19)]) == 3
    assert "capacity error: cannot allocate sieve tables for N=10000000000000000000" \
        in capsys.readouterr().err
    assert run(["sieve", "--limit", str(10**400)]) == 3   # N / 2**20 overflows a float
    assert f"capacity error: cannot allocate sieve tables for N={10**400} (~" \
        in capsys.readouterr().err
    out = tmp_path / "x.csv"   # no scratch fits T's blocks, and T^1.5 overflows its main term
    assert run(["laplace", "circle", "--t-list", "1e307", "--out", str(out)]) == 3
    assert ("capacity error: T=1e+307 at rel_tol=1e-06 needs sieve limit > 747 T: "
            in capsys.readouterr().err)
    # a range ending within 1e-12 of the largest float stops doubling at the last finite T
    assert run(["laplace", "circle", "--t-list", "1..1.7976931348623157e308", "--out", str(out)]) == 3
    assert ("capacity error: T=8.98847e+307 at rel_tol=1e-06 needs sieve limit > 747 T: "
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sieve", "--seed", "7"],
    ["error-term", "circle", "--x-max", "100", "--seed", "7"],
    ["error-term", "circle", "--x-max", "100", "--rel-tol", "5"],
    ["correlate", "--n", "10", "--h-max", "3", "--rel-tol", "1e-3"],
    ["laplace", "circle", "--t-list", "16", "--seed", "7"],
    ["constants", "r_squared", "--terms", "100", "--rel-tol", "1e-3"],
    ["gauss", "--k-max", "5", "--limit", "100"],
    ["voronoi", "--x", "10.5", "--n-terms", "10", "--seed", "7"],
    ["error-term", "circle", "--x-max", "100", "--limit", "200"],   # the sieve limit is derived
    ["correlate", "--n", "10", "--h-max", "3", "--limit", "200"],
    ["voronoi", "--x", "10.5", "--n-terms", "10", "--limit", "200"],
    ["laplace", "circle", "--t-list", "16", "--limit", "3000"],
    ["--precision=5", "sieve", "--limit", "10"],   # "--precision 5" would make "5" the command
    ["constants", "r_squared", "--terms", "100", "--limit", "1000"],   # the sieve limit is derived
])
def test_removed_options_exit_2(tmp_path, capsys, argv):
    if argv[0] in {"error-term", "correlate", "laplace"}:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_capacity_exit_code(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("sieved past the capacity check")
    for name in ("_r_segment", "_d_segment", "_pair_segment"):   # every table and stream
        monkeypatch.setattr(arith, name, unreachable)
    assert run(["constants", "r_squared", "--terms", str(10**19)]) == 3
    assert "capacity error: cannot allocate sieve tables for N=10000000000000000000" \
        in capsys.readouterr().err


@pytest.mark.parametrize("failing, argv", [
    ("_r_segment", ["sieve", "--limit", "1000"]),   # sieve streams each table from its kernel
    ("_pair_segment", ["sieve", "--limit", "1000"]),
    ("_r_segment", ["voronoi", "--x", "999.5", "--n-terms", "1000"]),   # streams r to n_terms
    ("_r_segment", ["error-term", "circle", "--x-max", "1e7"]),   # error-term streams r
    ("_d_segment", ["constants", "d_squared", "--terms", "1000"]),
    ("_r_segment", ["error-term", "circle", "--x-max", "1000"]),
    ("_r_segment", ["correlate", "--n", "990", "--h-max", "10"]),   # streams r to n + h_max
])
def test_memory_error_in_lazy_sieve_exits_3(tmp_path, monkeypatch, capsys, failing, argv):
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(arith, failing, out_of_memory)
    # each argv but correlate's ends with the sieve limit
    N = int(argv[2]) + int(argv[4]) if argv[0] == "correlate" else int(float(argv[-1]))
    # a stream names its segment buffers: r's int32 segment (1001 * 4 B, rounded up), d's
    # int16 one, sigma's packed int64 one and its ramp and pair ((1001 + 1032 + 1000) * 8 B)
    name = {"_pair_segment": "sigma"}.get(failing, failing[1:].removesuffix("_segment"))
    kib = {("r", 1000): 4, ("r", 10**7): 128, ("d", 1000): 2, ("sigma", 1000): 24}[name, N]
    message = (f"cannot allocate the streamed {name} sieve for N={N} "
               f"(~{kib} KiB of segment buffers, plus the kernel's scratch)")
    if argv[0] in {"error-term", "correlate"}:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 3
    assert f"capacity error: {message}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_table_allocation_exits_3(monkeypatch):
    # no command fills a table; one read for random access, r's to N = 1000 here, whose
    # allocation fails is the CapacityError that main turns into exit 3
    empty = np.empty

    def no_table(shape, dtype=float, *args, **kwargs):
        if shape == 1001 and np.dtype(dtype) == np.int32:
            raise MemoryError
        return empty(shape, dtype, *args, **kwargs)
    monkeypatch.setattr(arith.np, "empty", no_table)
    with pytest.raises(CapacityError) as exc:
        arith.build_tables(1000).r
    assert str(exc.value) == "cannot allocate sieve tables for N=1000 (~4 KiB needed)"


def test_internal_failure_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("stubbed layer failure")
    monkeypatch.setattr(correlate, "corr_grid", broken)
    assert run(["correlate", "--n", "10", "--h-max", "2", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: stubbed layer failure\n"
    assert list(tmp_path.iterdir()) == []   # no CSV, no manifest


def test_correlation_window_that_cannot_be_allocated_exits_3(tmp_path, monkeypatch, capsys):
    # an h_max whose window and sums no machine holds (h_max = 1e12 needs ~16 TB) was a
    # MemoryError, exit 1; stubbed here, as a real one could be granted by an overcommitting OS
    def out_of_memory(size):
        raise MemoryError
    monkeypatch.setattr(correlate, "np", SimpleNamespace(empty=out_of_memory))
    assert run(["correlate", "--n", "990", "--h-max", "10", "--out", str(tmp_path / "x.csv")]) == 3
    assert ("capacity error: cannot allocate the correlation window and sums for N=1000 "
            "(~8 KiB for H_max=10)\n") in capsys.readouterr().err   # (990 + 10 + 10) * 8 B
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, sieves", [
    (["error-term", "circle", "--x-max", "200", "--samples", "4"], (1, 0, 0)),
    (["constants", "r_squared", "--terms", "100"], (1, 0, 0)),
    (["correlate", "--n", "50", "--h-max", "3"], (1, 0, 0)),
    (["voronoi", "--x", "100.5", "--n-terms", "50"], (1, 0, 0)),
    (["laplace", "circle", "--t-list", "16,32"], (1, 0, 0)),
    (["error-term", "divisor", "--x-max", "200", "--samples", "4"], (0, 1, 0)),
    (["laplace", "divisor", "--t-list", "16,32"], (0, 1, 0)),
    (["constants", "d_squared", "--terms", "100"], (0, 1, 0)),
    (["sieve", "--limit", "100"], (1, 0, 1)),   # d and sigma in one pass of packed words
])
def test_commands_sieve_only_the_tables_they_read(tmp_path, monkeypatch, argv, sieves):
    # a run of a table's kernel, filling the table or streaming it, starts at segment lo = 0
    calls = {"_r_segment": 0, "_d_segment": 0, "_pair_segment": 0}

    def counted(name):
        kernel = getattr(arith, name)

        def count(lo, *args):
            calls[name] += lo == 0
            return kernel(lo, *args)
        return count
    for name in calls:
        monkeypatch.setattr(arith, name, counted(name))
    if argv[0] in {"error-term", "correlate", "laplace"}:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 0
    assert (calls["_r_segment"], calls["_d_segment"], calls["_pair_segment"]) == sieves


@pytest.mark.parametrize("kernel, argv", [
    ("_r_segment", ["sieve", "--limit", "1000"]),
    ("_d_segment", ["error-term", "divisor", "--x-max", "1000"]),   # sieve's d is packed words
    ("_d_segment", ["constants", "d_squared", "--terms", "1000"]),
])
def test_int32_guard_on_streamed_segments_exits_3(tmp_path, monkeypatch, capsys, kernel, argv):
    # r streams int32 segments, d int16 ones below N = 2^28 (arith._d_dtype): the same guard
    if argv[0] == "error-term":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    sieve = getattr(arith, kernel)

    def overflowing(lo, hi, out):   # a segment holding the largest value of its dtype
        sieve(lo, hi, out)
        if lo <= 700 < hi:
            out[700 - lo] = np.iinfo(out.dtype).max
    monkeypatch.setattr(arith, kernel, overflowing)
    assert run(argv) == 3
    overflow = "int32 table" if kernel == "_r_segment" else "int16 segment"
    assert f"capacity error: {overflow} overflow at N=1000" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bytes_per_entry, slack_mib", [
    (["sieve", "--limit", "1000000"], 0, 6),   # no table: one segment buffer at a time
    (["error-term", "circle", "--x-max", "1e6", "--samples", "64"], 0, 6),   # r's segments; the blocks
    (["constants", "r_squared", "--terms", "1000000"], 0, 1),   # r's segments; the blocks
    (["voronoi", "--x", "1000000.5", "--n-terms", "2"], 0, 1),   # P(x) counted, no sieve to x
    (["voronoi", "--x", "100000.5", "--n-terms", "1000000"], 0, 5),   # r's segments; the blocks
    (["correlate", "--n", "1000000", "--h-max", "100"], 0, 2),   # r's segments; one window
    (["constants", "d_squared", "--terms", "1000000"], 0, 5),   # d's 2 MiB segment; the blocks
    (["error-term", "divisor", "--x-max", "1e6", "--samples", "64"], 0, 6),   # likewise
])
def test_command_peak_memory_per_entry(tmp_path, capsys, argv, bytes_per_entry, slack_mib):
    if argv[0] in {"error-term", "correlate"}:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert traced_peak(lambda: run(argv)) <= bytes_per_entry * 10**6 + slack_mib * 2**20
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("limit", [10**5, 10**6])
def test_sieve_peak_memory_does_not_grow_with_the_limit(capsys, limit):
    assert traced_peak(lambda: run(["sieve", "--limit", str(limit)])) <= 6 * 2**20
    assert "error" not in capsys.readouterr().err


def test_sieve_past_the_packed_words_exits_3_before_sieving(monkeypatch, capsys):
    # d(n) 2^s + sigma(n) fit one int64 word up to N = 2^38 - 1; past it sieve exits 3 at
    # once, where it would have sieved for days first
    for name in ("_r_segment", "_d_segment", "_pair_segment"):
        monkeypatch.setattr(arith, name, None)
    assert run(["sieve", "--limit", str(2**38)]) == 3
    assert capsys.readouterr().err == ("capacity error: d(n) and sigma(n) pack into one int64 "
                                       "word only for N <= 274877906943, not N=274877906944\n")


def test_streamed_sieve_sums_equal_the_exact_counts(capsys):
    N = 10**6
    assert run(["sieve", "--limit", str(N)]) == 0
    out = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    assert int(out["sum r(n)"]) == lattice_count(N)
    assert int(out["sum d(n)"]) == hyperbola_count(N)
    assert int(out["sum sigma(n)"]) == sigma_count(N)
    assert out["bytes per entry"] == "16"   # int32 r and d, int64 sigma


def test_correlate_round_trip(tmp_path):
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--n", "10", "--h-max", "3", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["N", "h", "raw", "main", "e_value"]
    assert rows[0][:3] == [10, 1, 96]
    assert rows[0][3] == Fraction(80, 1)
    assert isinstance(rows[0][3], Fraction)
    assert rows[0][4] == 16.0


def _library_rows(command, out):
    """The rows the library computes for an error-term or laplace divisor run,
    on the sieve its manifest names."""
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    params = manifest["parameters"]
    profile = lattice.step_profile(arith.build_tables(manifest["sieve_limit"]), params["kind"])
    if command == "error-term":
        report = lattice.pointwise_report(profile, params["x_max"], params["samples"])
        return [(r.x, r.value, r.ratio_quarter, r.ratio_huxley) for r in report.rows]
    scan = laplace.residual_scan(profile, cli._parse_t_list(params["t_list"]), params["rel_tol"])
    return [(r.T, r.integral, r.truncation_bound, r.main_term, r.residual) for r in scan.rows]


@pytest.mark.parametrize("argv", [
    ["error-term", "circle", "--x-max", "1000.5", "--samples", "40"],
    ["laplace", "divisor", "--t-list", "16..64"],
])
def test_csv_reals_round_trip(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 0
    cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
    expected = _library_rows(argv[0], out)
    assert len(cells) == len(expected)
    for row, values in zip(cells, expected):
        assert len(row) == len(values)
        for cell, value in zip(row, values):
            assert isinstance(value, float) and float(cell) == value, (cell, value)


@pytest.mark.parametrize("argv", [
    ["error-term", "circle", "--x-max", "100", "--samples", "4"],
    ["correlate", "--n", "10", "--h-max", "3"],
    ["laplace", "circle", "--t-list", "16"],
])
def test_manifest_parameters_are_the_commands_options(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 0
    parameters = json.loads((tmp_path / "x.csv.manifest.json").read_text())["parameters"]
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for a in subs.choices[argv[0]]._actions
               if not isinstance(a, argparse._HelpAction)} - {"out"}
    assert set(parameters) == options


def test_laplace_circle_scan(tmp_path, capsys):
    out = tmp_path / "lap.csv"
    rc = run(["laplace", "circle", "--t-list", "16..64", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["T", "integral", "truncation_bound", "main_term", "residual", "ratio_t23"]
    assert [r[0] for r in rows] == [16.0, 32.0, 64.0]
    printed = capsys.readouterr().out
    assert "slope" in printed

    # one T has no slope to fit: the line is left out, not printed as nan
    rc = run(["laplace", "circle", "--t-list", "64", "--out", str(out)])
    assert rc == 0
    assert [r[0] for r in read_csv(str(out))[1]] == [64.0]
    assert capsys.readouterr().out == "series constant (closed form) 50.156056142639\n"


def test_laplace_divisor_scan(tmp_path, capsys, divisor_4k):
    out = tmp_path / "lapd.csv"
    rc = run(["laplace", "divisor", "--t-list", "16..64", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header == ["T", "integral", "truncation_bound", "main_term", "residual"]
    assert [r[0] for r in rows] == [16.0, 32.0, 64.0]
    printed = capsys.readouterr().out
    assert "series constant (closed form) 38.745144143901" in printed
    scan = laplace.residual_scan(divisor_4k, [16.0, 32.0, 64.0])
    assert f"fitted A1 {laplace.fit_a1(scan).a1:.7f} " in printed

    rc = run(["laplace", "divisor", "--t-list", "16,32", "--out", str(out)])
    assert rc == 0
    assert [r[0] for r in read_csv(str(out))[1]] == [16.0, 32.0]
    assert "fitted A1" not in capsys.readouterr().out


def test_laplace_sieves_what_a_tight_tolerance_needs(tmp_path):
    # a fixed 40 T_max sieve (163,840) ends before this scan stops
    out = tmp_path / "lap.csv"
    assert run(["laplace", "circle", "--t-list", "4096", "--rel-tol", "1e-14",
                "--out", str(out)]) == 0
    [[T, integral, truncation_bound, *_]] = read_csv(str(out))[1]
    assert truncation_bound < 1e-14 * integral
    manifest = json.loads((tmp_path / "lap.csv.manifest.json").read_text())
    assert manifest["sieve_limit"] % 4096 == 0 and manifest["sieve_limit"] > 40 * 4096


@pytest.mark.parametrize("kind, t_list", [("circle", "64..32768"), ("divisor", "128..32768"),
                                          ("circle", "64..8192"), ("divisor", "128..8192")])
def test_laplace_manifest_names_the_last_stop_edge(tmp_path, kind, t_list):
    # the transform benchmark's scans and the README's: the scan streams its profile as far
    # as its last T stops, and the manifest's sieve_limit is that stop edge
    out = tmp_path / "lap.csv"
    assert run(["laplace", kind, "--t-list", t_list, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "lap.csv.manifest.json").read_text())
    assert manifest["sieve_limit"] == {"32768": 819200, "8192": 196608}[t_list.split("..")[1]]


@pytest.mark.parametrize("kind", ["circle", "divisor"])
def test_laplace_scratch_that_cannot_be_allocated_exits_3(tmp_path, capsys, kind):
    # blocks of 1e15 intervals need petabytes of scratch on any machine: it was a
    # MemoryError, exit 1, before the scan read any table
    out = tmp_path / "x.csv"
    assert run(["laplace", kind, "--t-list", "1e15", "--rel-tol", "0.5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    # 4 W (circle) or (K + 3) W (divisor, K = 1 at W = 1e15) doubles, plus the fold's n/S window
    gib = {"circle": 44703484, "divisor": 89406968}[kind]
    assert err.startswith("capacity error: cannot allocate a scan's scratch for blocks of "
                          f"1000000000000000 intervals (T=1e+15), ~{gib} GiB; ")
    assert "the scan needs sieve limit ~24000000000000000, " in err
    assert list(tmp_path.iterdir()) == []


def test_laplace_scan_that_cannot_stop_exits_3(tmp_path, monkeypatch, capsys):
    # rel_tol times T = 1's integral underflows to 0, which no tail bound is
    # below: the one pass raises at T = 1's last edge, with T = 1000 still running,
    # from stop_edge in the fold block of that edge, before the profile ends (no _too_short)
    monkeypatch.setattr(laplace, "_too_short", None)
    ends = []
    integrate = laplace._d2_chunk

    def recorded(run, n, rows, temps):
        ends.append(int(n[-1]))
        integrate(run, n, rows, temps)
    monkeypatch.setattr(laplace, "_d2_chunk", recorded)
    out = tmp_path / "x.csv"
    assert run(["laplace", "divisor", "--t-list", "1,1000", "--rel-tol", "5e-324",
                "--out", str(out)]) == 3
    assert "capacity error: T=1 at rel_tol=4.94066e-324 needs sieve limit > 747 T: " \
        in capsys.readouterr().err
    assert max(ends) < laplace._LAST_BLOCK * laplace.block_size(1) + laplace.block_size(1000)
    assert list(tmp_path.iterdir()) == []


def test_cli_settable_values():
    # every argument of the top-level parser and of each subcommand, --help
    # excluded, as the CI report counts them: a new option is a deliberate edit here
    p = cli.build_parser()
    subs = next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
    n = sum(not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
            for q in (p, *subs.choices.values()) for a in q._actions)
    assert n == 17


def test_public_names():
    # the public API CI reports (as a count) next to the code size: pinned by name, so a
    # name added, removed or swapped for another is a deliberate edit here
    assert sorted(circlekit.__all__) == [
        "A1_EXPECTED", "ArithTables", "BESSEL_SWITCH", "CIRCLE", "CapacityError",
        "CircleKitError", "CorrelationRecord", "DIVISOR", "EULER_GAMMA", "LaplaceEstimate",
        "SeriesConstant", "StepProfile", "arith", "bessel_j", "build_tables", "chi",
        "corr_grid", "correlate", "error_term", "errors", "fit_a1", "g_closed", "gauss_sum_sq",
        "hardy_partial", "laplace", "laplace_d2", "laplace_main", "laplace_p2", "lattice",
        "mean_square_p", "pointwise_bound_report", "pointwise_report", "r_single",
        "residual_scan", "series_constant", "series_limit", "special", "step_profile",
        "truncated_p", "v2",
    ]


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench/ wraps every tracing.TARGETS attribute in a traced run, sums the three tables'
    # nbytes in every run's manifest and spot-checks tables against arith.r_single: a name
    # removed here breaks the benchmark, not a command
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)   # dataclasses look their module up
    spec.loader.exec_module(tracing)
    for module, attr in tracing.TARGETS:
        assert callable(getattr(getattr(circlekit, module), attr)), (module, attr)
    small = arith.build_tables(1000)
    assert small.r.nbytes + small.d.nbytes + small.sigma.nbytes == 16 * 1001
    assert callable(arith.r_single)


_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None   # from here on, every import of mpmath raises ImportError
from circlekit import cli
assert sys.modules["mpmath"] is None, "import circlekit.cli put mpmath in sys.modules"
for argv in (["laplace", "circle", "--t-list", "64..256", "--out", "lap.csv"],
             ["laplace", "divisor", "--t-list", "128..512", "--out", "lapd.csv"],
             ["constants", "r_squared", "--terms", "1000"],
             ["constants", "d_squared", "--terms", "1000"]):
    assert cli.main(argv) == 0, argv
"""


def test_commands_run_with_numpy_as_the_only_third_party_package(tmp_path):
    # mpmath is a test dependency only: the oracles in tests/ use it, no command does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(circlekit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    check = "import sys, circlekit.cli; assert 'mpmath' not in sys.modules"
    for code in (check, _WITHOUT_MPMATH):
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kind", ["circle", "divisor"])
@pytest.mark.parametrize("t_list", ["256,128", "256,128,64", "64,64", "0.5", "0.5..64",
                                    "nan", "16,inf", "16..inf", ",", "x,16"])
def test_laplace_bad_t_list_exits_2(tmp_path, capsys, kind, t_list):
    rc = run(["laplace", kind, "--t-list", t_list, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("kind, closed", [("r_squared", "50.15605614"), ("d_squared", "38.74514414")],
                         ids=["r_squared", "d_squared"])
def test_constants_command(capsys, kind, closed):
    assert run(["constants", kind, "--terms", "20000"]) == 0
    out = capsys.readouterr().out
    assert f"kind              {kind}\n" in out
    assert f"closed form       {closed}" in out
    assert "closed form in [partial, partial+tail]: yes" in out


def test_constants_single_term(capsys):
    assert run(["constants", "r_squared", "--terms", "1"]) == 0
    out = capsys.readouterr().out
    assert "terms             1\n" in out
    assert "closed form in [partial, partial+tail]: yes" in out


def test_gauss_command(capsys):
    assert run(["gauss", "--k-max", "30"]) == 0
    out = capsys.readouterr().out
    assert "0 outside" in out


def test_gauss_command_counts_match_the_direct_sums(capsys):
    within, outside = {1: 0, 2: 0}, {1: 0, 2: 0}
    for k in range(1, 101):
        cls = k % 4
        if cls not in (1, 2):
            continue
        target = arith.chi(k) * k if cls == 1 else 0.0
        for h in range(1, k + 1):
            if gcd(h, k) == 1:
                if abs(special.gauss_sum_sq(k, h) - target) <= 1e-6 * k:
                    within[cls] += 1
                else:
                    outside[cls] += 1
    assert run(["gauss", "--k-max", "100"]) == 0
    assert capsys.readouterr().out == (
        f"k=4m+2: {within[2]} within 1e-6*k of 0, {outside[2]} outside\n"
        f"k=4m+1: {within[1]} within 1e-6*k of chi(k)*k, {outside[1]} outside\n")


def test_voronoi_command(capsys):
    assert run(["voronoi", "--x", "1000.5", "--n-terms", "1000"]) == 0
    out = capsys.readouterr().out
    assert "P(x) exact" in out


def test_voronoi_far_above_its_terms_counts_p_exactly(capsys):
    # x = 1e12 + 0.5 with the 9000 terms its phase guard allows: P(x) from the lattice count,
    # where a sieve to x would need a 4 TB table; the series stream r to 9000 alone
    x = 1000000000000.5
    assert run(["voronoi", "--x", str(x), "--n-terms", "9000"]) == 0
    exact = float(p_60_digits(x, lattice_count(int(x))))   # -3966.364034789438
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"P(x) exact            {exact:.12f}"
    trunc, hardy = special._series(arith.build_tables(9000), x, 9000,
                                   special._COSINE, special._BESSEL)
    assert lines[1].startswith(f"cosine sum (N terms)  {trunc:.12f}   residual ")
    assert lines[2].startswith(f"Bessel sum (N terms)  {hardy:.12f}   residual ")


def test_voronoi_count_past_2_53_exits_3(capsys):
    # S(m) ~ pi 2.9e15 reaches 2^53, past which float64 sums are not exact
    assert run(["voronoi", "--x", "2.9e15", "--n-terms", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: partial sums reach 9.11")
    assert err.endswith(" by n=2900000000000000; float64 sums are exact only below 2^53\n")


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["correlate", "--n", "500", "--h-max", "8"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_format_value_rationals():
    assert cli.format_value(Fraction(80, 1)) == "80/1"
    assert cli.format_value(Fraction(-32, 3)) == "-32/3"
    assert cli.format_value(10) == "10"
