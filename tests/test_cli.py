import argparse
import json
from fractions import Fraction

import pytest

from circlekit import arith, cli, laplace, lattice
from circlekit.errors import CapacityError


def run(args):
    return cli.main(args)


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
    header, rows = cli.read_csv(str(out))
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


def test_impossible_limit_exits_3(tmp_path, capsys):
    assert run(["sieve", "--limit", str(10**19)]) == 3
    assert "capacity error: cannot allocate sieve tables for N=10000000000000000000" \
        in capsys.readouterr().err
    assert run(["sieve", "--limit", str(10**400)]) == 3   # N / 2**20 overflows a float
    assert f"capacity error: cannot allocate sieve tables for N={10**400} (~" \
        in capsys.readouterr().err
    out = tmp_path / "x.csv"   # T^1.5 overflows float64 when sizing the sieve
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
    for name in ("_r_sieve", "_divisor_sieve"):
        monkeypatch.setattr(arith, name, unreachable)
    assert run(["constants", "r_squared", "--terms", str(10**19)]) == 3
    assert "capacity error: cannot allocate sieve tables for N=10000000000000000000" \
        in capsys.readouterr().err


@pytest.mark.parametrize("failing, argv", [
    ("_r_sieve", ["sieve", "--limit", "1000"]),
    ("_divisor_sieve", ["sieve", "--limit", "1000"]),
    ("_r_sieve", ["error-term", "circle", "--x-max", "1000"]),   # r is first read in step_profile
    ("_r_sieve", ["error-term", "circle", "--x-max", "1e7"]),
])
def test_memory_error_in_lazy_sieve_exits_3(tmp_path, monkeypatch, capsys, failing, argv):
    def out_of_memory(*args):
        raise MemoryError
    monkeypatch.setattr(arith, failing, out_of_memory)
    N = int(float(argv[-1]))   # each argv ends with the sieve limit
    needed = {1000: "~0 MiB", 10**7: "~38 MiB"}[N]   # (N + 1) * 4 B of the int32 r or d alone
    if argv[0] == "error-term":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 3
    assert (f"capacity error: cannot allocate sieve tables for N={N} ({needed} needed)"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, sieves", [
    (["error-term", "circle", "--x-max", "200", "--samples", "4"], (1, 0)),
    (["constants", "r_squared", "--terms", "100"], (1, 0)),
    (["correlate", "--n", "50", "--h-max", "3"], (1, 0)),
    (["voronoi", "--x", "100.5", "--n-terms", "50"], (1, 0)),
    (["laplace", "circle", "--t-list", "16,32"], (1, 0)),
    (["error-term", "divisor", "--x-max", "200", "--samples", "4"], (0, 1)),
    (["laplace", "divisor", "--t-list", "16,32"], (0, 1)),
    (["constants", "d_squared", "--terms", "100"], (0, 1)),
    (["sieve", "--limit", "100"], (1, 2)),
])
def test_commands_sieve_only_the_tables_they_read(tmp_path, monkeypatch, argv, sieves):
    calls = {"_r_sieve": 0, "_divisor_sieve": 0}

    def counted(name):
        sieve = getattr(arith, name)

        def count(*args):
            calls[name] += 1
            return sieve(*args)
        return count
    for name in calls:
        monkeypatch.setattr(arith, name, counted(name))
    if argv[0] in {"error-term", "correlate", "laplace"}:
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 0
    assert (calls["_r_sieve"], calls["_divisor_sieve"]) == sieves


def test_correlate_round_trip(tmp_path):
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--n", "10", "--h-max", "3", "--out", str(out)]) == 0
    header, rows = cli.read_csv(str(out))
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
    c = laplace.series_limit(laplace.D_SQUARED)
    scan = laplace.residual_scan(profile, c, cli._parse_t_list(params["t_list"]), params["rel_tol"])
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
    header, rows = cli.read_csv(str(out))
    assert header == ["T", "integral", "truncation_bound", "main_term", "residual", "ratio_t23"]
    assert [r[0] for r in rows] == [16.0, 32.0, 64.0]
    printed = capsys.readouterr().out
    assert "slope" in printed


def test_laplace_divisor_scan(tmp_path, capsys, divisor_4k):
    out = tmp_path / "lapd.csv"
    rc = run(["laplace", "divisor", "--t-list", "16..64", "--out", str(out)])
    assert rc == 0
    header, rows = cli.read_csv(str(out))
    assert header == ["T", "integral", "truncation_bound", "main_term", "residual"]
    assert [r[0] for r in rows] == [16.0, 32.0, 64.0]
    printed = capsys.readouterr().out
    assert "series constant (closed form) 38.745144143901" in printed
    scan = laplace.residual_scan(divisor_4k, laplace.series_limit(laplace.D_SQUARED),
                                 [16.0, 32.0, 64.0])
    assert f"fitted A1 {laplace.fit_a1(scan).a1:.7f} " in printed

    rc = run(["laplace", "divisor", "--t-list", "16,32", "--out", str(out)])
    assert rc == 0
    assert [r[0] for r in cli.read_csv(str(out))[1]] == [16.0, 32.0]
    assert "fitted A1" not in capsys.readouterr().out


def test_laplace_sieves_what_a_tight_tolerance_needs(tmp_path):
    # a fixed 40 T_max sieve (163,840) ends before this scan stops
    out = tmp_path / "lap.csv"
    assert run(["laplace", "circle", "--t-list", "4096", "--rel-tol", "1e-14",
                "--out", str(out)]) == 0
    [[T, integral, truncation_bound, *_]] = cli.read_csv(str(out))[1]
    assert truncation_bound < 1e-14 * integral
    manifest = json.loads((tmp_path / "lap.csv.manifest.json").read_text())
    assert manifest["sieve_limit"] % 4096 == 0 and manifest["sieve_limit"] > 40 * 4096


def test_laplace_rebuilds_at_the_limit_a_scan_names(tmp_path, monkeypatch):
    argv = ["laplace", "divisor", "--t-list", "100,150,1000.5", "--rel-tol", "1e-3", "--out"]
    sized, retried = tmp_path / "sized.csv", tmp_path / "retried.csv"
    assert run(argv + [str(sized)]) == 0
    built = []
    build_tables, stop_edge = arith.build_tables, laplace.stop_edge
    monkeypatch.setattr(arith, "build_tables", lambda limit: built.append(limit) or build_tables(limit))
    # the first call, before any table is built, is the command's prediction:
    # undershoot it to one block, so the first sieve spans two
    monkeypatch.setattr(laplace, "stop_edge", lambda kind, T, rel_tol, total: (
        stop_edge(kind, T, rel_tol, total) if built else laplace.block_size(T)))
    assert run(argv + [str(retried)]) == 0
    assert retried.read_bytes() == sized.read_bytes()
    assert built[0] == 2 * 1001 and len(built) > 1 and built == sorted(set(built))
    manifest = json.loads((tmp_path / "retried.csv.manifest.json").read_text())
    assert manifest["sieve_limit"] == built[-1]


def test_laplace_scan_that_cannot_stop_exits_3(tmp_path, capsys):
    # rel_tol times T = 1's integral underflows to 0, which no tail bound is
    # below; the limit this names is below the sieve T = 1000 sized, so no rebuild
    out = tmp_path / "x.csv"
    assert run(["laplace", "divisor", "--t-list", "1,1000", "--rel-tol", "5e-324",
                "--out", str(out)]) == 3
    assert "capacity error: T=1 at rel_tol=4.94066e-324 needs sieve limit > 747 T: " \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_settable_values():
    # every argument of the top-level parser and of each subcommand, --help
    # excluded, as the CI report counts them: a new option is a deliberate edit here
    p = cli.build_parser()
    subs = next(a for a in p._actions if isinstance(a, argparse._SubParsersAction))
    n = sum(not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
            for q in (p, *subs.choices.values()) for a in q._actions)
    assert n == 17


@pytest.mark.parametrize("kind", ["circle", "divisor"])
@pytest.mark.parametrize("t_list", ["256,128", "256,128,64", "64,64", "0.5", "0.5..64",
                                    "nan", "16,inf", "16..inf", ",", "x,16"])
def test_laplace_bad_t_list_exits_2(tmp_path, capsys, kind, t_list):
    rc = run(["laplace", kind, "--t-list", t_list, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_constants_command(capsys):
    assert run(["constants", "r_squared", "--terms", "20000"]) == 0
    out = capsys.readouterr().out
    assert "closed form       50.15605614" in out
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


def test_voronoi_command(capsys):
    assert run(["voronoi", "--x", "1000.5", "--n-terms", "1000"]) == 0
    out = capsys.readouterr().out
    assert "P(x) exact" in out


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
