"""tools/gates.py: each gate and report at a small size, as CI runs it at 1e8, and each gate's
check handed an output tampered by the least that must fail it."""

import csv
import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from circlekit import arith, cli
from conftest import corr_sum, sigma_count

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("gates", TOOLS / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)

N = 100_000

# NAME: the call at a small size, and a line its stdout must hold
CALLS = {
    "sieve": (f"sieve({N})", "sum sigma(n)     8224740835"),
    "error-term": (f"error_term({N})", "divisor: 64 rows, largest |value - exact| 0"),
    "correlate": (f"correlate({N}, 10)", "10 rows; raw and main exact: True"),
    "report-sieves": (f"report_sieves({N})", "sigma at N = 100000: table "),
    "report-transforms": ("report_transforms(512.0)",
                          "residual_scan divisor over the 3 T in one pass, streamed: "),
}


# the sieve gate once more at an odd N just past a power of 2: sigma's last packed word is
# that N's, and the weights that fold the even n in step at m = N >> e
EDGE = 2**17 + 1


def test_each_gate_and_report_passes_at_a_small_size():
    # each in a fresh interpreter, as CI runs each NAME: a gate's child started from this
    # process would count pytest's pages in its peak RSS
    assert set(CALLS) == set(gates.NAMES)
    calls = {**CALLS, f"sieve at {EDGE}": (f"sieve({EDGE})",
                                           f"sum sigma(n)     {sigma_count(EDGE)}")}
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import gates; sys.exit(gates.{call})"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, (call, _) in calls.items()}
    for name, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, (name, out, err)
        assert calls[name][1] in out, (name, out)


@pytest.mark.parametrize("argv", [[], ["sieves"], ["sieve", "sieve"], ["sieve", "--n", "100"]])
def test_the_command_line_takes_one_name_and_no_option(argv):
    done = subprocess.run([sys.executable, str(TOOLS / "gates.py"), *argv],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == ("usage: python3 tools/gates.py "
                           "{sieve,error-term,correlate,report-sieves,report-transforms}\n")


def _tampered(text: str, column: str, row: int, change) -> str:
    """The CSV text with one cell changed."""
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][column] = change(rows[row][column])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_the_sieve_check_fails_on_a_sum_off_by_one(capsys):
    assert cli.main(["sieve", "--limit", str(N)]) == 0
    out = capsys.readouterr().out
    assert gates.sieve_sums_exact(out, N)
    for label in ("sum r(n)", "sum d(n)", "sum sigma(n)"):
        line = next(line for line in out.splitlines() if line.startswith(label))
        tampered = out.replace(line, f"{label} {int(line.split()[-1]) + 1}")
        assert not gates.sieve_sums_exact(tampered, N)


@pytest.mark.parametrize("kind", ["circle", "divisor"])
def test_the_error_term_check_fails_on_a_value_off_by_1e_5(kind, tmp_path, capsys):
    path = tmp_path / "scan.csv"
    assert cli.main(["error-term", kind, "--x-max", str(N), "--samples", "64",
                     "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert gates.error_term_exact(kind, text)
    assert not gates.error_term_exact(kind, _tampered(text, "value", 17,
                                                      lambda v: repr(float(v) + 1e-5)))
    assert not gates.error_term_exact(kind, "".join(text.splitlines(keepends=True)[:-1]))


def test_the_correlate_check_fails_on_a_raw_off_by_one(tmp_path, capsys):
    path = tmp_path / "corr.csv"
    assert cli.main(["correlate", "--n", str(N), "--h-max", "10", "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert gates.correlate_exact(text, N, 10)
    assert not gates.correlate_exact(_tampered(text, "raw", 4, lambda v: str(int(v) + 1)), N, 10)


@pytest.mark.parametrize("n, h_max", [(7, 3), (65537, 1000)])
def test_raw_sums_equal_the_table_oracle(n, h_max):
    # the recount carries h_max entries across r's 2^15-entry segments
    tables = arith.build_tables(n + h_max)
    assert gates.raw_sums(n, h_max) == [corr_sum(tables, n, h) for h in range(1, h_max + 1)]
