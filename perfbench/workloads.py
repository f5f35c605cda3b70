"""The benchmark's workloads: fixed sequences of in-process CLI calls.

One caller, closed loop: each command starts only after the previous one
returns, the way a researcher scripts the CLI.  Sizes never depend on the
seed; the seed only picks the spot-check samples, so every seed does the
same work.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path

# Full-size parameters.  The self-tests run the same code at smaller sizes.
PARAMS = {
    "sieve": {"limit": 10_000_000, "x_max": 10_000_000, "samples": 64, "terms": 10_000_000},
    "transform": {"t_circle": (64, 32768), "t_divisor": (128, 32768),
                  "vor_x": 100000.5, "vor_terms": 100_000, "rel_tol": 1e-6},
    "corr-gauss": {"n": 1_000_000, "h_max": 1000, "k_max": 500},
}

SPOT_H = 8      # correlation rows re-dotted per run
SPOT_N = 16     # table entries checked against arith.r_single per run


@dataclass(frozen=True)
class Command:
    key: str
    argv: list[str]
    csv: Path | None


@dataclass(frozen=True)
class Output:
    rc: int
    stdout: str
    stderr: str
    csv: bytes | None


def commands(name: str, p: dict, out_dir: Path) -> list[Command]:
    def out(stem: str) -> Path:
        return out_dir / f"{stem}.csv"

    if name == "sieve":
        return [
            Command("sieve", ["sieve", "--limit", str(p["limit"])], None),
            Command("error-term", ["error-term", "circle", "--x-max", f"{p['x_max']:g}",
                                   "--samples", str(p["samples"]), "--out", str(out("p_scan"))],
                    out("p_scan")),
            Command("constants", ["constants", "r_squared", "--terms", str(p["terms"])], None),
        ]
    if name == "transform":
        tc, td, tol = p["t_circle"], p["t_divisor"], repr(p["rel_tol"])
        return [
            Command("laplace-circle", ["laplace", "circle", "--t-list", f"{tc[0]}..{tc[1]}",
                                       "--rel-tol", tol, "--out", str(out("lap"))], out("lap")),
            Command("laplace-divisor", ["laplace", "divisor", "--t-list", f"{td[0]}..{td[1]}",
                                        "--rel-tol", tol, "--out", str(out("lapd"))], out("lapd")),
            Command("voronoi", ["voronoi", "--x", repr(p["vor_x"]),
                                "--n-terms", str(p["vor_terms"])], None),
        ]
    if name == "corr-gauss":
        return [
            Command("correlate", ["correlate", "--n", str(p["n"]), "--h-max", str(p["h_max"]),
                                  "--out", str(out("corr"))], out("corr")),
            Command("gauss", ["gauss", "--k-max", str(p["k_max"])], None),
        ]
    raise ValueError(f"unknown workload {name!r}")


def largest_limit(name: str, p: dict) -> int:
    """Largest sieve limit any command of the workload builds."""
    if name == "sieve":
        return max(p["limit"], p["x_max"], p["terms"])
    if name == "transform":   # laplace sieves to 40 T_max by default
        return max(40 * p["t_circle"][1], 40 * p["t_divisor"][1], p["vor_terms"], int(p["vor_x"]) + 1)
    return p["n"] + p["h_max"]


def spot_samples(name: str, p: dict, seed: int) -> dict:
    """Seed-chosen spot checks: correlation lags h and table indices n."""
    if name != "corr-gauss":
        return {}
    rng = random.Random(seed)
    return {
        "h": sorted(rng.sample(range(1, p["h_max"] + 1), min(SPOT_H, p["h_max"]))),
        "n": sorted(rng.randrange(1, p["n"] + p["h_max"] + 1) for _ in range(SPOT_N)),
    }


def run_pass(cli_main, cmds: list[Command], around=None) -> tuple[float, dict[str, Output]]:
    """Run the command sequence once; return its wall time and every output.

    ``around()`` may return a context manager entered around each call
    (the tracer's per-command span).  CSVs are read after the timed region.
    """
    for cmd in cmds:
        if cmd.csv is not None:
            cmd.csv.unlink(missing_ok=True)   # a failed command must not leave an old CSV behind
    captured = []
    t0 = time.perf_counter()
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        span = around() if around else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(cmd.argv))
        captured.append((cmd, rc, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - t0
    outputs = {}
    for cmd, rc, so, se in captured:
        data = cmd.csv.read_bytes() if cmd.csv is not None and cmd.csv.exists() else None
        outputs[cmd.key] = Output(rc=rc, stdout=so, stderr=se, csv=data)
    return wall, outputs
