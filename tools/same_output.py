#!/usr/bin/env python3
"""Check that this working tree gives the same output as another revision.

    python3 tools/same_output.py REV [--allow ID:FIELD ...]

REV (a commit, branch or tag) is exported with `git archive` into a temporary
directory.  Each command of the fixed list below then runs on both trees, each in a
fresh process (`python -m circlekit.cli` with PYTHONPATH on that tree's src/) and a
fresh empty directory.  The fields compared are:

    rc        the exit code
    stdout    the standard output
    stderr    the standard error
    csv       the names of the files the command wrote and the SHA-256 of each CSV
    manifest  each <out>.manifest.json, all keys but wall_time

A change made on purpose is named with --allow ID:FIELD (FIELD may be *), once per
command and field.  The script exits 0 when every difference is allowed, 1 otherwise,
and 2 when the list misses a command line of the README or a tree would not import its
own circlekit (an installed one shadowing it).
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("rc", "stdout", "stderr", "csv", "manifest")

# (id, command line after `circlekit`).  Every --out names a file in the command's own
# directory.  A command is listed once, under its first group.
COMMANDS = [
    # the README's command-line examples (checked against README.md on every run)
    ("readme-sieve-1e6", "sieve --limit 1000000"),
    ("readme-sieve-1e7", "sieve --limit 10000000"),
    ("readme-error-term-circle", "error-term circle --x-max 1e6 --samples 64 --out p_scan.csv"),
    ("readme-correlate", "correlate --n 100000 --h-max 316 --out corr.csv"),
    ("readme-laplace-circle", "laplace circle --t-list 64..8192 --out lap.csv"),
    ("readme-laplace-divisor", "laplace divisor --t-list 128..8192 --out lapd.csv"),
    ("readme-constants-r", "constants r_squared --terms 1000000"),
    ("readme-constants-d", "constants d_squared --terms 1000000"),
    ("readme-error-term-divisor", "error-term divisor --x-max 1e6 --samples 64 --out pd_scan.csv"),
    ("readme-gauss", "gauss --k-max 500"),
    ("readme-voronoi-1e5", "voronoi --x 100000.5 --n-terms 100000"),
    ("readme-voronoi-1e7", "voronoi --x 100000.5 --n-terms 10000000"),
    # the benchmark workloads' commands (perfbench/workloads.py) not listed above
    ("workload-error-term", "error-term circle --x-max 1e+07 --samples 64 --out p_scan.csv"),
    ("workload-constants", "constants r_squared --terms 10000000"),
    ("workload-laplace-circle", "laplace circle --t-list 64..32768 --rel-tol 1e-06 --out lap.csv"),
    ("workload-laplace-divisor",
     "laplace divisor --t-list 128..32768 --rel-tol 1e-06 --out lapd.csv"),
    ("workload-correlate", "correlate --n 1000000 --h-max 1000 --out corr.csv"),
    # laplace scans whose fold carries rows from block to block (T lists that do not double)
    ("laplace-circle-carry-1001", "laplace circle --t-list 7.5,33.3,1000.5,4096 --out lap.csv"),
    ("laplace-divisor-carry-1001",
     "laplace divisor --t-list 7.5,33.3,1000.5,4096 --out lapd.csv"),
    ("laplace-circle-carry-1000", "laplace circle --t-list 100,150,1000,1500 --out lap.csv"),
    ("laplace-divisor-carry-1000", "laplace divisor --t-list 100,150,1000,1500 --out lapd.csv"),
    # correlate's carry: across several r segments, past one block edge, and one tiny block
    ("correlate-carry-segments", "correlate --n 100000 --h-max 40000 --out corr.csv"),
    ("correlate-block-edge", "correlate --n 65537 --h-max 1000 --out corr.csv"),
    ("correlate-tiny", "correlate --n 7 --h-max 3 --out corr.csv"),
    # sieve's packed d and sigma of the odd n: the smallest limits, where the weights that fold
    # the even n in step at every N; 2^18 - 1..2^18 + 1; the 2^18-word segment's edge at
    # 2^19 (its 2^18 odd n) and 2^20
    *((f"sieve-{n}", f"sieve --limit {n}")
      for n in (1, 2, 3, 4, 5, 6, 7, 8, 262143, 262144, 262145, 524287, 524288, 524289,
                1048575, 1048576, 1048577)),
    # d streamed across several of its 2^20-entry int16 segments
    ("constants-d-3e6", "constants d_squared --terms 3000000"),
    ("error-term-divisor-3e6", "error-term divisor --x-max 3e6 --samples 64 --out pd_scan.csv"),
    # voronoi: P(x) at an integer x (its final term halved), at a square, far above the terms
    # and at the smallest inputs; the terms at r's 2^15-entry segment edge and the 2^16 block's
    ("voronoi-integer-x", "voronoi --x 1000000 --n-terms 1000"),
    ("voronoi-square-x", "voronoi --x 1024 --n-terms 2048"),
    ("voronoi-x-far-above-terms", "voronoi --x 1000000.5 --n-terms 2"),
    ("voronoi-smallest", "voronoi --x 2 --n-terms 2"),
    ("voronoi-segment-edge", "voronoi --x 100.5 --n-terms 32768"),
    ("voronoi-segment-edge-plus-1", "voronoi --x 100.5 --n-terms 32769"),
    ("voronoi-block-edge-plus-1", "voronoi --x 100.5 --n-terms 65537"),
    # usage errors (exit 2)
    ("usage-sieve-limit-0", "sieve --limit 0"),
    ("usage-error-term-inf", "error-term circle --x-max inf --out x.csv"),
    ("usage-error-term-nan", "error-term circle --x-max nan --out x.csv"),
    ("usage-error-term-no-dir", "error-term circle --x-max 10 --out missing/x.csv"),
    ("usage-voronoi-x-inf", "voronoi --x inf --n-terms 10"),
    ("usage-voronoi-x-nan", "voronoi --x nan --n-terms 10"),
    ("usage-voronoi-n-terms-ten", "voronoi --x 100.5 --n-terms ten"),
    ("usage-voronoi-phase-range", "voronoi --x 1e12 --n-terms 10000"),
    ("usage-correlate-h-over-n", "correlate --n 5 --h-max 10 --out x.csv"),
    ("usage-gauss-k-0", "gauss --k-max 0"),
    ("usage-rel-tol-0", "laplace circle --t-list 64 --rel-tol 0 --out x.csv"),
    ("usage-rel-tol-nan", "laplace circle --t-list 64 --rel-tol nan --out x.csv"),
    ("usage-rel-tol-inf", "laplace circle --t-list 64 --rel-tol inf --out x.csv"),
    ("usage-rel-tol-1", "laplace circle --t-list 64 --rel-tol 1 --out x.csv"),
    ("usage-t-list-empty", "laplace circle --t-list '' --out x.csv"),
    ("usage-t-list-descending", "laplace circle --t-list 64,32 --out x.csv"),
    ("usage-t-list-below-1", "laplace circle --t-list 0.5 --out x.csv"),
    ("usage-t-list-to-inf", "laplace circle --t-list 64..inf --out x.csv"),
    ("usage-removed-precision", "--precision=5 sieve --limit 10"),
    ("usage-removed-precision-value", "--precision 5 error-term circle --x-max 10 --out x.csv"),
    ("usage-removed-limit-error-term", "error-term circle --x-max 100 --limit 100 --out x.csv"),
    ("usage-removed-limit-laplace", "laplace circle --t-list 64 --limit 3000 --out x.csv"),
    ("usage-removed-limit-constants", "constants r_squared --terms 100 --limit 1000"),
    # capacity errors (exit 3), each raised before any large allocation succeeds
    ("capacity-sieve-1e19", "sieve --limit 10000000000000000000"),
    ("capacity-sieve-1e400", "sieve --limit 1" + "0" * 400),
    ("capacity-error-term-1e30", "error-term circle --x-max 1e30 --out x.csv"),
    ("capacity-correlate-1e19", "correlate --n 10000000000000000000 --h-max 1 --out x.csv"),
    ("capacity-constants-1e19", "constants r_squared --terms 10000000000000000000"),
    ("capacity-laplace-1e307", "laplace circle --t-list 1e307 --out x.csv"),
    ("capacity-laplace-to-float-max",
     "laplace circle --t-list 1..1.7976931348623157e308 --out x.csv"),
    ("capacity-laplace-cannot-stop",
     "laplace divisor --t-list 1,1000 --rel-tol 5e-324 --out x.csv"),
    # scratch of ~10^16 doubles and more: past any address space, so each fails at once
    ("capacity-scratch-circle", "laplace circle --t-list 1e15 --rel-tol 0.5 --out x.csv"),
    ("capacity-scratch-divisor", "laplace divisor --t-list 1e15 --rel-tol 0.5 --out x.csv"),
    ("capacity-scratch-carried-window",
     "laplace circle --t-list 1e15,1.5e15 --rel-tol 0.5 --out x.csv"),
]


def readme_commands() -> list[str]:
    """The command lines of README.md's first code block under "## Command line", as CI
    reads them, without the leading `circlekit `."""
    out, section, fences = [], False, 0
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        section = section or line.startswith("## Command line")
        if section and line.startswith("```"):
            fences += 1
        elif section and fences == 1 and line.startswith("circlekit "):
            out.append(line[len("circlekit "):])
    return out


def export(rev: str, into: Path) -> Path:
    """The committed files of rev, extracted into a fresh directory under into."""
    tree = into / "rev"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def environment(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def imported_from(tree: Path) -> Path:
    """The file circlekit is imported from by a process that runs on tree."""
    probe = [sys.executable, "-c", "import circlekit; print(circlekit.__file__)"]
    return Path(subprocess.run(probe, env=environment(tree), capture_output=True, text=True,
                               check=True).stdout.strip())


def run(tree: Path, command: str, scratch: Path) -> dict:
    """One command on one tree in a fresh process and directory: its fields."""
    cwd = Path(tempfile.mkdtemp(dir=scratch))
    done = subprocess.run([sys.executable, "-m", "circlekit.cli", *shlex.split(command)],
                          cwd=cwd, env=environment(tree), capture_output=True, text=True)
    written = sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*") if p.is_file())
    csv, manifest = {}, {}
    for name in written:
        if name.endswith(".manifest.json"):
            manifest[name] = json.loads((cwd / name).read_text(encoding="utf-8"))
            manifest[name].pop("wall_time", None)
        else:
            csv[name] = hashlib.sha256((cwd / name).read_bytes()).hexdigest()
    return {"rc": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            "csv": csv, "manifest": manifest}


def show(old, new) -> str:
    """A short account of one differing field."""
    if isinstance(old, str):
        lines = difflib.unified_diff(old.splitlines(), new.splitlines(), "rev", "tree", n=0,
                                     lineterm="")
        return "\n".join("      " + line for line in list(lines)[2:12])
    return f"      rev: {old!r}\n      tree: {new!r}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare against, e.g. the merge base")
    ap.add_argument("--allow", action="append", default=[], metavar="ID:FIELD",
                    help="a difference made on purpose (FIELD one of %s, or *)" % ", ".join(FIELDS))
    args = ap.parse_args(argv)
    ids = {cid for cid, _ in COMMANDS}
    allowed = set()
    for item in args.allow:
        cid, _, field = item.partition(":")
        if cid not in ids or field not in (*FIELDS, "*"):
            ap.error(f"--allow {item!r}: no such command id or field")
        allowed.add((cid, field))
    missing = set(readme_commands()) - {command for _, command in COMMANDS}
    if missing:
        print("README commands missing from the list: " + "; ".join(sorted(missing)))
        return 2
    unallowed = 0
    with tempfile.TemporaryDirectory(prefix="same_output_") as tmp:
        base = export(args.rev, Path(tmp))
        for tree in (base, ROOT):   # an installed circlekit must not shadow either tree's
            found = imported_from(tree)
            if not found.is_relative_to(tree / "src"):
                print(f"circlekit imports from {found}, not from {tree / 'src'}")
                return 2
        for cid, command in COMMANDS:
            old, new = run(base, command, Path(tmp)), run(ROOT, command, Path(tmp))
            diffs = [f for f in FIELDS if old[f] != new[f]]
            bad = [f for f in diffs if not {(cid, f), (cid, "*")} & allowed]
            unallowed += len(bad)
            status = "DIFF" if bad else "allowed" if diffs else "same"
            print(f"{status:8} {cid}: rc {new['rc']}  circlekit {command[:70]}", flush=True)
            for f in diffs:
                print(f"    {f}{' (allowed)' if f not in bad else ''}:\n{show(old[f], new[f])}")
    print(f"{len(COMMANDS)} commands against {args.rev}: {unallowed} difference(s) not allowed")
    return 1 if unallowed else 0


if __name__ == "__main__":
    sys.exit(main())
