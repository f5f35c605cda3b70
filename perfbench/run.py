"""circlekit benchmark: timed, checked in-process CLI workloads.

    python3 perfbench/run.py --workload sieve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; circlekit is imported from ./src.
The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it carries the run's details (machine
manifest, CSV digests, per-pass times, failed check names).  See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_circlekit():
    """Import circlekit from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import circlekit.cli

    where = Path(circlekit.__file__).resolve().parent
    if where != SRC / "circlekit":
        raise ImportError(f"circlekit was imported from {where}, not from {SRC}")
    return circlekit


def report_setup(args) -> int:
    """Child process: import the program, build the workload's inputs, report
    seconds since the parent launched this process."""
    import_circlekit()
    p = workloads.PARAMS[args.workload]
    workloads.commands(args.workload, p, OUT_ROOT)
    workloads.spot_samples(args.workload, p, args.seed)
    print((time.monotonic_ns() - args.setup_probe) / 1e9)
    return 0


def probe_setup(args) -> float:
    """Launch one setup probe and return its setup time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-probe", str(time.monotonic_ns())]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if level > best[0]:
            best = (level, value)
    return best[1]


def manifest(circlekit, name: str, p: dict, caps: dict) -> dict:
    import mpmath
    import numpy

    small = circlekit.arith.build_tables(1000)
    per_entry = (small.r.nbytes + small.d.nbytes + small.sigma.nbytes) / (small.limit + 1)
    table_bytes = int((workloads.largest_limit(name, p) + 1) * per_entry)
    llc = llc_bytes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "circlekit": circlekit.__version__,
        "nproc": nproc(),
        "thread_caps": caps,
        "llc_bytes": llc,
        "largest_table_bytes": table_bytes,
        "table_over_llc": table_bytes / llc if llc else None,
    }


def code_metrics(circlekit) -> dict:
    lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                for f in sorted((SRC / "circlekit").rglob("*.py")))
    return {"code.src_lines": (lines, "lines"),
            "code.public_names": (len(circlekit.__all__), "count")}


def timed_passes(seconds: float, run_one) -> None:
    """Call run_one() (which returns its wall time) until the next call is
    predicted to end past ``seconds``; always at least once."""
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()
        walls.append(run_one())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    caps = {var: str(nproc()) for var in THREAD_VARS}
    os.environ.update(caps)    # before numpy is imported, here and in the probes
    if args.setup_probe is not None:
        return report_setup(args)
    try:
        circlekit = import_circlekit()
    except ImportError as exc:
        print(f"perfbench: cannot import circlekit from {SRC}: {exc}", file=sys.stderr)
        return 2

    import checks
    from tracing import Tracer, installed, layer_metrics

    modules = {m: getattr(circlekit, m)
               for m in ("arith", "lattice", "laplace", "correlate", "special", "cli")}
    cli_main = circlekit.cli.main
    name, p = args.workload, workloads.PARAMS[args.workload]
    setup = []
    spots = workloads.spot_samples(name, p, args.seed)

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        cmds = workloads.commands(name, p, out_dir)
        passes, walls, cpus, traced_walls, layers = [], [], [], [], []

        def plain():
            # Probes run between passes, so they sample the machine across the
            # whole run rather than in one burst.
            if not args.trace and len(setup) < SETUP_PROBES:
                setup.append(probe_setup(args))
            c0 = cpu_seconds()
            wall, outputs = workloads.run_pass(cli_main, cmds)
            cpus.append(cpu_seconds() - c0)
            walls.append(wall)
            passes.append(outputs)
            return wall

        def traced(track_memory: bool):
            tracer = Tracer(memory=track_memory)
            if track_memory:
                tracemalloc.start()
            try:
                with installed(tracer, modules):
                    wall, outputs = workloads.run_pass(cli_main, cmds, around=tracer.command)
            finally:
                tracemalloc.stop()
            passes.append(outputs)
            return wall, layer_metrics(tracer)

        def pair():
            wall = plain()
            gc.collect()
            t_wall, m = traced(track_memory=False)
            traced_walls.append(t_wall)
            layers.append(m)
            return wall + t_wall

        if args.trace:
            # tracemalloc slows every allocation, so memory peaks come from one
            # pass of their own and the timed traced passes run without it.
            memory_wall, memory = traced(track_memory=True)
        timed_passes(args.seconds, pair if args.trace else plain)
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(probe_setup(args))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ck = checks.run_checks(name, p, passes, spots, circlekit.arith.r_single)
        info = manifest(circlekit, name, p, caps)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = {key: (statistics.median(m[key][0] for m in layers), layers[0][key][1])
                   for key in layers[0]}
        metrics.update({key: v for key, v in memory.items() if key.endswith(".peak_alloc_mib")})
        metrics["process.cpu_s"] = (statistics.median(cpus), "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0, "fraction")
        metrics.update(code_metrics(circlekit))
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    failures = ck.failures
    first = passes[0]
    detail = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "pass_wall_s": walls, "traced_pass_wall_s": traced_walls, "setup_runs_s": setup,
        "memory_pass_wall_s": memory_wall if args.trace else None,
        "fail_frac": len(failures) / ck.attempted,
        "failed_checks": failures[:20],
        "csv_sha256": {k: hashlib.sha256(o.csv).hexdigest() for k, o in first.items() if o.csv is not None},
        "machine": info,
    }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": ck.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
