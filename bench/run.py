"""End-to-end benchmark of the isocayley CLI on three seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload forms-scan --seed 1 --seconds 15 --trace 0

Load is a closed loop: one client, one operation at a time, one process.
An operation is one real CLI invocation (``cli.main(argv + ["--out",
dir])``) in a child forked from this process after it has imported the
package, so operations share no in-process state.  Passes over the
workload's operations repeat with the same inputs until ``--seconds`` of
operation time is spent; each operation's time is its median over the
passes.  Every operation is checked (exit code, shipped schemas, verdict
fields, manifest digests, digest equality across passes); a failed
operation is counted, never dropped or retried.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (one untraced pass first, to report the
tracing overhead).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and a report with the machine, the
method and each operation's artifact digests.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# BLAS reads its thread count when numpy loads, so the pin is set before
# the package is imported (in main) and inherited by every child.
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
WORK_DIR = ".bench_work"
WORKLOADS = ("forms-scan", "walk-streams", "isogeny-cap")

# the gated end-to-end metrics (BENCHMARK.json): every workload reports each
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_geomean_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=15,
                    help="operation time to measure; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure_setup(src: str) -> list[float]:
    """Fresh interpreter start until ``import isocayley.cli`` returns.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    and ours before the start are on one clock."""
    env = dict(os.environ, PYTHONPATH=src)
    code = "import isocayley.cli, time; print(repr(time.monotonic()))"
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        out.append(float(done.stdout) - t0)
    return out


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas_threads": BLAS_PIN,
    }


def timing_metrics(passes: list[dict]) -> dict:
    """Each operation's median over the passes, then the per-command sums,
    the pass total (``wall_s``), their geometric mean and the largest RSS.
    A median per operation lets a noisy moment spoil one run of one
    operation without moving the figure."""
    out: dict[str, float] = {}
    walls, rss = [], []
    for runs in zip(*(p["ops"] for p in passes)):
        wall = statistics.median(r.wall_s for _, r in runs)
        out[runs[0][0]] = out.get(runs[0][0], 0.0) + wall
        walls.append(wall)
        rss.append(statistics.median(r.peak_rss_mb for _, r in runs))
    out["wall_s"] = sum(walls)
    out["op_geomean_s"] = math.exp(statistics.fmean(math.log(w) for w in walls))
    out["peak_rss_mb"] = max(rss)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "isocayley", "cli.py")):
        print("bench: run from the repository root; src/isocayley is missing", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, src)
    # imported only now, after the pin and the path; every fork inherits them
    from ops import Run
    from tracer import LAYER_METRICS, layer_metrics
    from workloads import COMMAND_METRICS, GROUP48_FILE, GROUP48_TEXT

    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.abspath(WORK_DIR))
    try:
        with open(os.path.join(run_dir, GROUP48_FILE), "w", encoding="utf-8") as fh:
            fh.write(GROUP48_TEXT)
        run = Run(args.workload, args.seed, run_dir)
        method = {
            "load": "closed loop: one client, one operation at a time, one process",
            "isolation": "each operation runs in a child forked from a parent that has "
                         "imported isocayley, so operations share no in-process state",
            "timing": "operation time is fork to reap, taken as each operation's median "
                      "over the passes; wall_s sums one pass of those",
            "setup": f"median of {SETUP_REPEATS} fresh interpreters, start until "
                     "import isocayley.cli returns, bytecode cache warm",
            "spectrum_bound": "ROADMAP's find_expander_bound B <= 2000 case (21.9 s) is "
                              "represented by --bound 200 to keep runs short",
        }
        if args.trace:
            untraced = run.run_pass(trace=False)
            passes = run.run_passes(args.seconds, trace=True)
            method["tracing_overhead_s"] = (
                timing_metrics(passes)["wall_s"] - timing_metrics([untraced])["wall_s"])
            per_pass = [layer_metrics(p["trace"], p["artifact_bytes"]) for p in passes]
            metrics = {m: {"value": statistics.median(pp[m] for pp in per_pass), "unit": u}
                       for m, (u, _) in LAYER_METRICS.items()}
            table = metrics
        else:
            setup = measure_setup(src)
            passes = run.run_passes(args.seconds, trace=False)
            method["tracing_overhead_s"] = "reported by --trace 1 runs"
            values = timing_metrics(passes) | {"setup_s": statistics.median(setup)}
            metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
            table = {m: {"value": values.get(m), "unit": "s"} for m in COMMAND_METRICS}
            table |= metrics
            table["failed_ratio"] = {"value": len(run.failures) / run.attempted, "unit": "ratio"}
        failed = len(run.failures)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "passes": len(passes) + (1 if args.trace else 0),
            "pass_wall_s": [sum(r.wall_s for _, r in p["ops"]) for p in passes],
            "metrics": table,
            "machine": machine_block(),
            "method": method,
            "failures": run.failures,
            "digests": run.digests,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(f"isocayley bench: workload {args.workload}, seed {args.seed}, "
          f"{report['passes']} passes, {run.attempted} operations, {failed} failed")
    for name, m in table.items():
        value = "not run in this workload" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value} {m['unit'] if m['value'] is not None else ''}")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
