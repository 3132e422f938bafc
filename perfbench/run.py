#!/usr/bin/env python3
"""Run one dnsboot benchmark workload and print its result.

    python3 perfbench/run.py --workload survey|monitor|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (and with it the dnsboot libraries from src/) in
.bench_build/ under the checkout root with an optimized build type, runs the
benchmark binary once, and prints:

  * a short human-readable summary (every metric by name and unit),
  * the binary's full report (fingerprint, checks, sample summaries) as one
    JSON line,
  * last, the result line: {"correct", "attempted", "failed", "metrics"}
    where metrics are BENCHMARK.json's end_to_end metrics with --trace 0
    and its per_layer metrics with --trace 1.

Exits 1 without a result line when the build or the run fails, and 1 after
the result line when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "dnsboot-perfbench"
WORKLOADS = ("survey", "monitor", "serve")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark binary incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    command = ["cmake", "--build", str(BUILD_DIR), "--target", "dnsboot-perfbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return 1
    report = json.loads(lines[-1])

    names = metric_names(args.trace)
    source = report["per_layer" if args.trace else "end_to_end"]
    missing = [name for name in names if name not in source]
    if missing:
        log(f"perfbench: workload did not report {', '.join(missing)}")
        return 1
    metrics = {name: {"value": source[name]["value"], "unit": source[name]["unit"]}
               for name in names}

    fp = report["fingerprint"]
    if fp["flagged"]:
        log(f"perfbench: WARNING: build_type={fp['build_type']} "
            f"dnsboot_verify={fp['dnsboot_verify']} — not a Release, "
            "verifier-free build; numbers are not comparable")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={fp['nproc']} cpu={fp['cpu_model']!r} {fp['compiler']} "
          f"{fp['build_type']} verify={fp['dnsboot_verify']}")
    for name, m in metrics.items():
        print(f"#   {name:36s} {m['value']:.6g} {m['unit']}")
    for name, m in report["detail"].items():
        print(f"#   {name:36s} {m['value']:.6g} {m['unit']}")
    for failure in report["check_failures"]:
        print(f"# FAILED CHECK: {failure}")
    print(json.dumps(report))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
