#!/usr/bin/env python3
"""gter benchmark entry point: builds the program from source, runs a workload.

From the root of a checkout of the repository:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last stdout line is the result JSON; --trace 0 prints the
      end-to-end metrics, --trace 1 the per-layer ones.
  python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
      Every workload, untraced then traced, with a summary table. Exits
      non-zero when any output check or operation failed.
  python3 perfbench/run.py --selftest
      The harness's own tests.

Workloads: fusion_sparse, fusion_dense, serve_read, serve_ingest (see
perfbench/README.md). The first call configures and builds into
.bench_build/ (a few minutes); later calls rebuild only what changed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "work")
WORKLOADS = ["fusion_sparse", "fusion_dense", "serve_read", "serve_ingest"]
# A run must end within 180 s; the harness's own watchdog fires at 170 s.
RUN_TIMEOUT_S = 178


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_sources():
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/gterd.cc"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die(f"gter sources not found ({rel} is missing); run from the root "
                "of a checkout of the repository")


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "perfbench", "perfbench_selftest", "gterd"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def run_workload(workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, stdout lines)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--gterd", os.path.join(BUILD, "gter", "tools", "gterd"),
           "--workdir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} overran {RUN_TIMEOUT_S} s", code=3)
    return proc.returncode, proc.stdout.splitlines()


def run_all(seed, seconds):
    ok = True
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_workload(workload, seed, seconds, trace)
            if code != 0 or not lines:
                ok = False
            if not lines:
                print(f"{workload} trace={trace}: no result (exit {code})")
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            rows.append((workload, trace, result))
    for workload, trace, result in rows:
        kind = "per-layer (traced)" if trace else "end-to-end"
        print(f"\n{workload} {kind}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print("\nALL CHECKS PASSED" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.selftest or args.workload):
        die("one of --workload, --all or --selftest is required")
    if args.seconds < 1:
        die("--seconds must be at least 1")

    check_sources()
    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if args.all:
        return run_all(args.seed, args.seconds)
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
