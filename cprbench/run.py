#!/usr/bin/env python3
"""Runs one workload of the end-to-end CPR benchmark.

    python3 cprbench/run.py --workload kv_mem --seed 1 --seconds 10 --trace 0

Builds the benchmark (cprbench/CMakeLists.txt, which compiles ../src) on
first use into $CARGO_TARGET_DIR/cprbench (default .bench_build), runs the
workload in its own process with its own scratch directory under
.cprbench_scratch/, removes that directory afterwards, and passes the
binary's output through: its last stdout line is the JSON result. A traced
run (--trace 1) also writes <workload>-seed<n>.trace.json (Chrome trace)
and .layers.json into .cprbench_out/. Exits non-zero when the build fails,
a check fails or the run does not finish in time.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_mem", "kv_wide", "kv_durable", "txn_tpcc")
CORRUPTIONS = ("lost_op", "serial_below_ack", "tpcc_lost_add",
               "read_your_writes")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "cprbench")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(bdir, "cprbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=CORRUPTIONS,
                    help="break one check on purpose (selftest.py)")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"cprbench: build failed: {e}", file=sys.stderr)
        return 1

    scratch_root = os.path.join(ROOT, ".cprbench_scratch")
    out_dir = os.path.join(ROOT, ".cprbench_out")
    os.makedirs(scratch_root, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=args.workload + "-", dir=scratch_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch, "--out", out_dir]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"cprbench: {args.workload} did not finish in "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
