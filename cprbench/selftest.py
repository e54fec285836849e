#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 cprbench/selftest.py

Runs short workloads with one check broken on purpose (run.py --corrupt)
and asserts that each run reports correct=false and exits non-zero:

  lost_op           kv_mem: the recovered store misses one committed write
  serial_below_ack  kv_durable: HELLO's recovered serial is taken as one
                    below the session's last durable ack
  tpcc_lost_add     txn_tpcc: one committed kAdd delta is taken back after
                    recovery
  read_your_writes  kv_mem: one read of the session's own slice comes back
                    altered

A clean kv_mem run must pass. Exits non-zero if any expectation fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = [
    ("clean", "kv_mem", None),
    ("lost_op", "kv_mem", "lost_op"),
    ("serial_below_ack", "kv_durable", "serial_below_ack"),
    ("tpcc_lost_add", "txn_tpcc", "tpcc_lost_add"),
    ("read_your_writes", "kv_mem", "read_your_writes"),
]


def main():
    ok = True
    for name, workload, corrupt in CASES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2"]
        if corrupt:
            cmd += ["--corrupt", corrupt]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        want_pass = corrupt is None
        passed = (proc.returncode == 0 and correct is True) == want_pass
        if not want_pass:
            passed = passed and proc.returncode != 0 and correct is False
        first = next((l for l in proc.stderr.splitlines()
                      if l.startswith("CHECK FAILED")), "")
        print(f"{'ok  ' if passed else 'FAIL'} {name:<17} {workload:<10} "
              f"exit={proc.returncode} correct={correct} {first}")
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
