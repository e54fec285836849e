#!/usr/bin/env python3
"""Steadiness check: runs each workload N times and summarises the spread.

    python3 cprbench/steady.py --runs 10 [--workloads kv_mem,txn_tpcc]
                               [--seed-base 1] [--seconds 10] [--trace 0]

Run i of a workload uses seed seed-base + i. For every metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4),
min/max and the quartile spread (q3 - q1) as a share of the median, next
to the bound BENCHMARK.json allows. It also prints each workload's failed
share of attempted operations. The raw results go to
.cprbench_out/steady-<seed-base>.json. Exits non-zero if a run fails; a failed run's check messages are printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}

    raw = {}
    ok = True
    for w in args.workloads.split(","):
        raw[w] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})")
                for line in proc.stderr.splitlines():
                    if "CHECK FAILED" in line or "cprbench:" in line:
                        print("  " + line)
                ok = False
                continue
            res = json.loads(lines[-1])
            raw[w].append({"seed": seed, **res})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)

    print()
    print(f"{'workload':<11} {'metric':<34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
    for w, runs in raw.items():
        if not runs:
            continue
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(m)
            print(f"{w:<11} {m:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(vals):12.6g} {max(vals):12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(f"{w:<11} failed share {fail}/{att}")
    os.makedirs(os.path.join(ROOT, ".cprbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".cprbench_out",
                        f"steady-{args.seed_base}.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"raw results -> {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
