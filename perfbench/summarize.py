#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/summarize.py [--workloads a,b] [--seeds 1-10]
        [--seconds S] [--trace 0|1] [--smoke]

Runs `perfbench/run.py` once per workload and seed, then prints, for every
metric of the final JSON line, the median, the first and third quartiles
and the spread (IQR / |median|) over the runs, with the run count. Exits 1
if any run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            try:
                result = json.loads(last)
            except ValueError:
                result = None
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                sys.stdout.write(proc.stdout)
                continue
            runs.append(result["metrics"])
        print(f"{workload}: {len(runs)} runs")
        if not runs:
            continue
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            unit = runs[0][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = f"  <-- spread above a third of bound {bound}"
            print(f"  {name:<34} median {med:>14.4f} {unit:<6} q1 {q1:>12.4f} q3 {q3:>12.4f}"
                  f"  spread {spread:6.3f} (n={len(values)}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
