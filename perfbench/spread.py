#!/usr/bin/env python3
"""Run one workload K times in fresh processes and report each metric's
spread: median, first and third quartiles, and the quartile distance as
a share of the median, checked against BENCHMARK.json's bound.

    python3 perfbench/spread.py --workload check-cold --runs 10
    python3 perfbench/spread.py --workload certify-solve --runs 5 --trace 1

Run k uses seed k, and every run measures BENCHMARK.json's run_seconds.
--out FILE keeps every run's metrics as JSON, so a parent and a change
measured with the same command can be compared run by run.  Exits
nonzero when a run fails or reports correct: false.
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
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    a = p.parse_args()
    seconds = bench["run_seconds"]

    runs = []
    for seed in range(1, a.runs + 1):
        done = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(a.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit("seed %d: run failed (exit %d)" % (seed, done.returncode))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: correct is false (%d of %d failed)"
                     % (seed, result["failed"], result["attempted"]))
        runs.append({"seed": seed, "metrics": {
            k: v["value"] for k, v in result["metrics"].items()}})
        print("seed %-4d %s" % (seed, "  ".join(
            "%s=%.6g" % kv for kv in runs[-1]["metrics"].items())),
            flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("\n%-36s %14s %14s %14s %9s %7s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0], None, values[0])
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        # The spread of setup_s is not bounded, only its median's drift.
        flag = "" if bound is None or name == "setup_s" else (
            "  ok" if share < bound / 3 else
            "  WIDE" if share <= bound else "  FAIL")
        print("%-36s %14.6g %14.6g %14.6g %9.4f %7s%s  %s" % (
            name, med, q1, q3, share, "-" if bound is None else bound, flag,
            units.get(name, "")))
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "seconds": seconds,
                       "trace": a.trace, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
