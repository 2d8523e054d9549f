#!/usr/bin/env python3
"""Build and run the serving benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune (against the
toolkit sources in this checkout) and runs one workload; the last line
of stdout is the run's JSON result.  --trace 1 also writes the traced
replay's spans to _build/perfbench/spans-<workload>-<seed>.ndjson.

--self-test proves the output checks bite: every workload must fail
(exit 1, "correct": false) when one reference verdict is corrupted, a
load too small to support its p99 must fail without printing a result,
the metrics printed must be exactly those BENCHMARK.json declares, and
each workload's traced run must find its expected layer the largest.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["check-cold", "warm-renamed", "certify-solve"]
RUN_TIMEOUT_S = 170


def build():
    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def run(args, capture=False):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    try:
        done = subprocess.run(
            [EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def self_test():
    ok = True
    for w in WORKLOADS:
        code, out = run(["--workload", w, "--seed", "1", "--seconds", "3",
                         "--trace", "0", "--force-mismatch"], capture=True)
        last = (out or "").strip().splitlines()[-1:]
        result = json.loads(last[0]) if last else {}
        caught = code == 1 and result.get("correct") is False
        print("self-test %-14s corrupted reference: %s"
              % (w, "caught" if caught else "MISSED (exit %d)" % code))
        ok = ok and caught
    # A load of 200 requests has only two beyond its p99.
    code, out = run(["--workload", "check-cold", "--seed", "1", "--seconds",
                     "1", "--trace", "0", "--tests", "200"], capture=True)
    refused = code not in (0, 1) and not (out or "").strip()
    print("self-test %-14s p99 over 200 requests: %s"
          % ("check-cold", "refused" if refused else "REPORTED (exit %d)" % code))
    ok = ok and refused
    # The metrics printed must be exactly the ones BENCHMARK.json declares.
    printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    same = printed == declared("end_to_end")
    print("self-test %-14s printed = declared: %s"
          % ("end_to_end", "yes" if same else "NO"))
    ok = ok and same
    for w in WORKLOADS:
        code, out = run(["--workload", w, "--seed", "1", "--seconds", "1",
                         "--trace", "1", "--tests", "300"], capture=True)
        traced = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
        metrics = {k: v["value"] for k, v in traced.get("metrics", {}).items()}
        printed = {k: v["unit"] for k, v in traced.get("metrics", {}).items()}
        same = printed == declared("per_layer")
        largest, dominant = dominant_layer(w, metrics) if same else (None, False)
        print("self-test %-14s printed = declared: %s; largest layer %s "
              "(expected %s), residual %.1f %%"
              % (w, "yes" if same else "NO", largest, DOMINANT[w],
                 metrics.get("trace.residual_pct", float("nan"))))
        ok = ok and same and dominant
    return 0 if ok else 1


# The layer that must take the largest share of each workload's traced
# request time; cert.* groups certification (solver included), kernel
# re-verification and serialisation.
DOMINANT = {"check-cold": "check.enum", "warm-renamed": "canon.digest",
            "certify-solve": "cert"}
LAYERS = {"api.decode": ["api.decode_us"], "api.encode": ["api.encode_us"],
          "litmus.parse": ["litmus.parse_us"],
          "registry.resolve": ["registry.resolve_us"],
          "canon.digest": ["canon.digest_us"],
          "cache.lookup": ["cache.lookup_us"], "check.enum": ["check.enum_us"],
          "cert": ["cert.certify_us", "cert.kernel_us", "cert.serialize_us"],
          "serve.self": ["serve.self_us"]}


def dominant_layer(workload, metrics):
    """The largest layer, and whether it is the expected one (on
    warm-renamed, also that no cell missed the cache)."""
    times = {l: sum(metrics[m] for m in ms) for l, ms in LAYERS.items()}
    largest = max(times, key=times.get)
    ok = largest == DOMINANT[workload]
    if workload == "warm-renamed":
        ok = ok and metrics["cache.misses_per_req"] == 0
    return largest, ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test()
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        spans = os.path.join(ROOT, "_build", "perfbench")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans",
                 os.path.join(spans, "spans-%s-%d.ndjson" % (a.workload, a.seed))]
    code, _ = run(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
