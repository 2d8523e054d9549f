#!/usr/bin/env python3
"""Load-test the `smem serve` daemon and record the results.

Replays canonicalized corpus traffic (`smem api corpus-requests`) from
N concurrent TCP clients against a freshly started daemon, measures
closed-loop per-request latency and aggregate throughput, drains the
daemon with SIGTERM, restarts it on the same --store file, and replays
one more pass that must be answered entirely from the persistent
verdict store.

The measurements are written to BENCH_smem.json under a "serve" key.
Exit status gates on two claims:

  - throughput >= --min-throughput requests/second, and
  - the warm restart computed nothing (100% hits from the store).

With --corpus FILE the replayed traffic is a generated corpus artifact
(`smem corpus generate`) instead of the built-in matrix: the file is
passed through `smem api corpus-requests --corpus FILE`, so the daemon
serves one Check request per generated test.

Usage: serve_load.py [--exe PATH] [--clients N] [--repeat R]
                     [--out FILE] [--store FILE] [--min-throughput RPS]
                     [--corpus FILE]
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time


def fail(msg):
    print(f"serve-load: {msg}", file=sys.stderr)
    sys.exit(1)


def corpus_requests(exe, corpus=None):
    cmd = [exe, "api", "corpus-requests"]
    if corpus:
        cmd += ["--corpus", corpus]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"`{' '.join(cmd)}` failed: {out.stderr.strip()}")
    reqs = [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
    if not reqs:
        fail("corpus-requests produced no requests")
    return reqs


def start_daemon(exe, store, cache=65536):
    proc = subprocess.Popen(
        [exe, "serve", "--tcp", "127.0.0.1:0", "--store", store,
         "--cache", str(cache)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    seen = []
    while True:
        line = proc.stderr.readline()
        if not line:
            fail("daemon exited before listening: " + "".join(seen).strip())
        seen.append(line)
        if "listening on tcp://" in line:
            return proc, int(line.rsplit(":", 1)[1])


def drain(proc):
    """SIGTERM the daemon; return (exit_ok, stderr_tail)."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        return False, "daemon did not drain within 30s"
    tail = proc.stderr.read()
    return code == 0 and "drained, bye" in tail, tail.strip()


def replay(port, reqs, repeat, latencies, totals, cid):
    """One closed-loop client: send, await the reply, record latency."""
    s = socket.create_connection(("127.0.0.1", port))
    f = s.makefile("rw")
    lat, cached, computed, next_id = [], 0, 0, 0
    try:
        for _ in range(repeat):
            for req in reqs:
                next_id += 1
                line = json.dumps({**req, "id": next_id})
                t0 = time.monotonic()
                f.write(line + "\n")
                f.flush()
                resp = json.loads(f.readline())
                lat.append(time.monotonic() - t0)
                if resp.get("id") != next_id:
                    fail(f"client {cid}: reply {resp.get('id')} out of order "
                         f"(expected {next_id})")
                if not resp.get("ok"):
                    fail(f"client {cid}: request {next_id} failed: "
                         f"{json.dumps(resp.get('payload'))[:200]}")
                cached += resp.get("cached", 0)
                computed += resp.get("computed", 0)
    finally:
        s.close()
    latencies.extend(lat)
    totals[cid] = (cached, computed)


def percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(p / 100.0 * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe", default="_build/default/bin/smem.exe")
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3,
                    help="corpus passes per client")
    ap.add_argument("--out", default="BENCH_smem.json")
    ap.add_argument("--store", default="")
    ap.add_argument("--min-throughput", type=float, default=50.0,
                    help="gate: requests/second floor")
    ap.add_argument("--corpus", default="",
                    help="replay this generated corpus artifact instead of "
                         "the built-in matrix")
    args = ap.parse_args()

    store = args.store or f"/tmp/smem_serve_load_{os.getpid()}.store"
    if not args.store and os.path.exists(store):
        os.remove(store)
    reqs = corpus_requests(args.exe, corpus=args.corpus or None)

    # -- load phase: N concurrent clients against a cold daemon --------
    proc, port = start_daemon(args.exe, store)
    latencies, totals = [], {}
    threads = [
        threading.Thread(target=replay,
                         args=(port, reqs, args.repeat, latencies, totals, c))
        for c in range(args.clients)
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - t0
    drained, tail = drain(proc)
    if not drained:
        fail(f"drain after load failed: {tail}")

    total_reqs = args.clients * args.repeat * len(reqs)
    throughput = total_reqs / wall if wall > 0 else 0.0
    latencies.sort()
    p50_ms = percentile(latencies, 50) * 1000
    p99_ms = percentile(latencies, 99) * 1000

    # -- warm restart: same store, one pass, zero computed cells -------
    # The restart loads the store into the cache, whose shards evict
    # rows (one per test history) in FIFO order; a capacity of twice the
    # pass's cell count is far more rows than the pass has tests, so no
    # stored verdict is evicted before the replay reads it.
    cells = sum(totals[0]) // args.repeat
    proc, port = start_daemon(args.exe, store, cache=max(65536, 2 * cells))
    warm_lat, warm_totals = [], {}
    replay(port, reqs, 1, warm_lat, warm_totals, 0)
    drained, tail = drain(proc)
    if not drained:
        fail(f"drain after warm restart failed: {tail}")
    warm_cached, warm_computed = warm_totals[0]
    warm_cells = warm_cached + warm_computed
    warm_hit_rate = warm_cached / warm_cells if warm_cells else 0.0
    if not args.store:
        os.remove(store)

    section = {
        "corpus": args.corpus or "builtin",
        "clients": args.clients,
        "requests": total_reqs,
        "wall_s": round(wall, 6),
        "throughput_rps": round(throughput, 1),
        "p50_ms": round(p50_ms, 3),
        "p99_ms": round(p99_ms, 3),
        "min_throughput_rps": args.min_throughput,
        "warm_restart_cells": warm_cells,
        "warm_restart_computed": warm_computed,
        "warm_restart_hit_rate": round(warm_hit_rate, 4),
        "drained": True,
    }

    with open(args.out, "w") as f:
        json.dump({"serve": section}, f, indent=1)
        f.write("\n")

    print(f"serve-load: {args.clients} clients x {args.repeat} passes = "
          f"{total_reqs} requests in {wall:.2f}s "
          f"({throughput:.0f} req/s, p50 {p50_ms:.2f} ms, p99 {p99_ms:.2f} ms)")
    print(f"serve-load: warm restart {warm_cached}/{warm_cells} cells from "
          f"store (computed {warm_computed})")
    print(f"serve-load: wrote serve section to {args.out}")

    ok = True
    if throughput < args.min_throughput:
        print(f"serve-load: FAIL throughput {throughput:.0f} < floor "
              f"{args.min_throughput}", file=sys.stderr)
        ok = False
    if warm_computed != 0:
        print(f"serve-load: FAIL warm restart computed {warm_computed} "
              f"cells; expected all hits", file=sys.stderr)
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
