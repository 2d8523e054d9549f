#!/usr/bin/env python3
"""Check the `smem serve` smoke-run output.

Usage: serve_smoke.py REQS RESPONSES [GOLDEN]

REQS is the request file produced by `smem api corpus-requests`
(optionally `--corpus FILE` for a generated corpus); RESPONSES is the
server's output for that file concatenated with itself (a cold pass
followed by a warm pass over one process).  Asserts that

  - every request got exactly one successful response, in order;
  - every verdict that carries an `expected` status agrees with it
    (stamp a generated corpus with `smem corpus generate --expect M`,
    which searches every cell, to compare served verdicts with a full
    search);
  - the warm pass computed nothing: every cell came from the cache;
  - warm verdicts are identical to cold verdicts; and
  - if GOLDEN is given (test/golden/verdicts.expected for the built-in
    corpus), the cold verdicts reproduce it exactly.
"""

import json
import sys


def fail(msg):
    print(f"serve-smoke: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) not in (3, 4):
        fail(f"usage: {sys.argv[0]} REQS RESPONSES [GOLDEN]")
    reqs_path, resp_path = sys.argv[1:3]
    golden_path = sys.argv[3] if len(sys.argv) == 4 else None

    with open(reqs_path) as f:
        reqs = [json.loads(line) for line in f if line.strip()]
    with open(resp_path) as f:
        resps = [json.loads(line) for line in f if line.strip()]

    n = len(reqs)
    if n == 0:
        fail("no requests generated")
    if len(resps) != 2 * n:
        fail(f"expected {2 * n} responses for two passes, got {len(resps)}")

    for i, r in enumerate(resps):
        # The server answers in the client's protocol version.
        want_schema = reqs[i % n].get("schema", "smem-api/1")
        if r.get("schema") != want_schema:
            fail(f"response {i}: schema {r.get('schema')!r}, "
                 f"request spoke {want_schema!r}")
        if not r.get("ok"):
            fail(f"response {i}: not ok: {json.dumps(r.get('payload'))}")

    cold, warm = resps[:n], resps[n:]

    def cells(r):
        return [
            (v["subject"], v["authority"], v["status"])
            for v in r["payload"]["verdicts"]
        ]

    disagree = [
        (i, v["subject"], v["authority"], v["status"], v["expected"])
        for i, r in enumerate(resps)
        for v in r["payload"]["verdicts"]
        if "expected" in v and v["status"] != v["expected"]
    ]
    for i, subject, model, got, want in disagree[:10]:
        fail_line = (f"response {i}: {subject} under {model} is {got}, "
                     f"expected {want}")
        print(f"serve-smoke: {fail_line}", file=sys.stderr)
    if disagree:
        fail(f"{len(disagree)} verdict(s) differ from their expected status")
    checked = sum(
        1 for r in resps for v in r["payload"]["verdicts"] if "expected" in v)

    computed_warm = sum(r["computed"] for r in warm)
    if computed_warm != 0:
        fail(f"warm pass computed {computed_warm} cells; expected all cache hits")
    for i, (c, w) in enumerate(zip(cold, warm)):
        if w["cached"] != len(cells(w)):
            fail(f"warm response {i}: only {w['cached']} of "
                 f"{len(cells(w))} cells marked cached")
        if cells(c) != cells(w):
            fail(f"response {i}: warm verdicts differ from cold verdicts")

    # The cold pass must reproduce the golden conformance suite.
    if golden_path:
        got = [
            f"{s:<18} {a:<12} {st}"
            for r in cold
            for (s, a, st) in cells(r)
        ]
        with open(golden_path) as f:
            want = [line.rstrip("\n") for line in f if line.strip()]
        if got != want:
            for i, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    fail(f"golden mismatch at line {i + 1}: "
                         f"got {g!r}, want {w!r}")
            fail(f"golden length mismatch: got {len(got)} lines, "
                 f"want {len(want)}")

    hits = sum(r["cached"] for r in warm)
    print(f"serve-smoke: ok — {n} requests/pass, {hits} warm cells all cached, "
          f"{checked} verdicts equal their expected status"
          + (", verdicts match golden" if golden_path else ""))


if __name__ == "__main__":
    main()
