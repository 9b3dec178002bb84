#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the repository root.

    python3 perfbench/selftest.py perturb [--seconds S]
    python3 perfbench/selftest.py sensitivity [--workload W] [--runs R] [--seconds S]

perturb: runs every workload once as it is and once with --perturb, which
changes one byte of the benchmark's own copy of the recorded downlink
stream (on live_viewers, which has no recording, it withholds one
downlink message from one viewer).  The first run must report no failed
operation, the second a non-zero failure ratio.

sensitivity: the rule that a deliberate 10% slowdown is flagged while
noise is not.  R pairs of runs on seeds 1..R, alternating which side runs
first: A as it is against C, which busy-waits in every EgressFn call so
as to add about 10% of the per-op time (the headline metric of the first
A run) to each operation; then R pairs of A against B, both as they are.
A side is flagged worse when it loses at least 9 of 10 pairs on the
headline metric and its median differs from A's by more than the
distance between the quartiles of A's own runs — the rule for claiming
a difference between two versions.  Passes when C is flagged and B is
not.  The EgressFn is on the visibility path of live_viewers only; on
the replays the egress thread is not the bottleneck, so the same
slowdown is not expected to show there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HEADLINE = {"live_viewers": "visibility_p50_ms"}  # replays: notifier_ops_per_s


def run(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    if proc.returncode:
        sys.exit(f"selftest: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perturb(args, bench):
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        clean = run(w, 1, args.seconds)
        bad = run(w, 1, args.seconds, extra=["--perturb"])
        ratio = bad["failed"] / bad["attempted"]
        passed = clean["failed"] == 0 and clean["correct"] and ratio > 0
        ok &= passed
        print(f"{w:16s} clean failed {clean['failed']}/{clean['attempted']}, "
              f"perturbed failed {bad['failed']}/{bad['attempted']} "
              f"(ratio {ratio:.3g}): {'ok' if passed else 'FAIL'}")
    return ok


def paired(workload, headline, better, seconds, runs, extra):
    """Runs R pairs A/X, alternating order; returns (A values, X values, X losses)."""
    a_vals, x_vals, losses = [], [], 0
    for seed in range(1, runs + 1):
        pair = [("a", ()), ("x", extra)]
        if seed % 2 == 0:
            pair.reverse()
        got = {}
        for side, flags in pair:
            got[side] = run(workload, seed, seconds, extra=flags)["metrics"][headline]["value"]
        a_vals.append(got["a"])
        x_vals.append(got["x"])
        worse = got["x"] > got["a"] if better == "lower" else got["x"] < got["a"]
        losses += worse
    return a_vals, x_vals, losses


def flagged(a_vals, x_vals, losses):
    q = statistics.quantiles(a_vals, n=4)
    gap = abs(statistics.median(x_vals) - statistics.median(a_vals))
    return losses >= 0.9 * len(a_vals) and gap > q[2] - q[0], gap, q[2] - q[0]


def sensitivity(args, bench):
    w = args.workload
    headline = HEADLINE.get(w, "notifier_ops_per_s")
    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == headline)
    probe = run(w, 1, args.seconds)["metrics"][headline]["value"]
    per_op_ms = probe if headline.endswith("_ms") else 1e3 / probe
    frames = run(w, 1, args.seconds, trace=1)["metrics"]["runtime.frames_per_op"]["value"]
    spin_ns = int(0.10 * per_op_ms * 1e6 / frames)
    print(f"{w}: per-op time {per_op_ms:.4g} ms ({headline}), "
          f"{frames:.3g} EgressFn calls per op, injecting {spin_ns} ns per call")
    ok = True
    for label, extra, want in (("C (slowed)", ["--egress-spin-ns", str(spin_ns)], True),
                               ("B (as is)", [], False)):
        a, x, losses = paired(w, headline, better, args.seconds, args.runs, extra)
        flag, gap, iqr = flagged(a, x, losses)
        ok &= flag == want
        print(f"  {label}: median A {statistics.median(a):.5g} vs {statistics.median(x):.5g}, "
              f"worse in {losses}/{len(a)} pairs, gap {gap:.4g} vs A's IQR {iqr:.4g}: "
              f"{'flagged' if flag else 'not flagged'} ({'ok' if flag == want else 'FAIL'})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("test", choices=("perturb", "sensitivity"))
    ap.add_argument("--workload", default="live_viewers")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"] if args.test == "sensitivity" else 3
    ok = perturb(args, bench) if args.test == "perturb" else sensitivity(args, bench)
    print("selftest", args.test, "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
