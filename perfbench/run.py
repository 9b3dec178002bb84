#!/usr/bin/env python3
"""The repository benchmark (BENCHMARK.json at the repository root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (a standalone CMake
project over ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload of perfbench/spec.json
with inputs made from --seed for about --seconds of measurement, and
checks its outputs.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics (from a separate traced run,
summarized by summarize.py) with --trace 1.

Self-test flags, not used for measurements: --perturb changes one byte
of the benchmark's expected output (the run must then report failures);
--egress-spin-ns N busy-waits N ns in every EgressFn call.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed")
            sys.exit(1)
    return build_dir / "ccvc_perfbench", build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--egress-spin-ns", type=int, default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload}")
        sys.exit(2)
    workload = spec["workloads"][args.workload]
    binary, build_dir = build()

    cmd = [str(binary), "--workload", args.workload, "--kind", workload["kind"],
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for key, value in workload["params"].items():
        cmd += ["--param", f"{key}={value}"]
    if args.perturb:
        cmd.append("--perturb")
    if args.egress_spin_ns:
        cmd += ["--egress-spin-ns", str(args.egress_spin_ns)]
    spans = build_dir / "traces" / f"{args.workload}-{args.seed}-{os.getpid()}.spans"
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(spans)]

    try:
        # A run measures for --seconds in all, plus set-up and the
        # checks; one that takes twice that and a minute is hung.
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=2 * args.seconds + 60)
            lines = proc.stdout.strip().splitlines()
            status = f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            lines, status = [], "timed out, killed"
        if status == "exit 0" and lines:
            raw = json.loads(lines[-1])
        else:
            # The run aborted, died (a pipeline thread does not catch a
            # broken protocol invariant) or hung: every operation it was
            # to run failed.
            log(f"benchmark program aborted ({status})")
            p = workload["params"]
            planned = (p["sites"] * p["ops_per_site"] if workload["kind"] == "replay"
                       else p["rate_ops_per_s"] * args.seconds)
            raw = {"correct": False, "attempted": max(1, int(planned)),
                   "failed": max(1, int(planned)), "values": {}}
        values = raw["values"]
        if args.trace and raw["correct"]:
            sys.path.insert(0, str(HERE))
            import summarize
            values.update(summarize.summarize(str(spans)))
    finally:
        spans.unlink(missing_ok=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not args.trace and raw["attempted"]:
        values["op_success_ratio"] = 1.0 - raw["failed"] / raw["attempted"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            if raw["correct"]:
                log(f"metric {m['name']} was not measured")
                sys.exit(1)
            v = 0.0  # an incorrect run's numbers are void anyway
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
