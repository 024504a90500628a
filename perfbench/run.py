#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Rust benchmark package in this directory
is built in release mode (offline) into $CARGO_TARGET_DIR, `.bench_build`
by default. The script prints the benchmark's environment record (nproc,
git rev, rustc version, seed, reference kernel time) as one JSON line,
then the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero, printing no result, if the build or the run fails, the
run exceeds its time limit, or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dense-socket", "adversary-sparse", "mux-faulty", "journal-recover"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    manifest = os.path.join(HERE, "Cargo.toml")
    start = time.monotonic()
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    build_s = time.monotonic() - start

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1

    lines = [ln for ln in run.stdout.splitlines() if ln.strip()]
    try:
        record = json.loads(lines[-2])["env"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        print(f"run.py: malformed benchmark output: {e}", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: result line has the wrong keys", file=sys.stderr)
        return 1

    # The rev of the code under test, unless it is not a checkout of its
    # own (a checkout nested in another repository would report that one).
    root = os.path.dirname(HERE)
    rev = None
    if tool_output(["git", "-C", root, "rev-parse", "--show-toplevel"]) == root:
        rev = tool_output(["git", "-C", root, "rev-parse", "HEAD"])
    record.update({
        "git_rev": rev,
        "rustc": tool_output(["rustc", "-V"]),
        "build_s": build_s,
    })
    print(json.dumps({"env": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
