#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <stream|scatter|serving> \\
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, adds the workload process's peak
resident memory to the untraced metrics, and prints the result as the last
line of standard output. Exits non-zero, printing no result, when the build
fails, the run fails, or its outputs are wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream", "scatter", "serving")
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run(binary, args):
    """Runs the benchmark binary; returns its last stdout line and its
    peak resident memory in MiB."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        child.stdout.close()
        # wait4 reports this child's own peak RSS, apart from the build.
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"perfbench: run failed with exit code {code}")
    lines = out.decode().strip().splitlines()
    if not lines:
        sys.exit("perfbench: run printed no result")
    return lines[-1], usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in (0, 120]")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    line, peak_mib = run(binary, args)
    result = json.loads(line)
    if args.trace == 0:
        result["metrics"]["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
    if not result["correct"]:
        print(json.dumps(result), file=sys.stderr)
        sys.exit("perfbench: outputs were wrong")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
