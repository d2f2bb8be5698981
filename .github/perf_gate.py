#!/usr/bin/env python3
"""Gate a change's host throughput against its base commit with perfbench.

Usage:

    python3 .github/perf_gate.py --base <base checkout> --head <head checkout>

Runs `perfbench/run.py` (the benchmark `BENCHMARK.json` declares) from each
checkout on the `stream`, `scatter` and `serving` workloads (seed 7, 3 s,
untraced), five times per side, alternating which side runs first, so slow
drift on a shared host lands on both sides alike. Each checkout builds into
its own `<checkout>/.bench_build`. Exits 1 when, on any workload, the head's
median `msgs_per_host_s` is below 0.80 times the base's median; exits
non-zero without a verdict when a run fails or reports wrong outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("stream", "scatter", "serving")
METRIC = "msgs_per_host_s"
RUNS = 5
SECONDS = 3
SEED = 7
# The margin of the committed-row floors this gate replaced for the 64-
# and 256-node streams.
FLOOR = 0.80


def run_once(tree, workload):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perf_gate: {workload} in {tree} failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"][METRIC]["value"]


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout of the base commit")
    p.add_argument("--head", required=True, help="checkout of the change")
    args = p.parse_args()
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}

    rates = {(side, w): [] for side in sides for w in WORKLOADS}
    for i in range(RUNS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in WORKLOADS:
            for side in order:
                rate = run_once(sides[side], w)
                rates[(side, w)].append(rate)
                print(f"run {i + 1}/{RUNS} {w:8} {side}: {rate:,.0f} msgs/s", flush=True)

    def summary(xs):
        q1, q3 = quartiles(xs)
        return f"{statistics.median(xs):,.0f} [{q1:,.0f}-{q3:,.0f}]"

    failed = []
    print(f"\n{'workload':8}  {'base median [IQR]':>36}  {'head median [IQR]':>36}  ratio")
    for w in WORKLOADS:
        base, head = rates[("base", w)], rates[("head", w)]
        ratio = statistics.median(head) / statistics.median(base)
        verdict = "ok" if ratio >= FLOOR else f"FAIL (< {FLOOR:.2f})"
        print(f"{w:8}  {summary(base):>36}  {summary(head):>36}  {ratio:.3f} {verdict}")
        if ratio < FLOOR:
            failed.append(w)
    if failed:
        sys.exit(f"perf_gate: {METRIC} below {FLOOR:.2f}x the base median on {failed}")
    print(f"perf_gate: every workload's median {METRIC} is at least {FLOOR:.2f}x the base")


if __name__ == "__main__":
    main()
