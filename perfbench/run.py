#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/qbench.exe with dune (the library sources of the checkout),
runs it, and relays its output. The last stdout line is the result object
(see README.md in this directory). Before relaying it, the metric names are
checked against BENCHMARK.json: the end-to-end list for --trace 0, the
per-layer list for --trace 1. A failed build, a crashed or timed-out run, or
a metric list that differs from BENCHMARK.json exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "qbench.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        sys.exit("unknown workload %r; one of %s" % (args.workload, sorted(names)))
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/qbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=840)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout)
        sys.exit("build failed")

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("benchmark printed no result (exit %d)" % run.returncode)
    got = set(result["metrics"])
    if got != expected:
        sys.exit("metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(expected - got), sorted(got - expected)))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
