#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload warm-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

Builds the release `nfa_tool` and the load generator from source (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload and
prints its metric tables. The last line of standard output is the result
object. Its metrics are the `end_to_end` metrics of `BENCHMARK.json`
(`--trace 0`) or its `per_layer` metrics (`--trace 1`): that file alone
decides which metrics are reported and bounded. `--all` runs the three
workloads in turn and fails if any run fails. Exit status 0 on success,
1 on a wrong answer, 2 on a usage, build or set-up error.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["warm-zipf", "cold-churn", "routed-stream"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "logspace-repro", "--bin", "nfa_tool"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def reported(root, traced):
    """The metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_one(cmd, names):
    """Runs one workload, echoes its tables and narrows its result line to
    `names`; returns the exit status."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        return done.returncode or 2
    print("\n".join(lines[:-1]))
    missing = [n for n in names if n not in result["metrics"]]
    if missing and result["correct"]:
        print(f"perfbench: the run reported no {', '.join(missing)}", file=sys.stderr)
        return 2
    # A run that found a wrong answer stops early and may lack metrics.
    result["metrics"] = {n: result["metrics"][n] for n in names if n in result["metrics"]}
    print(json.dumps(result, separators=(",", ":")))
    return done.returncode


def main(argv):
    root = os.getcwd()
    for needed in ["Cargo.toml", "BENCHMARK.json", os.path.join("crates", "core"),
                   os.path.join("src", "bin")]:
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a repository checkout ({needed} is missing)")
    args = list(argv)
    run_all = "--all" in args
    if run_all:
        args.remove("--all")
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    names = reported(root, traced)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    build(root, target)
    exe = os.path.join(target, "release")
    common = ["--nfa-tool", os.path.join(exe, "nfa_tool"),
              "--work-dir", os.path.join(root, ".perfbench_work")]
    perfbench = os.path.join(exe, "perfbench")
    workloads = WORKLOADS if run_all else [None]
    status = 0
    for workload in workloads:
        extra = ["--workload", workload] if workload else []
        sys.stdout.flush()
        status = max(status, run_one([perfbench] + extra + args + common, names))
    sys.exit(status)


if __name__ == "__main__":
    main(sys.argv[1:])
