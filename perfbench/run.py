#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the load generator under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: every end-to-end metric of BENCHMARK.json when
untraced, every per-layer metric when traced. A per-layer metric of a
layer that does no such work in the workload reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the load generator; returns its path."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", build_dir, "-j", "4",
                       "--target", "perfbench"]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def complete(result, spec, trace):
    """Checks the metric names and units against BENCHMARK.json."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            sys.exit("perfbench: undeclared metric " + name)
        if metric["unit"] != units[name]:
            sys.exit("perfbench: %s has unit %s, declared %s"
                     % (name, metric["unit"], units[name]))
    for name, unit in units.items():
        if name in metrics:
            continue
        if not trace:
            sys.exit("perfbench: end-to-end metric %s missing" % name)
        metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("perfbench: unknown workload " + args.workload)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no output (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = complete(json.loads(lines[-1]), spec, args.trace)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
