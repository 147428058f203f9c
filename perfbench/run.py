#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and the library it measures from source into
.bench_build/perfbench; later runs only rebuild what changed. Each
workload then runs in its own process, so its peak RSS and the
process-wide plan cache belong to that workload alone. The last line of
standard output is the result object of that process (for `all`, one
object merging every workload's metrics as "<workload>/<metric>").
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = [
    "r34-tasder-gemv",
    "r34-artifact-b16",
    "decode-serve-low",
    "decode-serve-high",
]
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd[:2]))
            return False
    return True


def run_workload(name, args, out_dir):
    cmd = [str(BUILD / "perfbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{name} did not finish within {RUN_TIMEOUT_S} s")
        return None, 1
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if done.returncode != 0 or not lines:
        if lines:
            print(lines[-1], flush=True)
        log(f"{name} exited with code {done.returncode}")
        return None, done.returncode or 1
    return json.loads(lines[-1]), 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not build():
        return 2
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")])
    if selftest.returncode != 0:
        log("helper self-tests failed")
        return 3

    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, code = run_workload(name, args, out_dir)
        if result is None:
            return code
        if len(names) == 1:
            print(json.dumps(result), flush=True)
            return 0
        for metric, value in result["metrics"].items():
            log(f"{name:18} {metric:30} {value['value']:.6g} {value['unit']}")
            merged["metrics"][f"{name}/{metric}"] = value
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
