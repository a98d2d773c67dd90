#!/usr/bin/env python3
"""Build and run the end-to-end benchmark; print one JSON result line.

    python3 bench_e2e/run.py --workload serve-mix --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. It configures and builds bench_e2e
(Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
runs one workload per process, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value", "unit"}. The full
result file (sample counts, host_cores, extra metrics) stays in the
output directory for compare.py. Exits nonzero, printing no result,
when the build fails, a run fails or times out, a listed metric is
missing, or an output was wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-mix", "tenant-flood", "apps-d1", "apps-d4"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code.

    The command gets its own process group, and on a timeout the whole
    group (make, compilers) is killed and reaped before exiting."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"bench_e2e: timed out after {timeout} s: {cmd[0]}")


def build(build_dir):
    """Configures and builds bench_e2e; returns the binary path."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "bench_e2e",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if run(cmd, BUILD_TIMEOUT_S) != 0:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def run_one(binary, workload, args, out_dir, names):
    """Runs one workload; returns the contract line as a dict."""
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(out_dir, stem + ".json")
    cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(out_dir, stem + '.trace.json')}")
    if args.smoke:
        cmd.append("--smoke")
    if os.path.exists(out):
        os.remove(out)
    code = run(cmd, RUN_TIMEOUT_S)
    try:
        with open(out) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_e2e: {workload}: no readable result ({e}); "
                 f"exit code {code}")
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit(f"bench_e2e: {workload}: missing metrics {missing}")
    if code != 0 or not result["correct"]:
        sys.exit(f"bench_e2e: {workload}: wrong outputs "
                 f"({result['mismatched']} mismatched)")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in names},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="~0.5 s per workload (a wiring check)")
    p.add_argument("--bin", help="use this bench_e2e binary, no build")
    p.add_argument("--out-dir", help="result files (default: "
                   "<build dir>/results)")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[group]]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    binary = args.bin or build(build_dir)
    out_dir = os.path.abspath(args.out_dir or
                              os.path.join(build_dir, "results"))
    os.makedirs(out_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        line = run_one(binary, w, args, out_dir, names)
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
