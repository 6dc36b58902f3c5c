#!/usr/bin/env python3
"""Crowd-session benchmark entry point.

Run one workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload tla_session --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

The benchmark is built from source first (`cargo build --release
--offline` of the package in this directory, into `$CARGO_TARGET_DIR`,
default `.bench_build`). Each workload process gets its worker-thread
count through `RAYON_NUM_THREADS` before it starts. The last line of a
single-workload run is one JSON object: `correct`, `attempted`, `failed`
and `metrics`; with `--trace 0` the metrics are the end-to-end ones,
with `--trace 1` the per-layer ones. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tla_session", "notla_long", "crowd_db_mix")
# Worker threads of every workload, set before the process starts (the
# vendored rayon reads RAYON_NUM_THREADS once). A second thread made
# notla_long slower and its runs unsteady on a 2-vCPU host.
WORKER_THREADS = 1
# Worker threads of the layer-probe process, so that its parallel
# regions run (at one thread they are plain sequential maps).
PROBE_THREADS = 2
RUN_DIR = os.path.join(ROOT, ".bench_run")


def build():
    """Build the benchmark binary; returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(f"perfbench: build failed (exit {status})")
    return os.path.join(target, "release", "crowdtune-perfbench")


def run_process(cmd, threads, what):
    """Run one benchmark process at `threads` worker threads. Returns its
    output lines and the JSON object on its last line."""
    env = dict(os.environ, RAYON_NUM_THREADS=str(threads))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: {what} failed (exit {proc.returncode})")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; a traced run adds the layer
    probes, run in a second process. Returns (lines, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", RUN_DIR]
    lines, result = run_process(cmd, WORKER_THREADS, workload)
    if trace:
        probe_lines, probe_metrics = run_process([binary, "--probes", "--out", RUN_DIR],
                                                 PROBE_THREADS, "layer probes")
        lines += probe_lines
        result["metrics"].update(probe_metrics)
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    binary = build()
    if args.workload:
        lines, result = run_workload(binary, args.workload, args.seed, seconds, args.trace == 1)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    for workload in WORKLOADS:
        for trace in (False, True):
            lines, result = run_workload(binary, workload, args.seed, seconds, trace)
            print("\n".join(lines))
            print(f"  operations attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {str(result['correct']).lower()}")
            print()


if __name__ == "__main__":
    main()
