#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace-replay --seed 1 --seconds 25 --trace 0

The package under perfbench/ is compiled in release mode (into
$CARGO_TARGET_DIR, default .bench_build/) from the repository's sources, then
run from the repository root with DYNEX_* variables removed, glibc
pinned to one malloc arena; serve-mix is pinned to one CPU. Standard output ends with the run's accounting
line and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output and diagnostics go to standard error. The exit code is non-zero
when the build fails, the program's sources are missing, or a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe(command):
    """First line of a command's output, or "unknown"."""
    try:
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "experiments", "Cargo.toml")):
        fail(f"the program's sources are not under {ROOT}/crates")

    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNEX_")}
    # One glibc malloc arena for every thread. With the default of one arena
    # per thread, serve-mix's peak memory sat on levels 6 MB apart for the
    # same work, depending on which arenas the server's handler threads drew.
    env["MALLOC_ARENA_MAX"] = "1"
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    # serve-mix runs every thread on one CPU (the highest this process may
    # use, away from where interrupts usually land): its work is serial, as
    # the client waits for each answer and the engine runs one worker. Left
    # free, its client and server threads woke each other across the VM's
    # two vCPUs, and in interleaved runs its median latency read 26.5-31.2 ms
    # against 23.3-24.0 ms pinned. The other workloads run one thread.
    cpus = os.sched_getaffinity(0)
    if args.workload == "serve-mix":
        cpus = {max(cpus)}
    binary = os.path.join(target, "release", "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    # Set-up and one overrunning round take well under two minutes on top of
    # the measured time.
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=args.seconds * 2 + 120,
                             preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"no result (exit code {run.returncode})")
    result = json.loads(lines[-1])
    accounting = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "sha": probe(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git")) else "unknown",
        "rustc": probe(["rustc", "--version"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpus": sorted(cpus),
    }
    print(json.dumps({"run": accounting}))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
