#!/usr/bin/env python3
"""The repository's benchmark command (see BENCHMARK.json).

    python3 perfbench/run.py --workload wan_sweep|smr_gate|hunt --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
and the repository's libraries into .bench_build (or $CARGO_TARGET_DIR),
sending build output to stderr, then replaces itself with perfbench,
whose last stdout line is the result JSON. perfbench/workloads.json
describes the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wan_sweep", "smr_gate", "hunt")


def build(build_dir):
    """Configure, then bring perfbench up to date. Exits on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--root", ROOT])


if __name__ == "__main__":
    main()
