#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root. Builds the benchmark package (release
profile, into $CARGO_TARGET_DIR, default .bench_build), runs one workload
and prints every metric with its unit and sample count, a report digest,
and last one JSON result line. Trace files go to .bench_out/. The exit code
is non-zero when an output check fails or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["scale_dispatch", "decode_steady", "prefix_pd", "gateway_sse"]


def git_rev():
    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bin_dir = os.path.join(target, "release")
    os.environ["PERFBENCH_GIT_REV"] = git_rev()
    sys.stdout.flush()
    if args.workload == "gateway_sse":
        sys.path.insert(0, HERE)
        import gateway

        return gateway.run(bin_dir, args.seed, args.seconds, args.trace == "1", args.size == "tiny")
    return subprocess.call([
        os.path.join(bin_dir, "perfbench"), "run", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
        "--size", args.size,
    ])


if __name__ == "__main__":
    sys.exit(main())
