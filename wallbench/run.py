#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Usage, from the repository root:

    python3 wallbench/run.py --workload <prefill_elsa|prefill_exact|decode|serve> \
        --seed <n> --seconds <s> --trace <0|1> [--size full|small]

The benchmark crate lives in wallbench/.harness, a cargo workspace of its
own that depends on the library crates under crates/ by path. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr; the benchmark's stdout is passed through unchanged, so the
last line printed is the result object. Traced runs also write their spans,
one JSON object per line, to <target dir>/wallbench-spans/.

Exits non-zero, without printing a result, when the build fails (for example
when the library crates are not present).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, ".harness", "Cargo.toml")
WORKLOADS = ("prefill_elsa", "prefill_exact", "decode", "serve")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "small"))
    return p.parse_args(argv)


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main(argv):
    args = parse_args(argv)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("wallbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "elsa-wallbench")
    spans = os.path.join(target, "wallbench-spans", f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--size", args.size,
        "--rustc", rustc_version(),
        "--spans", spans,
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
