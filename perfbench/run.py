#!/usr/bin/env python3
"""Build and run the steady-state loopback benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload translate-steady --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/ (with its build
cache there too), then run; its standard output is passed through, and
its last line is the JSON result. A traced run (--trace 1) writes its
spans under .bench_out/. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        HOME=build,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOENV="off",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, ".bench_out")]
    try:
        ran = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = ran.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if body:
        print("\n".join(body))
    if ran.returncode != 0:
        print(f"perfbench: run exited with {ran.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(last)
    except ValueError:
        print(f"perfbench: last line is not a JSON result: {last!r}", file=sys.stderr)
        return 1
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
