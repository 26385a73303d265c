#!/usr/bin/env python3
"""Builds the release `credo` binary and the `perfbench` binary, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Cargo output goes to stderr; the last stdout line of `perfbench` is the JSON
result. Builds land in $CARGO_TARGET_DIR (default `.bench_build`).
`perfbench` replaces this process, so signals reach it directly and it reaps
every server it started.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The program under test, from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "-q", "-p", "credo", "--bin", "credo"],
        # The benchmark itself, a package of its own.
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(bench, [bench, "--target-dir", target] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
