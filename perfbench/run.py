#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The release build goes to
$CARGO_TARGET_DIR (default: perfbench/target); cargo's own output goes
to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    run = subprocess.run([binary] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
