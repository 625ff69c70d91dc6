#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench/` (a Cargo package of its own that reaches the
library crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `perfbench/target`), then runs it with the
given arguments. Result rows and spans go to `perfbench/out/`. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
