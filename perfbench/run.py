#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-point --seed 3 --seconds 10 --trace 0

The benchmark is a cargo package of its own (``perfbench/Cargo.toml``)
that depends on the repository's crates by path. It is built in release
mode into ``$CARGO_TARGET_DIR`` (default ``perfbench/target``); the
binary's standard output is passed through, and its last line is the
JSON result. Every file the run writes stays inside the checkout.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Scratch files of anything that falls back to the temp dir stay in
    # the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_work", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
