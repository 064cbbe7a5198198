#!/usr/bin/env python3
"""Build and run the explain3d benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload explain_batch|serve_deltas|serve_reads \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds the release `explain3d-serve` binary from the workspace and the
`perfbench` binary from this directory (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the binary with the given arguments. Build
output goes to stderr; its report, ending in one JSON line, goes
to stdout. The exit code is the binary's, or 1 when a build fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "explain3d-service", "--bin", "explain3d-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"), *sys.argv[1:],
        "--server", os.path.join(release, "explain3d-serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
