#!/usr/bin/env python3
"""Build the benchmark from source, then run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload serve|spec|wide --seed N \
        --seconds S --trace 0|1

The build goes to _build/ with dune (progress on stderr); the benchmark's
own standard output is passed through, and its last line is the JSON
result. Exits nonzero, printing no result, when the repository sources
are missing, the build fails, or the run overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", "perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    proc = subprocess.Popen([EXE] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
