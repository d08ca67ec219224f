#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of an lbcast checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable is built with dune into the checkout's _build
directory (without the shared dune cache), then replaces this process, so
its exit code and output are the benchmark's own.
"""

import os
import subprocess
import sys

EXE = "./perfbench/bench/perfbench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("perfbench")):
        print("perfbench: run this from the root of an lbcast checkout "
              "(dune-project, lib/ and perfbench/ must be present)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", EXE],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bench", "perfbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
