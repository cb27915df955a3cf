#!/usr/bin/env python3
"""Build the as-shipped benchmark from source and run one workload.

Run from the root of an OREGAMI checkout:

    python3 perfbench/run.py --workload grid-large --seed 1 --seconds 20 --trace 0

The build output goes to stderr; the benchmark's own output, ending
with one JSON result line, goes to stdout.  The exit code is the
build's when it fails, otherwise the benchmark's.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not os.path.isfile(os.path.join("perfbench", "dune")):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        # no shared cache: the build writes only under _build/
        [dune, "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
