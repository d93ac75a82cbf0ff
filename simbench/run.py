#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

Usage, from the repository root:

    python3 simbench/run.py --workload regions --seed 1 --seconds 10 --trace 0

The first call configures and compiles simbench/ together with the
simulator sources it drives into .bench_build/ (a Release build, like
the repository's own); later calls only bring that build up to date.
Every argument is passed on to the simbench binary, whose last line
of standard output is the JSON result. Build output goes to standard
error. Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build; return the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(BUILD, "simbench")
    return exe if os.path.exists(exe) else None


def main():
    exe = build()
    if exe is None:
        print("simbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
