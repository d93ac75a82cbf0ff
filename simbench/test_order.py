#!/usr/bin/env python3
"""Check that per-job results do not depend on the benchmark's --seed.

The seed only permutes the order of the jobs inside each round. For
each named workload (default: barriers and sampled) this runs the
benchmark with two seeds, has it write every job's cycles,
instructions, energy and sampling interval to a file under
simbench-results/, and requires the two files to be identical and the
two runs to agree on correct and on the failed count.

    python3 simbench/test_order.py [workload ...]

Exits 0 when every workload passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "simbench-results")
SEEDS = (1, 2)


def run(workload, seed):
    path = os.path.join(OUT, "%s-seed%d.txt" % (workload, seed))
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--results", path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(path) as f:
        return result, f.read()


def main():
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for workload in sys.argv[1:] or ["barriers", "sampled"]:
        runs = [run(workload, seed) for seed in SEEDS]
        same = (all(r is not None for r, _ in runs) and
                runs[0][1] == runs[1][1] and runs[0][1] and
                runs[0][0]["correct"] == runs[1][0]["correct"] and
                runs[0][0]["failed"] == runs[1][0]["failed"])
        print("%s: %s" % (workload, "same results for seeds %d and %d"
                          % SEEDS if same else "FAILED"))
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
