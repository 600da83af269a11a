#!/usr/bin/env python3
"""Appends one slimbench run to BENCH_history.jsonl.

    python3 slimbench/run.py --workload batch_fit --seed 1 --seconds 40 \\
        --trace 0 | python3 scripts/bench_history.py batch_fit 1 0

Reads the benchmark's standard output on stdin, takes its `probe` line
(machine and build) and its last line (the result JSON), and appends
one line keyed by the probe's `git_describe`:

    {"describe", "workload", "seed", "trace", "probe", "result"}

Run from the repository root. Exits 1, appending nothing, when either
line is missing.
"""

import json
import sys


def main():
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    lines = sys.stdin.read().splitlines()
    probes = [l[len("probe "):] for l in lines if l.startswith("probe ")]
    if not probes or not lines or not lines[-1].startswith("{"):
        print("bench_history.py: no probe or result line on stdin",
              file=sys.stderr)
        return 1
    probe = json.loads(probes[-1])
    entry = {"describe": probe.get("git_describe", "unknown"),
             "workload": workload, "seed": seed, "trace": trace,
             "probe": probe, "result": json.loads(lines[-1])}
    with open("BENCH_history.jsonl", "a") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
