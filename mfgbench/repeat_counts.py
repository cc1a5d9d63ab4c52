"""Check that a traced run's exact counts repeat to the unit.

    python3 mfgbench/repeat_counts.py --workload NAME [--seed N]

Runs ``run.py --trace 1`` twice with the same seed and compares every
per-layer metric that is not a time: counts, computed megabytes and
ratios of counts. Exits 1 and names the metrics that differ. Run from
the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_metrics(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("traced run of %s was not correct" % workload)
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    first = traced_metrics(args.workload, args.seed)
    second = traced_metrics(args.workload, args.seed)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for name in sorted(first):
        print("%-32s %s%s" % (name, first[name],
                              "" if name not in differ
                              else "  DIFFERS: %s" % second.get(name)))
    if differ:
        print("counts differ: %s" % ", ".join(differ))
        return 1
    print("all %d exact counts repeat" % len(first))
    return 0


if __name__ == "__main__":
    sys.exit(main())
