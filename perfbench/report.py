#!/usr/bin/env python3
"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py --seed 1 --seconds 20            # end to end
    python3 perfbench/report.py --seed 1 --seconds 20 --trace 1  # per layer

Runs perfbench/run.py once per workload and adds each run's failed_ratio
(failed / attempted invocations).  Exits 1 if any run reports an incorrect
output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        rows.append(("failed_ratio", result["failed"] / result["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:15s} {metric:40s} {value:>14.6g} {unit}")
        sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
