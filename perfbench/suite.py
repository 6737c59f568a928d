"""Run every workload once, untraced, and print one table of its metrics.

    python3 perfbench/suite.py --seed 1 --seconds 50

Each workload runs in its own interpreter, so each starts cold and has its
own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args(argv)
    ok = True
    print(f"{'workload':<11} {'metric':<12} {'value':>12} unit")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<11} failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<12} {entry['value']:>12.4f} {entry['unit']}")
        failed_ratio = result["failed"] / result["attempted"]
        print(f"{name:<11} {'failed_ratio':<12} {failed_ratio:>12.4f} "
              f"({result['failed']}/{result['attempted']} ops)")
        print(f"{name:<11} {lines[-2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
