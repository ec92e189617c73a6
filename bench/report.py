"""Run every workload once and print its metrics as one table.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as ``bench/run.py`` in its own interpreter.  Besides the
metrics of the run's last line, the table gives ``failed_ratio``: items whose
output mismatched its check or raised, over items attempted.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:<13} {'correct':<48} {result['correct']}")
        print(f"{workload:<13} {'failed_ratio':<48} {ratio:<14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"{workload:<13} {name:<48} {metric['value']:<14.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
