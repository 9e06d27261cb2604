"""Run one workload on several seeds, each in a fresh process, and print the
median and the quartile spread of every metric.

    python3 perfbench/spread.py --workload wedge-spectral --seeds 1-10

Each run measures for the ``run_seconds`` of BENCHMARK.json, untraced.  The
spread is (Q3 - Q1) / median, the quartiles as ``statistics.quantiles`` gives
them.  Extra arguments after ``--`` go to run.py unchanged; run.py keeps the
last occurrence of a flag, so ``-- --seconds 6`` overrides the default.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    p.add_argument("rest", nargs="*", help="passed to run.py after --")
    args = p.parse_args(argv)
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])

    values: dict = {}
    outcomes = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd + args.rest, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        outcomes.append((last["correct"], last["attempted"], last["failed"]))
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{args.workload}: {len(outcomes)} runs, (correct, attempted, failed) = {outcomes}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:34s} median {med:12.6g}  spread {spread:7.4f}  "
              f"min {min(v):.6g}  max {max(v):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
