"""Run the benchmark once per seed and summarize each metric's seed-to-seed spread.

    python3 bench/spread.py --workload delivery-bound --seeds 1-10 [--seconds 36] [--trace 0]

For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (q3 - q1) / median.
Listing one seed twice (--seeds 5,5) shows which metrics repeat exactly.
Exit status is 1 if any run reported an incorrect output.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median); the last is 0 when the median is 0."""
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--seconds", default="36")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds")

    runs = []
    status = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        status = max(status, 0 if report["correct"] else 1)
        print(f"seed {seed}: correct={report['correct']} failed={report['failed']}/"
              f"{report['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()), flush=True)
        runs.append(report)

    print(f"\n{args.workload}: {len(runs)} runs, seeds {args.seeds}")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, entry in runs[0]["metrics"].items():
        mid, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
        print(f"  {name:28s} {mid:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%} {entry['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
