"""Check that the end-to-end metrics are steady across seeds.

    python3 perfbench/spread.py --workloads redteam serve community \\
        --seeds 10

Runs ``run.py`` once per seed and workload, one run at a time, and
prints each metric's median and its spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=config["run_seconds"])
    args = parser.parse_args()

    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if completed.returncode != 0:
                print(completed.stdout[-2000:], completed.stderr[-2000:])
                print(f"{workload} seed {seed}: exit "
                      f"{completed.returncode}")
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}")
        for name, series in values.items():
            share = spread(series)
            bound = bounds[name]
            ok = name == "setup_s" or share < bound / 3
            steady = steady and ok
            print(f"  {name:24s} median {statistics.median(series):12.6g} "
                  f"spread {share:7.2%} bound {bound:5.0%} "
                  f"{'' if ok else 'UNSTEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
