"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmarks/perf/spread.py [--workload NAME ...] [--runs 10] [--seconds S]

Runs each workload ``--runs`` times in driver form, each time with
another seed, and prints per metric the median and the distance between
the first and third quartile as a share of the median, next to the
metric's bound.  A benchmark is steady when every spread is below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import spread  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    names = args.workload or [entry["name"] for entry in SPEC["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    steady = True
    for workload in names:
        runs = [
            run_once(workload, args.first_seed + index, args.seconds)
            for index in range(args.runs)
        ]
        for metric, bound in bounds.items():
            values = [run[metric]["value"] for run in runs]
            noise = spread(values)
            verdict = "ok" if noise < bound / 3 else ("within bound" if noise <= bound else "TOO WIDE")
            steady = steady and noise <= bound
            print(
                f"{workload:15s} {metric:22s} median {statistics.median(values):12.6g} "
                f"spread {noise:7.4f} bound {bound:5.2f} {verdict}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
