"""Compare two benchmark documents, metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json

``A.json`` (the base) and ``B.json`` are documents written by
``run.py --all --json FILE``; either may hold several records of one
workload (repeated sets), in which case medians are compared and the
run-to-run spread is known.  For every workload and end-to-end metric
this prints both values, the ratio B/A with its base, the bound from
BENCHMARK.json, and a verdict:

* ``ok``         -- B is no worse than A by more than the bound;
* ``regressed``  -- it is worse by more than the bound;
* ``unresolved`` -- either side's spread is wider than the bound, so
  the difference cannot be told from noise.

Exits non-zero when any pairing is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _values(document: dict) -> dict[tuple[str, str], list[float]]:
    table: dict[tuple[str, str], list[float]] = {}
    for record in document["records"]:
        for metric, value in record.get("end_to_end", {}).items():
            table.setdefault((record["workload"], metric), []).append(value)
    return table


def spread(values: list[float]) -> float:
    """Quartile distance over the median (the range, below four runs)."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / mid
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def compare(base: dict, other: dict) -> tuple[list[str], bool]:
    base_values, other_values = _values(base), _values(other)
    lines, regressed = [], False
    for entry in SPEC["end_to_end"]:
        metric, bound = entry["name"], entry["bound"]
        for workload in (w["name"] for w in SPEC["workloads"]):
            key = (workload, metric)
            if key not in base_values or key not in other_values:
                continue
            a = statistics.median(base_values[key])
            b = statistics.median(other_values[key])
            worsening = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            noise = max(spread(base_values[key]), spread(other_values[key]))
            if noise > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            lines.append(
                f"{workload:15s} {metric:21s} A={a:<12.6g} B={b:<12.6g} "
                f"B/A={b / a:6.3f} (base A) bound={bound:4.2f} "
                f"spread={noise:5.3f} {verdict} [{entry['unit']}, {entry['better']} is better]"
            )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, other = (json.loads(Path(path).read_text()) for path in argv)
    lines, regressed = compare(base, other)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
