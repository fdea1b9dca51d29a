#!/usr/bin/env bash
# The alternating-pairs campaign a performance change reports against the
# repo benchmark (benchmarks/perf/README.md):
#
#   bash scripts/perf_pairs.sh [--json FILE] PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SEED=7]
#
# PARENT_DIR and CHANGE_DIR are two checkouts (the parent from
# `git clone` or `git worktree add`).  Each pair runs
#
#   python3 benchmarks/perf/run.py --workload W --seed S --seconds 12 --trace 0
#
# once in each, from that checkout's own files, alternating which side
# goes first.  Every run starts from the same bytecode state: an empty
# cache of its own (PYTHONPYCACHEPREFIX under OUT, emptied first), so a
# checkout that holds `__pycache__` from earlier runs does not import
# from bytecode while the other compiles from source, which would bias
# peak_rss_mb toward it.  Per end-to-end metric it prints every run, each
# side's median and quartiles, how many pairs the change won (ties count for
# neither), whether that is a claimable gain (ten pairs or more, >= 9/10 of
# them won, medians further apart than the parent's quartile distance) and the
# BENCHMARK.json bound verdict (ok / regressed / unresolved).  Raw result
# lines are kept in OUT (default: a fresh temp dir) as parent.jsonl and
# change.jsonl.  With --json FILE the raw runs and the per-metric summary
# also go into FILE (docs/pairs/PAIRS_<n>.json's shape: one entry per
# workload under "workloads", "W@seedS" for a seed other than 7, so one
# FILE collects a whole campaign; a workload run again replaces its
# entry).  Exits non-zero when a metric regressed or an operation failed.
# Run nothing else on the machine meanwhile.
set -euo pipefail

json=
if [ "${1:-}" = "--json" ]; then
    json=${2:?--json takes a file}
    shift 2
fi
if [ "$#" -lt 3 ]; then
    sed -n '2,28p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-7}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

run_side() {  # side dir
    rm -rf "$out/pycache-$1"
    (cd "$2" && PYTHONPYCACHEPREFIX="$out/pycache-$1" "${PYTHON:-python3}" \
        benchmarks/perf/run.py --workload "$workload" --seed "$seed" \
        --seconds 12 --trace 0 | tail -n 1) >> "$out/$1.jsonl"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent"; run_side change "$change"
    else
        run_side change "$change"; run_side parent "$parent"
    fi
    echo "pair $pair/$pairs done" >&2
done

parent_rev=$(git -C "$parent" rev-parse --short HEAD 2>/dev/null || echo unknown)
"${PYTHON:-python3}" - "$change/BENCHMARK.json" "$out" "$workload" "$seed" \
    "$json" "$parent_rev" <<'EOF'
import json
import os
import platform
import statistics
import sys

spec = json.load(open(sys.argv[1]))
out, workload, seed, json_file, parent_rev = sys.argv[2:7]
runs = {
    side: [json.loads(line) for line in open(f"{out}/{side}.jsonl")]
    for side in ("parent", "change")
}
print(f"{workload}, seed {seed}, {len(runs['parent'])} alternating pairs ({out})")
status = 0
summary = {}
for side, records in runs.items():
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    wrong = sum(not r["correct"] for r in records)
    print(f"  {side}: {failed} of {attempted} operations failed, {wrong} runs incorrect")
    status |= bool(failed or wrong)


def quartiles(values):
    if len(values) < 4:
        return min(values), statistics.median(values), max(values)
    return tuple(statistics.quantiles(values, n=4))


for entry in spec["end_to_end"]:
    name, lower = entry["name"], entry["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in runs["parent"]]
    b = [r["metrics"][name]["value"] for r in runs["change"]]
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    better = (b2 < a2) if lower else (b2 > a2)
    gain = (
        len(a) >= 10 and better and wins >= 0.9 * len(a) and abs(b2 - a2) > a3 - a1
    )
    worsening = ((b2 - a2) if lower else (a2 - b2)) / a2 if a2 else 0.0
    apart = max(b) < min(a) if lower else min(b) > max(a)
    if worsening > entry["bound"]:
        verdict = "REGRESSED"
        status = 1
    elif a2 and max(a3 - a1, b3 - b1) / a2 > entry["bound"] and not apart:
        verdict = "unresolved (spread wider than the bound)"
    else:
        verdict = "ok"
    print(f"{name} [{entry['unit']}, {entry['better']} is better, bound {entry['bound']}]")
    print("  parent " + " ".join(f"{v:.4g}" for v in a))
    print("  change " + " ".join(f"{v:.4g}" for v in b))
    print(f"  parent median {a2:.4g} (quartiles {a1:.4g} .. {a3:.4g})")
    print(f"  change median {b2:.4g} (quartiles {b1:.4g} .. {b3:.4g})"
          f"  = {100 * (b2 - a2) / a2 if a2 else 0.0:+.1f} % of the parent's")
    print(f"  change wins {wins}, loses {losses} of {len(a)} pairs;"
          f" claimable gain: {'yes' if gain else 'no'}; bound: {verdict}")
    summary[name] = {
        "unit": entry["unit"], "better": entry["better"], "bound": entry["bound"],
        "parent_median": a2, "parent_quartiles": [a1, a3],
        "change_median": b2, "change_quartiles": [b1, b3],
        "change_vs_parent_pct": 100 * (b2 - a2) / a2 if a2 else 0.0,
        "wins": wins, "losses": losses, "pairs": len(a),
        "claimable_gain": gain, "bound_verdict": verdict,
    }
# The run is time-bounded: read peak_rss_mb against the work each run did.
print("operations attempted per run")
for side, records in runs.items():
    counts = [r["attempted"] for r in records]
    print(f"  {side} " + " ".join(str(n) for n in counts)
          + f"  (median {statistics.median(counts):g})")
if json_file:
    campaign = {
        "command": "bash scripts/perf_pairs.sh PARENT CHANGE WORKLOAD PAIRS SEED"
        "  (run.py --workload W --seed S --seconds 12 --trace 0, alternating)",
        "host": f"{os.cpu_count()}-core host, Python {platform.python_version()}",
        "parent": parent_rev,
        "workloads": {},
    }
    if os.path.exists(json_file):
        campaign = json.load(open(json_file))
    key = workload if seed == "7" else f"{workload}@seed{seed}"
    campaign["workloads"][key] = {**runs, "seed": int(seed), "summary": summary}
    with open(json_file, "w") as handle:
        json.dump(campaign, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workload} to {json_file}")
sys.exit(status)
EOF
