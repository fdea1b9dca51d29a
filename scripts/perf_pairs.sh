#!/usr/bin/env bash
# The alternating-pairs campaign a performance change reports against the
# repo benchmark (benchmarks/perf/README.md):
#
#   bash scripts/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SEED=7]
#
# PARENT_DIR and CHANGE_DIR are two checkouts (the parent from
# `git clone` or `git worktree add`).  Each pair runs
#
#   python3 benchmarks/perf/run.py --workload W --seed S --seconds 12 --trace 0
#
# once in each, from that checkout's own files, alternating which side
# goes first.  Per end-to-end metric it prints every run, each side's
# median and quartiles, how many pairs the change won (ties count for
# neither), whether that is a claimable gain (ten pairs or more, >= 9/10 of
# them won, medians further apart than the parent's quartile distance) and the
# BENCHMARK.json bound verdict (ok / regressed / unresolved).  Raw result
# lines are kept in OUT (default: a fresh temp dir) as parent.jsonl and
# change.jsonl.  Exits non-zero when a metric regressed or an operation
# failed.  Run nothing else on the machine meanwhile.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,20p' "$0" >&2
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
    (cd "$2" && "${PYTHON:-python3}" benchmarks/perf/run.py --workload "$workload" \
        --seed "$seed" --seconds 12 --trace 0 | tail -n 1) >> "$out/$1.jsonl"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent"; run_side change "$change"
    else
        run_side change "$change"; run_side parent "$parent"
    fi
    echo "pair $pair/$pairs done" >&2
done

"${PYTHON:-python3}" - "$change/BENCHMARK.json" "$out" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
out, workload, seed = sys.argv[2:5]
runs = {
    side: [json.loads(line) for line in open(f"{out}/{side}.jsonl")]
    for side in ("parent", "change")
}
print(f"{workload}, seed {seed}, {len(runs['parent'])} alternating pairs ({out})")
status = 0
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
# The run is time-bounded: read peak_rss_mb against the work each run did.
print("operations attempted per run")
for side, records in runs.items():
    counts = [r["attempted"] for r in records]
    print(f"  {side} " + " ".join(str(n) for n in counts)
          + f"  (median {statistics.median(counts):g})")
sys.exit(status)
EOF
