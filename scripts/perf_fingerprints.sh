#!/usr/bin/env bash
# The byte-identity half of `make perf-smoke`, as a gate.
#
#   bash scripts/perf_fingerprints.sh
#
# Runs the repo benchmark's smoke form unchanged,
#
#   python3 benchmarks/perf/run.py --all --smoke --json FILE
#
# (every workload end to end at a tenth of its fixed round counts, ~11 s;
# it exits non-zero itself when a workload's built-in check fails), then
# fails unless the seven values that say "same behaviour" equal the ones
# recorded below: the certificate chain's digest (`certify-stream`), the
# simulation's event-log fingerprint (`sim-mixed`) and the light client's
# storage bytes on all five workloads.  Timings are printed, not gated
# here (benchmarks/perf/compare.py and scripts/perf_pairs.sh do that).
#
# A change that means to move one of these edits the recorded value in
# the same diff and says why, like scripts/loc.sh.  Recorded at b5ea3c2
# (PR 18), i.e. at the parent of the PR that added this script.
# PR 20 moved certificate_sha256 (was 2928c891…7a88b5): the history and
# keyword specs went /1 -> /2 (the /1 replay signs a false index root for
# a list-typed MPT proof), so every report carries a new measurement; with
# the /1 identities restored the old value comes back.  The other six did
# not move.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
"${PYTHON:-python3}" benchmarks/perf/run.py --all --smoke --json "$out"

"${PYTHON:-python3}" - "$out" <<'PY'
import json
import sys

RECORDED = {
    "certify-stream certificate_sha256":
        "9fe0870b0d264b85f33ab8e0f87711ca7e115e714cdc48ad464557cd1ee2c1b6",
    "sim-mixed sim_fingerprint":
        "7191eae35606e1185a3674dd09d931aa9bb801e117ebad08a112675977cf8a39",
    "certify-stream client_storage_bytes": 2436,
    "tip-follow client_storage_bytes": 2435,
    "query-cold client_storage_bytes": 3898,
    "query-hot client_storage_bytes": 3897,
    "sim-mixed client_storage_bytes": 2435,
}

seen = {}
for record in json.load(open(sys.argv[1]))["records"]:
    name = record["workload"]
    seen[f"{name} client_storage_bytes"] = record["end_to_end"]["client_storage_bytes"]
    for key in ("certificate_sha256", "sim_fingerprint"):
        if key in record["info"]:
            seen[f"{name} {key}"] = record["info"][key]

moved = [name for name in RECORDED if seen.get(name) != RECORDED[name]]
for name in moved:
    print(f"perf-fingerprints: {name} = {seen.get(name)!r}, "
          f"recorded {RECORDED[name]!r}", file=sys.stderr)
if moved:
    sys.exit(1)
print(f"perf-fingerprints: all {len(RECORDED)} recorded values unmoved")
PY
