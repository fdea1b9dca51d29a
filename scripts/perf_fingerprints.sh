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
# sim_fingerprint moved once more (was 7191eae3…cf8a39) when the provider
# list went: the sim's pollers and push clients query through a gateway,
# and link faults also cut a client's gateway endpoint, so virtual
# timestamps move.  The other six did not move.
# sim_fingerprint moved once more (was 1967adc4…2fedb1) when the hub
# became a latest-tip stream: a push client's heartbeat is one RPC (no
# catch-up pull after it) and its subscribe reply carries the tip, so
# virtual timestamps move.  The other six did not move.
# sim_fingerprint moved once more (was 9b1aa7fe…b4661a) when gateway
# health became one always-on breaker per replica and a replica switch
# one `index_roots` request: a due probe is one dispatch, the reopen time
# carries seeded jitter and a verification is one attempt, so virtual
# timestamps move.  The other six did not move.
# sim_fingerprint moved once more (was 19530cb5…70b27e) when replica
# switch verification went: the gateway sends no `index_roots` request
# before it dispatches to a replica (every answer is verified instead),
# so virtual timestamps move.  The other six did not move.
# The five client_storage_bytes moved (were 2436 / 2435 / 3898 / 3897 /
# 2435) when the wallet began storing the enclave identity once: an
# index certificate that shares the tip certificate's identity is stored
# as its signature beside its root, 210-214 B an index instead of 731.
# certificate_sha256 and sim_fingerprint did not move.
# sim_fingerprint moved once more (was 66a54962…a47e1f82) when an answer's
# claims came to be read from its proofs: the sim's log digests each
# encoded answer, and every answer with results no longer restates them
# beside its proofs.  Outcome kinds and virtual timestamps are unchanged
# (round robin over the fleet's fixed order alone leaves the value as it
# was).  The other six did not move.
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
        "a3226877a21adf5bf8d66b7f841f5374f7abb844eff3492240cd04a74840e2b8",
    "certify-stream client_storage_bytes": 1398,
    "tip-follow client_storage_bytes": 1395,
    "query-cold client_storage_bytes": 1822,
    "query-hot client_storage_bytes": 1821,
    "sim-mixed client_storage_bytes": 1395,
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
