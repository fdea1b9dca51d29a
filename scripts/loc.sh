#!/usr/bin/env bash
# The two size numbers ROADMAP.md tracks, with a ratchet.
#
#   src lines      physical lines of every *.py under src/
#   suppressions   inline `# repro: allow[RULE] reason` comments under
#                  src/ (the linter's own docs under src/repro/analysis/
#                  quote the syntax and are not suppressions)
#
# Prints both and fails when either is above the value recorded below
# (`make loc`, part of `make check`).  The recorded values only ever go
# *down*: a change that shrinks src/ or drops a suppression lowers them
# in the same diff; nothing raises them.  (Authorised exceptions:
# ISSUE 13 allowed src lines up to +200 for the secp256k1 engine, 20769 -> 20967.)
# (The certification ecalls' malformed-argument clause: +14, 18371 -> 18385.)
# (Proof-free index ingest, the per-pass public-key map and the recovery
# prefix's index-root binding: +30, 17137 -> 17167.)
# (The tip-only form on the wire — the hub's push and reply per subscriber
# kind, the stream call's `tip_only` and `latest_tip`'s argument, each
# checked at the boundary: +28, 17167 -> 17195.)
# (The client state's one persisted encoding, each enclave identity stored
# once, and the sealing keystream's once-keyed HMAC states: +29 of an
# allowed +40, 17190 -> 17219.)
# (One fault oracle: a supervisor per sim replica, the scripted
# `query.execute.*` crash, `lying_replica` and `quiesce` events, the four
# liveness invariants and the exact shed count; the chaos harnesses they
# replace were tests: +137 of an allowed +150, 17219 -> 17356.)
# (An answer's claims read from its proofs — the no-hash readers, the
# verify-then-read openers, the claim properties — plus the in-proof
# forgery helper beside the sim's liar and round robin over the fleet's
# fixed order; the copies, their comparisons and the duplicate answer
# construction went: +39 of an allowed +40, 17356 -> 17395.)
# (The modeled claims as sim plays: the scripted-only paced `burst`
# (`gap_ms`, `budget`) that shows overload an all-at-once burst cannot,
# and the virtual-clock `gateway.batch_ms` histogram that times a batch
# without the hedge losers drained after it; the three bench files they
# replace were not src/: +11 of an allowed +15, 17395 -> 17406.)
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_SRC_LINES=17406
MAX_SUPPRESSIONS=8

src_lines=$(find src -name '*.py' -print0 | xargs -0 cat | wc -l)
suppressions=$(grep -rn --include='*.py' '# repro: allow\[' src \
    | grep -vc '^src/repro/analysis/' || true)

echo "src lines:     $src_lines (recorded $MAX_SRC_LINES)"
echo "suppressions:  $suppressions (recorded $MAX_SUPPRESSIONS)"

status=0
if [ "$src_lines" -gt "$MAX_SRC_LINES" ]; then
    echo "loc: src/ grew past the recorded $MAX_SRC_LINES lines" >&2
    status=1
fi
if [ "$suppressions" -gt "$MAX_SUPPRESSIONS" ]; then
    echo "loc: more than the recorded $MAX_SUPPRESSIONS suppressions" >&2
    status=1
fi
exit $status
