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
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_SRC_LINES=17137
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
