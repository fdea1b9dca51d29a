#!/usr/bin/env bash
# Run the whole-system simulation twice with the same seed and diff the
# event logs: the determinism contract (same seed => byte-identical run)
# that replay and shrink-to-prefix rest on.
#
#   REPRO_SIM_SEED    seed to run twice   (default 2026)
#   REPRO_SIM_EVENTS  schedule length     (default 200)
#
# Both event mixes are exercised: the default "mixed" profile and the
# saturation-heavy "overload" profile (bursts, deadline-bounded
# batches, slow replicas) — jittered backoff, hedging, and breaker
# timing must all come from seeded streams, never wall time.  The CLI
# demos narrate sim worlds too, so demo-network, demo-fleet,
# demo-overload and demo-crash must print byte-identical stdout across
# two runs (demo and metrics print wall-clock timings: excluded).
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${REPRO_SIM_SEED:-2026}"
EVENTS="${REPRO_SIM_EVENTS:-200}"
PYTHON="${PYTHON:-python}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# On divergence: fail loudly with what was run, a bounded diff excerpt
# (the first divergent lines are the interesting ones; a full
# 1000-line dump buries them), and the replay command that reproduces
# one run for bisection.
DIFF_EXCERPT_LINES=40

# twice <label> <command...>: run the command twice, diff the stdout.
twice() {
    local label="$1"
    shift
    echo "$label (run 1/2)..."
    PYTHONPATH=src "$@" > "$workdir/first.log"
    echo "$label (run 2/2)..."
    PYTHONPATH=src "$@" > "$workdir/second.log"

    if ! diff -u "$workdir/first.log" "$workdir/second.log" > "$workdir/diff.log"; then
        echo "================================================================"
        echo "DETERMINISM FAILURE: same inputs, different output"
        echo "  $label"
        echo "================================================================"
        echo "first $DIFF_EXCERPT_LINES lines of the divergence:"
        head -n "$DIFF_EXCERPT_LINES" "$workdir/diff.log"
        total=$(wc -l < "$workdir/diff.log")
        if [ "$total" -gt "$DIFF_EXCERPT_LINES" ]; then
            echo "... ($((total - DIFF_EXCERPT_LINES)) more diff lines suppressed)"
        fi
        echo "replay one run with:"
        echo "  PYTHONPATH=src $*"
        exit 1
    fi
}

for profile in mixed overload; do
    twice "sim determinism: seed=$SEED events=$EVENTS profile=$profile" \
        "$PYTHON" -m repro sim --seed "$SEED" --events "$EVENTS" \
        --profile "$profile" --verbose
    grep "event-log fingerprint:" "$workdir/first.log"
done
for demo in demo-network demo-fleet demo-overload demo-crash; do
    twice "demo determinism: $demo" "$PYTHON" -m repro "$demo"
done
echo "deterministic: every pair of runs byte-identical (both profiles, four demos)"
