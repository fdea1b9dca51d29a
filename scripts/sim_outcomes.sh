#!/usr/bin/env bash
# Print a sim run's outcome lines with the ` t=…` virtual-clock stamps
# stripped (and the fingerprint line, which hashes them, dropped), so
# two checkouts' behaviour compares with one diff:
#
#   diff <(cd parent && bash scripts/sim_outcomes.sh) <(bash scripts/sim_outcomes.sh)
#
#   REPRO_SIM_SEED / REPRO_SIM_EVENTS / REPRO_SIM_PROFILE   (2026 / 120 / mixed)
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src "${PYTHON:-python}" -m repro sim \
    --seed "${REPRO_SIM_SEED:-2026}" --events "${REPRO_SIM_EVENTS:-120}" \
    --profile "${REPRO_SIM_PROFILE:-mixed}" --verbose \
    | sed -e 's/ t=[0-9.]*//' -e '/^event-log fingerprint:/d'
