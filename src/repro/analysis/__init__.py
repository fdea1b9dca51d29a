"""Static analysis: mechanical enforcement of the codebase's contracts.

The reproduction's guarantees rest on code-level invariants that unit
tests cannot see — a single ``time.time()`` in a hot path silently
breaks deterministic replay; a state write that skips verification
silently breaks the no-unverified-adoption theorem; an unbounded dict
on a long-lived class silently breaks the bounded-state claim under
real traffic.  This package is a dependency-free ``ast`` pass (~8
domain-specific checkers) that turns those conventions into CI
failures with file:line findings and fix hints:

========  ===========================================================
DET01     wall-clock calls outside :mod:`repro.obs.wallclock`
DET02     unseeded randomness outside ``repro/crypto/``
VER01     client state outside adopt_bundle; unverified cache admits
ERR01     error taxonomy registration + typed raise sites
BND01     growable containers on long-lived classes without eviction
WIRE01    wire-message dataclasses without frozen/round-trip contracts
OBS01     metric names violating the ``component.metric`` grammar
CAT01     crashpoint literals out of sync with ``repro.fault.CATALOG``
SUP01     ``# repro: allow[...]`` suppressions without justification
========  ===========================================================

Run it with ``python -m repro.analysis`` (or ``repro analyze``); see
``docs/analysis.md`` for the rule catalog and the inline-suppression
contract.
"""

from repro.analysis.findings import (
    Finding,
    Suppression,
    parse_suppressions,
)
from repro.analysis.runner import all_checkers, analyze, main, run_checkers

__all__ = [
    "Finding",
    "Suppression",
    "all_checkers",
    "analyze",
    "main",
    "parse_suppressions",
    "run_checkers",
]
