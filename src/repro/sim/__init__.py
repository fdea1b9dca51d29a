"""repro.sim — deterministic whole-system simulation (FoundationDB-style).

One seeded schedule drives the entire stack — chain, durable issuer,
WAL + checkpoints, supervisor, gateway-fronted replica fleet,
subscription hub, and a mixed client fleet — on the virtual-clock bus,
with global invariants checked after every event and a shrink-to-prefix
replay on any violation.  :data:`SCENARIOS` are scripted runs of the
same loop: the stories ``repro demo`` tells.  See ``docs/testing.md``
for the knobs.
"""

from .invariants import (
    CANARIES,
    PAPER_STORAGE_BUDGET_BYTES,
    InvariantSuite,
    InvariantViolation,
)
from .schedule import (
    SIM_CRASH_POINTS,
    WEIGHT_PROFILES,
    ScenarioSchedule,
    SimEvent,
    apply_event,
    forge_answer,
)
from .scenarios import SCENARIOS, Scenario
from .shrink import (
    DEFAULT_EVENTS,
    DEFAULT_SEED,
    SimResult,
    knobs_from_env,
    play,
    replay_command,
    run_and_shrink,
    run_sim,
    shrink_prefix,
)
from .world import SimClient, SimConfig, SimWorld

__all__ = [
    "CANARIES",
    "DEFAULT_EVENTS",
    "DEFAULT_SEED",
    "InvariantSuite",
    "InvariantViolation",
    "PAPER_STORAGE_BUDGET_BYTES",
    "SCENARIOS",
    "Scenario",
    "ScenarioSchedule",
    "SimClient",
    "SimConfig",
    "SimEvent",
    "SimResult",
    "SimWorld",
    "SIM_CRASH_POINTS",
    "WEIGHT_PROFILES",
    "apply_event",
    "forge_answer",
    "knobs_from_env",
    "play",
    "replay_command",
    "run_and_shrink",
    "run_sim",
    "shrink_prefix",
]
