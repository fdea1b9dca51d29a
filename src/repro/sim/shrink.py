"""The simulation runner: execute, fingerprint, shrink, replay.

:func:`play` is the one event loop: it drives a list of events (a
seeded schedule, or a scripted row of :data:`repro.sim.SCENARIOS`)
through a fresh :class:`~repro.sim.world.SimWorld`, checking the
:class:`~repro.sim.invariants.InvariantSuite` after every event.
:func:`run_sim` plays one seeded schedule and returns a
:class:`SimResult` whose fingerprint is a SHA-256 over the
deterministic event log — same seed, byte-identical fingerprint.

On a violation, :func:`run_and_shrink` bisects the *smallest failing
event prefix* (determinism makes every probe exact) and raises an
``AssertionError`` whose message carries a copy-paste replay command,
following the ``tests/proptest/framework.py`` conventions:

    REPRO_SIM_REPLAY=<seed>:<events> PYTHONPATH=src \\
        python -m pytest tests/sim/test_sim_workloads.py::test_replay -q

Env knobs (all optional):

* ``REPRO_SIM_SEED`` — schedule seed (default 2026);
* ``REPRO_SIM_EVENTS`` — schedule length (default 60);
* ``REPRO_SIM_REPLAY=seed:events`` — rerun exactly one case;
* ``REPRO_SIM_CANARY`` — arm a deliberately-wrong invariant from
  :data:`repro.sim.invariants.CANARIES`;
* ``REPRO_SIM_PROFILE`` — event mix (``mixed``/``overload``, see
  :data:`repro.sim.schedule.WEIGHT_PROFILES`).
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.sgx.costs import cost_model_disabled

from .invariants import InvariantSuite, InvariantViolation
from .schedule import ScenarioSchedule, SimEvent, apply_event
from .world import SimConfig, SimWorld

DEFAULT_SEED = 2026
DEFAULT_EVENTS = 60


@dataclass
class SimResult:
    """Everything one deterministic run produced."""

    seed: int
    events: int
    events_applied: int
    fingerprint: str
    violation: InvariantViolation | None
    log: tuple[str, ...]
    canary: str | None = None
    profile: str = "mixed"

    @property
    def ok(self) -> bool:
        return self.violation is None


def play(
    config: SimConfig,
    events: Sequence[SimEvent],
    canary: str | None = None,
    report: Callable[[SimWorld], dict] | None = None,
) -> tuple[SimWorld, InvariantViolation | None, dict]:
    """The one event loop, for a seeded schedule and a scripted scenario
    alike: build the world, apply and log each event and check every
    invariant after it, then the end-of-run WAL recovery.  The checkers'
    oracle work is not the deployment's, so it is kept out of the
    metrics registry, and so is ``report(world)``, read after a clean
    run.  Never raises on a violation: it is returned."""
    with tempfile.TemporaryDirectory(prefix="repro-sim-") as tmp, \
            cost_model_disabled():
        world = SimWorld.build(config, Path(tmp))
        obs.set_virtual_clock(lambda: world.bus.clock_ms)
        suite = InvariantSuite(world, canary=canary)
        try:
            for index, event in enumerate(events):
                outcome = apply_event(world, event)
                world.log(
                    f"{index:04d} t={world.bus.clock_ms:.1f} "
                    f"{event.describe()} -> {outcome}"
                )
                with obs.observability(False):
                    suite.check(index)
            with obs.observability(False):
                suite.finish(len(events))
                return world, None, report(world) if report else {}
        except InvariantViolation as exc:
            return world, exc, {}
        finally:
            obs.set_virtual_clock(None)


def run_sim(
    seed: int,
    events: int,
    config: SimConfig | None = None,
    canary: str | None = None,
    profile: str = "mixed",
) -> SimResult:
    """One full deterministic run of a seeded schedule, observability on,
    closed by one ``quiesce`` (so the liveness invariants are checked);
    never raises on a violation — the outcome (including the violation)
    is the result."""
    schedule = ScenarioSchedule.generate(seed, events, profile=profile)
    with obs.observability():
        obs.registry().reset()
        world, violation, _ = play(
            config or SimConfig(),
            schedule.events + (SimEvent("quiesce", {}),), canary,
        )
    return SimResult(
        # The closing quiesce is not one of the schedule's events.
        seed=seed, events=events, events_applied=min(len(world.events), events),
        fingerprint=world.fingerprint(), violation=violation,
        log=tuple(world.events), canary=canary, profile=profile,
    )


def replay_command(
    seed: int,
    events: int,
    canary: str | None = None,
    profile: str = "mixed",
) -> str:
    """The copy-paste one-liner that reruns exactly this case."""
    parts = [f"REPRO_SIM_REPLAY={seed}:{events}"]
    if canary is not None:
        parts.append(f"REPRO_SIM_CANARY={canary}")
    if profile != "mixed":
        parts.append(f"REPRO_SIM_PROFILE={profile}")
    parts.append(
        "PYTHONPATH=src python -m pytest "
        "tests/sim/test_sim_workloads.py::test_replay -q"
    )
    return " ".join(parts)


def shrink_prefix(
    seed: int,
    events: int,
    config: SimConfig | None = None,
    canary: str | None = None,
    first_failure: int | None = None,
    profile: str = "mixed",
) -> int:
    """Smallest event-prefix length that still violates, by bisection.

    Determinism makes every probe exact: prefix ``n`` replays the first
    ``n`` events of the same schedule byte-for-byte.  ``first_failure``
    (the violating event's 0-based index, when known) seeds the upper
    bound so the search starts tight.
    """
    hi = events
    if first_failure is not None:
        hi = min(events, first_failure + 1)
    lo = 1
    # Invariant: prefix `hi` fails; prefixes below `lo` are untested or
    # pass.  Bisect the boundary.
    while lo < hi:
        mid = (lo + hi) // 2
        probe = run_sim(seed, mid, config=config, canary=canary,
                        profile=profile)
        if probe.violation is not None:
            hi = mid
        else:
            lo = mid + 1
    return hi


def run_and_shrink(
    seed: int,
    events: int,
    config: SimConfig | None = None,
    canary: str | None = None,
    profile: str = "mixed",
) -> SimResult:
    """Run; on violation, shrink to the minimal prefix and raise an
    ``AssertionError`` carrying the replay command (proptest-style)."""
    result = run_sim(seed, events, config=config, canary=canary,
                     profile=profile)
    if result.violation is None:
        return result
    first = result.violation.event_index
    shrunk = shrink_prefix(
        seed, events, config=config, canary=canary,
        first_failure=None if first >= events else first,
        profile=profile,
    )
    shrunk_result = run_sim(seed, shrunk, config=config, canary=canary,
                            profile=profile)
    tail = "\n".join(shrunk_result.log[-6:])
    raise AssertionError(
        f"sim invariant violation (seed={seed}, events={events}):\n"
        f"  {result.violation}\n"
        f"shrunk to the {shrunk}-event prefix "
        f"({shrunk_result.violation or 'violates only with more events'})\n"
        f"replay: {replay_command(seed, shrunk, canary, profile)}\n"
        f"last events of the shrunk run:\n{tail}"
    )


def knobs_from_env(
    environ: dict | None = None,
) -> tuple[int, int, str | None, str]:
    """Resolve (seed, events, canary, profile) from ``REPRO_SIM_*``."""
    env = os.environ if environ is None else environ
    seed = int(env.get("REPRO_SIM_SEED", DEFAULT_SEED))
    events = int(env.get("REPRO_SIM_EVENTS", DEFAULT_EVENTS))
    replay = env.get("REPRO_SIM_REPLAY", "")
    if replay:
        raw_seed, _, raw_events = replay.partition(":")
        seed = int(raw_seed)
        if raw_events:
            events = int(raw_events)
    canary = env.get("REPRO_SIM_CANARY") or None
    profile = env.get("REPRO_SIM_PROFILE", "mixed")
    return seed, events, canary, profile
