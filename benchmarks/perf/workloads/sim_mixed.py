"""sim-mixed: light-client requests against the whole deployment under a
seeded fault schedule, every invariant checked after every event."""

from __future__ import annotations

from contextlib import ExitStack
from statistics import median

from repro.sgx.costs import cost_model_disabled
from repro.sim import (
    WEIGHT_PROFILES,
    InvariantSuite,
    InvariantViolation,
    ScenarioSchedule,
    SimConfig,
    SimWorld,
    apply_event,
)

from clock import CheckFailed, Clock
from worlds import checked_client
from workloads.base import Workload

PROFILE = "mixed"

# ``query_many`` and ``overload`` are left out of the schedule: they are
# the two callers of ``QueryGateway.call_many``, which can spin forever.
# When every replica is ejected and one's probe time has come while its
# breaker is still open, ``_wait_for_probe_window`` waits for "the
# earliest probe" -- now -- and returns without advancing the clock
# (mixed profile: seed 8 at event 299, seed 4 at event 565).  ``call``
# bounds its loop; ``call_many`` does not.  That is a defect in
# ``repro.net.gateway`` for a later change to fix; a benchmark operation
# must not hang, and the watchdog is there for the day another one does.
UNSAFE = ("query_many", "overload")

#: A round holds every event kind exactly as often as the profile weighs
#: it, so a run's mix does not depend on where the seed happened to put
#: the expensive kinds.  One crash a round, not the profile's four: at
#: four, recoveries take 60 % of a ten-second run.
QUOTA = {
    kind: weight for kind, weight in WEIGHT_PROFILES[PROFILE]
    if kind not in UNSAFE
}
QUOTA["crash"] = 1
EVENTS_PER_ROUND = sum(QUOTA.values())

#: The operations are what a light client asks of the deployment: a
#: verified query, a tip sync, a join (bootstrap + subscribe).  Every
#: other kind -- mining, certification, crashes and recoveries, link
#: faults, paused or slowed replicas, floods, hub remounts, idle time --
#: is the world those requests are served in: applied between operations
#: with the invariants checked after it, untimed.  Timing every event as
#: one population does not give steady numbers in ten seconds: a third
#: of the kinds are 0.3 ms switches, half the certify and heartbeat
#: events are no-ops, and a crash costs 150-990 ms by crash point and
#: chain height, so median and mean follow the seed's draw, not the
#: code.  The traced run still times all of it (``sim.events_per_s``,
#: ``sim.crash_recover_ms_p50``).
OPERATIONS = frozenset(("query", "sync", "churn"))
POOL_ROUNDS = 16


class SimMixed(Workload):
    name = "sim-mixed"
    tail_pct = 90
    ops_per_round = sum(QUOTA[kind] for kind in OPERATIONS)
    full_rounds = 10
    overhead_s = 6.0
    merkle_sizes = (256, 64, 64)

    def setup(self, clock: Clock) -> None:
        # run_sim's own arrangement: modeled SGX charges off for the
        # whole run (they would busy-wait), everything else live.
        self._stack = ExitStack()
        self._stack.enter_context(cost_model_disabled())
        self.world = clock.timed("setup", SimWorld.build, SimConfig(), self.scratch)
        self.suite = InvariantSuite(self.world)
        self._events = self._event_stream()
        self._applied = 0

    def _event_stream(self):
        """The seeded schedule, thinned to the per-round quota: events
        come in the order ``ScenarioSchedule.generate`` drew them, and
        one whose kind is used up this round (or unsafe) is skipped."""
        chunk = 0
        left = dict(QUOTA)
        remaining = EVENTS_PER_ROUND
        while True:
            schedule = ScenarioSchedule.generate(
                self.seed * 1000 + chunk, POOL_ROUNDS * EVENTS_PER_ROUND,
                profile=PROFILE,
            )
            chunk += 1
            for event in schedule.events:
                if not left.get(event.kind):
                    continue
                left[event.kind] -= 1
                remaining -= 1
                yield event
                if remaining == 0:
                    left = dict(QUOTA)
                    remaining = EVENTS_PER_ROUND

    def round(self, clock: Clock, index: int) -> None:
        step = self._step_in_spans if clock.tracing else self._step
        try:
            for _ in range(EVENTS_PER_ROUND):
                event = next(self._events)
                if event.kind in OPERATIONS:
                    clock.op(event.kind, step, clock, event)
                else:
                    step(clock, event)
        except InvariantViolation as exc:
            raise CheckFailed(str(exc)) from exc

    def _step(self, _clock: Clock, event) -> None:
        """run_sim's loop body: apply, log, check every invariant."""
        outcome = apply_event(self.world, event)
        self._log(event, outcome)
        self.suite.check(self._applied - 1)

    def _step_in_spans(self, clock: Clock, event) -> None:
        name = "sim.crash_recover" if event.kind == "crash" else "sim.apply"
        outcome = clock.timed(name, apply_event, self.world, event)
        self._log(event, outcome)
        clock.timed("sim.invariants", self.suite.check, self._applied - 1)

    def _log(self, event, outcome: str) -> None:
        world = self.world
        world.log(
            f"{self._applied:04d} t={world.bus.clock_ms:.1f} "
            f"{event.describe()} -> {outcome}"
        )
        self._applied += 1

    def check(self, clock: Clock) -> dict:
        try:
            self.suite.finish(self._applied)
        except InvariantViolation as exc:
            raise CheckFailed(str(exc)) from exc
        world = self.world
        self._checker = checked_client(
            world.measurement, world.ias.public_key, world.issuer
        )
        return {"sim_fingerprint": world.fingerprint(), "events": self._applied}

    def close(self) -> None:
        self._stack.close()

    def virtual_ms(self) -> float:
        return self.world.bus.clock_ms

    def client_storage_bytes(self) -> int:
        held = [entry.client.storage_bytes() for entry in self.world.fleet]
        return max(held + [self._checker.storage_bytes()])

    def layer_metrics(self, clock: Clock, ops: int) -> dict[str, float]:
        world = self.world
        apply_s = clock.normalised_s("sim.apply")
        crash_s = clock.normalised_s("sim.crash_recover")
        check_s = clock.normalised_s("sim.invariants")
        degraded = sum(1 for line in world.events if "fail:" in line)
        return {
            "sim.events_per_s":
                self._applied / (sum(apply_s) + sum(crash_s) + sum(check_s)),
            "sim.apply_ms_p50": median(apply_s) * 1000.0,
            "sim.invariants_ms_p50": median(check_s) * 1000.0,
            "sim.crash_recover_ms_p50": median(crash_s) * 1000.0,
            "sim.recoveries": world.recoveries,
            "sim.remounts": world.remounts,
            # Events whose outcome was a typed refusal: the system
            # degrading as designed under faults, not a failed operation.
            "sim.degraded_outcome_ratio": degraded / self._applied,
        }
