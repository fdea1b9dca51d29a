"""Command-line interface: ``python -m repro <command>``.

Every command that needs a deployment gets it from one builder,
:meth:`repro.sim.SimWorld.build`, through :func:`_narrate`: a small
sim world (chain, durable issuer, query replicas, hub, remote clients
on the virtual-clock bus) that the command narrates as scripted sim
events, with the sim's invariant suite checked after every step and
its end-of-run WAL recovery at the close.  A violation prints its
message and exits 1.

Commands:

* ``info`` — the version and each ``repro.*`` subpackage's summary.
* ``demo`` — mine and certify a chain (the premine), then a local
  superlight client adopts the certified tip and verifies a query
  answered from the issuer's own index.
* ``demo-network`` — a push-subscribed remote client over two replicas:
  a ``lossy_link`` event on its link to sp1, a verified query with
  retries, then ``mine`` + ``certify`` events whose tip arrives pushed.
* ``demo-fleet`` — a gateway client over N replicas: a ``query_many``
  batch, its warm repeat from the verified-answer cache, a
  ``pause_replica`` event with failover, and ``resume_replicas`` with
  the probe path readmitting the replica.
* ``demo-overload`` — the same shape: a doomed deadline refused up
  front, a flood from the sim's load generator shed at admission with
  a verified-stale answer served, then a ``slow_replica`` event
  (factor 10) that the gateway hedges around.
* ``demo-crash`` — ``mine`` events, then one ``crash`` event kills the
  durable issuer at a chosen crashpoint mid-``certify_range``; the
  supervisor restores it from the write-ahead archive and the polling
  client finishes a verified query without re-attesting.
* ``selftest`` — the ``demo`` world at 4 blocks plus tamper checks;
  exits non-zero on any failure (a deployment smoke test).
* ``metrics`` — one world with a push-subscribed client (``--drop``
  becomes a ``lossy_link`` event) and a gateway client over
  ``--replicas`` replicas, run with observability on; reports the
  collected counters, gauges, and histograms (``--json`` for the raw
  snapshot, ``--all`` for per-component state too).
* ``sim`` / ``demo-sim`` — a whole seeded simulation run.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro import __version__, obs
from repro.core import SuperlightClient
from repro.errors import CertificateError, DeadlineExceededError
from repro.obs import wallclock
from repro.query import HistoryQuery, QueryAnswer, StaleAnswer
from repro.sim import (
    SIM_CRASH_POINTS,
    InvariantSuite,
    InvariantViolation,
    SimConfig,
    SimEvent,
    SimWorld,
    apply_event,
)


class _Narration:
    """One command's sim world: each scripted event, and each direct
    step the narration takes, is followed by the invariant suite."""

    def __init__(self, world: SimWorld) -> None:
        self.world = world
        self.suite = InvariantSuite(world)
        self.steps = 0

    def check(self) -> None:
        # The checkers' fresh verifiers and oracle executions are not the
        # deployment's work: keep them out of the metrics registry.
        with obs.observability(False):
            self.suite.check(self.steps)
        self.steps += 1

    def event(self, kind: str, **params) -> str:
        outcome = apply_event(self.world, SimEvent(kind, params))
        self.check()
        return outcome

    def query(self, slot: int, request, **kwargs):
        """Fleet client ``slot`` asks directly; a fresh answer joins the
        oracle-identity check like a ``query`` event's."""
        answer = self.world.fleet[slot].client.query(request, **kwargs)
        if not isinstance(answer, StaleAnswer):
            self.world.record_answer(request, answer)
        self.check()
        return answer


def _narrate(config: SimConfig, story) -> int:
    """Build the world, run ``story(narration)`` for its exit status,
    then the suite's end-of-run check; a violation exits 1."""
    with tempfile.TemporaryDirectory(prefix="repro-cli-") as tmp:
        narration = _Narration(SimWorld.build(config, Path(tmp)))
        try:
            narration.check()
            status = story(narration)
            with obs.observability(False):
                narration.suite.finish(narration.steps)
        except InvariantViolation as exc:
            print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
            return 1
        return status


def _local(blocks: int) -> SimConfig:
    """A certified chain and nothing on the network: ``demo``/``selftest``."""
    return SimConfig(
        premine=blocks, replicas=0, pollers=0, gateway_clients=0,
        subscribers=0,
    )


def _history(client) -> HistoryQuery:
    """acct1's whole certified history: the query each demo verifies."""
    return HistoryQuery(index="history", account="acct1", t_from=1,
                        t_to=client.latest_header.height)


def cmd_info(_: argparse.Namespace) -> int:
    import importlib
    import pkgutil

    import repro

    print(f"repro {__version__} — DCert reproduction (Middleware '22)")
    print()
    for module in pkgutil.iter_modules(repro.__path__):
        if not module.ispkg:
            continue
        name = f"repro.{module.name}"
        doc = (importlib.import_module(name).__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        print(f"  {name:18} {summary.removeprefix(f'{name} — ')}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    print(f"Mining and certifying {args.blocks} blocks...")
    started = wallclock.now_s()

    def story(run: _Narration) -> int:
        world = run.world
        print(f"  done in {wallclock.elapsed_s(started):.1f}s "
              f"({world.issuer.enclave.ledger.ecalls} ecalls)")
        client = SuperlightClient(world.measurement, world.ias.public_key)
        clock = wallclock.now_s()
        client.adopt(world.issuer.certified[-1])
        print(f"Superlight client validated a {world.builder.height}-block "
              f"chain in {wallclock.elapsed_ms(clock):.1f} ms, "
              f"storing {client.storage_bytes()} bytes.")
        request = _history(client)
        answer = world.issuer.indexes["history"].query_history(
            "acct1", 1, request.t_to
        )
        ok = client.verify_answer(
            request, QueryAnswer(request=request, payload=answer)
        )
        print(f"Verifiable query: {len(answer.versions)} versions of acct1, "
              f"proof {answer.proof_size_bytes()} bytes, verified={ok}.")
        return 0 if ok else 1

    return _narrate(_local(args.blocks), story)


def cmd_selftest(_: argparse.Namespace) -> int:
    def story(run: _Narration) -> int:
        world = run.world
        client = SuperlightClient(world.measurement, world.ias.public_key)
        tip = world.issuer.certified[-1]
        checks = 0
        assert client.adopt(tip)
        checks += 1
        try:
            client.validate_chain(
                tip.block.header, replace(tip.certificate, dig=bytes(32))
            )
            print("FAIL: forged certificate accepted", file=sys.stderr)
            return 1
        except CertificateError:
            checks += 1
        request = _history(client)
        answer = world.issuer.indexes["history"].query_history(
            "acct1", 1, request.t_to
        )
        assert client.verify_answer(
            request, QueryAnswer(request=request, payload=answer)
        )
        checks += 1
        if answer.versions:
            tampered = replace(answer, versions=answer.versions[:-1])
            assert not client.verify_answer(
                request, QueryAnswer(request=request, payload=tampered)
            )
            checks += 1
        print(f"selftest ok ({checks} checks)")
        return 0

    return _narrate(_local(4), story)


def cmd_demo_network(args: argparse.Namespace) -> int:
    def story(run: _Narration) -> int:
        world = run.world
        client = world.fleet[0].client
        print(f"A push-subscribed remote client bootstrapped over RPC: "
              f"adopted certified tip at height {client.latest_header.height}, "
              f"storing {client.storage_bytes():,} bytes")
        print(f"Dropping {args.drop:.0%} of messages to/from sp1: "
              f"{run.event('lossy_link', slot=0, drop=args.drop, peer=1)}")
        answer = run.query(0, _history(client))
        print(f"Verified query over RPC: {len(answer.payload.versions)} "
              f"versions of acct1, proof {answer.proof_size_bytes():,} bytes.")
        print(f"  retries/timeouts: {client.rpc.timeouts}, "
              f"failovers: {client.failovers}, "
              f"integrity failures: {client.integrity_failures}")

        print("The miner mines one more block and the CI certifies it...")
        calls_before = client.rpc.calls
        run.event("mine", txs=3)
        run.event("certify", upto=1)
        print(f"  pushed tip at height {client.latest_header.height} adopted "
              f"with {client.rpc.calls - calls_before} client RPC round trips "
              f"({client.push_adopted} push adoptions)")
        print(f"  virtual network time: {world.bus.clock_ms:.0f} ms")
        for link, counts in world.injector.summary().items():
            print(f"  {link}: {counts}")
        return 0 if client.push_adopted else 1

    print(f"Mining {args.blocks} blocks, certifying all but the newest...")
    return _narrate(SimConfig(
        premine=args.blocks - 1, replicas=2, pollers=0, gateway_clients=0,
        subscribers=1, latency_ms=20.0,
    ), story)


def cmd_demo_fleet(args: argparse.Namespace) -> int:
    def story(run: _Narration) -> int:
        world = run.world
        entry = world.fleet[0]
        client, gateway, bus = entry.client, entry.gateway, world.bus
        height = client.latest_header.height
        print(f"Remote client adopted the certified tip at height {height}; "
              f"gateway fronts {args.replicas} replicas (round-robin, "
              f"{args.service_ms:.0f} ms modeled service time).")

        started = bus.clock_ms
        batch = run.event("query_many", slot=0, count=args.queries, account=0)
        elapsed = bus.clock_ms - started
        served = {
            name: replica.server.requests_served
            for name, replica in world.replicas.items()
        }
        print(f"\nServed {args.queries} verified queries in {elapsed:.0f} "
              f"virtual ms ({args.queries / (elapsed / 1000.0):.1f} modeled "
              f"q/s): {batch}")
        print(f"  per-replica load: {served}")
        if "fail:" in batch:
            return 1

        hits_before, dispatches_before = client.cache.hits, gateway.rpc.calls
        run.event("query_many", slot=0, count=args.queries, account=0)
        print(f"Repeated the batch warm: {client.cache.hits - hits_before} "
              f"cache hits, {gateway.rpc.calls - dispatches_before} replica "
              f"dispatches.")

        victim = run.event("pause_replica", idx=0)
        timeouts_before = gateway.rpc.timeouts
        for i in range(args.replicas * 2):
            run.query(0, HistoryQuery(
                index="history", account=f"acct{i % 4}",
                t_from=2, t_to=max(2, 1 + i % height),
            ))
        print(f"\nPaused {victim}: {gateway.rpc.timeouts - timeouts_before} "
              f"dispatches to it timed out; healthy replicas now "
              f"{gateway.healthy_replicas()}")
        run.event("resume_replicas")
        for i in range(args.replicas * 3):
            run.query(0, HistoryQuery(
                index="history", account=f"acct{i % 4}",
                t_from=3, t_to=max(3, 1 + i % height),
            ))
        back = victim in gateway.healthy_replicas()
        print(f"Resumed {victim}: probe readmitted it: {back}")
        print(f"  totals — dispatches: {gateway.rpc.calls}, "
              f"timeouts: {gateway.rpc.timeouts}, "
              f"replica switches verified: {gateway.switches}, "
              f"cache hits/misses: {client.cache.hits}/{client.cache.misses}")
        return 0 if back else 1

    print(f"Mining {args.blocks} blocks, certifying all but the newest...")
    # The batch queues whole on the replicas; only demo-overload sheds.
    return _narrate(_gateway_fleet(
        args, shed_delay_ms=args.service_ms * args.queries,
        admission_queue_limit=args.queries,
    ), story)


def _gateway_fleet(args: argparse.Namespace, **admission) -> SimConfig:
    """One gateway client (breakers, hedging, stale fallback) over
    ``--replicas`` admission-controlled replicas."""
    return SimConfig(
        premine=args.blocks - 1, replicas=args.replicas, pollers=0,
        gateway_clients=1, subscribers=0, service_time_ms=args.service_ms,
        **admission,
    )


def cmd_demo_overload(args: argparse.Namespace) -> int:
    """Narrated overload resilience: deadline propagation, admission
    shedding + retry_after, circuit breakers, graceful stale
    degradation, and hedged requests, one segment each."""
    def story(run: _Narration) -> int:
        world = run.world
        entry = world.fleet[0]
        client, gateway, bus = entry.client, entry.gateway, world.bus
        replicas = world.replicas.values()
        print(f"Fleet of {args.replicas} replicas "
              f"({args.service_ms:.0f} ms service time) behind a gateway "
              f"with admission control, circuit breakers, and hedging; "
              f"client adopted the certified tip at height "
              f"{client.latest_header.height}.")
        request = _history(client)

        tight_ms = args.service_ms * 1.6
        print(f"\n[1] Deadline propagation — a query with a "
              f"{tight_ms:.0f} ms budget (after per-hop shrinking, less "
              f"than one service time):")
        executes_before = world.provider.executes
        try:
            client.query(request, deadline_ms=bus.clock_ms + tight_ms)
            print("  unexpectedly served!")
            return 1
        except DeadlineExceededError:
            refused = sum(r.server.deadline_refused for r in replicas)
            print("  refused up front (DEADLINE_EXCEEDED): the per-hop "
                  "budget shrinks in flight and cannot cover one service "
                  "time, so the replica refuses at admission")
            print(f"  provider executions: "
                  f"{world.provider.executes - executes_before} "
                  f"(doomed work costs zero), deadline refusals: {refused}")
        run.check()

        print("\n[2] Normal operation — the same query with headroom:")
        answer = run.query(0, request)
        print(f"  verified answer: {len(answer.payload.versions)} versions "
              f"of acct1, cached under the certified root")
        # Advance the tip so the *fresh* cache entry is swept (it is
        # keyed by root) while the stale sidecar keeps the last answer.
        run.event("mine", txs=3)
        run.event("certify", upto=1)
        run.event("sync", slot=0)
        print(f"  tip advanced to height {client.latest_header.height}; the "
              f"root-keyed cache entry is swept, the stale sidecar remembers")

        saturation_ms = args.service_ms * 2.5
        print(f"\n[3] Saturation — flooding every replica with "
              f"{args.flood} fire-and-forget queries each, then asking again "
              f"with a {saturation_ms:.0f} ms budget:")
        flood_ids = [
            world.load.begin(name, "execute", request)
            for name in world.replicas for _ in range(args.flood)
        ]
        shed_before = sum(r.server.requests_shed for r in replicas)
        result = run.query(0, request, deadline_ms=bus.clock_ms + saturation_ms)
        shed = sum(r.server.requests_shed for r in replicas) - shed_before
        hint = next(
            (r.retry_after_ms for i in flood_ids
             if (r := world.load.take(i)) is not None
             and r.code == "net.overloaded"),
            0.0,
        )
        print(f"  replicas shed {shed} requests at admission "
              f"(OVERLOADED, retry_after ~{hint:.0f} ms)")
        if isinstance(result, StaleAnswer):
            print(f"  client degraded gracefully: served the last verified "
                  f"answer flagged stale=True (root height {result.height}) "
                  f"instead of failing")
        else:
            print("  tier recovered inside the budget; served fresh")
        bus.run_until_idle()
        for request_id in flood_ids:
            world.load.abandon(request_id)
        run.check()

        print("\n[4] Hedging — one replica turns 10x slow mid-run:")
        height = client.latest_header.height
        for i in range(16):  # warm the per-endpoint latency trackers
            lo, hi = sorted((1 + i // 8, 1 + i % height))
            run.query(0, HistoryQuery(index="history", account=f"acct{i % 4}",
                                      t_from=lo, t_to=hi))
        slow = world.replica_names[-1]
        run.event("slow_replica", idx=args.replicas - 1, factor=10)
        hedges_before = gateway.hedges
        for i in range(6):
            run.query(0, HistoryQuery(index="history", account=f"acct{i % 4}",
                                      t_from=3, t_to=max(3, 1 + i % height)))
        print(f"  {slow} degraded; gateway hedged "
              f"{gateway.hedges - hedges_before} dispatches at the observed "
              f"p90, {gateway.hedge_wins} won by the fast replica")

        print(f"\nTotals — shed: "
              f"{sum(r.server.requests_shed for r in replicas)}, "
              f"deadline refusals: "
              f"{sum(r.server.deadline_refused for r in replicas)}, "
              f"breaker trips: {gateway.breaker_trips()}, "
              f"hedge wins: {gateway.hedge_wins}, "
              f"stale served: {client.stale_served}")
        ok = (
            shed > 0
            and client.stale_served > 0
            and gateway.hedge_wins > 0
            and world.provider.executes > 0
        )
        return 0 if ok else 1

    return _narrate(_gateway_fleet(args), story)


def cmd_demo_crash(args: argparse.Namespace) -> int:
    """Narrate one scripted ``crash`` event of a small sim world."""
    if args.point not in SIM_CRASH_POINTS:
        print(f"unknown crashpoint {args.point!r}; one of:", file=sys.stderr)
        for name in SIM_CRASH_POINTS:
            print(f"  {name}", file=sys.stderr)
        return 2

    half = args.blocks // 2

    def story(run: _Narration) -> int:
        world = run.world
        client = world.fleet[0].client
        pk_before = world.issuer.pk_enc.to_bytes()
        print(f"A polling client and a subscriber attested; the poller "
              f"adopted the certified tip at height "
              f"{client.latest_header.height}.")

        print(f"\nMiner submits blocks {half + 1}..{args.blocks}; the issuer "
              f"is armed to die at {args.point!r} (hit {args.hit}).")
        for _ in range(args.blocks - half):
            run.event("mine", txs=3)
        outcome = run.event("crash", point=args.point, hit=args.hit,
                            cseed=0, upto=args.blocks - half)
        run.event("heartbeat", slot=0)
        run.event("sync", slot=0)
        print(f"  crash event -> {outcome}")
        fired = outcome.split()[1] == "fired"
        supervisor = world.supervisor
        report = world.issuer.last_recovery
        print(f"  crash fired: {fired}; supervisor restarts: "
              f"{supervisor.restarts} (of {supervisor.crashes} crashes)")
        if report is not None:
            print(f"  recovery: checkpoint_used={report.checkpoint_used} "
                  f"(height {report.checkpoint_height}), "
                  f"replayed {report.replayed_blocks} WAL-tail blocks")
        same_key = world.issuer.pk_enc.to_bytes() == pk_before
        print(f"  pk_enc stable across restart (sealed key): {same_key}")
        print("  every sim invariant held after every event (the run "
              "closes with a cold WAL recovery that must re-issue "
              "identical bytes)")

        request = _history(client)
        answer = run.query(0, request)
        ok = client.client.verify_answer(request, answer)
        print(f"\nClient synced to height {client.latest_header.height} and "
              f"verified a history query ({len(answer.payload.versions)} "
              f"versions of acct1): {ok}")
        print(f"  attestation reports verified in total: "
              f"{len(client.client._verified_reports)} (no re-attestation)")
        return 0 if (fired and ok and same_key and not supervisor.gave_up) else 1

    print(f"Mining {args.blocks} blocks; durably certifying the first "
          f"{half} (WAL + sealed checkpoint every 3)...")
    return _narrate(SimConfig(
        premine=half, checkpoint_interval=3, replicas=1, pollers=1,
        gateway_clients=0, subscribers=1,
    ), story)


def cmd_sim(args: argparse.Namespace) -> int:
    """One deterministic whole-system simulation run."""
    from repro.sim import CANARIES, replay_command, run_sim

    if args.canary is not None and args.canary not in CANARIES:
        print(f"unknown canary {args.canary!r}; "
              f"available: {', '.join(sorted(CANARIES))}")
        return 2
    result = run_sim(
        args.seed, args.events, canary=args.canary, profile=args.profile
    )
    if args.verbose:
        for line in result.log:
            print(line)
    print(f"Applied {result.events_applied}/{result.events} events "
          f"(seed {result.seed}, profile {args.profile})")
    print(f"event-log fingerprint: {result.fingerprint}")
    if result.violation is not None:
        shrink_hint = result.violation.event_index + 1
        print(f"INVARIANT VIOLATION: {result.violation}")
        print(f"replay: "
              f"{replay_command(result.seed, shrink_hint, args.canary, args.profile)}")
        return 1
    print("all invariants held after every event")
    return 0


def cmd_demo_sim(args: argparse.Namespace) -> int:
    """Narrated simulation: compose, run, fingerprint, rerun."""
    from repro.sim import SimConfig, run_sim

    config = SimConfig()
    print("Composing the whole stack on the virtual-clock bus:")
    print(f"  miner/chain -> durable issuer (WAL, checkpoints every "
          f"{config.checkpoint_interval} blocks) -> {config.replicas} query "
          f"replicas -> subscription hub")
    print(f"  client fleet: {config.pollers} polling, "
          f"{config.gateway_clients} gateway+cache, "
          f"{config.subscribers} push-subscribed")
    print(f"Running {args.events} seeded events (seed {args.seed}): mine, "
          f"certify, query, heartbeat, crashes, torn writes, lossy links, "
          f"partitions, replica pauses, hub remounts, client churn...")
    result = run_sim(args.seed, args.events)
    if result.violation is not None:
        print(f"INVARIANT VIOLATION: {result.violation}")
        return 1
    crashes = sum(1 for line in result.log if " crash(" in line)
    churns = sum(1 for line in result.log if " churn(" in line)
    print(f"  {result.events_applied} events applied; {crashes} injected "
          f"crashes recovered, {churns} clients churned")
    print("  every event passed: tip monotonicity, no unverified adoption, "
          "storage budget, oracle byte-identity, cache coherence, WAL "
          "consistency, metrics monotonicity")
    print("Sample of the deterministic event log:")
    for line in result.log[-5:]:
        print(f"  {line}")
    print(f"event-log fingerprint: {result.fingerprint}")
    print("Re-running the same seed to prove determinism...")
    again = run_sim(args.seed, args.events)
    identical = again.fingerprint == result.fingerprint
    print(f"  byte-identical: {identical}")
    return 0 if identical else 1


def _components(world: SimWorld) -> dict:
    """One JSON document covering every registered component of the
    metrics world — each fleet client, the hub, the replicas — for
    ``metrics --all``."""
    components: dict = {
        "hub": {
            "published": world.hub.published,
            "subscribers": len(world.hub.subscribers),
            "reaped": world.hub.reaped,
            "resyncs": world.hub.resyncs,
            "latest_seq": world.hub.seq,
        },
        "replicas": {
            name: {
                "requests_served": replica.server.requests_served,
                "requests_dropped": replica.server.requests_dropped,
            }
            for name, replica in world.replicas.items()
        },
    }
    for entry in world.fleet:
        client = entry.client
        stats = components[entry.name] = {
            name: getattr(client, name)
            for name in ("failovers", "integrity_failures", "push_adopted",
                         "push_rejected", "push_duplicates", "push_gaps",
                         "push_resyncs")
        }
        stats["rpc_calls"] = client.rpc.calls
        stats["rpc_timeouts"] = client.rpc.timeouts
        stats["storage_bytes"] = client.storage_bytes()
        if client.cache is not None:
            stats["cache_hits"] = client.cache.hits
            stats["cache_misses"] = client.cache.misses
            stats["cache_entries"] = len(client.cache)
        if entry.gateway is not None:
            stats["gateway"] = {
                "dispatches": entry.gateway.rpc.calls,
                "timeouts": entry.gateway.rpc.timeouts,
                "failovers": entry.gateway.failovers,
                "switches_verified": entry.gateway.switches,
                "healthy_replicas": sorted(entry.gateway.healthy_replicas()),
            }
    return components


def _flatten(tree: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.bench.reporting import print_table

    def story(run: _Narration) -> int:
        world = run.world
        obs.set_virtual_clock(lambda: world.bus.clock_ms)
        run.event("lossy_link", slot=1, drop=args.drop, peer=1)
        request = _history(world.fleet[0].client)
        run.query(0, request)
        run.query(0, request)  # the warm path: a cache hit
        run.query(1, request)  # the push client asks the replicas itself
        if args.all:
            # Exercise the push tier too, so its metrics are live.
            run.event("mine", txs=3)
            run.event("certify", upto=1)
            run.event("heartbeat", slot=0)
        snapshot = obs.registry().snapshot()
        if args.all:
            snapshot = {"registry": snapshot, "components": _components(world)}
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        if args.all:
            print_table(
                "Components", ["component.metric", "value"],
                sorted(_flatten(snapshot["components"]).items()),
            )
            snapshot = snapshot["registry"]
        print_table(
            "Counters", ["counter", "value"],
            sorted(snapshot["counters"].items()),
        )
        print_table(
            "Gauges", ["gauge", "value"],
            sorted(snapshot["gauges"].items()),
        )
        print_table(
            "Histograms",
            ["histogram", "count", "min", "mean", "max"],
            [
                [
                    name,
                    h["count"],
                    h["min"],
                    (h["sum"] / h["count"]) if h["count"] else 0.0,
                    h["max"],
                ]
                for name, h in sorted(snapshot["histograms"].items())
            ],
        )
        return 0

    # The gateway client is spawned first: fleet slot 0, push client 1.
    config = SimConfig(
        premine=args.blocks - 1, replicas=args.replicas, pollers=0,
        gateway_clients=1, subscribers=1,
    )
    with obs.observability():
        obs.registry().reset()
        try:
            return _narrate(config, story)
        finally:
            obs.set_virtual_clock(None)


def _ranged(kind, low, high=math.inf):
    """An argparse ``type=``: ``kind(text)`` within ``[low, high]``; any
    other input is a usage error (exit 2) that names the range."""
    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise ValueError(text)
        return value

    # argparse reports a ValueError as "invalid <__name__> value: ...".
    parse.__name__ = (f"{kind.__name__} >= {low}" if high == math.inf
                      else f"{kind.__name__} in [{low}, {high}]")
    return parse


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        # The analyzer owns its argument surface (--json, --baseline,
        # --rule ...); hand everything after the subcommand straight to
        # it rather than mirroring each flag here.
        from repro.analysis import main as analysis_main

        return analysis_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="DCert reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "info", help="print the version and the subpackage inventory"
    )
    # A networked world certifies all but its newest block: at least 2.
    blocks = _ranged(int, 2)
    drop = _ranged(float, 0.0, 1.0)
    drop_help = "drop rate on the client<->sp1 links (default 0.3)"
    service_help = "modeled per-query service time per replica (default 25)"
    demo = subparsers.add_parser("demo", help="end-to-end demonstration")
    demo.add_argument("--blocks", type=_ranged(int, 1), default=10)
    network = subparsers.add_parser(
        "demo-network",
        help="push-subscribed remote client over RPC with a lossy link",
    )
    network.add_argument("--blocks", type=blocks, default=8)
    network.add_argument("--drop", type=drop, default=0.3, help=drop_help)
    crash = subparsers.add_parser(
        "demo-crash",
        help="kill the issuer at a crashpoint; supervised recovery demo",
    )
    crash.add_argument("--blocks", type=blocks, default=8)
    crash.add_argument(
        "--point", default="durable.append.pre_wal",
        help="crashpoint to arm (one of repro.sim.SIM_CRASH_POINTS)",
    )
    crash.add_argument(
        "--hit", type=_ranged(int, 1), default=1,
        help="fire on the n-th arrival at the crashpoint (default 1)",
    )
    fleet = subparsers.add_parser(
        "demo-fleet",
        help="load-balanced SP fleet behind the query gateway: scaling, "
             "cached hits, failover, probe recovery",
    )
    overload = subparsers.add_parser(
        "demo-overload",
        help="overload resilience: deadline propagation, admission "
             "shedding, circuit breakers, stale degradation, hedging",
    )
    # Both pause or slow one replica while another serves: at least 2.
    for command, replicas in ((fleet, 3), (overload, 2)):
        command.add_argument("--blocks", type=blocks, default=8)
        command.add_argument(
            "--replicas", type=_ranged(int, 2), default=replicas
        )
        command.add_argument(
            "--service-ms", type=_ranged(float, 1.0), default=25.0,
            dest="service_ms", help=service_help,
        )
    fleet.add_argument("--queries", type=_ranged(int, 1), default=12)
    overload.add_argument(
        "--flood", type=_ranged(int, 1), default=30,
        help="fire-and-forget queries per replica in the saturation "
             "segment (default 30)",
    )
    sim = subparsers.add_parser(
        "sim",
        help="deterministic whole-system simulation with global "
             "invariant checking (exit 1 + replay command on violation)",
    )
    sim.add_argument("--seed", type=int, default=2026)
    sim.add_argument(
        "--events", type=int, default=200,
        help="schedule length: seeded workload + fault events "
             "(default 200; `make sim` runs 500)",
    )
    sim.add_argument(
        "--canary", default=None,
        help="arm a deliberately-broken invariant "
             "(see repro.sim.CANARIES) to exercise catch/shrink/replay",
    )
    sim.add_argument(
        "--profile", default="mixed", choices=["mixed", "overload"],
        help="event mix: 'mixed' (default) or 'overload' "
             "(saturation-heavy: bursts, deadline batches, slow replicas)",
    )
    sim.add_argument(
        "--verbose", action="store_true",
        help="print the full deterministic event log",
    )
    demo_sim = subparsers.add_parser(
        "demo-sim",
        help="narrated simulation run: the whole stack under one seeded "
             "schedule, invariants checked after every event",
    )
    demo_sim.add_argument("--seed", type=int, default=2026)
    demo_sim.add_argument("--events", type=int, default=80)
    subparsers.add_parser("selftest", help="fast certification round trip")
    metrics = subparsers.add_parser(
        "metrics",
        help="a push client and a gateway client with observability on; "
             "report metrics",
    )
    metrics.add_argument("--blocks", type=blocks, default=6)
    metrics.add_argument("--drop", type=drop, default=0.3, help=drop_help)
    metrics.add_argument(
        "--replicas", type=_ranged(int, 2), default=2,
        help="query replicas behind both clients (default 2)",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="emit the raw metrics snapshot as JSON",
    )
    metrics.add_argument(
        "--all", action="store_true",
        help="snapshot every registered component (each client with its "
             "cache and gateway, the hub, the replicas) together with the "
             "metrics registry in one document, exercising the push stream "
             "along the way",
    )
    subparsers.add_parser(
        "analyze",
        help="AST-based invariant linter over src/ and tests/ "
             "(DET/VER/ERR/BND/WIRE/OBS/CAT rules; see docs/analysis.md)",
        add_help=False,
    )
    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "demo": cmd_demo,
        "demo-network": cmd_demo_network,
        "demo-fleet": cmd_demo_fleet,
        "demo-overload": cmd_demo_overload,
        "demo-crash": cmd_demo_crash,
        "sim": cmd_sim,
        "demo-sim": cmd_demo_sim,
        "selftest": cmd_selftest,
        "metrics": cmd_metrics,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
