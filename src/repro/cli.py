"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — print the library inventory and version.
* ``demo`` — a one-minute end-to-end demonstration: mine, certify,
  bootstrap a superlight client, run a verifiable query.
* ``demo-network`` — the same flow over the simulated network: a
  remote superlight client bootstraps and queries two Service
  Providers over RPC while a fault injector drops messages to the
  first one.
* ``demo-fleet`` — scaling demonstration: a remote client serves a
  query batch through a load-balanced fleet of Service Provider
  replicas behind a :class:`repro.net.gateway.QueryGateway`, repeats
  it warm from the verified-answer cache, then survives a replica
  kill and watches the probe path readmit it.
* ``demo-overload`` — overload-resilience demonstration: deadline
  propagation refuses doomed work up front, admission control sheds a
  saturating flood with ``retry_after`` hints, circuit breakers trip,
  the client degrades to a verified-stale answer, and hedged requests
  collapse a slow replica's tail.
* ``demo-crash`` — crash-safety demonstration: a durable issuer is
  killed at a chosen crashpoint mid-``certify_range``, its supervisor
  restores it from the write-ahead archive (sealed checkpoint + WAL
  tail replay), and the remote client finishes its verified query
  against the restarted issuer without re-attesting.
* ``selftest`` — a fast certification round trip with tamper checks;
  exits non-zero on any failure (useful as a deployment smoke test).
* ``metrics`` — run the networked demo with observability enabled and
  report the collected counters, gauges, and latency/size histograms
  (``--json`` for machine-readable output).
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.obs import wallclock


def _mine_chain(blocks: int, block_size: int = 3):
    """The demo chain: ``blocks`` blocks of kvstore puts by one user."""
    from repro.chain import ChainBuilder
    from repro.chain.transaction import sign_transaction
    from repro.crypto import generate_keypair

    user = generate_keypair(b"cli-user")
    builder = ChainBuilder(difficulty_bits=4, network="cli")
    nonce = 0
    for _ in range(blocks):
        txs = []
        for _ in range(block_size):
            txs.append(
                sign_transaction(
                    user.private, nonce, "kvstore", "put",
                    (f"acct{nonce % 4}", f"value-{nonce}"),
                )
            )
            nonce += 1
        builder.add_block(txs)
    return builder


def _measurement(builder, ias, spec):
    """What an honest enclave measures as, from public inputs only."""
    from repro.chain.genesis import make_genesis
    from repro.contracts import fresh_vm
    from repro.core import compute_expected_measurement

    genesis, _ = make_genesis(network="cli")
    return compute_expected_measurement(
        genesis.header.header_hash(), ias.public_key, fresh_vm(),
        builder.pow.difficulty_bits, {spec.name: spec},
    )


def _provider(builder, spec, blocks):
    """A Service Provider that has ingested ``blocks``."""
    from repro.chain.genesis import make_genesis
    from repro.contracts import fresh_vm
    from repro.query import QueryServiceProvider

    genesis, state = make_genesis(network="cli")
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), builder.pow, [spec]
    )
    for block in blocks:
        provider.ingest_block(block)
    return provider


def _build_world(blocks: int = 10, hold_back: int = 0):
    from repro.chain.genesis import make_genesis
    from repro.contracts import fresh_vm
    from repro.core import CertificateIssuer
    from repro.query.indexes import AccountHistoryIndexSpec
    from repro.sgx.attestation import AttestationService

    builder = _mine_chain(blocks)
    genesis, state = make_genesis(network="cli")
    ias = AttestationService(seed=b"cli-ias")
    spec = AccountHistoryIndexSpec(name="history")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[spec], ias=ias, key_seed=b"cli-enclave",
    )
    # ``hold_back`` keeps the newest blocks mined-but-uncertified so a
    # command can certify them later (the push-stream demonstrations).
    for block in builder.blocks[1 : len(builder.blocks) - hold_back]:
        issuer.process_block(block)
    return builder, issuer, ias, spec


def _served_world(blocks: int):
    """What every networked demo starts from: a certified chain with the
    newest mined block held back uncertified (so a command can show
    push propagation: ``world.issuer.process_block(world.held_back)``),
    a Service Provider that ingested the certified blocks, and the
    measurement a client derives from public inputs."""
    from types import SimpleNamespace

    builder, issuer, ias, spec = _build_world(blocks=blocks, hold_back=1)
    return SimpleNamespace(
        builder=builder, issuer=issuer, ias=ias,
        provider=_provider(builder, spec, builder.blocks[1:-1]),
        measurement=_measurement(builder, ias, spec),
        held_back=builder.blocks[-1],
    )


def cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} — DCert reproduction (Middleware '22)")
    print()
    inventory = [
        ("repro.crypto", "secp256k1 ECDSA (RFC-6979), SHA-256 hashing"),
        ("repro.merkle", "MHT, sparse Merkle tree + partial trees, MPT, "
                         "B+-tree engine (MB-tree, aggregate tree), skip list, MMR"),
        ("repro.chain", "transactions, PoW blocks, contract VM, miner, "
                        "full node, light client"),
        ("repro.contracts", "Blockbench: DoNothing, CPUHeavy, IOHeavy, KVStore, SmallBank"),
        ("repro.sgx", "simulated enclaves, attestation, sealing, cost model"),
        ("repro.core", "DCert: gen_cert, ecall_sig_gen, superlight client, "
                       "augmented + hierarchical certificates"),
        ("repro.query", "SP, two-level history index, keyword index, "
                        "aggregate index, LineageChain baseline"),
        ("repro.baselines", "FlyClient-style MMR sampling client"),
    ]
    for package, description in inventory:
        print(f"  {package:18} {description}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import SuperlightClient

    print(f"Mining and certifying {args.blocks} blocks...")
    started = wallclock.now_s()
    builder, issuer, ias, spec = _build_world(blocks=args.blocks)
    print(f"  done in {wallclock.elapsed_s(started):.1f}s "
          f"({issuer.enclave.ledger.ecalls} ecalls)")

    client = SuperlightClient(_measurement(builder, ias, spec), ias.public_key)
    tip = issuer.certified[-1]
    started = wallclock.now_s()
    client.adopt(tip)
    print(f"Superlight client validated a {builder.height}-block chain in "
          f"{wallclock.elapsed_ms(started):.1f} ms, "
          f"storing {client.storage_bytes()} bytes.")

    from repro.query.api import HistoryQuery, QueryAnswer

    request = HistoryQuery(
        index="history", account="acct1", t_from=1, t_to=builder.height
    )
    answer = issuer.indexes["history"].query_history("acct1", 1, builder.height)
    ok = client.verify_answer(request, QueryAnswer(request=request, payload=answer))
    print(f"Verifiable query: {len(answer.versions)} versions of acct1, "
          f"proof {answer.proof_size_bytes()} bytes, verified={ok}.")
    return 0


def _network_world(blocks: int, drop: float, seed: int):
    """The Fig. 2 deployment on the simulated network: a CI and two SPs
    (with a lossy link to sp1) serving one remote superlight client,
    with a subscription hub mounted on the CI endpoint."""
    from repro.core import ClientConfig, IssuerService, connect
    from repro.net import (
        FaultInjector,
        LinkFaults,
        MessageBus,
        RetryPolicy,
        SubscriptionHub,
    )
    from repro.query import QueryService

    world = _served_world(blocks)
    world.bus = bus = MessageBus(default_latency_ms=20.0)
    world.injector = FaultInjector(seed=seed)
    world.injector.set_link("client", "sp1", LinkFaults(drop_rate=drop))
    world.injector.set_link("sp1", "client", LinkFaults(drop_rate=drop))
    bus.install_faults(world.injector)
    world.hub = SubscriptionHub.embedded(IssuerService(bus, "ci", world.issuer))
    world.hub.attach(world.issuer)
    QueryService(bus, "sp1", world.provider)
    QueryService(bus, "sp2", world.provider)
    world.client = connect(ClientConfig(
        measurement=world.measurement, ias_public_key=world.ias.public_key,
        bus=bus, name="client",
        issuers=("ci",), providers=("sp1", "sp2"), hub="ci",
        policy=RetryPolicy(timeout_ms=200.0, max_attempts=3),
    ))
    return world


def cmd_demo_network(args: argparse.Namespace) -> int:
    from repro.query import HistoryQuery

    print(f"Mining {args.blocks} blocks, certifying all but the newest...")
    world = _network_world(args.blocks, args.drop, args.seed)
    builder, bus, client = world.builder, world.bus, world.client
    print(f"Remote client bootstrapping over RPC "
          f"(dropping {args.drop:.0%} of messages to/from sp1)...")
    client.bootstrap()
    print(f"  adopted certified tip at height {client.latest_header.height}, "
          f"storing {client.storage_bytes():,} bytes")

    request = HistoryQuery(
        index="history", account="acct1", t_from=1,
        t_to=client.latest_header.height,
    )
    answer = client.query(request)
    print(f"Verified query over RPC: {len(answer.payload.versions)} versions "
          f"of acct1, proof {answer.proof_size_bytes():,} bytes.")
    print(f"  retries/timeouts: {client.rpc.timeouts}, "
          f"failovers: {client.failovers}, "
          f"integrity failures: {client.integrity_failures}")

    print("Subscribing to the push stream; the CI certifies one more block...")
    client.subscribe()
    calls_before = client.rpc.calls
    world.issuer.process_block(world.held_back)
    world.provider.ingest_block(world.held_back)
    bus.run_until_idle()
    print(f"  pushed tip at height {client.latest_header.height} adopted "
          f"with {client.rpc.calls - calls_before} client RPC round trips "
          f"({client.push_adopted} push adoptions)")
    print(f"  virtual network time: {bus.clock_ms:.0f} ms")
    for link, counts in world.injector.summary().items():
        print(f"  {link}: {counts}")
    return 0 if client.push_adopted else 1


def _fleet_world(blocks: int, replicas: int, service_ms: float,
                 balancer: str, seed: int):
    """A load-balanced SP fleet behind a QueryGateway: one CI, N
    busy-worker QueryService replicas, one remote superlight client
    with a verified-answer cache, and a subscription hub on the CI."""
    from repro.core import ClientConfig, IssuerService, connect
    from repro.net import (
        HealthPolicy,
        MessageBus,
        QueryGateway,
        RetryPolicy,
        SubscriptionHub,
    )
    from repro.query import QueryService

    world = _served_world(blocks)
    world.bus = bus = MessageBus(default_latency_ms=10.0)
    world.hub = SubscriptionHub.embedded(IssuerService(bus, "ci", world.issuer))
    world.hub.attach(world.issuer)
    names = [f"sp{i + 1}" for i in range(replicas)]
    world.services = {
        name: QueryService(bus, name, world.provider, service_time_ms=service_ms)
        for name in names
    }
    world.gateway = QueryGateway(
        bus, "gw", names,
        balancer=balancer, seed=seed,
        policy=RetryPolicy(timeout_ms=service_ms * 40 + 1_000.0,
                           max_attempts=1),
        health=HealthPolicy(failure_threshold=1, probe_base_ms=200.0),
    )
    world.client = connect(ClientConfig(
        measurement=world.measurement, ias_public_key=world.ias.public_key,
        bus=bus, name="client",
        issuers=("ci",), gateway=world.gateway, hub="ci",
    ))
    return world


def cmd_demo_fleet(args: argparse.Namespace) -> int:
    from repro.query import HistoryQuery

    print(f"Mining {args.blocks} blocks, certifying all but the newest...")
    world = _fleet_world(
        args.blocks, args.replicas, args.service_ms, args.balancer, args.seed
    )
    builder, bus, services, gateway, client = (
        world.builder, world.bus, world.services, world.gateway, world.client
    )
    client.bootstrap()
    print(f"Remote client adopted the certified tip at height "
          f"{client.latest_header.height}; gateway fronts "
          f"{args.replicas} replicas ({args.balancer}, "
          f"{args.service_ms:.0f} ms modeled service time).")

    requests = [
        HistoryQuery(index="history", account=f"acct{i % 4}",
                     t_from=1, t_to=1 + i % builder.height)
        for i in range(args.queries)
    ]
    started = bus.clock_ms
    client.query_many(requests)
    elapsed = bus.clock_ms - started
    served = {name: s.server.requests_served for name, s in services.items()}
    print(f"\nServed {args.queries} verified queries in {elapsed:.0f} virtual "
          f"ms ({args.queries / (elapsed / 1000.0):.1f} modeled q/s)")
    print(f"  per-replica load: {served}")

    calls_before = client.rpc.calls + gateway.rpc.calls
    client.query_many(requests)
    print(f"Repeated the batch warm: {client.cache.hits} cache hits, "
          f"{client.rpc.calls + gateway.rpc.calls - calls_before} new RPC "
          f"round trips.")

    victim = next(iter(services))
    services[victim].server.paused = True
    fresh = [
        HistoryQuery(index="history", account=f"acct{i % 4}",
                     t_from=2, t_to=max(2, 1 + i % builder.height))
        for i in range(args.replicas * 2)
    ]
    for request in fresh:
        client.query(request)
    print(f"\nKilled {victim}: fleet failed over "
          f"({gateway.failovers} failovers), healthy replicas now "
          f"{gateway.healthy_replicas()}")
    services[victim].server.paused = False
    bus.run_for(500.0)
    for i in range(args.replicas * 3):
        client.query(HistoryQuery(index="history", account=f"acct{i % 4}",
                                  t_from=3,
                                  t_to=max(3, 1 + i % builder.height)))
    back = victim in gateway.healthy_replicas()
    print(f"Restarted {victim}: probe readmitted it: {back}")
    print(f"  totals — dispatches: {gateway.rpc.calls}, "
          f"timeouts: {gateway.rpc.timeouts}, "
          f"replica switches verified: {gateway.switches}, "
          f"cache hits/misses: {client.cache.hits}/{client.cache.misses}")
    return 0 if back else 1


def _overload_world(blocks: int, replicas: int, service_ms: float, seed: int):
    """The fleet deployment with the full overload-protection stack
    armed: admission control on every busy-worker replica, per-replica
    circuit breakers and hedging on the gateway, and a client that
    degrades to verified-stale answers when the whole tier sheds."""
    from repro.core import ClientConfig, IssuerService, connect
    from repro.net import (
        AdmissionPolicy,
        CircuitBreakerPolicy,
        HealthPolicy,
        HedgePolicy,
        MessageBus,
        QueryGateway,
        RetryPolicy,
    )
    from repro.net.rpc import RpcClient
    from repro.query import QueryService

    world = _served_world(blocks)
    world.bus = bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", world.issuer)
    names = [f"sp{i + 1}" for i in range(replicas)]
    admission = AdmissionPolicy(shed_delay_ms=40.0, queue_limit=32)
    world.services = {
        name: QueryService(
            bus, name, world.provider,
            service_time_ms=service_ms, admission=admission,
        )
        for name in names
    }
    world.gateway = QueryGateway(
        bus, "gw", names,
        balancer="round-robin", seed=seed,
        policy=RetryPolicy(timeout_ms=2_000.0, max_attempts=2),
        health=HealthPolicy(failure_threshold=3, probe_base_ms=200.0),
        breaker=CircuitBreakerPolicy(),
        hedge=HedgePolicy(),
    )
    world.client = connect(ClientConfig(
        measurement=world.measurement, ias_public_key=world.ias.public_key,
        bus=bus, name="client",
        issuers=("ci",), gateway=world.gateway,
        degrade_to_stale=True,
    ))
    world.flood = RpcClient(
        bus, "flood", policy=RetryPolicy(timeout_ms=5_000.0, max_attempts=1)
    )
    return world


def cmd_demo_overload(args: argparse.Namespace) -> int:
    """Narrated overload resilience: deadline propagation, admission
    shedding + retry_after, circuit breakers, graceful stale
    degradation, and hedged requests, one segment each."""
    from repro.errors import DeadlineExceededError
    from repro.query import HistoryQuery, StaleAnswer

    world = _overload_world(
        args.blocks, args.replicas, args.service_ms, args.seed
    )
    bus, gateway, client, services = (
        world.bus, world.gateway, world.client, world.services
    )
    client.bootstrap()
    print(f"Fleet of {args.replicas} replicas "
          f"({args.service_ms:.0f} ms service time) behind a gateway with "
          f"admission control, circuit breakers, and hedging; client "
          f"adopted the certified tip at height "
          f"{client.latest_header.height}.")

    height = client.latest_header.height
    request = HistoryQuery(index="history", account="acct1",
                           t_from=1, t_to=height)

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
        refused = sum(s.server.deadline_refused for s in services.values())
        print(f"  refused up front (DEADLINE_EXCEEDED): the per-hop "
              f"budget shrinks in flight and cannot cover one service "
              f"time, so the replica refuses at admission")
        print(f"  provider executions: "
              f"{world.provider.executes - executes_before} "
              f"(doomed work costs zero), deadline refusals: {refused}")

    print("\n[2] Normal operation — the same query with headroom:")
    answer = client.query(request)
    print(f"  verified answer: {len(answer.payload.versions)} versions of "
          f"acct1, cached under the certified root")

    # Advance the tip so the *fresh* cache entry is swept (it is keyed
    # by root) while the stale sidecar keeps the last verified answer.
    world.issuer.process_block(world.held_back)
    world.provider.ingest_block(world.held_back)
    bus.run_until_idle()
    client.sync()
    print(f"  tip advanced to height {client.latest_header.height}; the "
          f"root-keyed cache entry is swept, the stale sidecar remembers")

    saturation_ms = args.service_ms * 2.5
    print(f"\n[3] Saturation — flooding both replicas with "
          f"{args.flood} fire-and-forget queries each, then asking again "
          f"with a {saturation_ms:.0f} ms budget:")
    flood_ids = []
    for name in services:
        for _ in range(args.flood):
            flood_ids.append(world.flood.begin(name, "execute", request))
    shed_before = sum(s.server.requests_shed for s in services.values())
    result = client.query(
        request, deadline_ms=bus.clock_ms + saturation_ms
    )
    shed = sum(s.server.requests_shed for s in services.values()) - shed_before
    hint = next(
        (r.retry_after_ms for i in flood_ids
         if (r := world.flood.take(i)) is not None and r.code == "net.overloaded"),
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
        world.flood.abandon(request_id)

    print("\n[4] Hedging — one replica turns 10x slow mid-run:")
    height = client.latest_header.height
    for i in range(16):  # warm the per-endpoint latency trackers
        lo, hi = sorted((1 + i // 8, 1 + i % height))
        client.query(HistoryQuery(index="history", account=f"acct{i % 4}",
                                  t_from=lo, t_to=hi))
    slow = list(services)[-1]
    services[slow].server._service_times["execute"] = args.service_ms * 10
    hedges_before = gateway.hedges
    for i in range(6):
        client.query(HistoryQuery(index="history", account=f"acct{i % 4}",
                                  t_from=3, t_to=max(3, 1 + i % height)))
    print(f"  {slow} degraded; gateway hedged "
          f"{gateway.hedges - hedges_before} dispatches at the observed "
          f"p90, {gateway.hedge_wins} won by the fast replica")

    print(f"\nTotals — shed: "
          f"{sum(s.server.requests_shed for s in services.values())}, "
          f"deadline refusals: "
          f"{sum(s.server.deadline_refused for s in services.values())}, "
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


def cmd_demo_crash(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.chain.genesis import make_genesis
    from repro.contracts import fresh_vm
    from repro.core import ClientConfig, IssuerService, connect
    from repro.core.recovery import DurableIssuer, recover_issuer
    from repro.fault.crashpoints import CATALOG, crash_armed
    from repro.net import IssuerSupervisor, MessageBus, RestartPolicy, RetryPolicy
    from repro.net.rpc import RpcClient
    from repro.query import HistoryQuery, QueryService
    from repro.query.indexes import AccountHistoryIndexSpec
    from repro.sgx.attestation import AttestationService
    from repro.sgx.platform import SGXPlatform
    from repro.storage import ChainArchive

    if args.point not in CATALOG:
        print(f"unknown crashpoint {args.point!r}; one of:", file=sys.stderr)
        for name in CATALOG:
            print(f"  {name}", file=sys.stderr)
        return 2

    builder = _mine_chain(args.blocks)
    spec = AccountHistoryIndexSpec(name="history")
    ias = AttestationService(seed=b"cli-ias")
    platform = SGXPlatform(seed=b"cli-platform")
    half = args.blocks // 2

    with tempfile.TemporaryDirectory(prefix="repro-demo-crash-") as tmp:
        archive = ChainArchive(Path(tmp) / "issuer.wal")
        genesis, state = make_genesis(network="cli")
        durable = DurableIssuer.create(
            archive, genesis, state, fresh_vm(), builder.pow,
            index_specs=[spec], platform=platform, ias=ias,
            key_seed=b"cli-enclave", checkpoint_interval=3,
        )
        print(f"Mining {args.blocks} blocks; durably certifying the first "
              f"{half} (WAL + sealed checkpoint every 3)...")
        for block in builder.blocks[1 : 1 + half]:
            durable.process_block(block)

        provider = _provider(builder, spec, builder.blocks[1:])

        def restore():
            genesis2, state2 = make_genesis(network="cli")
            return recover_issuer(
                archive, genesis2, state2, fresh_vm(), builder.pow,
                index_specs=[spec], platform=platform, ias=ias,
                checkpoint_interval=3,
            )

        bus = MessageBus(default_latency_ms=10.0)
        service = IssuerService(bus, "ci", durable)
        supervisor = IssuerSupervisor(
            service, restore,
            policy=RestartPolicy(max_attempts=3, backoff_base_ms=40.0),
        )
        QueryService(bus, "sp", provider)
        client = connect(ClientConfig(
            measurement=_measurement(builder, ias, spec),
            ias_public_key=ias.public_key,
            bus=bus, name="client",
            issuers=("ci",), providers=("sp",),
            policy=RetryPolicy(timeout_ms=150.0, max_attempts=4,
                               backoff_base_ms=20.0),
        ))
        client.bootstrap()
        pk_before = service.issuer.pk_enc.to_bytes()
        print(f"Remote client attested and adopted the certified tip at "
              f"height {client.latest_header.height}.")

        print(f"\nMiner submits blocks {half + 1}..{args.blocks}; the issuer "
              f"is armed to die at {args.point!r} (hit {args.hit}).")
        miner = RpcClient(
            bus, "miner",
            policy=RetryPolicy(timeout_ms=200.0, max_attempts=5,
                               backoff_base_ms=30.0),
        )
        with crash_armed(args.point, hit=args.hit) as schedule:
            tips = miner.call(
                "ci", "certify_range", tuple(builder.blocks[1 + half :])
            )
        if not schedule.fired:
            print("  (the crashpoint was never reached by this workload)")
        report = service.issuer.last_recovery
        print(f"  crash fired: {schedule.fired}; supervisor restarts: "
              f"{supervisor.restarts} (of {supervisor.crashes} crashes)")
        if report is not None:
            print(f"  recovery: checkpoint_used={report.checkpoint_used} "
                  f"(height {report.checkpoint_height}), "
                  f"replayed {report.replayed_blocks} WAL-tail blocks")
        print(f"  miner's retried call returned certified tips "
              f"{[tip.header.height for tip in tips]}")
        same_key = service.issuer.pk_enc.to_bytes() == pk_before
        print(f"  pk_enc stable across restart (sealed key): {same_key}")

        client.sync()
        request = HistoryQuery(
            index="history", account="acct1", t_from=1, t_to=builder.height
        )
        answer = client.query(request)
        ok = client.client.verify_answer(request, answer)
        print(f"\nClient synced to height {client.latest_header.height} and "
              f"verified a history query ({len(answer.payload.versions)} "
              f"versions of acct1): {ok}")
        print(f"  attestation reports verified in total: "
              f"{len(client.client._verified_reports)} (no re-attestation)")
        return 0 if (ok and same_key and not supervisor.gave_up) else 1


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


def cmd_selftest(_: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core import SuperlightClient
    from repro.errors import CertificateError

    builder, issuer, ias, spec = _build_world(blocks=4)
    client = SuperlightClient(_measurement(builder, ias, spec), ias.public_key)
    tip = issuer.certified[-1]
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
    from repro.query.api import HistoryQuery, QueryAnswer

    request = HistoryQuery(index="history", account="acct1", t_from=1, t_to=4)
    answer = issuer.indexes["history"].query_history("acct1", 1, 4)
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


def _components(world) -> dict:
    """One JSON document covering every registered component of a demo
    world — client, hub, gateway, replicas — for ``metrics --all``."""
    client = world.client
    components: dict = {
        "client": {
            "rpc_calls": client.rpc.calls,
            "rpc_timeouts": client.rpc.timeouts,
            "failovers": client.failovers,
            "integrity_failures": client.integrity_failures,
            "push_adopted": client.push_adopted,
            "push_rejected": client.push_rejected,
            "push_duplicates": client.push_duplicates,
            "push_gaps": client.push_gaps,
            "push_resyncs": client.push_resyncs,
            "storage_bytes": client.storage_bytes(),
        },
        "hub": {
            "published": world.hub.published,
            "subscribers": len(world.hub.subscribers),
            "reaped": world.hub.reaped,
            "resyncs": world.hub.resyncs,
            "latest_seq": world.hub.seq,
        },
    }
    if client.cache is not None:
        components["client"]["cache_hits"] = client.cache.hits
        components["client"]["cache_misses"] = client.cache.misses
        components["client"]["cache_entries"] = len(client.cache)
    gateway = getattr(world, "gateway", None)
    if gateway is not None:
        components["gateway"] = {
            "dispatches": gateway.rpc.calls,
            "timeouts": gateway.rpc.timeouts,
            "failovers": gateway.failovers,
            "switches_verified": gateway.switches,
            "healthy_replicas": sorted(gateway.healthy_replicas()),
        }
    services = getattr(world, "services", None)
    if services is not None:
        components["replicas"] = {
            name: {
                "requests_served": service.server.requests_served,
                "requests_dropped": service.server.requests_dropped,
            }
            for name, service in services.items()
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

    from repro import obs
    from repro.bench.reporting import print_table
    from repro.query import HistoryQuery

    with obs.observability():
        obs.registry().reset()
        if args.replicas > 0:
            world = _fleet_world(
                args.blocks, args.replicas, 25.0, "round-robin", args.seed
            )
        else:
            world = _network_world(args.blocks, args.drop, args.seed)
        bus, client = world.bus, world.client
        obs.set_virtual_clock(lambda: bus.clock_ms)
        try:
            client.bootstrap()
            request = HistoryQuery(
                index="history", account="acct1", t_from=1,
                t_to=client.latest_header.height,
            )
            client.query(request)
            client.query(request)  # the warm path: a cache hit
            if args.all:
                # Exercise the push tier too, so its metrics are live.
                client.subscribe()
                world.issuer.process_block(world.held_back)
                world.provider.ingest_block(world.held_back)
                bus.run_until_idle()
                client.heartbeat()
            snapshot = obs.registry().snapshot()
        finally:
            obs.set_virtual_clock(None)
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
    subparsers.add_parser("info", help="print the library inventory")
    demo = subparsers.add_parser("demo", help="end-to-end demonstration")
    demo.add_argument("--blocks", type=int, default=10)
    network = subparsers.add_parser(
        "demo-network",
        help="remote client over RPC with fault injection and SP failover",
    )
    network.add_argument("--blocks", type=int, default=8)
    network.add_argument(
        "--drop", type=float, default=0.3,
        help="drop rate on the client<->sp1 links (default 0.3)",
    )
    network.add_argument("--seed", type=int, default=7)
    crash = subparsers.add_parser(
        "demo-crash",
        help="kill the issuer at a crashpoint; supervised recovery demo",
    )
    crash.add_argument("--blocks", type=int, default=8)
    crash.add_argument(
        "--point", default="durable.append.pre_wal",
        help="crashpoint to arm (see repro.fault.crashpoints.CATALOG)",
    )
    crash.add_argument(
        "--hit", type=int, default=1,
        help="fire on the n-th arrival at the crashpoint (default 1)",
    )
    fleet = subparsers.add_parser(
        "demo-fleet",
        help="load-balanced SP fleet behind the query gateway: scaling, "
             "cached hits, failover, probe recovery",
    )
    fleet.add_argument("--blocks", type=int, default=8)
    fleet.add_argument("--replicas", type=int, default=3)
    fleet.add_argument("--queries", type=int, default=12)
    fleet.add_argument(
        "--service-ms", type=float, default=25.0, dest="service_ms",
        help="modeled per-query service time per replica (default 25)",
    )
    fleet.add_argument(
        "--balancer", default="round-robin",
        choices=["round-robin", "least-outstanding", "seeded-random"],
    )
    fleet.add_argument("--seed", type=int, default=7)
    overload = subparsers.add_parser(
        "demo-overload",
        help="overload resilience: deadline propagation, admission "
             "shedding, circuit breakers, stale degradation, hedging",
    )
    overload.add_argument("--blocks", type=int, default=8)
    overload.add_argument("--replicas", type=int, default=2)
    overload.add_argument(
        "--service-ms", type=float, default=25.0, dest="service_ms",
        help="modeled per-query service time per replica (default 25)",
    )
    overload.add_argument(
        "--flood", type=int, default=30,
        help="fire-and-forget queries per replica in the saturation "
             "segment (default 30)",
    )
    overload.add_argument("--seed", type=int, default=7)
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
        help="run the networked demo with observability on; report metrics",
    )
    metrics.add_argument("--blocks", type=int, default=6)
    metrics.add_argument(
        "--drop", type=float, default=0.3,
        help="drop rate on the client<->sp1 links (default 0.3)",
    )
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument(
        "--replicas", type=int, default=0,
        help="run the workload against a gateway-fronted fleet of this "
             "many replicas instead of the two-SP demo (default 0 = off)",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="emit the raw metrics snapshot as JSON",
    )
    metrics.add_argument(
        "--all", action="store_true",
        help="snapshot every registered component (client, hub, gateway, "
             "replicas) together with the metrics registry in one document, "
             "exercising the push stream along the way",
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
