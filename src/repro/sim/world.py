"""The simulated deployment: every subsystem of the stack, one bus.

:class:`SimWorld` composes a full DCert deployment on the virtual-clock
:class:`~repro.net.bus.MessageBus` — a deterministic chain, a
:class:`~repro.core.recovery.DurableIssuer` (WAL + sealed checkpoints)
fronted by an :class:`~repro.core.issuer.IssuerService` under a
:class:`~repro.net.supervisor.ServiceSupervisor`, a
:class:`~repro.net.pubsub.SubscriptionHub` embedded on the same
endpoint, N busy-worker :class:`~repro.query.provider.QueryService`
replicas over a shared provider, and a mixed fleet of
polling / gateway-cached / push-subscribed remote clients.

Everything is derived from fixed seeds: the same
:class:`SimConfig` builds byte-identical worlds, and the event log
(:attr:`SimWorld.events`) fingerprints a whole run.  A second,
never-networked :class:`~repro.query.provider.QueryServiceProvider`
(the *oracle*) ingests the same certified blocks so invariants can
compare every verified answer against honest local execution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.contracts import fresh_vm
from repro.core import (
    ClientConfig,
    IssuerService,
    compute_expected_measurement,
    connect,
)
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import generate_keypair
from repro.errors import ReproError
from repro.net import (
    AdmissionPolicy,
    CircuitBreakerPolicy,
    FaultInjector,
    HealthPolicy,
    HedgePolicy,
    MessageBus,
    QueryGateway,
    RestartPolicy,
    RetryPolicy,
    ServiceSupervisor,
    SubscriptionHub,
)
from repro.net.rpc import RpcClient
from repro.query import QueryService, QueryServiceProvider
from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive

#: Client kinds in the mixed fleet.
KIND_POLL = "poll"      # sync + query straight at the replicas
KIND_GATEWAY = "gw"     # query through an owned QueryGateway + answer cache
KIND_PUSH = "push"      # subscribed to the hub, heartbeat-driven


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Deterministic knobs for one simulated deployment."""

    network: str = "sim"
    premine: int = 4            # blocks mined *and* certified before boot
    replicas: int = 3
    pollers: int = 2
    gateway_clients: int = 2
    subscribers: int = 2
    accounts: int = 4
    difficulty_bits: int = 4
    checkpoint_interval: int = 4
    service_time_ms: float = 2.0
    latency_ms: float = 5.0
    #: Queue-delay threshold (ms) past which an admission-armed replica
    #: sheds with OVERLOADED + retry_after instead of queueing doomed
    #: work.  Low enough that the ``burst`` event reliably trips it.
    shed_delay_ms: float = 25.0
    admission_queue_limit: int = 32


@dataclass
class SimClient:
    """Fleet bookkeeping around one remote superlight client."""

    name: str
    kind: str
    client: object
    gateway: QueryGateway | None = None
    subscribed: bool = False


@dataclass
class SimWorld:
    """The composed deployment plus the run's deterministic event log."""

    config: SimConfig
    builder: ChainBuilder
    bus: MessageBus
    injector: FaultInjector
    archive: ChainArchive
    service: IssuerService
    supervisor: ServiceSupervisor
    hub: SubscriptionHub
    provider: QueryServiceProvider
    oracle: QueryServiceProvider
    replicas: dict[str, QueryService]
    measurement: bytes
    ias: AttestationService
    platform: SGXPlatform
    specs: list
    miner: RpcClient
    load: RpcClient
    user: object
    fleet: list[SimClient] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    answers: list[tuple[object, object]] = field(default_factory=list)
    faulted_links: set[tuple[str, str]] = field(default_factory=set)
    paused_replicas: set[str] = field(default_factory=set)
    slowed_replicas: dict[str, float] = field(default_factory=dict)
    nonce: int = 0
    spawned: int = 0
    recoveries: int = 0
    remounts: int = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, config: SimConfig, root: Path) -> "SimWorld":
        """Deterministically compose the whole deployment under ``root``
        (the WAL's directory; its *path* never enters the event log)."""
        specs = [
            AccountHistoryIndexSpec(name="history"),
            KeywordIndexSpec(name="keyword"),
        ]
        user = generate_keypair(b"sim-user")
        builder = ChainBuilder(
            difficulty_bits=config.difficulty_bits, network=config.network
        )
        ias = AttestationService(seed=b"sim-ias")
        platform = SGXPlatform(seed=b"sim-platform")
        archive = ChainArchive(Path(root) / "ci.wal")
        genesis, state = make_genesis(network=config.network)
        durable = DurableIssuer.create(
            archive, genesis, state, fresh_vm(), builder.pow,
            index_specs=specs, platform=platform, ias=ias,
            key_seed=b"sim-enclave",
            checkpoint_interval=config.checkpoint_interval,
        )

        bus = MessageBus(default_latency_ms=config.latency_ms)
        injector = FaultInjector(seed=1789)
        bus.install_faults(injector)
        service = IssuerService(bus, "ci", durable)
        hub = SubscriptionHub.embedded(service)
        hub.attach(durable)

        sp_genesis, sp_state = make_genesis(network=config.network)
        provider = QueryServiceProvider(
            sp_genesis, sp_state, fresh_vm(), builder.pow, specs
        )
        or_genesis, or_state = make_genesis(network=config.network)
        oracle = QueryServiceProvider(
            or_genesis, or_state, fresh_vm(), builder.pow, specs
        )
        replica_names = [f"sp{i + 1}" for i in range(config.replicas)]
        admission = AdmissionPolicy(
            shed_delay_ms=config.shed_delay_ms,
            queue_limit=config.admission_queue_limit,
        )
        replicas = {
            name: QueryService(
                bus, name, provider,
                service_time_ms=config.service_time_ms,
                admission=admission,
            )
            for name in replica_names
        }

        measurement = compute_expected_measurement(
            genesis.header.header_hash(), ias.public_key, fresh_vm(),
            builder.pow.difficulty_bits, {spec.name: spec for spec in specs},
        )
        miner = RpcClient(
            bus, "miner",
            policy=RetryPolicy(
                timeout_ms=400.0, max_attempts=6, backoff_base_ms=30.0
            ),
        )
        # A fire-and-forget flood source for the ``burst`` overload
        # event: it begin()s without waiting, so replica queues actually
        # build up and admission control has something to shed.
        load = RpcClient(
            bus, "loadgen",
            policy=RetryPolicy(timeout_ms=400.0, max_attempts=1),
        )

        world = cls(
            config=config, builder=builder, bus=bus, injector=injector,
            archive=archive, service=service,
            supervisor=None,  # set below; restore() closes over the world
            hub=hub, provider=provider, oracle=oracle, replicas=replicas,
            measurement=measurement, ias=ias, platform=platform,
            specs=specs, miner=miner, load=load, user=user,
        )

        def restore():
            genesis2, state2 = make_genesis(network=config.network)
            restored = recover_issuer(
                archive, genesis2, state2, fresh_vm(), builder.pow,
                index_specs=specs, platform=platform, ias=ias,
                checkpoint_interval=config.checkpoint_interval,
            )
            # The old hub hooked the *dead* issuer's on_certified list;
            # a restart remounts a fresh hub on the same endpoint.
            world.hub = world._remount_hub(restored)
            world.recoveries += 1
            return restored

        world.supervisor = ServiceSupervisor(
            service, restore,
            policy=RestartPolicy(max_attempts=5, backoff_base_ms=40.0),
        )

        # Premine + certify the opening stretch, then boot the fleet
        # against a healthy, fully-synced deployment.
        for _ in range(config.premine):
            world.mine_block(1)
        for block in builder.blocks[1:]:
            durable.process_block(block)
        world.sync_serving_tier()
        for _ in range(config.pollers):
            world.spawn_client(KIND_POLL)
        for _ in range(config.gateway_clients):
            world.spawn_client(KIND_GATEWAY)
        for _ in range(config.subscribers):
            world.spawn_client(KIND_PUSH)
        bus.run_until_idle()
        return world

    # -- issuer-side helpers -------------------------------------------------

    @property
    def issuer(self):
        """The *current* backing issuer — identity changes on restarts."""
        return self.service.issuer

    def certified_height(self) -> int:
        return len(self.issuer.certified)  # heights are consecutive from 1

    def pending_blocks(self) -> list:
        """Mined blocks not yet certified (certify_range is idempotent,
        so resubmitting from the certified tip is always safe)."""
        return self.builder.blocks[self.certified_height() + 1:]

    def mine_block(self, txs: int) -> int:
        """Mine one block of deterministic kvstore puts; returns height."""
        batch = []
        for _ in range(max(1, txs)):
            key = f"acct{self.nonce % self.config.accounts}"
            batch.append(
                sign_transaction(
                    self.user.private, self.nonce, "kvstore", "put",
                    (key, f"v{self.nonce}"),
                )
            )
            self.nonce += 1
        self.builder.add_block(batch)
        return self.builder.height

    def sync_serving_tier(self) -> int:
        """Ingest every certified block into the serving provider *and*
        the oracle, keeping both exactly at the certified tip."""
        tip = self.certified_height()
        for tier in (self.provider, self.oracle):
            while tier.node.height < tip:
                tier.ingest_block(self.builder.blocks[tier.node.height + 1])
        return tip

    def _remount_hub(self, issuer) -> SubscriptionHub:
        """A replacement hub process on the same endpoint; the stream
        position is recovered from the issuer's certified count."""
        self.hub.detach()
        hub = SubscriptionHub(server=self.service.server)
        hub.attach(issuer, announce_existing=True)
        self.remounts += 1
        return hub

    def remount_hub(self) -> SubscriptionHub:
        self.hub = self._remount_hub(self.issuer)
        return self.hub

    # -- fleet helpers -------------------------------------------------------

    @property
    def replica_names(self) -> tuple[str, ...]:
        return tuple(self.replicas)

    def spawn_client(self, kind: str) -> SimClient:
        """Join a new client of ``kind``; bootstrap/subscribe are
        best-effort (the deployment may be degraded mid-run)."""
        self.spawned += 1
        name = f"{kind}{self.spawned}"
        # Jittered backoff desynchronizes the fleet's retry waves; each
        # client's RNG is seeded from its (unique) name, so the jitter
        # is deterministic per run.
        policy = RetryPolicy(
            timeout_ms=300.0, max_attempts=3, backoff_base_ms=25.0,
            jitter=0.1,
        )
        gateway = None
        kwargs = dict(
            measurement=self.measurement,
            ias_public_key=self.ias.public_key,
            bus=self.bus, name=name, issuers=("ci",), policy=policy,
        )
        if kind == KIND_GATEWAY:
            gateway = QueryGateway(
                self.bus, f"gwy{self.spawned}", list(self.replica_names),
                balancer="round-robin", seed=self.spawned,
                policy=RetryPolicy(
                    timeout_ms=400.0, max_attempts=2, jitter=0.1
                ),
                health=HealthPolicy(failure_threshold=2, probe_base_ms=200.0),
                breaker=CircuitBreakerPolicy(),
                hedge=HedgePolicy(),
            )
            kwargs.update(gateway=gateway, degrade_to_stale=True)
        else:
            kwargs.update(providers=self.replica_names)
        if kind == KIND_PUSH:
            kwargs.update(hub="ci")
        client = connect(ClientConfig(**kwargs))
        entry = SimClient(name=name, kind=kind, client=client, gateway=gateway)
        try:
            client.bootstrap()
        except ReproError:
            pass  # degraded world; a later sync event adopts the tip
        if kind == KIND_PUSH:
            try:
                client.subscribe()
                entry.subscribed = True
            except ReproError:
                entry.subscribed = False
        self.fleet.append(entry)
        return entry

    def churn_client(self, slot: int) -> tuple[str, str]:
        """Retire one client, spawn a same-kind replacement (fresh name,
        fresh state) — the fleet size stays constant."""
        index = slot % len(self.fleet)
        old = self.fleet.pop(index)
        if old.kind == KIND_PUSH and old.subscribed:
            try:
                old.client.unsubscribe()
            except ReproError:
                pass  # the lease reaper collects it eventually
        fresh = self.spawn_client(old.kind)
        return old.name, fresh.name

    def slow_replica(self, name: str, factor: float) -> float:
        """Multiply ``name``'s execute service time by ``factor`` (from
        its original speed — repeated slowdowns do not compound); the
        base speed is remembered for :meth:`restore_replica_speeds`."""
        server = self.replicas[name].server
        base = self.slowed_replicas.setdefault(
            name, server._service_times.get("execute", server.service_time_ms)
        )
        server._service_times["execute"] = base * factor
        return base

    def restore_replica_speeds(self) -> int:
        """Undo every :meth:`slow_replica`; returns how many were slow."""
        restored = len(self.slowed_replicas)
        for name, base in sorted(self.slowed_replicas.items()):
            self.replicas[name].server._service_times["execute"] = base
        self.slowed_replicas.clear()
        return restored

    def pick(self, slot: int, kind: str | None = None) -> SimClient | None:
        pool = [
            c for c in self.fleet if kind is None or c.kind == kind
        ]
        if not pool:
            return None
        return pool[slot % len(pool)]

    # -- event log -----------------------------------------------------------

    def log(self, line: str) -> None:
        self.events.append(line)

    def record_answer(self, request, answer) -> None:
        self.answers.append((request, answer))

    def drain_answers(self) -> list[tuple[object, object]]:
        drained, self.answers = self.answers, []
        return drained

    def fingerprint(self) -> str:
        """SHA-256 over the event log — the whole run's identity."""
        payload = "\n".join(self.events).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
