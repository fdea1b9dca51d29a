"""tip-follow: a client reaching each new certified tip, three ways."""

from __future__ import annotations

from statistics import mean

from repro.core import IssuerService, connect
from repro.net import MessageBus, SubscriptionHub

from clock import CheckFailed, Clock
from worlds import ACCOUNTS, Deployment
from workloads.base import Workload

SUBSCRIBERS = 8
PREMINED_BLOCKS = 4
LINK_LATENCY_MS = 5.0
VOCABULARY = [f"word{i}" for i in range(32)]


class TipFollow(Workload):
    name = "tip-follow"
    tail_pct = 95
    #: One tip: 8 pushed adoptions, 1 polled sync, 1 cold bootstrap.
    ops_per_round = SUBSCRIBERS + 2
    full_rounds = 58
    overhead_s = 6.0
    merkle_sizes = (256, 64, 64)

    def setup(self, clock: Clock) -> None:
        timed = clock.timed
        world = Deployment(clock, self.seed, ("history", "keyword"))
        self.world = world
        for _ in range(PREMINED_BLOCKS):
            world.setup_block(self._transactions())
        self.bus = MessageBus(default_latency_ms=LINK_LATENCY_MS)
        service = IssuerService(self.bus, "ci", world.issuer)
        # The benchmark publishes each certified block itself (instead of
        # hub.attach) so the traced run can put a span around publish.
        self.hub = SubscriptionHub.embedded(service)
        self.subscribers = [
            timed("setup", self._connect, f"sub{i}", hub="ci", subscribe=True)
            for i in range(SUBSCRIBERS)
        ]
        self.poller = timed("setup", self._connect, "poller")
        self.cold = None
        timed("setup", self.bus.run_until_idle)

    def _transactions(self):
        generator = self.world.generator
        account = self.world.height % ACCOUNTS
        return [
            generator.history_update_tx(account),
            generator.keyword_tx(VOCABULARY),
        ]

    def _connect(self, name: str, **extra):
        return connect(self.world.client_config(
            bus=self.bus, name=name, issuers=("ci",), bootstrap=True, **extra
        ))

    def round(self, clock: Clock, index: int) -> None:
        world = self.world
        certified = world.issuer.process_block(world.mine(self._transactions()))
        if clock.tracing:
            clock.timed("net.pubsub.publish", self.hub.publish, certified)
        else:
            self.hub.publish(certified)
        # One drain delivers, verifies and acks the tip at every
        # subscriber: each adoption is credited an equal share.
        clock.op("push", self.bus.run_until_idle, credit=SUBSCRIBERS)
        clock.op("sync", self.poller.sync)
        self.cold = clock.op("cold", self._connect, f"cold{index}") or self.cold

    def check(self, clock: Clock) -> dict:
        height = self.world.height
        for client in (*self.subscribers, self.poller, self.cold):
            if client.latest_header.height != height:
                raise CheckFailed(
                    f"{client.rpc.name} is at height "
                    f"{client.latest_header.height}, the chain at {height}"
                )
        rejected = sum(client.push_rejected for client in self.subscribers)
        if rejected:
            raise CheckFailed(f"{rejected} pushed tips were rejected")
        self._checker = self.world.checker()
        return {"final_height": height}

    def virtual_ms(self) -> float:
        return self.bus.clock_ms

    def client_storage_bytes(self) -> int:
        clients = (*self.subscribers, self.poller, self.cold, self._checker)
        return max(client.storage_bytes() for client in clients)

    def layer_metrics(self, clock: Clock, ops: int) -> dict[str, float]:
        per_op_ms = clock.per_op_ms_by_kind()
        return {
            "core.superlight.push_adopt_ms": mean(per_op_ms["push"]),
            "core.superlight.sync_ms": mean(per_op_ms["sync"]),
            "core.superlight.bootstrap_ms": mean(per_op_ms["cold"]),
            "net.pubsub.publish_ms": clock.normalised_ms_mean("net.pubsub.publish"),
        }
