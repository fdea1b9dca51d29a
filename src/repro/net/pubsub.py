"""Push-based tip propagation: the certificate subscription hub.

Polling inverts DCert's economics: a superlight client needs O(1) work
per new block, but a fleet of pollers costs the serving tier
``clients x poll rate`` RPC round trips even when nothing changed.
This module turns tip discovery into a *push* stream — the shape
LightSync-style designs deliver sync data in — while keeping every
announcement self-verifying (header + certificate, canonically
wire-encoded), so the hub itself stays untrusted:

* :class:`SubscriptionHub` — an RPC-addressable service (standalone,
  or mounted on any existing :class:`~repro.net.rpc.RpcServer`, e.g.
  the issuer endpoint or a server co-located with a
  :class:`~repro.net.gateway.QueryGateway`) that issuers notify on
  each newly certified block and that fans sequence-numbered
  :class:`TipAnnouncement` s out to subscribers.
* **Backpressure** — per-subscriber delivery is windowed by cumulative
  acks (:class:`~repro.net.messages.StreamAck`); announcements beyond
  the window queue in a *bounded* outbox.  On overflow the oldest
  queued announcements are dropped (they are superseded anyway — a
  certificate makes the newest tip self-sufficient) and the subscriber
  gets a :class:`~repro.net.messages.LagNotice` marker instead of the
  hub growing without bound.
* **Gap detection and catch-up** — announcements carry a dense
  sequence number; a subscriber seeing ``seq > expected`` (drops, hub
  restart, its own downtime) pulls ``hub.sync_range`` to catch up from
  the hub's bounded announcement history, then resumes the stream.
* **Leases** — every ack/heartbeat renews a virtual-clock lease; a
  subscriber that goes silent past its lease is reaped, so dead
  clients cost nothing.
* **Heartbeats** — renew the lease, report the hub's latest sequence
  (stall detection when every in-window push was lost), and requeue
  unacked in-flight announcements for retransmission.

The hub never verifies certificates — subscribers do, with the same
check a polled sync uses, so a forged or replayed announcement is
discarded and counted on the client, never adopted.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro import obs
from repro.chain.block import BlockHeader
from repro.core.certificate import Certificate
from repro.crypto.hashing import Digest
from repro.errors import ConfigError, ReproError, ServiceUnavailableError, WireError
from repro.fault.crashpoints import crashpoint
from repro.net import wire
from repro.net.bus import MessageBus
from repro.net.messages import LagNotice, PushEnvelope, StreamAck
from repro.net.rpc import RpcServer


def push_topic(subscriber: str) -> str:
    """The unicast topic a subscriber receives pushes on."""
    return f"push:{subscriber}"


def ack_topic(hub: str) -> str:
    """The unicast topic a hub receives stream acks on."""
    return f"push-ack:{hub}"


@dataclass(frozen=True, slots=True)
class TipAnnouncement:
    """One certified tip on the push stream.

    Exactly what a polled ``latest_tip`` returns — header, block
    certificate, index certificates and roots — plus the stream
    position (``seq``, dense per hub) and the virtual-clock publish
    time (for the fanout-latency histogram).  Self-verifying: the
    subscriber runs the standard certificate checks before adopting.
    """

    seq: int
    published_at_ms: float
    header: BlockHeader
    certificate: Certificate
    index_certificates: dict[str, Certificate] = field(default_factory=dict)
    index_roots: dict[str, Digest] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # No certificate covers these two, and the subscriber does sums on them.
        if type(self.seq) is not int or type(self.published_at_ms) not in (int, float):
            raise WireError("tip announcement seq / timestamp is not a number")


@dataclass(frozen=True, slots=True)
class SubscribeReply:
    """What ``hub.subscribe`` returns: where the stream currently is."""

    latest_seq: int
    lease_ms: float


@dataclass(frozen=True, slots=True)
class HeartbeatReply:
    """What ``hub.heartbeat`` returns.  ``subscribed=False`` means the
    hub does not know this subscriber (hub restart, or the lease
    expired and it was reaped) — re-subscribe and resync."""

    latest_seq: int
    subscribed: bool
    lagged: bool


@dataclass(frozen=True, slots=True)
class SyncReply:
    """What ``hub.sync_range`` returns: every retained announcement at
    or after ``from_seq``, in order.  ``oldest_retained`` tells the
    caller whether the range was truncated by bounded retention —
    harmless for a superlight client, which only needs the newest
    announcement to be fully synced."""

    announcements: tuple[TipAnnouncement, ...]
    latest_seq: int
    oldest_retained: int


class SubscriberState:
    """Everything the hub tracks for one subscriber."""

    def __init__(
        self, name: str, acked_seq: int, lease_expires_ms: float
    ) -> None:
        self.name = name
        #: Highest cumulatively acked sequence number.
        self.acked_seq = acked_seq
        #: Sequence numbers pushed but not yet acked.
        self.inflight: set[int] = set()
        #: Sequence numbers waiting for window space (bounded).
        self.outbox: deque[int] = deque()
        self.lagged = False
        self.lease_expires_ms = lease_expires_ms
        self.delivered = 0
        self.dropped_oldest = 0
        self.skipped_while_lagged = 0
        self.retransmits = 0

    @property
    def outbox_depth(self) -> int:
        return len(self.outbox)


class SubscriptionHub:
    """Fan certified-tip announcements out to subscribed clients.

    Construct standalone (``SubscriptionHub(bus, "hub")``) or mounted
    on an existing endpoint (``SubscriptionHub(server=service.server)``
    — e.g. the :class:`~repro.core.issuer.IssuerService` endpoint, so
    one name serves both pulls and the stream); see :meth:`embedded`
    for the gateway-side convenience.

    Wire an issuer in with :meth:`attach`: every block it certifies is
    published automatically.  ``outbox_limit`` bounds each subscriber's
    queued backlog, ``window`` bounds unacked in-flight pushes, and
    ``history_limit`` bounds the announcement history ``sync_range``
    serves catch-ups from.
    """

    #: RPC method names (prefixed so the hub can share an RpcServer
    #: with another service without clobbering its methods).
    SUBSCRIBE = "hub.subscribe"
    UNSUBSCRIBE = "hub.unsubscribe"
    HEARTBEAT = "hub.heartbeat"
    SYNC_RANGE = "hub.sync_range"

    def __init__(
        self,
        bus: MessageBus | None = None,
        name: str = "hub",
        *,
        server: RpcServer | None = None,
        outbox_limit: int = 8,
        window: int = 4,
        history_limit: int = 64,
        lease_ms: float = 30_000.0,
    ) -> None:
        if (bus is None) == (server is None):
            raise ValueError("pass exactly one of bus (standalone) or server")
        if outbox_limit < 1 or window < 1 or history_limit < 1:
            raise ValueError("outbox_limit, window, history_limit must be >= 1")
        self.server = server if server is not None else RpcServer(bus, name)
        self.bus = self.server.bus
        self.name = self.server.name
        self.outbox_limit = outbox_limit
        self.window = window
        self.history_limit = history_limit
        self.lease_ms = lease_ms
        self.seq = 0
        self._history: OrderedDict[int, TipAnnouncement] = OrderedDict()
        #: ``(seq, wire bytes)`` last pushed: a publish sends all the same bytes.
        self._encoded: tuple[int, bytes] = (0, b"")
        self.subscribers: dict[str, SubscriberState] = {}
        self._attached: list[tuple[object, object]] = []
        self.published = 0
        self.reaped = 0
        self.resyncs = 0
        self.server.register(self.SUBSCRIBE, self._subscribe)
        self.server.register(self.UNSUBSCRIBE, self._unsubscribe)
        self.server.register(self.HEARTBEAT, self._heartbeat)
        self.server.register(self.SYNC_RANGE, self._sync_range)
        self.server.node.on(ack_topic(self.name), self._on_ack)

    @classmethod
    def embedded(cls, host: object, **kwargs: object) -> "SubscriptionHub":
        """Mount a hub beside an existing component.

        ``host`` may be anything with an ``.server`` RpcServer (an
        :class:`~repro.core.issuer.IssuerService` or
        :class:`~repro.query.provider.QueryService` — the hub shares
        that endpoint) or a :class:`~repro.net.gateway.QueryGateway`
        (which is a pure RPC client, so the hub gets a sibling endpoint
        named ``<gateway>.hub`` on the same bus).
        """
        server = getattr(host, "server", None)
        if isinstance(server, RpcServer):
            return cls(server=server, **kwargs)
        rpc = getattr(host, "rpc", None)
        if rpc is not None and getattr(host, "replicas", None) is not None:
            return cls(rpc.bus, f"{rpc.name}.hub", **kwargs)
        raise ValueError(
            f"cannot embed a hub in {type(host).__name__}: expected an "
            "object with an RpcServer or a QueryGateway"
        )

    # -- issuer wiring -------------------------------------------------------

    def attach(self, issuer: object, *, announce_existing: bool = False) -> None:
        """Publish every block ``issuer`` certifies from now on.

        ``issuer`` is a :class:`~repro.core.issuer.CertificateIssuer`
        (or a :class:`~repro.core.recovery.DurableIssuer` wrapping
        one).  The stream position resumes from the issuer's certified
        count, so a hub restarted against the same durable issuer
        continues the sequence instead of rewinding it.  With
        ``announce_existing`` the already-certified suffix is loaded
        into the catch-up history (nothing is pushed — subscribers pull
        it via ``sync_range``).
        """
        certified = list(getattr(issuer, "certified", ()))
        if len(certified) > self.seq:
            if announce_existing:
                for entry in certified[self.seq:]:
                    if entry.certificate is None:
                        self.seq += 1  # keep seq == certified count
                        continue
                    self.seq += 1
                    self._retain(self._announce(entry, self.seq))
            else:
                self.seq = len(certified)
        hooks = getattr(issuer, "on_certified", None)
        if hooks is None:
            raise ConfigError(
                f"{type(issuer).__name__} has no on_certified hook to attach to"
            )
        hooks.append(self.publish)
        self._attached.append((issuer, self.publish))

    def detach(self) -> None:
        """Stop publishing for every attached issuer."""
        for issuer, hook in self._attached:
            hooks = getattr(issuer, "on_certified", [])
            if hook in hooks:
                hooks.remove(hook)
        self._attached.clear()

    def _announce(self, certified: object, seq: int) -> TipAnnouncement:
        """Build the announcement for a CertifiedBlock or CertifiedTip."""
        header = getattr(certified, "header", None)
        if header is None:
            header = certified.block.header
        return TipAnnouncement(
            seq=seq,
            published_at_ms=self.bus.clock_ms,
            header=header,
            certificate=certified.certificate,
            index_certificates=dict(certified.index_certificates),
            index_roots=dict(certified.index_roots),
        )

    # -- publishing ----------------------------------------------------------

    def publish(self, certified: object) -> TipAnnouncement | None:
        """Announce one newly certified block to every live subscriber.

        Accepts a :class:`~repro.core.issuer.CertifiedBlock` or
        :class:`~repro.core.issuer.CertifiedTip`.  An augmented-only
        block (no hierarchical certificate) still consumes a sequence
        number — the stream position mirrors the issuer's certified
        count — but nothing is pushed for it.
        """
        crashpoint("pubsub.publish.pre")
        self.seq += 1
        if certified.certificate is None:
            return None
        announcement = self._announce(certified, self.seq)
        self._retain(announcement)
        self.published += 1
        self._reap_expired()
        for state in list(self.subscribers.values()):
            self._enqueue(state, announcement.seq)
        if obs.enabled():
            obs.inc("pubsub.published")
            obs.set_gauge("pubsub.subscribers", len(self.subscribers))
        crashpoint("pubsub.publish.post")
        return announcement

    def _retain(self, announcement: TipAnnouncement) -> None:
        self._history[announcement.seq] = announcement
        while len(self._history) > self.history_limit:
            self._history.popitem(last=False)

    def _oldest_retained(self) -> int:
        if not self._history:
            return self.seq + 1
        return next(iter(self._history))

    # -- per-subscriber delivery ---------------------------------------------

    def _enqueue(self, state: SubscriberState, seq: int) -> None:
        if state.lagged:
            state.skipped_while_lagged += 1
            return
        state.outbox.append(seq)
        if len(state.outbox) > self.outbox_limit:
            dropped = 0
            while len(state.outbox) > self.outbox_limit:
                state.outbox.popleft()
                dropped += 1
            state.dropped_oldest += dropped
            state.lagged = True
            obs.inc("pubsub.lags")
            obs.inc("pubsub.dropped_oldest", dropped)
            self._send(state.name, LagNotice(latest_seq=self.seq, dropped=dropped))
            return
        self._pump(state)
        obs.set_gauge(f"pubsub.outbox_depth.{state.name}", state.outbox_depth)

    def _pump(self, state: SubscriberState) -> None:
        """Push queued announcements while the ack window has room."""
        while (
            not state.lagged
            and state.outbox
            and len(state.inflight) < self.window
        ):
            seq = state.outbox.popleft()
            announcement = self._history.get(seq)
            if announcement is None:
                # Retention already trimmed it; the subscriber will see
                # the gap and resync.
                state.dropped_oldest += 1
                continue
            crashpoint("pubsub.deliver.pre")
            if self._encoded[0] != seq:
                self._encoded = (seq, wire.encode(announcement))
            if not self._send(state.name, PushEnvelope(payload=self._encoded[1])):
                return
            state.inflight.add(seq)
            state.delivered += 1
            obs.inc("pubsub.deliveries")

    def _send(self, subscriber: str, message: object) -> bool:
        try:
            self.bus.send(
                self.name, subscriber, push_topic(subscriber), message
            )
        except ReproError:
            # The subscriber never joined (or left) the bus: reap it.
            self.subscribers.pop(subscriber, None)
            self.reaped += 1
            obs.inc("pubsub.reaped")
            return False
        return True

    def _apply_ack(self, state: SubscriberState, seq: int) -> None:
        if seq > state.acked_seq:
            state.acked_seq = seq
        state.inflight = {s for s in state.inflight if s > seq}
        self._renew(state)
        self._pump(state)
        obs.set_gauge(f"pubsub.outbox_depth.{state.name}", state.outbox_depth)

    def _on_ack(self, message: object) -> None:
        if not isinstance(message, StreamAck):
            return
        state = self.subscribers.get(message.subscriber)
        if state is None:
            return  # reaped, or acked after unsubscribe — stale, ignore
        obs.inc("pubsub.acks")
        self._apply_ack(state, message.seq)

    # -- leases --------------------------------------------------------------

    def _renew(self, state: SubscriberState) -> None:
        state.lease_expires_ms = self.bus.clock_ms + self.lease_ms

    def _reap_expired(self) -> None:
        now = self.bus.clock_ms
        expired = [
            name
            for name, state in self.subscribers.items()
            if state.lease_expires_ms < now
        ]
        for name in expired:
            del self.subscribers[name]
            self.reaped += 1
            obs.inc("pubsub.reaped")

    # -- RPC handlers --------------------------------------------------------

    def _subscribe(self, subscriber: object) -> SubscribeReply:
        if not isinstance(subscriber, str) or not subscriber:
            raise ServiceUnavailableError("subscribe takes the subscriber name")
        state = SubscriberState(
            subscriber,
            acked_seq=self.seq,
            lease_expires_ms=self.bus.clock_ms + self.lease_ms,
        )
        self.subscribers[subscriber] = state
        obs.inc("pubsub.subscribes")
        obs.set_gauge("pubsub.subscribers", len(self.subscribers))
        return SubscribeReply(latest_seq=self.seq, lease_ms=self.lease_ms)

    def _unsubscribe(self, subscriber: object) -> bool:
        removed = self.subscribers.pop(subscriber, None) is not None
        obs.set_gauge("pubsub.subscribers", len(self.subscribers))
        return removed

    def _heartbeat(self, argument: object) -> HeartbeatReply:
        if (
            not isinstance(argument, tuple)
            or len(argument) != 2
            or not isinstance(argument[0], str)
            or not isinstance(argument[1], int)
        ):
            raise ServiceUnavailableError(
                "heartbeat takes (subscriber, acked_seq)"
            )
        name, acked_seq = argument
        state = self.subscribers.get(name)
        if state is None:
            return HeartbeatReply(
                latest_seq=self.seq, subscribed=False, lagged=False
            )
        # Unacked in-flight pushes were lost (the subscriber is telling
        # us where it really is): requeue them for retransmission.
        lost = sorted(s for s in state.inflight if s > acked_seq)
        if lost:
            state.retransmits += len(lost)
            obs.inc("pubsub.retransmits", len(lost))
            for seq in reversed(lost):
                state.outbox.appendleft(seq)
        state.inflight.clear()
        self._apply_ack(state, acked_seq)
        return HeartbeatReply(
            latest_seq=self.seq, subscribed=True, lagged=state.lagged
        )

    def _sync_range(self, argument: object) -> SyncReply:
        """Serve the catch-up pull; clears the caller's lag state.

        ``argument`` is ``(subscriber | None, from_seq)``; a bare int
        is accepted for anonymous pulls.
        """
        if isinstance(argument, int):
            name, from_seq = None, argument
        elif (
            isinstance(argument, tuple)
            and len(argument) == 2
            and isinstance(argument[1], int)
        ):
            name, from_seq = argument
        else:
            raise ServiceUnavailableError(
                "sync_range takes (subscriber, from_seq) or from_seq"
            )
        announcements = tuple(
            announcement
            for seq, announcement in self._history.items()
            if seq >= from_seq
        )
        if name is not None:
            state = self.subscribers.get(name)
            if state is not None:
                # The reply brings the caller to the hub's latest seq;
                # reset its stream state and resume pushing from here.
                state.outbox.clear()
                state.inflight.clear()
                state.lagged = False
                self._apply_ack(state, self.seq)
            self.resyncs += 1
            obs.inc("pubsub.resyncs")
        return SyncReply(
            announcements=announcements,
            latest_seq=self.seq,
            oldest_retained=self._oldest_retained(),
        )
