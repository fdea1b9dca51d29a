"""Push-based tip propagation: the certificate subscription hub.

Polling inverts DCert's economics: a superlight client needs O(1) work
per new block, but a fleet of pollers costs the serving tier
``clients x poll rate`` RPC round trips even when nothing changed.
This module turns tip discovery into a *push* stream — the shape
LightSync-style designs deliver sync data in — while keeping every
announcement self-verifying (header + certificate, canonically
wire-encoded), so the hub itself stays untrusted.

A certificate covers the whole prefix (§4's recursion), so the newest
tip is self-sufficient and the stream carries nothing else:

* :class:`SubscriptionHub` — an RPC-addressable service (standalone,
  or mounted on any existing :class:`~repro.net.rpc.RpcServer`, e.g.
  the issuer endpoint or a server co-located with a
  :class:`~repro.net.gateway.QueryGateway`) that issuers notify on
  each newly certified block.  It holds one :class:`TipAnnouncement`,
  the newest, and per subscriber two sequence numbers, its kind and a
  lease.  A tip-only subscriber (no gateway) is sent the tip's header
  and block certificate only, one with a gateway the whole tip; each
  form's push is encoded once per tip, when first offered.
* **Latest-tip delivery** — a publish pushes the newest tip to every
  subscriber with no unacked push; a subscriber with one in flight gets
  whatever is newest when it acks (:class:`StreamAck`), so tips
  certified in between are superseded, never queued.
* **Catch-up in the reply** — ``hub.subscribe`` and ``hub.heartbeat``
  both take ``(subscriber, acked_seq, tip_only)`` and answer one
  :class:`StreamReply` that carries the newest tip, in the caller's
  form, whenever ``acked_seq`` is behind it: a lost push, a reaped
  lease, a dead link or a re-subscribe heals in one round trip.
* **Leases** — every ack/heartbeat renews a virtual-clock lease; a
  subscriber that goes silent past :attr:`SubscriptionHub.LEASE_MS` is
  reaped, so dead clients cost nothing.

The hub never verifies certificates — subscribers do, with the same
check a polled sync uses, so a forged or replayed announcement is
discarded and counted on the client, never adopted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ConfigError, ReproError, ServiceUnavailableError, WireError
from repro.fault.crashpoints import crashpoint
from repro.net import wire
from repro.net.bus import MessageBus
from repro.net.rpc import RpcServer

if TYPE_CHECKING:
    from repro.core.issuer import CertifiedTip


def push_topic(subscriber: str) -> str:
    """The unicast topic a subscriber receives pushes on."""
    return f"push:{subscriber}"


def ack_topic(hub: str) -> str:
    """The unicast topic a hub receives stream acks on."""
    return f"push-ack:{hub}"


@dataclass(frozen=True, slots=True)
class TipAnnouncement:
    """One certified tip on the push stream.

    ``tip`` is exactly what a polled ``latest_tip`` of the subscriber's
    kind returns (a tip-only subscriber: header and block certificate);
    around it the stream position (``seq``, dense per hub) and the
    virtual-clock publish time (for the fanout-latency histogram).
    Self-verifying: the subscriber runs the standard certificate checks
    on ``tip`` before adopting it.
    """

    seq: int
    published_at_ms: float
    tip: CertifiedTip

    def __post_init__(self) -> None:
        from repro.core.issuer import CertifiedTip

        # No certificate covers the first two, and the subscriber does
        # sums on them; the tip is adopted as a CertifiedTip or not at all.
        if (
            type(self.seq) is not int
            or type(self.published_at_ms) not in (int, float)
            or type(self.tip) is not CertifiedTip
        ):
            raise WireError("tip announcement fields are not typed")


@dataclass(frozen=True, slots=True)
class StreamReply:
    """What ``hub.subscribe`` and ``hub.heartbeat`` return: the stream
    position, whether the hub knows the caller (``False``: it restarted
    or reaped the lease — subscribe again), and the newest announcement
    when the caller's ``acked_seq`` is behind it."""

    latest_seq: int
    subscribed: bool
    tip: TipAnnouncement | None = None

    def __post_init__(self) -> None:
        # The client compares and branches on these before any verification.
        if (
            type(self.latest_seq) is not int
            or type(self.subscribed) is not bool
            or not (self.tip is None or type(self.tip) is TipAnnouncement)
        ):
            raise WireError("stream reply fields are not typed")


@dataclass(frozen=True, slots=True)
class PushEnvelope:
    """One hub→subscriber push: a canonically wire-encoded
    :class:`TipAnnouncement`.

    The announcement crosses as *bytes* (like an RPC payload) so the
    fault layer can corrupt it exactly as a real network would — the
    subscriber must treat an undecodable or unverifiable envelope as a
    forgery, never as a tip.
    """

    payload: bytes

    def corrupted(self, rng: random.Random) -> "PushEnvelope":
        from repro.net.faults import flip_hex_digit

        return replace(self, payload=flip_hex_digit(self.payload, rng))


@dataclass(frozen=True, slots=True)
class StreamAck:
    """Subscriber→hub: cumulative ack up to ``seq`` (also renews the
    subscriber's lease)."""

    subscriber: str
    seq: int


class SubscriberState:
    """Everything the hub tracks for one subscriber: two sequence
    numbers, which form of the tip it is sent and a lease (all set by
    the subscribe reply)."""

    __slots__ = ("name", "tip_only", "acked_seq", "inflight", "lease_expires_ms")

    def __init__(self, name: str, tip_only: bool) -> None:
        self.name = name
        #: No gateway: sent the header and block certificate only.
        self.tip_only = tip_only
        #: Highest sequence number the subscriber holds (acked, or sent
        #: in a reply).
        self.acked_seq = 0
        #: Sequence number of the one unacked push, 0 when none.
        self.inflight = 0
        self.lease_expires_ms = 0.0


class SubscriptionHub:
    """Fan the newest certified tip out to subscribed clients.

    Construct standalone (``SubscriptionHub(bus, "hub")``) or mounted
    on an existing endpoint (``SubscriptionHub(server=service.server)``
    — e.g. the :class:`~repro.core.issuer.IssuerService` endpoint, so
    one name serves both pulls and the stream); see :meth:`embedded`
    for the gateway-side convenience.

    Wire an issuer in with :meth:`attach`: every block it certifies is
    published automatically.
    """

    #: RPC method names (prefixed so the hub can share an RpcServer
    #: with another service without clobbering its methods).
    SUBSCRIBE = "hub.subscribe"
    UNSUBSCRIBE = "hub.unsubscribe"
    HEARTBEAT = "hub.heartbeat"

    #: Virtual milliseconds a subscriber may stay silent before it is reaped.
    LEASE_MS = 30_000.0

    def __init__(
        self,
        bus: MessageBus | None = None,
        name: str = "hub",
        *,
        server: RpcServer | None = None,
    ) -> None:
        if (bus is None) == (server is None):
            raise ValueError("pass exactly one of bus (standalone) or server")
        self.server = server if server is not None else RpcServer(bus, name)
        self.bus = self.server.bus
        self.name = self.server.name
        self.seq = 0
        #: The newest announcement, and its push per form (encoded on first send).
        self.tip: TipAnnouncement | None = None
        self._envelopes: dict[bool, PushEnvelope] = {}
        self.subscribers: dict[str, SubscriberState] = {}
        self._attached: list[tuple[object, object]] = []
        self.published = 0
        self.reaped = 0
        self.retransmits = 0
        self.server.register(self.SUBSCRIBE, self._subscribe)
        self.server.register(self.UNSUBSCRIBE, self._unsubscribe)
        self.server.register(self.HEARTBEAT, self._heartbeat)
        self.server.node.on(ack_topic(self.name), self._on_ack)

    @classmethod
    def embedded(cls, host: object) -> "SubscriptionHub":
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
            return cls(server=server)
        rpc = getattr(host, "rpc", None)
        if rpc is not None and getattr(host, "replicas", None) is not None:
            return cls(rpc.bus, f"{rpc.name}.hub")
        raise ValueError(
            f"cannot embed a hub in {type(host).__name__}: expected an "
            "object with an RpcServer or a QueryGateway"
        )

    # -- issuer wiring -------------------------------------------------------

    def attach(self, issuer: object) -> None:
        """Publish every block ``issuer`` certifies from now on.

        ``issuer`` is a :class:`~repro.core.issuer.CertificateIssuer`
        (or a :class:`~repro.core.recovery.DurableIssuer` wrapping
        one).  The stream position resumes from the issuer's certified
        count, so a hub restarted against the same durable issuer
        continues the sequence instead of rewinding it, and its tip is
        the issuer's newest certified block (what ``latest_tip`` serves).
        """
        certified = getattr(issuer, "certified", ())
        if len(certified) > self.seq:
            self.seq = len(certified)
            if certified[-1].certificate is not None:
                self._set_tip(certified[-1])
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
            issuer.unhook(hook)
        self._attached.clear()

    def _set_tip(self, certified: object) -> None:
        """Make a CertifiedBlock the announcement at ``seq``."""
        self.tip = TipAnnouncement(self.seq, self.bus.clock_ms, certified.tip)
        self._envelopes.clear()

    def _form(self, tip_only: bool) -> TipAnnouncement:
        """The newest announcement as a subscriber of this kind is sent it."""
        tip = self.tip
        return replace(tip, tip=tip.tip.without_indexes()) if tip_only else tip

    # -- publishing ----------------------------------------------------------

    def publish(self, certified: object) -> TipAnnouncement | None:
        """Announce one newly certified block to every live subscriber.

        ``certified`` is a :class:`~repro.core.issuer.CertifiedBlock`
        (what the issuer's ``on_certified`` hook passes).  An
        augmented-only block (no hierarchical certificate) still consumes
        a sequence number — the stream position mirrors the issuer's
        certified count — but nothing is pushed for it.
        """
        crashpoint("pubsub.publish.pre")
        self.seq += 1
        if certified.certificate is None:
            return None
        self._set_tip(certified)
        self.published += 1
        self._reap_expired()
        for state in list(self.subscribers.values()):
            self._offer(state)
        if obs.enabled():
            obs.inc("pubsub.published")
            obs.set_gauge("pubsub.subscribers", len(self.subscribers))
        crashpoint("pubsub.publish.post")
        return self.tip

    # -- per-subscriber delivery ---------------------------------------------

    def _offer(self, state: SubscriberState) -> None:
        """Push the newest tip unless the subscriber has it or a push
        to it is still unacked (the ack offers again)."""
        tip = self.tip
        if tip is None or state.inflight or state.acked_seq >= tip.seq:
            return
        crashpoint("pubsub.deliver.pre")
        envelope = self._envelopes.get(state.tip_only)
        if envelope is None:
            envelope = PushEnvelope(payload=wire.encode(self._form(state.tip_only)))
            self._envelopes[state.tip_only] = envelope
        try:
            self.bus.send(self.name, state.name, push_topic(state.name), envelope)
        except ReproError:
            # The subscriber never joined (or left) the bus: reap it.
            self.subscribers.pop(state.name, None)
            self.reaped += 1
            obs.inc("pubsub.reaped")
            return
        state.inflight = tip.seq
        obs.inc("pubsub.deliveries")

    def _on_ack(self, message: object) -> None:
        if not isinstance(message, StreamAck):
            return
        state = self.subscribers.get(message.subscriber)
        if state is None:
            return  # reaped, or acked after unsubscribe — stale, ignore
        obs.inc("pubsub.acks")
        state.acked_seq = max(state.acked_seq, message.seq)
        if message.seq >= state.inflight:
            state.inflight = 0
        self._renew(state)
        self._offer(state)

    # -- leases --------------------------------------------------------------

    def _renew(self, state: SubscriberState) -> None:
        state.lease_expires_ms = self.bus.clock_ms + self.LEASE_MS

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

    def _subscribe(self, argument: object) -> StreamReply:
        name, acked_seq, tip_only = self._stream_argument(argument, "subscribe")
        self.subscribers[name] = SubscriberState(name, tip_only)
        obs.inc("pubsub.subscribes")
        obs.set_gauge("pubsub.subscribers", len(self.subscribers))
        return self._reply(name, acked_seq, tip_only)

    def _unsubscribe(self, subscriber: object) -> bool:
        removed = self.subscribers.pop(subscriber, None) is not None
        obs.set_gauge("pubsub.subscribers", len(self.subscribers))
        return removed

    def _heartbeat(self, argument: object) -> StreamReply:
        reply = self._reply(*self._stream_argument(argument, "heartbeat"))
        if reply.subscribed and reply.tip is not None:
            # A push to it was lost, or it fell behind while it was away.
            self.retransmits += 1
            obs.inc("pubsub.retransmits")
        return reply

    @staticmethod
    def _stream_argument(argument: object, method: str) -> tuple[str, int, bool]:
        if (
            not isinstance(argument, tuple)
            or len(argument) != 3
            or not isinstance(argument[0], str)
            or not argument[0]
            or type(argument[1]) is not int
            or type(argument[2]) is not bool
        ):
            raise ServiceUnavailableError(
                f"{method} takes (subscriber, acked_seq, tip_only)"
            )
        return argument

    def _reply(self, name: str, acked_seq: int, tip_only: bool) -> StreamReply:
        """Where the stream is, plus the newest tip in the caller's form
        if ``acked_seq`` is behind it.  The subscriber states its own
        position, so any push in flight to it is settled: the reply
        carries what it lacks."""
        acked_seq = min(acked_seq, self.seq)  # nobody is past the stream
        tip = self.tip if self.tip is not None and acked_seq < self.tip.seq else None
        state = self.subscribers.get(name)
        if state is not None:
            state.acked_seq = acked_seq if tip is None else tip.seq
            state.inflight = 0
            self._renew(state)
        tip = None if tip is None else self._form(tip_only)
        return StreamReply(latest_seq=self.seq, subscribed=state is not None, tip=tip)
