"""A deterministic publish/subscribe + unicast message bus with
simulated latency, scheduled callbacks, and optional fault injection.

Delivery order is deterministic: messages are timestamped on a virtual
clock (publish time + per-link latency) and drained in timestamp order,
with FIFO tie-breaking.  That makes integration tests over multi-node
topologies exactly reproducible.

Beyond fire-and-forget pub/sub the bus supports what a request/response
layer needs (see :mod:`repro.net.rpc`):

* :meth:`MessageBus.send` — point-to-point delivery to a named node,
  independent of topic subscriptions;
* :meth:`MessageBus.schedule` — a callback at a virtual-clock deadline
  (timeouts, restart delays);
* :meth:`MessageBus.step` / :meth:`MessageBus.run_for` — bounded
  draining, so a caller can wait *up to* a deadline instead of draining
  the world;
* an optional :class:`repro.net.faults.FaultInjector` that may drop,
  delay, duplicate, or corrupt any queued delivery per link.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro import obs
from repro.errors import BusError

Handler = Callable[[object], None]

#: Pseudo-receiver name for scheduled callbacks (never a real node).
_TIMER = None


class NetworkNode:
    """A participant: subscribes to topics, receives messages in order.

    ``received`` keeps the most recent deliveries for assertions and
    debugging.  It is *bounded* (``record_limit`` messages, oldest
    dropped first) so long-running simulations do not leak memory; pass
    ``record_limit=0`` to disable recording entirely, or ``None`` to
    keep everything (opt-in, for short tests only).
    """

    def __init__(self, name: str, *, record_limit: int | None = 256) -> None:
        self.name = name
        self.record_limit = record_limit
        # repro: allow[BND01] topic registry, one entry per on() wiring call
        self._handlers: dict[str, Handler] = {}
        self.received: list[object] = []
        self.delivered_count = 0

    def on(self, topic: str, handler: Handler) -> None:
        """Register the handler for one topic (latest registration wins)."""
        self._handlers[topic] = handler

    def deliver(self, topic: str, message: object) -> None:
        self.delivered_count += 1
        if self.record_limit != 0:
            self.received.append(message)
            if (
                self.record_limit is not None
                and len(self.received) > self.record_limit
            ):
                del self.received[: len(self.received) - self.record_limit]
        handler = self._handlers.get(topic)
        if handler is not None:
            handler(message)


class MessageBus:
    """Connects nodes; routes published and unicast messages."""

    def __init__(self, default_latency_ms: float = 50.0) -> None:
        self.default_latency_ms = default_latency_ms
        self.fault_injector = None  # repro.net.faults.FaultInjector | None
        # repro: allow[BND01] static topology, one entry per joined node
        self._nodes: dict[str, NetworkNode] = {}
        # repro: allow[BND01] static topology, one edge per subscribe() wiring call
        self._subscriptions: dict[str, list[str]] = {}
        # repro: allow[BND01] static topology, one entry per configured link
        self._latency: dict[tuple[str, str], float] = {}
        self._queue: list[tuple[float, int, str | None, str, object]] = []
        self._sequence = 0
        self.clock_ms = 0.0

    def join(self, node: NetworkNode) -> NetworkNode:
        if node.name in self._nodes:
            raise BusError(f"node name {node.name!r} already joined")
        self._nodes[node.name] = node
        return node

    def subscribe(self, node_name: str, topic: str) -> None:
        if node_name not in self._nodes:
            raise BusError(f"unknown node {node_name!r}")
        self._subscriptions.setdefault(topic, [])
        if node_name not in self._subscriptions[topic]:
            self._subscriptions[topic].append(node_name)

    def set_latency(self, sender: str, receiver: str, latency_ms: float) -> None:
        self._latency[(sender, receiver)] = latency_ms

    def install_faults(self, injector) -> None:
        """Route every subsequent delivery through ``injector``."""
        self.fault_injector = injector

    # -- enqueueing ---------------------------------------------------------

    def publish(self, sender: str, topic: str, message: object) -> None:
        """Enqueue ``message`` for every subscriber of ``topic``."""
        for receiver in self._subscriptions.get(topic, []):
            if receiver == sender:
                continue
            self._enqueue(sender, receiver, topic, message)

    def send(self, sender: str, receiver: str, topic: str, message: object) -> None:
        """Point-to-point delivery, independent of subscriptions."""
        if receiver not in self._nodes:
            raise BusError(f"unknown node {receiver!r}")
        self._enqueue(sender, receiver, topic, message)

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the virtual clock reaches now+delay."""
        self._sequence += 1
        heapq.heappush(
            self._queue,
            (self.clock_ms + delay_ms, self._sequence, _TIMER, "", callback),
        )

    def _enqueue(
        self, sender: str, receiver: str, topic: str, message: object
    ) -> None:
        latency = self._latency.get((sender, receiver), self.default_latency_ms)
        deliveries = [(0.0, message)]
        if self.fault_injector is not None:
            deliveries = self.fault_injector.apply(sender, receiver, message)
        for extra_delay, delivered in deliveries:
            self._sequence += 1
            heapq.heappush(
                self._queue,
                (
                    self.clock_ms + latency + extra_delay,
                    self._sequence,
                    receiver,
                    topic,
                    delivered,
                ),
            )

    # -- draining -----------------------------------------------------------

    def step(self, deadline_ms: float | None = None) -> bool:
        """Deliver the single next event, if one is due by ``deadline_ms``.

        Returns True when an event was delivered (or a timer fired);
        False when the queue is empty or the next event lies beyond the
        deadline.  The clock only advances to the delivered event's
        timestamp — never past the deadline.
        """
        if not self._queue:
            return False
        at = self._queue[0][0]
        if deadline_ms is not None and at > deadline_ms:
            return False
        at, _, receiver, topic, message = heapq.heappop(self._queue)
        self.clock_ms = max(self.clock_ms, at)
        if receiver is _TIMER:
            obs.inc("net.bus.timer_fires")
            message()  # a scheduled callback
        else:
            obs.inc("net.bus.deliveries")
            self._nodes[receiver].deliver(topic, message)
        return True

    def run_for(self, duration_ms: float) -> int:
        """Deliver everything due within the next ``duration_ms`` of
        virtual time, then advance the clock to the end of the window
        (even if the bus went idle early).  Returns the delivery count.
        """
        deadline = self.clock_ms + duration_ms
        delivered = 0
        while self.step(deadline):
            delivered += 1
        self.clock_ms = max(self.clock_ms, deadline)
        return delivered

    def wait_until(self, deadline_ms: float) -> None:
        """Advance the clock to ``deadline_ms`` without delivering."""
        self.clock_ms = max(self.clock_ms, deadline_ms)

    def run_until_idle(self) -> int:
        """Deliver everything (including cascades); returns the count."""
        delivered = 0
        while self.step():
            delivered += 1
        return delivered
