"""Request/response RPC over the deterministic message bus.

The paper's Fig. 2 deployment has constant-state clients *asking*
untrusted Service Providers and Certificate Issuers for data, which is
a request/response contract — not the fire-and-forget broadcast the
bus gives us natively.  This module layers that contract on top:

* :class:`RpcServer` — joins the bus under a service name, decodes
  :class:`RpcRequest` envelopes, dispatches to registered handlers,
  and replies with :class:`RpcResponse` envelopes.  A request whose
  payload fails to decode is *dropped* (like a checksum-failed packet):
  the caller times out.
* :class:`RpcClient` — sends a request once and drains the bus until
  it answers or ``timeout_ms`` passes (:class:`repro.errors.RpcTimeoutError`);
  a response that cannot be decoded raises
  :class:`repro.errors.ResponseIntegrityError`.  There is no retry
  loop: a caller's next call (a client's next ``sync``, the gateway's
  next dispatch) is its retry.

Payloads cross the wire as bytes (:mod:`repro.net.wire`), so a
:class:`repro.net.faults.FaultInjector` can corrupt them exactly as a
real network would.  Duplicated packets and repeated calls may
re-execute a handler, so handlers must be read-only or idempotent.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable

from repro import obs
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    RemoteCallError,
    ReproError,
    ResponseIntegrityError,
    RpcTimeoutError,
    code_for,
    error_for_code,
)
from repro.net import wire
from repro.net.bus import MessageBus, NetworkNode
from repro.net.faults import flip_hex_digit
from repro.obs.wallclock import elapsed_ms, now_s
from repro.net.resilience import (
    NO_DEADLINE,
    AdmissionPolicy,
    clamp_retry_after,
    sanitize_deadline,
)


def rpc_topic(name: str) -> str:
    """The unicast topic an endpoint named ``name`` listens on."""
    return f"rpc:{name}"


@dataclass(frozen=True, slots=True)
class RpcRequest:
    """One call envelope: who asks, what method, encoded arguments.

    ``deadline_ms`` is the caller's *absolute* virtual-clock deadline
    (0 = none): a server refuses to start — and never hands to its
    provider — work it cannot finish by then.  The field is advisory
    and attacker-controllable, so servers sanitize it and the safe
    degradation is "no deadline" (see
    :func:`repro.net.resilience.sanitize_deadline`); a forged deadline
    can only cause a refusal, never a wrong answer.
    """

    request_id: int
    sender: str
    method: str
    payload: bytes
    deadline_ms: float = NO_DEADLINE

    def corrupted(self, rng: random.Random) -> "RpcRequest":
        return replace(self, payload=flip_hex_digit(self.payload, rng))


@dataclass(frozen=True, slots=True)
class RpcResponse:
    """The reply envelope; ``payload`` encodes the result or the error
    message.  A failure reply carries the *typed* error code from the
    :mod:`repro.errors` taxonomy in ``code`` (empty on success), so
    callers — the query gateway above all — can classify the failure
    (retryable transport fault vs terminal verification error) without
    parsing strings out of the payload.

    ``retry_after_ms`` rides along on an ``net.overloaded`` failure:
    the server's estimate of when its admission queue will have drained
    back under the shed threshold.  Advisory and untrusted — clients
    clamp it (:func:`repro.net.resilience.clamp_retry_after`), so a
    forged hint can hold one replica's breaker open for at most the
    cap and never stall a caller."""

    request_id: int
    sender: str
    ok: bool
    payload: bytes
    code: str = ""
    retry_after_ms: float = 0.0

    def corrupted(self, rng: random.Random) -> "RpcResponse":
        return replace(self, payload=flip_hex_digit(self.payload, rng))


Handler = Callable[[object], object]


class DropRequest(Exception):
    """Raised by a handler (or a supervising wrapper) to drop the
    request silently — no reply at all, as if the host were dead.  The
    caller times out."""


class RpcServer:
    """A named service endpoint: method registry + envelope plumbing.

    ``service_time_ms`` models the endpoint as a single-threaded worker:
    each reply is emitted only after the server has *spent* that much
    virtual time on the request, and requests arriving while it is busy
    queue behind it.  That is what makes replica count matter on the
    virtual clock — N replicas drain a query burst N times faster — and
    it is what the fleet-scaling benchmark measures.  Zero (the
    default) keeps the original instant-reply behaviour.
    """

    def __init__(
        self,
        bus: MessageBus,
        name: str,
        *,
        service_time_ms: float = 0.0,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        self.bus = bus
        self.name = name
        self.service_time_ms = service_time_ms
        #: Virtual time until which this endpoint's worker is occupied.
        self.busy_until_ms = 0.0
        self.node = bus.join(NetworkNode(name, record_limit=0))
        self.node.on(rpc_topic(name), self._handle)
        # repro: allow[BND01] method registry, one entry per register() at wiring
        self._methods: dict[str, Handler] = {}
        # repro: allow[BND01] per-method config, one entry per register() at wiring
        self._service_times: dict[str, float] = {}
        self.requests_served = 0
        self.requests_dropped = 0
        #: Load shedding for the busy worker (None = admit everything,
        #: the original unbounded-queue behaviour).
        self.admission = admission
        #: Admitted-but-unfinished busy-worker requests (the queue the
        #: admission policy bounds).
        self.queued = 0
        #: Requests refused with OVERLOADED / DEADLINE_EXCEEDED.  These
        #: never reach a handler — the sim invariant "shed requests do
        #: zero provider work" rests on that.
        self.requests_shed = 0
        self.deadline_refused = 0
        #: Admitted requests whose reply would nonetheless have missed
        #: their propagated deadline by more than one service quantum.
        #: With admission prediction on the virtual clock this must stay
        #: 0 — asserted as a sim invariant.
        self.deadline_violations = 0
        #: Handler invocations per method — the ground truth the sim
        #: uses to prove shed work never executed.
        # repro: allow[BND01] one counter per registered method
        self.invocations: dict[str, int] = {}
        #: Largest queue delay an admitted request experienced.
        self.max_queue_delay_ms = 0.0
        #: While True the endpoint behaves like a dead host: every
        #: request is dropped without a reply.  A supervisor pauses the
        #: server while its backing service is being restored (the bus
        #: does not allow leaving and rejoining under the same name).
        self.paused = False

    def register(
        self,
        method: str,
        handler: Handler,
        *,
        service_time_ms: float | None = None,
    ) -> None:
        """Expose ``handler`` (decoded-payload -> result object).

        ``service_time_ms`` overrides the server-wide busy-worker cost
        for this method alone — e.g. a query service charges its
        ``execute`` path but answers cheap root lookups immediately.
        """
        self._methods[method] = handler
        if service_time_ms is not None:
            self._service_times[method] = service_time_ms

    def _handle(self, message: object) -> None:
        if self.paused or not isinstance(message, RpcRequest):
            self.requests_dropped += 1
            obs.inc("rpc.server.dropped")
            return
        try:
            argument = wire.decode(message.payload)
        except ReproError:
            # A corrupted request is indistinguishable from line noise;
            # drop it and let the caller time out.
            self.requests_dropped += 1
            obs.inc("rpc.server.dropped")
            return
        obs.inc("rpc.server.bytes_received", len(message.payload))
        handler = self._methods.get(message.method)
        if handler is None:
            self._reply(
                message,
                error=RemoteCallError(f"unknown method {message.method!r}"),
            )
            return
        if not self._admit(message):
            return
        self.invocations[message.method] = (
            self.invocations.get(message.method, 0) + 1
        )
        started = now_s()
        try:
            result = handler(argument)
        except DropRequest:
            self.requests_dropped += 1
            obs.inc("rpc.server.dropped")
            return
        except ReproError as exc:
            obs.inc(f"rpc.server.errors.{message.method}")
            self._reply(message, error=exc)
            return
        if obs.enabled():
            obs.inc(f"rpc.server.requests.{message.method}")
            obs.observe(
                f"rpc.server.handle_ms.{message.method}",
                elapsed_ms(started),
            )
        self.requests_served += 1
        self._reply(message, result=result)

    def _service_ms(self, method: str) -> float:
        return self._service_times.get(method, self.service_time_ms)

    def _admit(self, message: RpcRequest) -> bool:
        """Deadline + admission gate, *before* the handler runs.

        A refusal replies immediately (refusing is metadata-cheap; only
        admitted work occupies the busy worker) and never invokes the
        handler, so shed or expired requests cost zero provider work.
        On the virtual clock the worker's start time is exactly
        predictable, so "refuse what would miss its deadline" at
        arrival is the same act as "abandon queued work whose deadline
        expired" at dequeue — there is no window in which a doomed
        request can sit in the queue.
        """
        service_ms = self._service_ms(message.method)
        now_ms = self.bus.clock_ms
        start_ms = max(now_ms, self.busy_until_ms)
        deadline = sanitize_deadline(message.deadline_ms)
        if deadline and start_ms + service_ms > deadline:
            self.deadline_refused += 1
            obs.inc("resilience.server.deadline_refused")
            self._reply(
                message,
                error=DeadlineExceededError(
                    f"{message.method!r} would complete at "
                    f"{start_ms + service_ms:.1f} ms, past the caller's "
                    f"deadline of {deadline:.1f} ms"
                ),
                immediate=True,
            )
            return False
        if self.admission is not None and service_ms > 0.0:
            queue_delay_ms = start_ms - now_ms
            if (
                self.queued >= self.admission.queue_limit
                or queue_delay_ms > self.admission.shed_delay_ms
            ):
                hint = self.admission.retry_after_hint(
                    queue_delay_ms, service_ms
                )
                self.requests_shed += 1
                obs.inc("resilience.server.shed")
                self._reply(
                    message,
                    error=OverloadedError(
                        f"{self.name} shed {message.method!r}: predicted "
                        f"queue delay {queue_delay_ms:.1f} ms over the "
                        f"{self.admission.shed_delay_ms:.1f} ms target",
                        retry_after_ms=hint,
                    ),
                    immediate=True,
                    retry_after_ms=hint,
                )
                return False
        return True

    def _reply(
        self,
        request: RpcRequest,
        *,
        result: object = None,
        error: ReproError | None = None,
        immediate: bool = False,
        retry_after_ms: float = 0.0,
    ) -> None:
        ok = error is None
        payload = wire.encode(result if ok else str(error))
        obs.inc("rpc.server.bytes_sent", len(payload))
        response = RpcResponse(
            request_id=request.request_id,
            sender=self.name,
            ok=ok,
            payload=payload,
            code="" if ok else code_for(error),
            retry_after_ms=retry_after_ms,
        )

        route = (self.name, request.sender, rpc_topic(request.sender), response)

        def send() -> None:
            self.queued -= 1
            self.bus.send(*route)

        service_ms = self._service_ms(request.method)
        if immediate or service_ms <= 0.0:
            self.bus.send(*route)
            return
        # Single-threaded worker: this request starts when the previous
        # one finishes, and the reply leaves at completion time.
        start_ms = max(self.bus.clock_ms, self.busy_until_ms)
        self.busy_until_ms = start_ms + service_ms
        queue_delay_ms = start_ms - self.bus.clock_ms
        if queue_delay_ms > self.max_queue_delay_ms:
            self.max_queue_delay_ms = queue_delay_ms
        obs.observe("rpc.server.queue_ms", queue_delay_ms)
        deadline = sanitize_deadline(request.deadline_ms)
        if deadline and self.busy_until_ms > deadline + max(service_ms, 1.0):
            # Admission should have refused this request; if it ever
            # happens the sim's deadline invariant trips.
            self.deadline_violations += 1
            obs.inc("resilience.server.deadline_violations")
        self.queued += 1
        obs.set_gauge(f"resilience.queue_depth.{self.name}", self.queued)
        self.bus.schedule(self.busy_until_ms - self.bus.clock_ms, send)


class RpcClient:
    """Blocking (virtual-time) calls: one send, one wait, one verdict.

    The client also carries the caller-side half of the overload story:

    * **deadline propagation** — ``call``/``begin`` accept an absolute
      ``deadline_ms`` that rides in the request; a call whose budget is
      spent raises :class:`~repro.errors.DeadlineExceededError` locally
      without sending anything (zero downstream work);
    * **bounded response bookkeeping** — ``_responses`` is swept on
      abandon and capped, so late replies to abandoned requests can
      never grow memory (asserted as a sim invariant).
    """

    #: Caps on retained responses and remembered abandoned ids.
    RESPONSES_LIMIT = 256
    ABANDONED_LIMIT = 1024

    def __init__(
        self, bus: MessageBus, name: str, *, timeout_ms: float = 500.0
    ) -> None:
        self.bus = bus
        self.name = name
        #: How long :meth:`call` waits for its one answer.
        self.timeout_ms = timeout_ms
        self.node = bus.join(NetworkNode(name, record_limit=0))
        self.node.on(rpc_topic(name), self._on_response)
        self._next_id = 1
        self._pending: set[int] = set()
        self._responses: "OrderedDict[int, RpcResponse]" = OrderedDict()
        #: Request ids abandoned while still pending: a late reply to
        #: one of these is dropped (and counted) instead of retained.
        self._abandoned: "OrderedDict[int, None]" = OrderedDict()
        #: Requests sent (one per :meth:`call` or :meth:`begin`).  The
        #: verified answer cache's "zero round trips on a warm hit"
        #: claim is asserted against this counter.
        self.calls = 0
        self.timeouts = 0
        self.duplicates_ignored = 0
        self.late_after_abandon = 0

    def _on_response(self, message: object) -> None:
        if not isinstance(message, RpcResponse):
            return
        if message.request_id not in self._pending:
            if message.request_id in self._abandoned:
                del self._abandoned[message.request_id]
                self.late_after_abandon += 1
                obs.inc("rpc.client.late_after_abandon")
            self.duplicates_ignored += 1  # late or duplicated reply
            return
        self._pending.discard(message.request_id)
        self._responses[message.request_id] = message
        while len(self._responses) > self.RESPONSES_LIMIT:
            self._responses.popitem(last=False)

    # -- non-blocking primitives (what call() and the gateway are built on) --

    def begin(
        self,
        target: str,
        method: str,
        argument: object = None,
        *,
        payload: bytes | None = None,
        deadline_ms: float = NO_DEADLINE,
    ) -> int:
        """Send one request without waiting; returns its request id.

        Pair with :meth:`wait` (drive the bus until it answers),
        :meth:`take` (pop the raw response, or :meth:`expire` the
        request if there is none) and :meth:`resolve` (decode it or
        raise the mapped error).  The caller owns the timeout, and
        passes the ``payload`` it holds in place of an ``argument`` it
        already encoded.
        """
        self.calls += 1
        obs.inc("rpc.client.calls")
        payload = payload or wire.encode(argument)
        obs.inc("rpc.client.bytes_sent", len(payload))
        request_id = self._next_id
        self._next_id += 1
        self._pending.add(request_id)
        self.bus.send(
            self.name,
            target,
            rpc_topic(target),
            RpcRequest(
                request_id=request_id,
                sender=self.name,
                method=method,
                payload=payload,
                deadline_ms=deadline_ms,
            ),
        )
        return request_id

    def wait(self, request_ids, horizon_ms: float) -> None:
        """Drive the bus (delivering everyone's traffic along the way)
        until any of ``request_ids`` has answered or the virtual clock
        reaches ``horizon_ms``, whichever comes first."""
        answered = self._responses.keys()
        while answered.isdisjoint(request_ids):
            if not self.bus.step(horizon_ms):
                self.bus.wait_until(horizon_ms)
                return

    def take(self, request_id: int) -> RpcResponse | None:
        """Pop the response to ``request_id`` if it has arrived."""
        return self._responses.pop(request_id, None)

    def abandon(self, request_id: int) -> None:
        """Stop waiting for ``request_id``; a late reply is ignored.

        If the request is still pending its id is remembered (bounded)
        so the eventual reply is counted and dropped, not retained —
        the sweep that keeps ``_responses`` from growing forever under
        timeout/hedge churn.
        """
        if request_id in self._pending:
            self._pending.discard(request_id)
            self._abandoned[request_id] = None
            while len(self._abandoned) > self.ABANDONED_LIMIT:
                self._abandoned.popitem(last=False)
        self._responses.pop(request_id, None)

    def expire(self, request_id: int) -> None:
        """:meth:`abandon` a request that ran out its timeout, counted."""
        self.abandon(request_id)
        self.timeouts += 1
        obs.inc("rpc.client.timeouts")

    def resolve(
        self, response: RpcResponse, *, target: str, method: str
    ) -> object:
        """Decode a response into its result, or raise the mapped error.

        A failure report's ``code`` selects the exception class from the
        local taxonomy (an unknown code degrades to
        :class:`RemoteCallError`); its payload carries only the
        human-readable message.
        """
        obs.inc("rpc.client.bytes_received", len(response.payload))
        try:
            decoded = wire.decode(response.payload)
        except ReproError as exc:
            raise ResponseIntegrityError(
                f"response to {method!r} from {target!r} corrupted in "
                f"flight: {exc}"
            ) from exc
        if response.ok:
            return decoded
        error = error_for_code(response.code)(f"{response.sender}: {decoded}")
        if isinstance(error, OverloadedError):
            # The hint is untrusted wire data: clamp before anything
            # downstream (the gateway's breakers) can honor it.
            error.retry_after_ms = clamp_retry_after(response.retry_after_ms)
        raise error

    def call(
        self,
        target: str,
        method: str,
        argument: object = None,
        *,
        payload: bytes | None = None,
        deadline_ms: float = NO_DEADLINE,
    ) -> object:
        """Call ``method`` on ``target`` once; returns the decoded result.

        Sends one request and drives the bus (delivering everyone's
        traffic along the way) until it answers, ``timeout_ms`` passes
        or ``deadline_ms`` — the caller's absolute virtual-clock budget,
        which also rides in the request so the server can refuse doomed
        work — does.  A spent budget sends nothing.  Raises

        * :class:`RpcTimeoutError` — no response within ``timeout_ms``;
        * :class:`DeadlineExceededError` — the deadline budget ran out
          (locally or refused by the server);
        * :class:`ResponseIntegrityError` — a response arrived but its
          payload does not decode (corrupted in flight);
        * the mapped library error — the server reported a failure
          (e.g. a :class:`repro.errors.QueryError` re-raised locally).
        """
        deadline = sanitize_deadline(deadline_ms)
        started = self.bus.clock_ms
        if not deadline or started < deadline:
            request_id = self.begin(
                target, method, argument, payload=payload, deadline_ms=deadline
            )
            horizon = started + self.timeout_ms
            self.wait((request_id,), min(horizon, deadline or horizon))
            response = self.take(request_id)
            if response is not None:
                if obs.enabled():
                    obs.observe(
                        f"rpc.client.call_ms.{method}",
                        self.bus.clock_ms - started,
                    )
                return self.resolve(response, target=target, method=method)
            self.expire(request_id)
        if deadline and self.bus.clock_ms >= deadline:
            raise DeadlineExceededError(
                f"deadline for {method!r} on {target!r} expired"
            )
        raise RpcTimeoutError(
            f"no response from {target!r} to {method!r} in "
            f"{self.timeout_ms:.0f} ms"
        )
