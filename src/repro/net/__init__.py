"""In-process network simulation: bus, RPC, gateway, pub/sub hub, faults.

DCert's certification workflow (Fig. 2, step 3) has the CI *broadcast*
certificates to the blockchain network, where superlight clients pick
them up; its query workflow has clients *ask* untrusted Service
Providers for verifiable answers.  This package provides both halves,
deterministically and without sockets:

* :mod:`bus` — the virtual-clock message bus: pub/sub broadcast,
  unicast :meth:`~repro.net.bus.MessageBus.send`, scheduled callbacks,
  and bounded draining (``run_for``/``step``).
* :mod:`rpc` — request/response RPC: one send and one timeout per
  call.
* :mod:`wire` — the dataclass ⇄ bytes codec RPC payloads cross the
  simulated network as.
* :mod:`faults` — per-link drop/delay/duplicate/corrupt injection with
  a seeded RNG, for failure-path tests and demos.
* :mod:`pubsub` — the certificate subscription hub and its frames
  (announcements, envelopes, acks, replies): push-based tip propagation
  that holds only the newest announcement, one unacked push per
  subscriber, catch-up in the subscribe/heartbeat reply, and
  lease-based subscriber reaping.
* :mod:`gateway` — load-balanced routing over a fleet of QueryService
  replicas: round-robin dispatch, one circuit breaker per replica (its
  whole health), hedging, failover that trusts answers, not replicas.
* :mod:`supervisor` — crash detection + bounded-backoff restart for any
  RPC-fronted service (issuer or query replica).
* :mod:`resilience` — the overload-protection primitives: deadline
  propagation, CoDel-style admission control, circuit breakers and
  per-endpoint latency tracking (see docs/overload.md).
"""

from repro.net.bus import MessageBus, NetworkNode
from repro.net.faults import FaultInjector, LinkFaults
from repro.net.gateway import QueryGateway, ReplicaState
from repro.net.pubsub import (
    PushEnvelope,
    StreamAck,
    StreamReply,
    SubscriptionHub,
    TipAnnouncement,
)
from repro.net.resilience import (
    AdmissionPolicy,
    CircuitBreaker,
    LatencyTracker,
    clamp_retry_after,
    sanitize_deadline,
    shrink_deadline,
)
from repro.net.rpc import RpcClient, RpcRequest, RpcResponse, RpcServer
from repro.net.supervisor import ServiceSupervisor

__all__ = [
    "AdmissionPolicy",
    "CircuitBreaker",
    "FaultInjector",
    "LatencyTracker",
    "LinkFaults",
    "MessageBus",
    "NetworkNode",
    "PushEnvelope",
    "QueryGateway",
    "ReplicaState",
    "RpcClient",
    "RpcRequest",
    "RpcResponse",
    "RpcServer",
    "ServiceSupervisor",
    "StreamAck",
    "StreamReply",
    "SubscriptionHub",
    "TipAnnouncement",
    "clamp_retry_after",
    "sanitize_deadline",
    "shrink_deadline",
]
