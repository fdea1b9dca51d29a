"""In-process network simulation, now with a request/response layer.

DCert's certification workflow (Fig. 2, step 3) has the CI *broadcast*
certificates to the blockchain network, where superlight clients pick
them up; its query workflow has clients *ask* untrusted Service
Providers for verifiable answers.  This package provides both halves,
deterministically and without sockets:

* :mod:`bus` — the virtual-clock message bus: pub/sub broadcast,
  unicast :meth:`~repro.net.bus.MessageBus.send`, scheduled callbacks,
  and bounded draining (``run_for``/``step``).
* :mod:`rpc` — request/response RPC with per-call timeouts and bounded
  exponential-backoff retries.
* :mod:`wire` — the dataclass ⇄ bytes codec RPC payloads cross the
  simulated network as.
* :mod:`faults` — per-link drop/delay/duplicate/corrupt injection with
  a seeded RNG, for failure-path tests and demos.
* :mod:`messages` — broadcast message types (blocks, certificates) and
  the push-stream frames (envelopes, lag notices, acks).
* :mod:`pubsub` — the certificate subscription hub: push-based tip
  propagation with windowed backpressure, bounded outboxes, lag
  markers, sequence-numbered announcements, catch-up pulls, and
  lease-based subscriber reaping.
* :mod:`gateway` — load-balanced routing over a fleet of QueryService
  replicas: balancing policies, per-replica health with probe-based
  recovery, failover with switch re-verification.
* :mod:`supervisor` — crash detection + bounded-backoff restart for any
  RPC-fronted service (issuer or query replica).
* :mod:`resilience` — the overload-protection primitives: deadline
  propagation, CoDel-style admission control, circuit breakers,
  per-endpoint latency tracking, and hedged-request policy (see
  docs/overload.md).
"""

from repro.net.bus import MessageBus, NetworkNode
from repro.net.faults import FaultInjector, LinkFaults
from repro.net.gateway import (
    HealthPolicy,
    LeastOutstanding,
    QueryGateway,
    ReplicaState,
    RoundRobin,
    SeededRandom,
    make_balancer,
)
from repro.net.messages import (
    BlockAnnouncement,
    CertificateAnnouncement,
    LagNotice,
    PushEnvelope,
    StreamAck,
)
from repro.net.pubsub import SubscriptionHub, TipAnnouncement
from repro.net.resilience import (
    AdmissionPolicy,
    CircuitBreaker,
    CircuitBreakerPolicy,
    HedgePolicy,
    LatencyTracker,
    clamp_retry_after,
    sanitize_deadline,
    shrink_deadline,
)
from repro.net.rpc import RetryPolicy, RpcClient, RpcRequest, RpcResponse, RpcServer
from repro.net.supervisor import RestartPolicy, ServiceSupervisor

__all__ = [
    "AdmissionPolicy",
    "BlockAnnouncement",
    "CertificateAnnouncement",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "FaultInjector",
    "HealthPolicy",
    "HedgePolicy",
    "LatencyTracker",
    "LagNotice",
    "LeastOutstanding",
    "LinkFaults",
    "MessageBus",
    "NetworkNode",
    "PushEnvelope",
    "QueryGateway",
    "ReplicaState",
    "RestartPolicy",
    "RetryPolicy",
    "RoundRobin",
    "RpcClient",
    "RpcRequest",
    "RpcResponse",
    "RpcServer",
    "SeededRandom",
    "ServiceSupervisor",
    "StreamAck",
    "SubscriptionHub",
    "TipAnnouncement",
    "clamp_retry_after",
    "make_balancer",
    "sanitize_deadline",
    "shrink_deadline",
]
