"""Overload resilience — goodput under saturation, hedged tails.

Two scenarios on the virtual clock:

* **Admission control at 5x offered load** — an open-loop arrival
  process fires queries at five times the fleet's modeled capacity
  (busy workers, ``service_time_ms``).  CoDel-style admission sheds the
  excess at arrival with OVERLOADED + retry_after, and deadline
  propagation refuses work that cannot finish inside its budget, so
  the workers stay saturated with *useful* requests: goodput holds at
  >= 80% of capacity, the admitted queue delay never exceeds the shed
  threshold by more than one service quantum, and shed/refused requests
  cost the provider zero query executions.
* **Hedged requests vs a slow replica** — after per-endpoint latency
  trackers warm up, one replica turns 20x slower.  Un-hedged
  round-robin eats the slow replica's full service time on every other
  query; with hedging the gateway fires a second attempt at the
  observed p90 and takes whichever answer lands first, collapsing the
  tail.

Reproduced claims:

* goodput at 5x offered load >= 80% of single-replica capacity x
  replica count, with bounded admitted queue delay;
* shed and deadline-refused requests do zero provider work;
* hedging cuts the slow-replica p99 by >= 2x (recorded either way via
  ``bench_record`` for the un-hedged/hedged comparison).

``REPRO_OVERLOAD_ARRIVALS`` overrides the arrival count (default 600).
"""

from __future__ import annotations

import os

from repro.bench.harness import fresh_vm
from repro.bench.reporting import bench_record, print_table
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.crypto import generate_keypair
from repro.net import (
    AdmissionPolicy,
    HealthPolicy,
    HedgePolicy,
    MessageBus,
    QueryGateway,
    RetryPolicy,
)
from repro.net.rpc import RpcClient
from repro.query import HistoryQuery, QueryService
from repro.query.indexes import AccountHistoryIndexSpec
from repro.query.provider import QueryServiceProvider
from repro.sgx.costs import cost_model_disabled

_NETWORK = "overload-bench"
_BLOCKS = 8
_SERVICE_MS = 20.0
_SHED_DELAY_MS = 40.0
_REPLICAS = 2


def _arrivals() -> int:
    return int(os.environ.get("REPRO_OVERLOAD_ARRIVALS", "600"))


def _build_provider() -> QueryServiceProvider:
    """A small certified-shape chain the serving tier answers over."""
    keypair = generate_keypair(b"overload-bench-user")
    builder = ChainBuilder(difficulty_bits=4, network=_NETWORK)
    genesis, state = make_genesis(network=_NETWORK)
    specs = [AccountHistoryIndexSpec(name="history")]
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), builder.pow, specs
    )
    nonce = 0
    for _ in range(_BLOCKS):
        txs = []
        for _ in range(3):
            txs.append(sign_transaction(
                keypair.private, nonce, "kvstore", "put",
                (f"k{nonce % 4}", f"v{nonce}"),
            ))
            nonce += 1
        block, _ = builder.add_block(txs)
        provider.ingest_block(block)
    return provider


def _requests(count: int) -> list[HistoryQuery]:
    return [
        HistoryQuery(
            index="history",
            account=f"k{i % 4}",
            t_from=1,
            t_to=1 + i % _BLOCKS,
        )
        for i in range(count)
    ]


def test_admission_control_protects_goodput_at_5x_load():
    arrivals = _arrivals()
    with cost_model_disabled():
        provider = _build_provider()
        bus = MessageBus(default_latency_ms=1.0)
        names = [f"sp{i + 1}" for i in range(_REPLICAS)]
        admission = AdmissionPolicy(
            shed_delay_ms=_SHED_DELAY_MS, queue_limit=64
        )
        services = {
            name: QueryService(
                bus, name, provider,
                service_time_ms=_SERVICE_MS, admission=admission,
            )
            for name in names
        }
        load = RpcClient(
            bus, "load",
            policy=RetryPolicy(timeout_ms=10_000.0, max_attempts=1),
        )
        requests = _requests(16)

        capacity_qps = _REPLICAS * 1000.0 / _SERVICE_MS
        offered_qps = 5.0 * capacity_qps
        interval_ms = 1000.0 / offered_qps
        unresolved: set[int] = set()
        outcomes = {"ok": 0, "overloaded": 0, "refused": 0}

        def arrive(i: int) -> None:
            # Alternate loose and tight budgets: the tight ones
            # exercise deadline refusal (doomed at admission), the
            # loose ones ride the shed threshold.
            budget_ms = 150.0 if i % 2 == 0 else 30.0
            unresolved.add(load.begin(
                names[i % _REPLICAS], "execute",
                requests[i % len(requests)],
                deadline_ms=bus.clock_ms + budget_ms,
            ))

        def drain() -> None:
            # Collect replies promptly — the client's response book is
            # deliberately bounded, so an open-loop flood that never
            # takes its responses would see the oldest swept.
            for request_id in list(unresolved):
                response = load.take(request_id)
                if response is None:
                    continue
                unresolved.discard(request_id)
                if response.ok:
                    outcomes["ok"] += 1
                elif response.code == "net.overloaded":
                    outcomes["overloaded"] += 1
                elif response.code == "net.deadline":
                    outcomes["refused"] += 1

        start_ms = bus.clock_ms
        for i in range(arrivals):
            bus.schedule(i * interval_ms, lambda i=i: arrive(i))
        while bus.step():
            drain()
        duration_s = (bus.clock_ms - start_ms) / 1000.0

        assert not unresolved, "some arrivals never got any reply"
        ok = outcomes["ok"]
        assert sum(outcomes.values()) == arrivals

        goodput_qps = ok / duration_s
        shed = sum(s.server.requests_shed for s in services.values())
        deadline_refused = sum(
            s.server.deadline_refused for s in services.values()
        )
        admitted = sum(
            s.server.invocations.get("execute", 0)
            for s in services.values()
        )
        max_queue_ms = max(
            s.server.max_queue_delay_ms for s in services.values()
        )

    print_table(
        f"Admission control at 5x offered load "
        f"({arrivals} arrivals, {_REPLICAS} replicas, "
        f"{_SERVICE_MS:.0f} ms service time)",
        ["offered q/s", "capacity q/s", "goodput q/s",
         "shed", "refused", "max queue ms"],
        [[round(offered_qps, 1), round(capacity_qps, 1),
          round(goodput_qps, 1), shed, deadline_refused,
          round(max_queue_ms, 1)]],
    )
    bench_record(
        "overload_admission",
        {
            "arrivals": arrivals,
            "offered_qps": offered_qps,
            "capacity_qps": capacity_qps,
            "goodput_qps": goodput_qps,
            "served": ok,
            "shed": shed,
            "deadline_refused": deadline_refused,
            "max_queue_delay_ms": max_queue_ms,
        },
    )

    # Reproduced claim: goodput holds within 80% of modeled capacity.
    assert goodput_qps >= 0.8 * capacity_qps, (
        f"goodput collapsed under overload: {goodput_qps:.1f} q/s "
        f"of {capacity_qps:.1f} q/s capacity"
    )
    # Admitted queue delay is bounded by the shed threshold plus one
    # service quantum — the CoDel-style contract.
    assert max_queue_ms <= _SHED_DELAY_MS + _SERVICE_MS, (
        f"admitted queue delay {max_queue_ms:.1f} ms exceeds the "
        f"{_SHED_DELAY_MS:.0f} ms shed threshold + one service quantum"
    )
    # Shed and deadline-refused requests did zero provider work.
    assert shed > 0 and deadline_refused > 0
    assert provider.executes == admitted, (
        f"provider executed {provider.executes} queries but only "
        f"{admitted} were admitted — refusals did provider work"
    )


def _tail(samples: list[float], quantile: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(quantile * len(ordered)))
    return ordered[index]


def _run_slow_replica_pass(hedge: HedgePolicy | None) -> tuple:
    """Warm both replicas' latency trackers, slow one 20x, then measure
    per-query gateway latency over a round-robin sequence."""
    provider = _build_provider()
    bus = MessageBus(default_latency_ms=1.0)
    names = [f"sp{i + 1}" for i in range(_REPLICAS)]
    services = {
        name: QueryService(bus, name, provider, service_time_ms=10.0)
        for name in names
    }
    gateway = QueryGateway(
        bus, "gw", names,
        balancer="round-robin", seed=11,
        policy=RetryPolicy(timeout_ms=2_000.0, max_attempts=1),
        health=HealthPolicy(failure_threshold=4),
        hedge=hedge,
    )
    warmup = _requests(20)
    for request in warmup:
        gateway.call("execute", request)
    # One replica degrades 20x (GC pause, cold cache, noisy neighbor).
    services[names[-1]].server._service_times["execute"] = 200.0
    samples: list[float] = []
    for request in _requests(40):
        started = bus.clock_ms
        gateway.call("execute", request)
        samples.append(bus.clock_ms - started)
    return samples, gateway


def test_hedged_requests_cut_the_slow_replica_tail():
    with cost_model_disabled():
        unhedged, _ = _run_slow_replica_pass(None)
        hedged, gateway = _run_slow_replica_pass(HedgePolicy())

    rows = [
        ["un-hedged", round(_tail(unhedged, 0.5), 1),
         round(_tail(unhedged, 0.99), 1), round(max(unhedged), 1), 0, 0],
        ["hedged", round(_tail(hedged, 0.5), 1),
         round(_tail(hedged, 0.99), 1), round(max(hedged), 1),
         gateway.hedges, gateway.hedge_wins],
    ]
    print_table(
        "Gateway tail latency with one replica 20x slow (ms)",
        ["mode", "p50", "p99", "max", "hedges", "hedge wins"],
        rows,
    )
    bench_record(
        "overload_hedging",
        {
            "unhedged": {
                "p50_ms": _tail(unhedged, 0.5),
                "p99_ms": _tail(unhedged, 0.99),
                "max_ms": max(unhedged),
            },
            "hedged": {
                "p50_ms": _tail(hedged, 0.5),
                "p99_ms": _tail(hedged, 0.99),
                "max_ms": max(hedged),
                "hedges": gateway.hedges,
                "hedge_wins": gateway.hedge_wins,
            },
        },
    )

    assert gateway.hedges > 0 and gateway.hedge_wins > 0, (
        "the hedged pass never hedged — tracker warmup or the hedge "
        "policy is broken"
    )
    # Reproduced claim: hedging collapses the slow-replica tail.
    assert _tail(hedged, 0.99) <= _tail(unhedged, 0.99) / 2.0, (
        f"hedged p99 {_tail(hedged, 0.99):.1f} ms is not at least 2x "
        f"better than un-hedged {_tail(unhedged, 0.99):.1f} ms"
    )
