"""Scripted scenarios: the stories ``repro demo`` tells, one table.

Each row of :data:`SCENARIOS` is a small :class:`~repro.sim.world.SimWorld`
and a fixed list of ordinary sim events, played by the simulation's own
loop (:func:`repro.sim.shrink.play`: every invariant checked after every
event, the WAL recovered cold at the end), then a ``report`` of the
numbers the story is about and a ``passed`` predicate over them.  A
row's ``script`` takes the knobs it honours as keyword arguments (the
CLI's ``--blocks``, ``--replicas``, ``--drop``, ``--point`` and
``--hit``), with its defaults; ``blocks`` is the chain height it ends at.
Nothing here reads a wall clock, so a row's output is a pure function of
its knobs.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.errors import CertificateError
from repro.net.gateway import HOP_MARGIN_MS
from repro.query import HistoryQuery

from .invariants import InvariantViolation
from .schedule import SimEvent, forge_answer
from .shrink import play
from .world import SimConfig, SimWorld


@dataclass(frozen=True)
class Scenario:
    """One row: a name, what it shows, and how to play and judge it."""

    name: str
    summary: str
    script: Callable[..., tuple[SimConfig, list[SimEvent]]]
    report: Callable[[SimWorld], dict]
    passed: Callable[[dict], bool]

    @property
    def knobs(self) -> tuple[str, ...]:
        """The keyword arguments ``script`` takes."""
        return tuple(inspect.signature(self.script).parameters)

    def run(self, **knobs) -> tuple[SimWorld, InvariantViolation | None, dict]:
        config, events = self.script(**knobs)
        return play(config, events, report=self.report)


def _event(kind: str, **params) -> SimEvent:
    return SimEvent(kind, params)


def _history(account: int = 1, f1: float = 0, f2: float = 1) -> SimEvent:
    """Fleet client 0 asks for ``acct<account>``'s history over the
    fraction ``[f1, f2]`` of its certified chain (all of it by default)."""
    return _event("query", slot=0, account=account, family="history",
                  f1=f1, f2=f2)


def _keyword(account: int) -> SimEvent:
    return _event("query", slot=0, account=account, family="keyword",
                  f1=0, f2=0)


def _spread(count: int, f1: float) -> list[SimEvent]:
    """``count`` history queries over different accounts and ranges, so
    most are dispatched rather than answered from the cache."""
    return [_history(i, f1, round((i + 1) / count, 3)) for i in range(count)]


# -- selftest: the paper's story, plus the checks that must fail ------------


def _selftest(blocks: int = 10):
    config = SimConfig(premine=blocks, replicas=1, pollers=1,
                       gateway_clients=0, subscribers=0)
    return config, [_history(), _keyword(1)]


def _selftest_report(world: SimWorld) -> dict:
    client = world.fleet[0].client
    tip = world.issuer.certified[-1].tip
    request = HistoryQuery(index="history", account="acct1", t_from=1,
                           t_to=tip.header.height)
    answer = world.oracle.execute(request)
    tampered = forge_answer(answer, "withhold")
    try:
        client.validate_chain(tip.header, replace(tip.certificate,
                                                  dig=bytes(32)))
        forged_rejected = False
    except CertificateError:
        forged_rejected = True
    return {
        "tip_height": client.latest_header.height,
        "client_storage_bytes": client.storage_bytes(),
        "ecalls": world.issuer.enclave.ledger.ecalls,
        "acct1_versions": len(answer.payload.versions),
        "proof_bytes": answer.proof_size_bytes(),
        "answer_verified": client.verify_answer(request, answer),
        "forged_certificate_rejected": forged_rejected,
        "tampered_answer_rejected": not client.verify_answer(request, tampered),
    }


# -- network: a push client across a lossy link -----------------------------


def _network(blocks: int = 8, drop: float = 0.3):
    config = SimConfig(premine=blocks - 1, replicas=2, pollers=0,
                       gateway_clients=0, subscribers=1, latency_ms=20.0)
    # Round robin sends about half of the queries across the faulted link.
    queries = [_history(a) for a in (1, 0, 2, 3)] + [_keyword(a) for a in range(4)]
    return config, [
        _event("lossy_link", slot=0, drop=drop, peer=1),  # peer 1: sp1
        *queries,
        _event("mine", txs=3),
        _event("certify", upto=1),  # its tip reaches the client pushed
    ]


def _network_report(world: SimWorld) -> dict:
    client = world.fleet[0].client
    links = world.injector.summary().values()
    return {
        "tip_height": client.latest_header.height,
        "client_storage_bytes": client.storage_bytes(),
        "push_adopted": client.push_adopted,
        "dropped": sum(counts["dropped"] for counts in links),
        "timeouts": client.gateway.rpc.timeouts,
        "failovers": client.gateway.failovers,
        "integrity_failures": client.integrity_failures,
        "virtual_ms": round(world.bus.clock_ms, 1),
    }


# -- fleet: one gateway over N replicas --------------------------------------

_SERVICE_MS = 25.0
_BATCH = 12


def _fleet(blocks: int = 8, replicas: int = 3):
    # The batch queues whole on the replicas; only the overload row sheds.
    config = SimConfig(premine=blocks, replicas=replicas, pollers=0,
                       gateway_clients=1, subscribers=0,
                       service_time_ms=_SERVICE_MS,
                       shed_delay_ms=_SERVICE_MS * _BATCH,
                       admission_queue_limit=_BATCH)
    batch = _event("query_many", slot=0, count=_BATCH, account=0)
    return config, [
        batch,
        batch,  # warm: from the verified-answer cache
        _event("pause_replica", idx=0),
        *_spread(2 * replicas, 0),  # dispatches to sp1 time out: failover
        _event("resume_replicas"),  # the probe path readmits sp1
        *_spread(3 * replicas, 0.5),
    ]


def _fleet_report(world: SimWorld) -> dict:
    client = world.fleet[0].client
    gateway = client.gateway
    return {
        **{f"served.{name}": replica.server.requests_served
           for name, replica in world.replicas.items()},
        "dispatches": gateway.rpc.calls,
        "timeouts": gateway.rpc.timeouts,
        "cache_hits": client.cache.hits,
        "cache_misses": client.cache.misses,
        "sp1_readmitted": "sp1" in gateway.healthy_replicas(),
    }


# -- overload: deadlines, shedding, stale answers, hedging -------------------


def _overload(blocks: int = 8, replicas: int = 2):
    config = SimConfig(premine=blocks - 1, replicas=replicas, pollers=0,
                       gateway_clients=1, subscribers=0,
                       service_time_ms=_SERVICE_MS)
    return config, [
        # A budget that covers one service time, but not once the
        # per-hop margin is shrunk off: refused before any work.
        _event("overload", slot=0, count=1,
               budget=_SERVICE_MS + HOP_MARGIN_MS / 2),
        _history(),  # with headroom: verified, and remembered
        _event("mine", txs=3),
        _event("certify", upto=1),
        _event("sync", slot=0),  # the cached entry's root is swept
        # Every replica flooded while the same request asks again: shed
        # everywhere, the client serves its last verified answer stale.
        _event("flood", slot=0, count=30, budget=_SERVICE_MS * 2.5,
               account=1, t_to=blocks - 1),
        *_spread(16, 0),  # warm the per-replica latency trackers
        _event("slow_replica", idx=replicas - 1, factor=10),
        *_spread(6, 0.5),  # hedged at the observed p90
    ]


def _overload_report(world: SimWorld) -> dict:
    client = world.fleet[0].client
    gateway = client.gateway
    servers = [replica.server for replica in world.replicas.values()]
    return {
        "deadline_refused": sum(s.deadline_refused for s in servers),
        "shed": sum(s.requests_shed for s in servers),
        "stale_served": client.stale_served,
        "breaker_trips": gateway.breaker_trips(),
        "hedges": gateway.hedges,
        "hedge_wins": gateway.hedge_wins,
        "provider_executes": world.provider.executes,
    }


# -- crash: the issuer dies mid-certification and is restored ---------------


def _crash(blocks: int = 8, point: str = "durable.append.pre_wal",
           hit: int = 1):
    half = blocks // 2
    config = SimConfig(premine=half, checkpoint_interval=3, replicas=1,
                       pollers=1, gateway_clients=0, subscribers=1)
    return config, [
        *[_event("mine", txs=3)] * (blocks - half),
        _event("crash", point=point, hit=hit, cseed=0, upto=blocks - half),
        _event("heartbeat", slot=0),
        _event("sync", slot=0),
        _history(),
    ]


def _crash_report(world: SimWorld) -> dict:
    client = world.fleet[0].client
    recovery = world.issuer.last_recovery
    return {
        "crash_fired": world.supervisor.crashes > 0,
        "supervisor_restarts": world.supervisor.restarts,
        "supervisor_gave_up": world.supervisor.gave_up,
        "checkpoint_used": recovery is not None and recovery.checkpoint_used,
        "replayed_blocks": recovery.replayed_blocks if recovery else 0,
        "tip_height": client.latest_header.height,
        "verified_answers_held": len(client.cache),
        # One report, so the restored enclave signs under the sealed key.
        "attestation_reports_verified": len(client._verified_reports),
    }


SCENARIOS = {row.name: row for row in (
    Scenario(
        "selftest",
        "certify a chain; a client adopts the tip and verifies queries, "
        "and rejects a forged certificate and a tampered answer",
        _selftest, _selftest_report,
        lambda r: r["answer_verified"] and r["forged_certificate_rejected"]
        and r["tampered_answer_rejected"],
    ),
    Scenario(
        "network",
        "a push-subscribed client queries two replicas across a lossy "
        "link, then adopts a pushed tip",
        _network, _network_report,
        lambda r: r["push_adopted"] > 0 and r["integrity_failures"] == 0,
    ),
    Scenario(
        "fleet",
        "a gateway over N replicas: a batch, its warm repeat, a paused "
        "replica failed over and readmitted",
        _fleet, _fleet_report,
        lambda r: r["cache_hits"] >= _BATCH and r["sp1_readmitted"],
    ),
    Scenario(
        "overload",
        "a doomed deadline refused, a flood shed with a stale answer "
        "served, a slow replica hedged around",
        _overload, _overload_report,
        lambda r: r["deadline_refused"] > 0 and r["shed"] > 0
        and r["stale_served"] > 0 and r["hedge_wins"] > 0,
    ),
    Scenario(
        "crash",
        "the issuer dies at a crashpoint mid-certify_range; the "
        "supervisor restores it from the WAL",
        _crash, _crash_report,
        lambda r: r["crash_fired"] and not r["supervisor_gave_up"]
        and r["verified_answers_held"] > 0
        and r["attestation_reports_verified"] == 1,
    ),
)}
