"""Seeded scenario schedules: workload and fault events, interleaved.

:class:`ScenarioSchedule.generate` pre-draws every event — kind and
parameters — from one ``random.Random(seed)`` stream, so the schedule
is a pure function of ``(seed, count, config)``.  Applying an event
touches only the world and the bus's virtual clock (never wall time or
an unseeded RNG), which makes the whole run replayable: same seed,
byte-identical event log.

Fault events reuse the existing catalogs — crashpoint injection
(:mod:`repro.fault.crashpoints`, including torn WAL writes), seeded
lossy/partitioned links (:mod:`repro.net.faults`), replica pauses that
drive gateway ejection, hub remounts, and client churn.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.errors import ConfigError, ReproError
from repro.fault.crashpoints import crash_armed
from repro.net import LinkFaults
from repro.net.wire import encode
from repro.query import HistoryQuery, KeywordQuery, StaleAnswer

from .world import KIND_GATEWAY, KIND_PUSH, SimWorld

#: Crashpoints reachable from the miner's ``certify_range`` call — the
#: certification path end to end (WAL framing, torn tails, checkpoint
#: renames, ecall dispatch, ``process_block``, durable journaling) plus
#: the hub's fan-out points.
SIM_CRASH_POINTS = (
    "wal.append.pre_write",
    "wal.append.torn_write",
    "wal.append.post_fsync",
    "archive.checkpoint.pre_rename",
    "archive.checkpoint.post_rename",
    "enclave.ecall.pre",
    "enclave.ecall.post",
    "issuer.process_block.pre",
    "issuer.process_block.post",
    "durable.append.pre_wal",
    "durable.checkpoint.pre_seal",
    "pubsub.publish.pre",
    "pubsub.deliver.pre",
    "pubsub.publish.post",
)

#: (kind, weight) — the workload/fault mix one seeded stream draws from.
EVENT_WEIGHTS = (
    ("mine", 8),
    ("certify", 10),
    ("query", 16),
    ("query_many", 4),
    ("sync", 6),
    ("heartbeat", 6),
    ("drain", 6),
    ("toggle_sub", 3),
    ("churn", 2),
    ("crash", 4),
    ("lossy_link", 3),
    ("partition", 2),
    ("heal", 4),
    ("pause_replica", 2),
    ("resume_replicas", 3),
    ("hub_remount", 2),
    ("overload", 3),
    ("burst", 3),
    ("slow_replica", 2),
)

#: The saturation-heavy mix: mostly queries, bursts, deadline-bounded
#: batches, and slow replicas, with just enough mine/certify/heal to
#: keep the chain moving.  Selected with ``profile="overload"``.
OVERLOAD_WEIGHTS = (
    ("mine", 4),
    ("certify", 6),
    ("query", 14),
    ("query_many", 6),
    ("sync", 4),
    ("drain", 6),
    ("heal", 2),
    ("pause_replica", 1),
    ("resume_replicas", 4),
    ("overload", 12),
    ("burst", 12),
    ("slow_replica", 6),
)

#: Named event mixes ``ScenarioSchedule.generate`` can draw from.
WEIGHT_PROFILES = {
    "mixed": EVENT_WEIGHTS,
    "overload": OVERLOAD_WEIGHTS,
}


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One scheduled step: a kind plus pre-drawn scalar parameters."""

    kind: str
    params: dict

    def describe(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})" if inner else self.kind


class ScenarioSchedule:
    """A fixed, seed-derived sequence of :class:`SimEvent`."""

    def __init__(self, seed: int, events: tuple[SimEvent, ...]) -> None:
        self.seed = seed
        self.events = events

    @classmethod
    def generate(
        cls, seed: int, count: int, profile: str = "mixed"
    ) -> "ScenarioSchedule":
        table = WEIGHT_PROFILES.get(profile)
        if table is None:
            raise ConfigError(
                f"unknown schedule profile {profile!r}; "
                f"available: {', '.join(sorted(WEIGHT_PROFILES))}"
            )
        rng = random.Random(seed)
        kinds = [kind for kind, _ in table]
        weights = [weight for _, weight in table]
        events = tuple(
            _draw_event(rng, rng.choices(kinds, weights=weights)[0])
            for _ in range(count)
        )
        return cls(seed, events)


def _draw_event(rng: random.Random, kind: str) -> SimEvent:
    params: dict = {}
    if kind == "mine":
        params = {"txs": rng.randint(1, 3)}
    elif kind == "certify":
        params = {"upto": rng.randint(1, 4)}
    elif kind == "query":
        params = {
            "slot": rng.randrange(1024),
            "account": rng.randrange(64),
            "family": rng.choice(("history", "keyword")),
            "f1": round(rng.random(), 6),
            "f2": round(rng.random(), 6),
        }
    elif kind == "query_many":
        params = {
            "slot": rng.randrange(1024),
            "count": rng.randint(2, 4),
            "account": rng.randrange(64),
        }
    elif kind in ("sync", "heartbeat", "toggle_sub", "churn"):
        params = {"slot": rng.randrange(1024)}
    elif kind == "drain":
        params = {"ms": round(rng.uniform(20.0, 300.0), 3)}
    elif kind == "crash":
        params = {
            "point": rng.choice(SIM_CRASH_POINTS),
            "hit": rng.randint(1, 2),
            "cseed": rng.randrange(1 << 16),
            "upto": rng.randint(1, 3),
        }
    elif kind == "lossy_link":
        params = {
            "slot": rng.randrange(1024),
            "drop": round(rng.uniform(0.1, 0.35), 6),
            "peer": rng.randrange(1024),
        }
    elif kind == "partition":
        params = {"slot": rng.randrange(1024), "peer": rng.randrange(1024)}
    elif kind == "pause_replica":
        params = {"idx": rng.randrange(1024)}
    elif kind == "overload":
        params = {
            "slot": rng.randrange(1024),
            "count": rng.randint(6, 12),
            "budget": round(rng.uniform(60.0, 400.0), 3),
        }
    elif kind == "burst":
        params = {
            "idx": rng.randrange(1024),
            "count": rng.randint(16, 40),
            "account": rng.randrange(64),
        }
    elif kind == "slow_replica":
        params = {"idx": rng.randrange(1024), "factor": rng.randint(2, 5)}
    # heal / resume_replicas / hub_remount take no parameters
    return SimEvent(kind=kind, params=params)


# -- application -------------------------------------------------------------


def apply_event(world: SimWorld, event: SimEvent) -> str:
    """Apply one event; returns a deterministic outcome string that the
    world logs (heights, answer digests, error class names — never wall
    time, paths, or object ids)."""
    handler = _HANDLERS[event.kind]
    outcome = handler(world, event.params)
    world.bus.run_until_idle()
    return outcome


def _digest(value: bytes) -> str:
    return hashlib.sha256(value).hexdigest()[:12]


def _certify_upto(world: SimWorld, upto: int) -> str:
    pending = world.pending_blocks()[:upto]
    if not pending:
        return "noop"
    try:
        tips = world.miner.call("ci", "certify_range", tuple(pending))
    except ReproError as exc:
        return f"fail:{type(exc).__name__}@h{world.certified_height()}"
    finally:
        world.sync_serving_tier()
    return f"ok:h{tips[-1].header.height}" if tips else "ok:empty"


def _ev_mine(world: SimWorld, p: dict) -> str:
    height = world.mine_block(p["txs"])
    return f"h{height}"


def _ev_certify(world: SimWorld, p: dict) -> str:
    return _certify_upto(world, p["upto"])


def _build_request(world: SimWorld, entry, p: dict):
    height = entry.client.latest_header.height
    account = f"acct{p['account'] % world.config.accounts}"
    if p["family"] == "keyword":
        return KeywordQuery(index="keyword", keywords=(account,))
    t_from = 1 + int(p["f1"] * (height - 1))
    t_to = t_from + int(p["f2"] * (height - t_from))
    return HistoryQuery(
        index="history", account=account, t_from=t_from, t_to=t_to
    )


def _ev_query(world: SimWorld, p: dict) -> str:
    entry = world.pick(p["slot"])
    world.sync_serving_tier()
    try:
        entry.client.sync()
    except ReproError as exc:
        return f"{entry.name} sync-fail:{type(exc).__name__}"
    request = _build_request(world, entry, p)
    try:
        answer = entry.client.query(request)
    except ReproError as exc:
        return f"{entry.name} fail:{type(exc).__name__}"
    if isinstance(answer, StaleAnswer):
        # Graceful degradation: a previously-verified answer under an
        # older root.  Not recorded for the oracle-identity check — the
        # oracle executes at the *current* tip, and staleness is the
        # whole point of the fallback.
        return f"{entry.name} stale:h{answer.height}"
    world.record_answer(request, answer)
    return f"{entry.name} ans:{_digest(encode(answer))}"


def _ev_query_many(world: SimWorld, p: dict) -> str:
    entry = world.pick(p["slot"], kind=KIND_GATEWAY)
    if entry is None:
        return "noop"
    world.sync_serving_tier()
    try:
        entry.client.sync()
    except ReproError as exc:
        return f"{entry.name} sync-fail:{type(exc).__name__}"
    height = entry.client.latest_header.height
    requests = [
        HistoryQuery(
            index="history",
            account=f"acct{(p['account'] + i) % world.config.accounts}",
            t_from=1, t_to=height,
        )
        for i in range(p["count"])
    ]
    try:
        answers = entry.client.query_many(requests)
    except ReproError as exc:
        return f"{entry.name} fail:{type(exc).__name__}"
    for request, answer in zip(requests, answers):
        world.record_answer(request, answer)
    joined = b"".join(encode(answer) for answer in answers)
    return f"{entry.name} x{len(answers)}:{_digest(joined)}"


def _ev_sync(world: SimWorld, p: dict) -> str:
    entry = world.pick(p["slot"])
    world.sync_serving_tier()
    try:
        entry.client.sync()
    except ReproError as exc:
        return f"{entry.name} fail:{type(exc).__name__}"
    return f"{entry.name} h{entry.client.latest_header.height}"


def _ev_heartbeat(world: SimWorld, p: dict) -> str:
    entry = world.pick(p["slot"], kind=KIND_PUSH)
    if entry is None or not entry.subscribed:
        return "noop"
    try:
        entry.client.heartbeat()
    except ReproError as exc:
        return f"{entry.name} fail:{type(exc).__name__}"
    height = (
        entry.client.latest_header.height
        if entry.client.latest_header else 0
    )
    return f"{entry.name} h{height}"


def _ev_drain(world: SimWorld, p: dict) -> str:
    world.bus.run_for(p["ms"])
    return f"+{p['ms']}ms"


def _ev_toggle_sub(world: SimWorld, p: dict) -> str:
    entry = world.pick(p["slot"], kind=KIND_PUSH)
    if entry is None:
        return "noop"
    try:
        if entry.subscribed:
            entry.client.unsubscribe()
            entry.subscribed = False
            return f"{entry.name} off"
        entry.client.subscribe()
        entry.subscribed = True
        return f"{entry.name} on"
    except ReproError as exc:
        return f"{entry.name} fail:{type(exc).__name__}"


def _ev_churn(world: SimWorld, p: dict) -> str:
    old, new = world.churn_client(p["slot"])
    return f"{old}->{new}"


def _ev_crash(world: SimWorld, p: dict) -> str:
    if not world.pending_blocks():
        world.mine_block(1)
    with crash_armed(p["point"], hit=p["hit"], seed=p["cseed"]) as schedule:
        outcome = _certify_upto(world, p["upto"])
    fired = "fired" if schedule.fired else "unreached"
    return f"{p['point']}:{p['hit']} {fired} {outcome}"


def _ev_lossy_link(world: SimWorld, p: dict) -> str:
    return _fault_link(world, p, drop=p["drop"])


def _ev_partition(world: SimWorld, p: dict) -> str:
    return _fault_link(world, p, drop=1.0)


def _fault_link(world: SimWorld, p: dict, drop: float) -> str:
    entry = world.pick(p["slot"])
    peers = ("ci",) + world.replica_names
    peer = peers[p["peer"] % len(peers)]
    faults = LinkFaults(drop_rate=drop)
    world.injector.set_link(entry.name, peer, faults)
    world.injector.set_link(peer, entry.name, faults)
    world.faulted_links.add((entry.name, peer))
    return f"{entry.name}<->{peer} drop={drop}"


def _ev_heal(world: SimWorld, _p: dict) -> str:
    healed = len(world.faulted_links)
    for a, b in sorted(world.faulted_links):
        world.injector.set_link(a, b, LinkFaults())
        world.injector.set_link(b, a, LinkFaults())
    world.faulted_links.clear()
    return f"links={healed}"


def _ev_pause_replica(world: SimWorld, p: dict) -> str:
    name = world.replica_names[p["idx"] % len(world.replica_names)]
    world.replicas[name].server.paused = True
    world.paused_replicas.add(name)
    return name


def _ev_resume_replicas(world: SimWorld, _p: dict) -> str:
    resumed = len(world.paused_replicas)
    for name in sorted(world.paused_replicas):
        world.replicas[name].server.paused = False
    world.paused_replicas.clear()
    restored = world.restore_replica_speeds()
    if resumed:
        world.bus.run_for(500.0)  # let gateway probes readmit them
    return f"replicas={resumed} slowed={restored}"


def _ev_hub_remount(world: SimWorld, _p: dict) -> str:
    hub = world.remount_hub()
    return f"seq={hub.seq}"


def _ev_overload(world: SimWorld, p: dict) -> str:
    """A deadline-bounded batch through a gateway client: the whole
    resilience stack at once — deadline propagation (budget shrinks per
    hop, doomed work refused), shedding with failover, hedging, and —
    when the tier saturates entirely — graceful stale degradation."""
    entry = world.pick(p["slot"], kind=KIND_GATEWAY)
    if entry is None:
        return "noop"
    world.sync_serving_tier()
    try:
        entry.client.sync()
    except ReproError as exc:
        return f"{entry.name} sync-fail:{type(exc).__name__}"
    height = entry.client.latest_header.height
    requests = [
        HistoryQuery(
            index="history",
            account=f"acct{(p['slot'] + i) % world.config.accounts}",
            t_from=1, t_to=height,
        )
        for i in range(p["count"])
    ]
    deadline = world.bus.clock_ms + p["budget"]
    try:
        answers = entry.client.query_many(requests, deadline_ms=deadline)
    except ReproError as exc:
        return f"{entry.name} fail:{type(exc).__name__}"
    for request, answer in zip(requests, answers):
        world.record_answer(request, answer)
    joined = b"".join(encode(answer) for answer in answers)
    return f"{entry.name} x{len(answers)}:{_digest(joined)}"


def _ev_burst(world: SimWorld, p: dict) -> str:
    """An open-loop flood straight at one replica: the load generator
    begin()s without waiting for responses, so the busy worker's queue
    delay climbs until admission control sheds.  Every request is then
    abandoned; late responses exercise the client's bounded sweep."""
    name = world.replica_names[p["idx"] % len(world.replica_names)]
    server = world.replicas[name].server
    request = HistoryQuery(
        index="history",
        account=f"acct{p['account'] % world.config.accounts}",
        t_from=1, t_to=max(1, world.provider.node.height),
    )
    shed_before = server.requests_shed
    pending = [
        world.load.begin(name, "execute", request) for _ in range(p["count"])
    ]
    world.bus.run_until_idle()
    for request_id in pending:
        world.load.abandon(request_id)
    shed = server.requests_shed - shed_before
    return f"{name} n={p['count']} shed={shed}"


def _ev_slow_replica(world: SimWorld, p: dict) -> str:
    name = world.replica_names[p["idx"] % len(world.replica_names)]
    world.slow_replica(name, float(p["factor"]))
    return f"{name} x{p['factor']}"


_HANDLERS = {
    "mine": _ev_mine,
    "certify": _ev_certify,
    "query": _ev_query,
    "query_many": _ev_query_many,
    "sync": _ev_sync,
    "heartbeat": _ev_heartbeat,
    "drain": _ev_drain,
    "toggle_sub": _ev_toggle_sub,
    "churn": _ev_churn,
    "crash": _ev_crash,
    "lossy_link": _ev_lossy_link,
    "partition": _ev_partition,
    "heal": _ev_heal,
    "pause_replica": _ev_pause_replica,
    "resume_replicas": _ev_resume_replicas,
    "hub_remount": _ev_hub_remount,
    "overload": _ev_overload,
    "burst": _ev_burst,
    "slow_replica": _ev_slow_replica,
}
