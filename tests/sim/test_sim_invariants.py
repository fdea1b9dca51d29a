"""Unit tests for the invariant checkers themselves.

Each test plants one specific inconsistency in an otherwise-healthy
world and asserts the matching checker — and only a checker with the
right name — trips.  The world is module-scoped (building one is the
expensive part); every mutation is reverted.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.core.superlight import SuperlightClient
from repro.net import CircuitBreaker, SubscriptionHub
from repro.sim import (
    PAPER_STORAGE_BUDGET_BYTES,
    InvariantSuite,
    InvariantViolation,
    SimConfig,
    SimEvent,
    SimWorld,
    apply_event,
)
from repro.sim.world import KIND_GATEWAY, KIND_POLL, KIND_PUSH

pytestmark = pytest.mark.sim

CONFIG = SimConfig(premine=3, replicas=2, pollers=1, gateway_clients=1,
                   subscribers=1)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return SimWorld.build(CONFIG, tmp_path_factory.mktemp("sim-inv"))


@pytest.fixture()
def suite(world):
    fresh = InvariantSuite(world)
    fresh.check(0)  # a healthy world passes; checkers are now primed
    return fresh


def _violation(suite, index=1):
    with pytest.raises(InvariantViolation) as info:
        suite.check(index)
    return info.value


def test_healthy_world_passes_every_checker(world):
    InvariantSuite(world).check(0)


def test_violation_carries_name_and_event_index(world):
    suite = InvariantSuite(world)
    suite._tips["poll1"] = (10_000, b"x")  # claim a much higher past tip
    violation = _violation(suite, index=7)
    assert violation.name == "tip-monotonic"
    assert violation.event_index == 7
    assert "poll1" in violation.detail


def test_tip_monotonic_rejects_height_regression(world, suite):
    entry = world.fleet[0]
    previous = suite._tips[entry.name]
    suite._tips[entry.name] = (previous[0] + 5, previous[1])
    assert _violation(suite).name == "tip-monotonic"


def test_unverified_adoption_rejected(world, suite):
    """A tip change whose certificate fails cold re-verification (here:
    a certificate for a *different* header) is an unverified adoption."""
    entry = world.fleet[0]
    client = entry.client
    original = suite._tips.pop(entry.name)  # force re-verification
    saved_state = client.state
    client.state = replace(saved_state, header=world.builder.blocks[1].header)
    try:
        assert _violation(suite).name == "no-unverified-adoption"
    finally:
        client.state = saved_state
        suite._tips[entry.name] = original


def test_a_shared_tip_costs_the_adoption_check_one_verify(world, monkeypatch):
    """Every fleet client holds the same certified tip: the adoption
    check verifies its certificate signature once and its attestation
    report at most once, not once per client."""
    import repro.core.certificate as certificate
    from repro.sgx.attestation import AttestationReport

    tips = {
        (entry.client.latest_header.header_hash(),
         entry.client.latest_certificate.encode())
        for entry in world.fleet
    }
    assert len(world.fleet) >= 3 and len(tips) == 1
    counts = {"sig": 0, "report": 0}
    real_verify, real_report = certificate.verify, AttestationReport.verify

    def counting_verify(*args):
        counts["sig"] += 1
        return real_verify(*args)

    def counting_report(report, key):
        counts["report"] += 1
        return real_report(report, key)

    monkeypatch.setattr(certificate, "verify", counting_verify)
    monkeypatch.setattr(AttestationReport, "verify", counting_report)
    suite = InvariantSuite(world)
    suite.check(0)  # every client's tip is new to this suite
    assert counts["sig"] == 1
    assert counts["report"] <= 1
    assert len(suite._verified.signatures) == 1


def test_a_tampered_signature_misses_the_adoption_memo(world, suite):
    """The genuine (header, certificate) pair is memoised by the primed
    suite; a certificate for the same header whose signature differs
    in one bit is verified, fails, and is an unverified adoption."""
    entry = world.fleet[0]
    client = entry.client
    original = suite._tips.pop(entry.name)  # force re-verification
    saved_state = client.state
    cert = saved_state.certificate
    forged = replace(cert, sig=replace(cert.sig, s=cert.sig.s ^ 1))
    client.state = replace(saved_state, certificate=forged)
    try:
        violation = _violation(suite)
        assert violation.name == "no-unverified-adoption"
        assert "signature invalid" in violation.detail
    finally:
        client.state = saved_state
        suite._tips[entry.name] = original


def test_new_trust_anchors_start_a_new_adoption_memo(world, suite):
    """A memo vouches only for the anchors it was filled under: once the
    expected measurement changes, the memoised report is checked again
    and the tip, from an enclave of the old measurement, is refused."""
    entry = world.fleet[0]
    original = suite._tips.pop(entry.name)  # force re-verification
    measurement = world.measurement
    world.measurement = bytes(32)
    try:
        violation = _violation(suite)
        assert violation.name == "no-unverified-adoption"
        assert "unexpected enclave program" in violation.detail
    finally:
        world.measurement = measurement
        suite._tips[entry.name] = original


def test_storage_budget_enforced(world, suite):
    entry = world.fleet[0]
    entry.client.storage_bytes = (
        lambda: PAPER_STORAGE_BUDGET_BYTES + 1
    )
    try:
        assert _violation(suite).name == "storage-budget"
    finally:
        del entry.client.storage_bytes


def test_oracle_identity_rejects_wrong_answer(world, suite):
    """An answer recorded against the wrong request (byte-different
    from honest local execution) trips the oracle check."""
    from repro.net.wire import encode
    from repro.query import HistoryQuery

    ask = HistoryQuery(index="history", account="acct0", t_from=1, t_to=2)
    other = HistoryQuery(index="history", account="acct1", t_from=1, t_to=2)
    world.record_answer(ask, encode(world.oracle.execute(other)))
    assert _violation(suite).name == "oracle-identity"
    assert not world.answers  # the checker drains even on failure


def test_cache_coherence_rejects_stale_roots(world, suite):
    entry = next(c for c in world.fleet if c.kind == KIND_GATEWAY)
    cache = entry.client.cache
    cache._entries[(b"bogus-request", b"stale-root")] = None
    try:
        assert _violation(suite).name == "cache-coherence"
    finally:
        del cache._entries[(b"bogus-request", b"stale-root")]


@pytest.mark.parametrize("kind", [KIND_POLL, KIND_PUSH])
def test_cache_coherence_covers_every_client_kind(world, suite, kind):
    """Pollers and push clients hold a verified-answer cache too."""
    entry = next(c for c in world.fleet if c.kind == kind)
    cache = entry.client.cache
    cache._entries[(b"bogus-request", b"stale-root")] = None
    try:
        violation = _violation(suite)
        assert violation.name == "cache-coherence"
        assert entry.name in violation.detail
    finally:
        del cache._entries[(b"bogus-request", b"stale-root")]


def test_cache_coherence_passes_a_gateway_client_that_holds_no_root(world, suite):
    """A gateway client that joined while the issuer was unreachable
    holds no certified root and an empty cache: nothing to check, not a
    ``CertificateError`` escaping ``check``."""
    world.service.server.paused = True
    try:
        entry = world.spawn_client(KIND_GATEWAY)
    finally:
        world.service.server.paused = False
    try:
        assert entry.client.cache is not None
        assert not entry.client.state.indexes
        suite.check(1)
    finally:
        world.fleet.remove(entry)


def test_wal_consistency_rejects_reissued_bytes(world, suite):
    suite._cert_fps[1] = (b"different-cert-bytes", ())
    suite._issuer_seen = None  # force a full recompute
    assert _violation(suite).name == "wal-consistent"



def test_wal_consistency_rejects_an_edited_entry_the_issuer_holds(world, suite):
    """Between restarts every height the issuer holds in memory is
    re-checked, not only the heights issued since the last check."""
    held = world.issuer.certified
    first, second = held[0], held[1]
    saved = first.certificate
    first.certificate = second.certificate
    suite._certified_seen -= 1  # as if a block was issued since
    try:
        violation = _violation(suite)
        assert violation.name == "wal-consistent"
        assert "height 1" in violation.detail
    finally:
        first.certificate = saved

def test_wal_consistency_rejects_a_new_signing_key(world, suite):
    """A restarted issuer that signs under a different ``pk_enc`` (its
    sealed key was not the one recovered) violates wal-consistent."""
    suite._pk_enc = b"another-enclave-key"
    suite._issuer_seen = None  # as after a restart
    violation = _violation(suite)
    assert violation.name == "wal-consistent"
    assert "pk_enc" in violation.detail


def test_metrics_monotonic_rejects_decreasing_counter(world, suite):
    registry = obs.registry()
    saved = registry.counters.get("sim.test.counter")
    registry.counters["sim.test.counter"] = 3
    suite._counters["sim.test.counter"] = 5
    try:
        assert _violation(suite).name == "metrics-monotonic"
    finally:
        if saved is None:
            del registry.counters["sim.test.counter"]
        else:
            registry.counters["sim.test.counter"] = saved


def test_hub_stream_bounded(world, suite):
    saved = world.hub.seq
    world.hub.seq = 10_000
    try:
        assert _violation(suite).name == "hub-stream-bounded"
    finally:
        world.hub.seq = saved


def test_finish_cold_recovers_byte_identical(world):
    """End-of-run: a cold recover_issuer from the WAL must rebuild the
    exact same certificates the live issuer holds."""
    InvariantSuite(world).finish(0)


def test_canary_checker_trips_in_a_healthy_world(world):
    """Canaries are wrong on purpose: 'low-storage' (1 KB budget) fails
    against a bootstrapped two-index client (~1.4 KB)."""
    suite = InvariantSuite(world, canary="low-storage")
    violation = _violation(suite, index=0)
    assert violation.name == "low-storage"



# -- liveness: checked after a quiesce, and only then ---------------------------


def _trip(world):
    breaker = world.fleet[1].client.gateway.replicas["sp1"].breaker
    for _ in range(CircuitBreaker.FAILURE_TRIP):
        breaker.record_failure(world.bus.clock_ms)


def _play(tmp_path, events, prepare=_trip):
    """``events`` on a fresh world (gw2's breaker for sp1 open), checked."""
    world = SimWorld.build(CONFIG, tmp_path)
    prepare(world)
    suite = InvariantSuite(world)
    for index, kind_params in enumerate(events):
        apply_event(world, SimEvent(*kind_params))
        suite.check(index)
    return world, suite


DEGRADE = [("partition", {"slot": 0, "peer": 0}), ("pause_replica", {"idx": 0}),
           ("mine", {"txs": 1}), ("certify", {"upto": 1})]
QUIESCE = ("quiesce", {})


def test_liveness_is_checked_after_a_quiesce_only(tmp_path):
    """``sim-mixed`` never heals its world: a partitioned client, a
    paused replica and an open breaker pass ``check`` and ``finish``,
    and after one ``quiesce`` every liveness invariant holds."""
    world, suite = _play(tmp_path, DEGRADE)
    suite.finish(len(DEGRADE))
    for unlive in (suite._check_caught_up, suite._check_breakers):
        with pytest.raises(AssertionError):
            unlive()
    apply_event(world, SimEvent(*QUIESCE))
    suite.check(len(DEGRADE))
    assert world.quiesces == 1


def _liveness_violation(tmp_path, events, prepare=_trip):
    with pytest.raises(InvariantViolation) as info:
        _play(tmp_path, [*events, QUIESCE], prepare)
    return info.value.name


def _lost_disk():
    raise OSError("the replica's disk is gone")


def test_liveness_supervisors_names_a_replica_that_never_came_back(tmp_path):
    def unrecoverable(world):
        for supervisor in world.replica_supervisors.values():
            supervisor.restore = _lost_disk

    crash = ("crash", {"point": "query.execute.pre", "hit": 1, "cseed": 0,
                       "upto": 2})
    name = _liveness_violation(tmp_path, [crash], unrecoverable)
    assert name == "liveness-supervisors"


def test_liveness_stream_names_a_subscriber_a_tipless_reply_left(
    tmp_path, monkeypatch
):
    reply = SubscriptionHub._reply

    def tipless(hub, name, acked_seq, tip_only):
        tip, hub.tip = hub.tip, None
        try:
            return reply(hub, name, acked_seq, tip_only)
        finally:
            hub.tip = tip

    monkeypatch.setattr(SubscriptionHub, "_reply", tipless)
    events = [("partition", {"slot": 2, "peer": 0}), *DEGRADE[2:]]
    assert _liveness_violation(tmp_path, events) == "liveness-stream"


def test_liveness_tips_names_a_client_left_behind(tmp_path, monkeypatch):
    def stuck(world):
        monkeypatch.setattr(SuperlightClient, "sync", lambda client: None)

    name = _liveness_violation(tmp_path, DEGRADE[2:], stuck)
    assert name == "liveness-tips"


def test_liveness_breakers_names_a_breaker_its_probe_left_open(
    tmp_path, monkeypatch
):
    closes = CircuitBreaker.record_success

    def never_from_half_open(breaker):
        if breaker.state != CircuitBreaker.HALF_OPEN:
            closes(breaker)

    monkeypatch.setattr(CircuitBreaker, "record_success", never_from_half_open)
    assert _liveness_violation(tmp_path, []) == "liveness-breakers"
