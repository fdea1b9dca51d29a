"""Unit tests for the invariant checkers themselves.

Each test plants one specific inconsistency in an otherwise-healthy
world and asserts the matching checker — and only a checker with the
right name — trips.  The world is module-scoped (building one is the
expensive part); every mutation is reverted.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.sim import (
    PAPER_STORAGE_BUDGET_BYTES,
    InvariantSuite,
    InvariantViolation,
    SimConfig,
    SimWorld,
)
from repro.sim.world import KIND_GATEWAY

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
    inner = entry.client.client
    original = suite._tips.pop(entry.name)  # force re-verification
    saved_state = inner.state
    inner.state = replace(saved_state, header=world.builder.blocks[1].header)
    try:
        assert _violation(suite).name == "no-unverified-adoption"
    finally:
        inner.state = saved_state
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
    from repro.query import HistoryQuery

    ask = HistoryQuery(index="history", account="acct0", t_from=1, t_to=2)
    other = HistoryQuery(index="history", account="acct1", t_from=1, t_to=2)
    world.record_answer(ask, world.oracle.execute(other))
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
        assert not entry.client.client.state.indexes
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
    against any bootstrapped client (~3 KB)."""
    suite = InvariantSuite(world, canary="low-storage")
    violation = _violation(suite, index=0)
    assert violation.name == "low-storage"
