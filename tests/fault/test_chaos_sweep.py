"""The crash sweep: crash at every sim crashpoint, recover, compare.

Each case is a fresh small :class:`~repro.sim.world.SimWorld` driven
only through :func:`~repro.sim.schedule.apply_event`: six ``mine``
events, one scripted ``crash`` event that certifies them with the
point armed, then a ``quiesce`` (a heartbeat per subscriber, so it
catches up through the hub alone, and a sync per other client, then
the liveness invariants: every client at the certified tip).  Every
invariant is checked after every event and ``finish()`` cold-recovers
the WAL at the end.  On top of that each case asserts that the crash
fired, that the supervisor recovered exactly once (same sealed
``pk_enc``, enforced by ``wal-consistent``), that no push was rejected
and that the certificate bytes equal a no-crash twin's.

One case is ``pytest tests/fault/test_chaos_sweep.py -k <point>``;
randomized crash exploration is the sim itself (``REPRO_SIM_SEED``).
"""

import pytest

from repro.sim import (
    SIM_CRASH_POINTS,
    InvariantSuite,
    SimConfig,
    SimEvent,
    SimWorld,
    apply_event,
)
from repro.sim.invariants import certificate_bytes
from repro.sim.world import KIND_PUSH

pytestmark = pytest.mark.chaos

CONFIG = SimConfig(premine=3, replicas=2, pollers=1, gateway_clients=1,
                   subscribers=1)
BLOCKS = 6

#: Later arrivals that land past a sealed checkpoint, so recovery
#: restores it and replays only the WAL tail.
LATE_HITS = (
    ("wal.append.pre_write", 6),
    ("wal.append.torn_write", 5),
    ("enclave.ecall.post", 20),
    ("durable.append.pre_wal", 6),
)


def _drive(tmp_path, config, crash=None):
    """Run one case; returns the world and the crash event's outcome."""
    world = SimWorld.build(config, tmp_path)
    suite = InvariantSuite(world)
    events = [SimEvent("mine", {"txs": 1})] * BLOCKS
    if crash is None:
        events.append(SimEvent("certify", {"upto": BLOCKS}))
    else:
        point, hit = crash
        events.append(SimEvent(
            "crash", {"point": point, "hit": hit, "cseed": 0, "upto": BLOCKS}
        ))
    events.append(SimEvent("quiesce", {}))
    outcomes = []
    for index, event in enumerate(events):
        outcomes.append(apply_event(world, event))
        suite.check(index)
    suite.finish(len(events))
    return world, outcomes[BLOCKS]


@pytest.fixture(scope="module")
def twin(tmp_path_factory):
    """The no-crash run every case must match byte for byte."""
    world, outcome = _drive(tmp_path_factory.mktemp("twin"), CONFIG)
    assert outcome == f"ok:h{CONFIG.premine + BLOCKS}"
    return certificate_bytes(world.issuer)


def _assert_recovered(world, outcome, twin, point):
    assert outcome.split()[1] == "fired", (
        f"crashpoint {point!r} never fired: {outcome}"
    )
    assert world.recoveries == 1, world.recoveries
    tip = world.certified_height()
    assert tip == CONFIG.premine + BLOCKS
    for entry in world.fleet:
        assert entry.client.push_rejected == 0, entry.name
        held = entry.client.state.indexes
        assert {name: h for name, (h, _root, _cert) in held.items()} == {
            "history": tip, "keyword": tip,
        }, entry.name
    assert certificate_bytes(world.issuer) == twin


@pytest.mark.parametrize("point", SIM_CRASH_POINTS)
def test_crash_at_every_sim_crashpoint_recovers(tmp_path, twin, point):
    world, outcome = _drive(tmp_path, CONFIG, crash=(point, 1))
    _assert_recovered(world, outcome, twin, point)


def test_late_crash_recovers_through_checkpoint(tmp_path, twin):
    """A crash late in the workload recovers from the sealed checkpoint
    with only the WAL tail replayed through the enclave."""
    for point, hit in LATE_HITS:
        case = tmp_path / f"{point}-{hit}"
        case.mkdir()
        world, outcome = _drive(case, CONFIG, crash=(point, hit))
        _assert_recovered(world, outcome, twin, point)
        report = world.issuer.last_recovery
        assert report.checkpoint_used, (point, hit)
        assert report.replayed_blocks <= CONFIG.checkpoint_interval


def test_crash_mid_fanout_leaves_no_partial_delivery_visible(tmp_path, twin):
    """``pubsub.deliver.pre`` on its second arrival kills the hub after
    the first subscriber was sent to: a partial fan-out, after which
    nobody may sit on a forged or half-announced tip."""
    config = SimConfig(premine=3, replicas=2, pollers=1, gateway_clients=1,
                       subscribers=2)
    world, outcome = _drive(
        tmp_path, config, crash=("pubsub.deliver.pre", 2)
    )
    assert sum(e.kind == KIND_PUSH for e in world.fleet) == 2
    _assert_recovered(world, outcome, twin, "pubsub.deliver.pre")
