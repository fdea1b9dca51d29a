"""The chaos sweep: crash at every cataloged point, recover, compare.

Knobs (mirroring ``tests/proptest/framework.py``):

* ``REPRO_CHAOS_SEED=n`` — base seed for the randomized extra cases
  (and the byte-level cut positions of torn writes).
* ``REPRO_CHAOS_CASES=n`` — how many extra randomized (point, hit,
  seed) cases to run on top of the exhaustive hit=1 sweep.
* ``REPRO_CHAOS_REPLAY=point:hit:seed`` — run exactly one case.

Any failure message contains the copy-pasteable replay command.
"""

import os
import random

import pytest

from repro.fault import chaos
from repro.fault.crashpoints import CATALOG

pytestmark = pytest.mark.chaos

DEFAULT_SEED = 0xC4A05
DEFAULT_EXTRA_CASES = 6


def _base_seed() -> int:
    return int(os.environ.get("REPRO_CHAOS_SEED", DEFAULT_SEED))


def _extra_cases() -> int:
    return int(os.environ.get("REPRO_CHAOS_CASES", DEFAULT_EXTRA_CASES))


def _replay_command(point: str, hit: int, seed: int) -> str:
    return (
        f"REPRO_CHAOS_REPLAY={point}:{hit}:{seed} "
        "PYTHONPATH=src python -m pytest tests/fault/test_chaos_sweep.py -q"
    )


@pytest.fixture(scope="module")
def world():
    return chaos.build_world()


@pytest.fixture(scope="module")
def baseline(world, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chaos-baseline")
    durable = chaos.run_baseline(world, tmp)
    return chaos.certificate_bytes(durable.issuer), durable.pk_enc.to_bytes()


def _run(world, tmp_path, baseline, point, hit, seed):
    fingerprint, pk = baseline
    try:
        return chaos.run_case(
            world, tmp_path, fingerprint, pk, point, hit=hit, seed=seed
        )
    except AssertionError as exc:
        raise AssertionError(
            f"chaos case ({point}, hit={hit}, seed={seed}) failed: {exc}\n"
            f"replay just this case with:\n"
            f"  {_replay_command(point, hit, seed)}"
        ) from exc


def test_sweep_every_crashpoint(world, tmp_path, baseline):
    """Exhaustive hit=1 sweep: every cataloged point must crash the
    workload and recover to the byte-identical baseline."""
    replay = os.environ.get("REPRO_CHAOS_REPLAY")
    if replay is not None:
        point, hit, seed = replay.rsplit(":", 2)
        outcome = _run(world, tmp_path, baseline, point, int(hit), int(seed))
        assert outcome.crashed
        return
    seed = _base_seed()
    for point in CATALOG:
        if point.startswith("query."):
            # The query-service points live in the SP serving path, not
            # this certification workload; tests/fault/test_fleet_chaos.py
            # sweeps them against the replica fleet.
            continue
        if point.startswith("pubsub."):
            # The hub points live in the push fan-out path;
            # tests/fault/test_pubsub_chaos.py sweeps them against a
            # subscribed client fleet.
            continue
        outcome = _run(world, tmp_path, baseline, point, 1, seed)
        # hit=1 must actually crash — otherwise the crashpoint is dead
        # instrumentation and the sweep is vacuous.
        assert outcome.crashed, (
            f"crashpoint {point!r} never fired during the chaos workload"
        )


def test_randomized_extra_cases(world, tmp_path, baseline):
    """Seeded random (point, hit, seed) cases reach later arrivals —
    crashes past checkpoints, on any block of the chain."""
    if os.environ.get("REPRO_CHAOS_REPLAY") is not None:
        pytest.skip("replaying a single chaos case")
    rng = random.Random(_base_seed())
    for _ in range(_extra_cases()):
        point = rng.choice(CATALOG)
        hit = rng.randint(1, 12)
        seed = rng.randrange(2**16)
        outcome = _run(world, tmp_path, baseline, point, hit, seed)
        # Late hits may never arrive (workload finished first): then the
        # run completed uncrashed and recovery of the *complete* archive
        # must still be byte-identical — which _run already asserted.
        assert outcome.recovered_height >= 0


def test_late_crash_recovers_through_checkpoint(world, tmp_path, baseline):
    """A crash late in the workload recovers from the sealed checkpoint
    with only the WAL tail replayed through the enclave."""
    if os.environ.get("REPRO_CHAOS_REPLAY") is not None:
        pytest.skip("replaying a single chaos case")
    # The tenth WAL append is the last block's (one record per block).
    outcome = _run(world, tmp_path, baseline, "wal.append.pre_write", 10, 0)
    assert outcome.crashed
    assert outcome.checkpoint_used
    assert outcome.replayed_blocks <= chaos._CHECKPOINT_INTERVAL
