"""The chaos harness: sweep every crashpoint, assert recovery invariants.

For each cataloged crashpoint the harness certifies a fixed chain
through a :class:`~repro.core.recovery.DurableIssuer`, crashes it at the
armed point, recovers from the archive, finishes the workload, and checks —
against a no-crash baseline run under the same deterministic identity
(same platform seed, same enclave key seed, same IAS) — that:

* the recovered chain's certificates are **byte-identical** to the
  baseline's at every height (so no certificate was ever double-issued
  with diverging bytes);
* ``pk_enc`` is unchanged across the crash (sealed key survived);
* a superlight client bootstrapped from published sources accepts the
  final tip and an index certificate — it never sees an invalid answer
  because of the crash.

Determinism: a case is fully described by ``(point, hit, seed)``; the
pytest sweep (``tests/fault/test_chaos_sweep.py``) prints a replay
command for any failure, mirroring ``tests/proptest/framework.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.chain import ChainBuilder
from repro.chain.block import Block
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.chain.vm import VM
from repro.contracts import fresh_vm
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.core.superlight import SuperlightClient, compute_expected_measurement
from repro.crypto import generate_keypair
from repro.fault.crashpoints import SimulatedCrash, crash_armed
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform

_NETWORK = "chaos"
_CHECKPOINT_INTERVAL = 4


@dataclass(slots=True)
class ChaosWorld:
    """The deterministic fixtures every chaos case shares."""

    blocks: list[Block]
    vm: VM
    pow_engine: object
    ias: AttestationService
    spec: AccountHistoryIndexSpec


@dataclass(slots=True)
class ChaosOutcome:
    """What one chaos case observed (asserted on by the sweep test)."""

    point: str
    crashed: bool
    recovered_height: int
    replayed_blocks: int
    checkpoint_used: bool


def build_world(num_blocks: int = 10, block_size: int = 2) -> ChaosWorld:
    """Mine the deterministic chaos chain (PoW search is deterministic
    for fixed transactions, so every case sees identical blocks)."""
    user = generate_keypair(b"chaos-user")
    builder = ChainBuilder(difficulty_bits=4, network=_NETWORK)
    nonce = 0
    for _ in range(num_blocks):
        txs = []
        for _ in range(block_size):
            txs.append(
                sign_transaction(
                    user.private, nonce, "kvstore", "put",
                    (f"acct{nonce % 3}", f"value-{nonce}"),
                )
            )
            nonce += 1
        builder.add_block(txs)
    return ChaosWorld(
        blocks=list(builder.blocks[1:]),
        vm=fresh_vm(),
        pow_engine=builder.pow,
        ias=AttestationService(seed=b"chaos-ias"),
        spec=AccountHistoryIndexSpec(name="history"),
    )


def _durable(
    world: ChaosWorld, archive_path: Path, *, recover: bool = False
) -> DurableIssuer:
    """Provision a fresh durable issuer on ``archive_path`` — or recover
    the one archived there — under the one deterministic identity every
    case and the baseline share."""
    from repro.storage import ChainArchive

    genesis, state = make_genesis(network=_NETWORK)
    identity = dict(
        index_specs=[world.spec],
        platform=SGXPlatform(seed=b"chaos-platform"),
        ias=world.ias,
        checkpoint_interval=_CHECKPOINT_INTERVAL,
    )
    if not recover:
        # Recovery unseals the archived key instead of deriving one.
        identity["key_seed"] = b"chaos-enclave"
    return (recover_issuer if recover else DurableIssuer.create)(
        ChainArchive(archive_path),
        genesis,
        state,
        world.vm,
        world.pow_engine,
        **identity,
    )


def _run_workload(durable: DurableIssuer, blocks: list[Block]) -> None:
    """Certify every block past the issuer's tip, durably."""
    for block in blocks:
        if block.header.height > durable.issuer.node.height:
            durable.process_block(block)


def certificate_bytes(issuer) -> dict[int, tuple[bytes, tuple[bytes, ...]]]:
    """Per-height (block cert bytes, sorted index cert bytes) — the
    byte-identity fingerprint the invariants compare."""
    fingerprint: dict[int, tuple[bytes, tuple[bytes, ...]]] = {}
    for certified in issuer.certified:
        fingerprint[certified.block.header.height] = (
            certified.certificate.encode()
            if certified.certificate is not None
            else b"",
            tuple(
                certified.index_certificates[name].encode()
                for name in sorted(certified.index_certificates)
            ),
        )
    return fingerprint


def run_baseline(world: ChaosWorld, tmp_path: Path):
    """The no-crash run: same workload, same identity, no schedule."""
    durable = _durable(world, tmp_path / "baseline.wal")
    _run_workload(durable, world.blocks)
    return durable


def _verify_with_superlight(world: ChaosWorld, issuer) -> None:
    genesis_digest = issuer.node.blocks[0].header.header_hash()
    measurement = compute_expected_measurement(
        genesis_digest,
        world.ias.public_key,
        world.vm,
        world.pow_engine.difficulty_bits,
        {world.spec.name: world.spec},
    )
    client = SuperlightClient(measurement, world.ias.public_key)
    client.adopt(issuer.certified[-1])


def run_case(
    world: ChaosWorld,
    tmp_path: Path,
    baseline: dict[int, tuple[bytes, tuple[bytes, ...]]],
    baseline_pk: bytes,
    point: str,
    *,
    hit: int = 1,
    seed: int = 0,
) -> ChaosOutcome:
    """One chaos case: crash at ``(point, hit, seed)``, recover, finish,
    and assert the recovery invariants against the baseline."""
    archive_path = tmp_path / f"case-{point.replace('.', '_')}-{hit}-{seed}.wal"
    # Provision before arming: crash-during-provisioning has no archive
    # head yet, so there is nothing to recover — out of scope.
    durable = _durable(world, archive_path)
    crashed = False
    with crash_armed(point, hit=hit, seed=seed) as schedule:
        try:
            _run_workload(durable, world.blocks)
        except SimulatedCrash:
            crashed = True
    assert crashed == schedule.fired

    # The 'process' is gone; recover from disk alone.
    recovered = _durable(world, archive_path, recover=True)
    report = recovered.last_recovery
    recovered_height = recovered.issuer.node.height

    # Finish the workload from the recovered tip.
    _run_workload(recovered, world.blocks)

    # Invariant: same pk_enc across the crash (sealed key survived).
    assert recovered.pk_enc.to_bytes() == baseline_pk, point
    # Invariant: every certificate byte-identical to the no-crash run —
    # in memory and in the durable archive (no diverging double-issue).
    assert certificate_bytes(recovered.issuer) == baseline, point
    reloaded = recovered.archive.load()
    for entry in reloaded.entries:
        base_cert, base_index = baseline[entry.block.header.height]
        archived_cert = (
            entry.certificate.encode() if entry.certificate is not None else b""
        )
        assert archived_cert == base_cert, point
        assert (
            tuple(
                entry.index_certificates[name].encode()
                for name in sorted(entry.index_certificates)
            )
            == base_index
        ), point
    # Invariant: a bootstrapping superlight client accepts the tip.
    _verify_with_superlight(world, recovered.issuer)

    return ChaosOutcome(
        point=point,
        crashed=crashed,
        recovered_height=recovered_height,
        replayed_blocks=report.replayed_blocks if report else 0,
        checkpoint_used=report.checkpoint_used if report else False,
    )
