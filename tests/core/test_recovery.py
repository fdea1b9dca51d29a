"""Checkpointed recovery: fast path, O(gap) enclave work, sealed negatives."""

import pytest

from repro.chain.genesis import make_genesis
from repro.core.recovery import DurableIssuer, IssuerCheckpoint, recover_issuer
from repro.errors import ArchiveCorruptionError, EnclaveError
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

SPEC = AccountHistoryIndexSpec(name="history")


def make_durable(kv_chain, tmp_path, *, blocks, checkpoint_interval=0,
                 platform=None, name="ci.wal"):
    ias = AttestationService(seed=b"recovery-ias")
    platform = platform or SGXPlatform(seed=b"recovery-platform")
    genesis, state = make_genesis()
    durable = DurableIssuer.create(
        ChainArchive(tmp_path / name), genesis, state, fresh_vm(),
        kv_chain.pow, index_specs=[SPEC], platform=platform, ias=ias,
        key_seed=b"recovery-enclave", checkpoint_interval=checkpoint_interval,
    )
    for block in kv_chain.blocks[1 : 1 + blocks]:
        durable.process_block(block)
    return durable, platform, ias


def recover(kv_chain, durable, default_platform, ias, **kwargs):
    genesis, state = make_genesis()
    return recover_issuer(
        durable.archive, genesis, state, fresh_vm(), kv_chain.pow,
        index_specs=kwargs.pop("index_specs", [SPEC]),
        platform=kwargs.pop("platform", default_platform), ias=ias, **kwargs,
    )


def test_checkpoint_payload_roundtrip(kv_chain, tmp_path):
    durable, _, _ = make_durable(kv_chain, tmp_path, blocks=3)
    snapshot = IssuerCheckpoint.capture(durable.issuer)
    again = IssuerCheckpoint.from_bytes(snapshot.to_bytes())
    assert again == snapshot
    assert again.height == 3
    assert again.pk_enc == durable.pk_enc.to_bytes().hex()


def test_interval_checkpointing(kv_chain, tmp_path):
    durable, _, _ = make_durable(
        kv_chain, tmp_path, blocks=7, checkpoint_interval=3
    )
    height, _sealed = durable.archive.read_checkpoint()
    assert height == 6  # taken at 3 and re-taken at 6, not yet at 7


def test_checkpoint_fast_path_matches_full_replay(kv_chain, tmp_path):
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=8)
    durable.checkpoint()
    for block in kv_chain.blocks[9:11]:
        durable.process_block(block)

    recovered = recover(kv_chain, durable, platform, ias)
    report = recovered.last_recovery
    assert report.checkpoint_used
    assert report.checkpoint_height == 8
    assert report.replayed_blocks == 2  # only the gap went enclave-side
    assert recovered.node.height == 10
    assert recovered.node.state.root == durable.node.state.root
    assert recovered.index_root("history") == durable.index_root("history")
    assert (
        recovered.latest_certificate.encode()
        == durable.latest_certificate.encode()
    )
    assert (
        recovered.index_certificate("history").encode()
        == durable.index_certificate("history").encode()
    )
    assert [c.block.header.height for c in recovered.certified] == list(
        range(1, 11)
    )


def test_recovery_without_checkpoint_replays_everything(kv_chain, tmp_path):
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=6)
    recovered = recover(kv_chain, durable, platform, ias)
    assert not recovered.last_recovery.checkpoint_used
    assert recovered.last_recovery.replayed_blocks == 6


def test_checkpointed_recovery_enclave_work_is_o_gap(kv_chain, tmp_path):
    """Same gap, different chain lengths -> same per-restart ecall count
    (the acceptance criterion: enclave work independent of history)."""
    ecalls = {}
    for blocks in (4, 8):
        durable, platform, ias = make_durable(
            kv_chain, tmp_path, blocks=blocks, name=f"len{blocks}.wal"
        )
        durable.checkpoint()
        for block in kv_chain.blocks[1 + blocks : 3 + blocks]:
            durable.process_block(block)  # gap of 2 past the checkpoint
        recovered = recover(kv_chain, durable, platform, ias)
        assert recovered.last_recovery.replayed_blocks == 2
        ecalls[blocks] = recovered.enclave.ledger.ecalls
    assert ecalls[4] == ecalls[8]

    # Without a checkpoint the same restores pay O(chain) enclave work.
    full = {}
    for blocks in (4, 8):
        durable, platform, ias = make_durable(
            kv_chain, tmp_path, blocks=blocks, name=f"nockpt{blocks}.wal"
        )
        recovered = recover(kv_chain, durable, platform, ias)
        full[blocks] = recovered.enclave.ledger.ecalls
    assert full[8] > full[4]


# -- sealed negative paths ----------------------------------------------------


def test_restore_on_wrong_platform_fails_cleanly(kv_chain, tmp_path):
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=3)
    durable.checkpoint()
    with pytest.raises(EnclaveError):
        recover(kv_chain, durable, platform, ias,
                platform=SGXPlatform(seed=b"impostor"))


def test_restore_with_modified_measurement_fails_cleanly(kv_chain, tmp_path):
    """A different enclave program (different index specs -> different
    measurement) cannot unseal the archived key, even on the right
    platform — and the failure flows through recover_issuer cleanly."""
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=3)
    genesis, state = make_genesis()
    with pytest.raises(EnclaveError):
        recover_issuer(
            durable.archive, genesis, state, fresh_vm(), kv_chain.pow,
            index_specs=None,  # measurement no longer covers SPEC
            platform=platform, ias=ias,
        )


def test_tampered_checkpoint_rejected_not_replayed(kv_chain, tmp_path):
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=4)
    durable.checkpoint()
    height, sealed = durable.archive.read_checkpoint()
    flipped = bytearray(sealed)
    flipped[len(flipped) // 2] ^= 0x01
    durable.archive.write_checkpoint(height, bytes(flipped))
    with pytest.raises(EnclaveError):  # MAC failure inside the enclave
        recover(kv_chain, durable, platform, ias)


def test_checkpoint_ahead_of_wal_rejected(kv_chain, tmp_path):
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=3)
    durable.checkpoint()
    _height, sealed = durable.archive.read_checkpoint()
    durable.archive.write_checkpoint(99, sealed)
    with pytest.raises(ArchiveCorruptionError):
        recover(kv_chain, durable, platform, ias)


def test_sealed_checkpoint_cannot_pose_as_signing_key(kv_chain, tmp_path):
    """Seal-domain separation: feeding a sealed checkpoint blob where
    the sealed signing key belongs fails, despite a valid MAC."""
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=3)
    durable.checkpoint()
    _height, sealed_checkpoint = durable.archive.read_checkpoint()
    evil = ChainArchive(tmp_path / "confused.wal")
    evil.initialize(sealed_checkpoint)
    genesis, state = make_genesis()
    with pytest.raises(EnclaveError, match="domain"):
        recover_issuer(
            evil, genesis, state, fresh_vm(), kv_chain.pow,
            index_specs=[SPEC], platform=platform, ias=ias,
        )


def test_sealed_key_cannot_pose_as_checkpoint(kv_chain, tmp_path):
    durable, platform, ias = make_durable(kv_chain, tmp_path, blocks=3)
    sealed_key = durable.archive.load().sealed_key
    durable.archive.write_checkpoint(3, sealed_key)
    with pytest.raises(EnclaveError, match="domain"):
        recover(kv_chain, durable, platform, ias)


def test_recovered_issuer_keeps_certifying(kv_chain, tmp_path):
    durable, platform, ias = make_durable(
        kv_chain, tmp_path, blocks=5, checkpoint_interval=2
    )
    recovered = recover(kv_chain, durable, platform, ias,
                        checkpoint_interval=2)
    certified = recovered.process_block(kv_chain.blocks[6])
    assert certified.certificate is not None
    assert recovered.pk_enc == durable.pk_enc
    # The continuation is durable too: a second recovery sees it.
    again = recover(kv_chain, recovered, platform, ias)
    assert again.node.height == 6
