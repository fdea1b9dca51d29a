"""The issuer's certified history: a bounded window over the WAL.

An archive-backed issuer keeps its newest ``HISTORY_WINDOW`` certified
blocks in memory and reads older ones back from the archive; length,
indexing, slicing and iteration still cover the whole chain, with the
same bytes.  Live and recovered, the number of ``CertifiedBlock`` and
``Block`` objects alive does not grow with the chain.
"""

from __future__ import annotations

import gc
import zlib
from types import SimpleNamespace

import pytest

from repro import storage
from repro.chain.block import Block, decode_block, encode_block
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.issuer import (
    HISTORY_WINDOW,
    CertificateIssuer,
    CertifiedBlock,
    IssuerService,
)
from repro.core.recovery import DurableIssuer, recover_issuer
from repro.crypto import generate_keypair
from repro.net import MessageBus, RpcClient
from repro.query.indexes import AccountHistoryIndexSpec
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SGXPlatform
from repro.storage import ChainArchive
from tests.conftest import fresh_vm

NETWORK = "history-window"
LENGTHS = (40, 200)
#: Besides the window (the node's tip is the window's newest block): a
#: few objects in flight, e.g. the block being certified.
SLACK = 4
_USER = generate_keypair(b"history-window-user")
_IAS = AttestationService(seed=b"history-window-ias")
_PLATFORM = SGXPlatform(seed=b"history-window-platform")
_SPECS = [AccountHistoryIndexSpec(name="history")]


@pytest.fixture(scope="module")
def chain() -> ChainBuilder:
    builder = ChainBuilder(difficulty_bits=4, network=NETWORK)
    for nonce in range(max(LENGTHS)):
        builder.add_block([sign_transaction(
            _USER.private, nonce, "kvstore", "put",
            (f"k{nonce % 5}", f"v{nonce}"),
        )])
    return builder


def durable_issuer(chain, path, blocks: int) -> tuple[DurableIssuer, list]:
    """A durable issuer that certified ``blocks`` blocks, and the
    encoded certificates it issued, in height order."""
    genesis, state = make_genesis(network=NETWORK)
    durable = DurableIssuer.create(
        ChainArchive(path), genesis, state, fresh_vm(), chain.pow,
        index_specs=_SPECS, platform=_PLATFORM, ias=_IAS,
        key_seed=b"history-window-enclave", checkpoint_interval=16,
    )
    issued = []
    for block in chain.blocks[1 : 1 + blocks]:
        # A copy, as a block arrives off the wire: only the issuer holds it.
        certified = durable.process_block(decode_block(encode_block(block)))
        issued.append(encoded(certified))
    return durable, issued


def recover(chain, path) -> DurableIssuer:
    genesis, state = make_genesis(network=NETWORK)
    return recover_issuer(
        ChainArchive(path), genesis, state, fresh_vm(), chain.pow,
        index_specs=_SPECS, platform=_PLATFORM, ias=_IAS,
        checkpoint_interval=16,
    )


def encoded(certified) -> tuple[bytes, tuple[bytes, ...]]:
    return (
        certified.certificate.encode(),
        tuple(
            certified.index_certificates[name].encode()
            for name in sorted(certified.index_certificates)
        ),
    )


def alive(chain) -> dict[type, int]:
    """``CertifiedBlock`` and ``Block`` objects alive, the miner's own
    blocks not counted."""
    gc.collect()
    mined = {id(block) for block in chain.blocks}
    counts = {CertifiedBlock: 0, Block: 0}
    for obj in gc.get_objects():
        kind = type(obj)
        if kind in counts and id(obj) not in mined:
            counts[kind] += 1
    return counts


@pytest.mark.parametrize("blocks", LENGTHS)
def test_live_issuer_holds_a_window_not_the_chain(chain, tmp_path, blocks):
    before = alive(chain)
    durable, _ = durable_issuer(chain, tmp_path / "live.wal", blocks)
    after = alive(chain)
    assert len(durable.certified) == blocks
    assert durable.node.height == blocks
    for kind in (CertifiedBlock, Block):
        held = after[kind] - before[kind]
        assert held <= min(blocks, HISTORY_WINDOW) + SLACK, (kind, held)


@pytest.mark.parametrize("blocks", LENGTHS)
def test_recovered_issuer_holds_a_window_not_the_chain(chain, tmp_path, blocks):
    path = tmp_path / "recovered.wal"
    durable, issued = durable_issuer(chain, path, blocks)
    del durable
    before = alive(chain)
    recovered = recover(chain, path)
    after = alive(chain)
    assert recovered.last_recovery.checkpoint_used
    assert len(recovered.certified) == blocks
    for kind in (CertifiedBlock, Block):
        held = after[kind] - before[kind]
        assert held <= min(blocks, HISTORY_WINDOW) + SLACK, (kind, held)
    # The whole chain still reads back, byte-identical to what was issued.
    assert [encoded(certified) for certified in recovered.certified] == issued


def test_reads_older_than_the_window_are_the_issued_bytes(chain, tmp_path):
    blocks = max(LENGTHS)
    durable, issued = durable_issuer(chain, tmp_path / "served.wal", blocks)
    history = durable.certified
    old = blocks - HISTORY_WINDOW - 10  # a height the window dropped
    assert old >= 1 and len(history._recent) == HISTORY_WINDOW

    assert [encoded(certified) for certified in history] == issued
    assert encoded(history[old - 1]) == issued[old - 1]
    assert encoded(history[-blocks]) == issued[0]
    assert [encoded(c) for c in history[old - 3 : old + HISTORY_WINDOW]] == (
        issued[old - 3 : old + HISTORY_WINDOW]
    )
    with pytest.raises(ValueError):
        history[old + 5 : old - 6 : -3]  # only forward walks are served
    with pytest.raises(IndexError):
        history[blocks]

    bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", durable)
    client = RpcClient(bus, "auditor")
    tip = client.call("ci", "tip_at", old)
    assert tip.header == chain.blocks[old].header
    assert (tip.certificate.encode(), tuple(
        tip.index_certificates[name].encode()
        for name in sorted(tip.index_certificates)
    )) == issued[old - 1]

    # A resubmitted old run is answered from the archive, not re-certified.
    ecalls = durable.enclave.ledger.ecalls
    run = chain.blocks[old : old + 3]
    again = client.call("ci", "certify_range", run)
    assert [encoded(certified) for certified in again] == issued[old - 1 : old + 2]
    assert durable.enclave.ledger.ecalls == ecalls
    assert durable.node.height == blocks


def test_an_old_height_is_one_frame_read(chain, tmp_path, monkeypatch):
    blocks = max(LENGTHS)
    durable, issued = durable_issuer(chain, tmp_path / "seek.wal", blocks)
    frames = []
    monkeypatch.setattr(
        storage, "zlib",
        SimpleNamespace(crc32=lambda data: frames.append(data) or zlib.crc32(data)),
    )
    bus = MessageBus(default_latency_ms=5.0)
    IssuerService(bus, "ci", durable)
    client = RpcClient(bus, "auditor")
    for height in (1, blocks // 2, blocks - HISTORY_WINDOW):
        frames.clear()
        tip = client.call("ci", "tip_at", height)
        assert tip.certificate.encode() == issued[height - 1][0]
        assert len(frames) == 1, height  # sought, not read up to
    frames.clear()
    client.call("ci", "certify_range", chain.blocks[1:6])
    assert len(frames) == 5


def test_dropped_entries_lack_augmented_certificates(chain, tmp_path):
    # The WAL does not store augmented certificates, so entries read back
    # from it have none; the window still holds them as issued.
    genesis, state = make_genesis(network=NETWORK)
    durable = DurableIssuer.create(
        ChainArchive(tmp_path / "augmented.wal"), genesis, state, fresh_vm(),
        chain.pow, index_specs=_SPECS, platform=_PLATFORM, ias=_IAS,
        key_seed=b"history-window-enclave", checkpoint_interval=16,
    )
    blocks = HISTORY_WINDOW + 6
    for block in chain.blocks[1 : 1 + blocks]:
        durable.process_block(block, schemes=("hierarchical", "augmented"))
    history = durable.certified
    assert all(entry.augmented_certificates for entry in history[-HISTORY_WINDOW:])
    assert not any(entry.augmented_certificates for entry in history[:6])
    assert all(entry.certificate is not None for entry in history[:6])


def test_an_issuer_without_an_archive_keeps_every_entry(chain):
    genesis, state = make_genesis(network=NETWORK)
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), chain.pow, index_specs=_SPECS,
        platform=_PLATFORM, ias=_IAS, key_seed=b"history-window-enclave",
    )
    blocks = HISTORY_WINDOW + 6
    issued = [
        issuer.process_block(block) for block in chain.blocks[1 : 1 + blocks]
    ]
    assert issuer.certified.archive is None
    assert len(issuer.certified._recent) == blocks
    assert all(a is b for a, b in zip(issuer.certified, issued))
