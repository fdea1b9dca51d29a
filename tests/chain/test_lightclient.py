"""The traditional light client baseline."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.lightclient import LightClient
from repro.errors import BlockValidationError


@pytest.fixture()
def client(kv_chain):
    return LightClient(kv_chain.genesis.header, kv_chain.pow)


def test_bootstrap_full_chain(client, kv_chain):
    client.bootstrap(kv_chain.headers()[1:])
    assert client.tip.height == kv_chain.height
    assert len(client.headers) == kv_chain.height + 1


def test_storage_grows_linearly(client, kv_chain):
    sizes = []
    for header in kv_chain.headers()[1:]:
        client.sync_header(header)
        sizes.append(client.storage_bytes())
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    assert all(delta > 0 for delta in deltas)


def test_rejects_height_gap(client, kv_chain):
    with pytest.raises(BlockValidationError):
        client.sync_header(kv_chain.headers()[2])


def test_rejects_broken_linkage(client, kv_chain):
    good = kv_chain.headers()[1]
    broken = BlockHeader(
        height=1,
        prev_hash=bytes(32),
        nonce=good.nonce,
        difficulty_bits=good.difficulty_bits,
        state_root=good.state_root,
        tx_root=good.tx_root,
        timestamp=good.timestamp,
    )
    with pytest.raises(BlockValidationError):
        client.sync_header(broken)


def test_rejects_invalid_pow(client, kv_chain):
    good = kv_chain.headers()[1]
    candidates = (
        BlockHeader(1, good.prev_hash, nonce, good.difficulty_bits,
                    good.state_root, good.tx_root, good.timestamp)
        for nonce in range(10_000)
    )
    bad = next(c for c in candidates if not kv_chain.pow.check(c))
    with pytest.raises(BlockValidationError):
        client.sync_header(bad)


def test_genesis_height_enforced(kv_chain):
    with pytest.raises(BlockValidationError):
        LightClient(kv_chain.headers()[1], kv_chain.pow)
