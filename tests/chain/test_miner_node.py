"""Miner block production and full-node validation."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.node import FullNode
from repro.chain.transaction import sign_transaction
from repro.contracts import fresh_vm
from repro.crypto import generate_keypair
from repro.errors import BlockValidationError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(b"node-tests")


def fresh_node(pow_engine):
    genesis, state = make_genesis()
    return FullNode(genesis, state, fresh_vm(), pow_engine)


def kv_tx(keypair, nonce):
    return sign_transaction(
        keypair.private, nonce, "kvstore", "put", (f"k{nonce}", f"v{nonce}")
    )


@pytest.fixture()
def builder(keypair):
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for _ in range(5):
        builder.add_block([kv_tx(keypair, nonce), kv_tx(keypair, nonce + 1)])
        nonce += 2
    return builder


def test_mined_blocks_are_valid_pow(builder):
    for block in builder.blocks[1:]:
        assert builder.pow.check(block.header)
        assert block.check_tx_root()


def test_full_node_replays_chain(builder):
    node = fresh_node(builder.pow)
    for block in builder.blocks[1:]:
        node.append_block(block)
    assert node.height == builder.height
    assert node.state.root == builder.state.root


def test_node_rejects_height_gap(builder):
    node = fresh_node(builder.pow)
    with pytest.raises(BlockValidationError):
        node.append_block(builder.blocks[2])  # skipping block 1


def test_node_rejects_broken_linkage(builder):
    node = fresh_node(builder.pow)
    block = builder.blocks[1]
    broken = Block(
        header=BlockHeader(
            height=1,
            prev_hash=bytes(32),
            nonce=block.header.nonce,
            difficulty_bits=block.header.difficulty_bits,
            state_root=block.header.state_root,
            tx_root=block.header.tx_root,
            timestamp=block.header.timestamp,
        ),
        transactions=block.transactions,
    )
    with pytest.raises(BlockValidationError):
        node.append_block(broken)


def test_node_rejects_tampered_transactions(builder):
    node = fresh_node(builder.pow)
    block = builder.blocks[1]
    tampered = Block(header=block.header, transactions=block.transactions[:-1])
    with pytest.raises(BlockValidationError):
        node.append_block(tampered)


def test_node_rejects_wrong_state_root(builder, keypair):
    node = fresh_node(builder.pow)
    block = builder.blocks[1]
    # Re-mine block 1 with a forged state root but valid PoW/tx root.
    forged_template = BlockHeader(
        height=1,
        prev_hash=block.header.prev_hash,
        nonce=0,
        difficulty_bits=builder.pow.difficulty_bits,
        state_root=bytes(32),
        tx_root=block.header.tx_root,
        timestamp=block.header.timestamp,
    )
    forged_header = builder.pow.solve(forged_template)
    with pytest.raises(BlockValidationError):
        node.append_block(Block(header=forged_header, transactions=block.transactions))


def test_node_validate_does_not_commit(builder):
    node = fresh_node(builder.pow)
    node.validate_block(builder.blocks[1])
    assert node.height == 0


def test_genesis_height_enforced(builder):
    genesis, state = make_genesis()
    bad = Block(header=builder.blocks[1].header, transactions=())
    with pytest.raises(BlockValidationError):
        FullNode(bad, state, fresh_vm(), builder.pow)


def test_miner_filters_invalid_candidates(keypair):
    builder = ChainBuilder(difficulty_bits=4)
    bad = sign_transaction(
        keypair.private, 0, "smallbank", "deposit_checking", ("ghost", "1")
    )
    good = kv_tx(keypair, 1)
    block, result = builder.add_block([bad, good])
    assert len(block.transactions) == 1
    assert len(result.rejected) == 1


def test_empty_block_keeps_state_root(keypair):
    builder = ChainBuilder(difficulty_bits=4)
    builder.add_block([kv_tx(keypair, 0)])
    root = builder.state.root
    block, _ = builder.add_block([])
    assert block.header.state_root == root
    node = fresh_node(builder.pow)
    for blk in builder.blocks[1:]:
        node.append_block(blk)
