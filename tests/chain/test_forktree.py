"""Fork-aware node: branch tracking, reorgs, undo correctness."""

import pytest

from repro.chain.builder import ChainBuilder
from repro.chain.forktree import ForkAwareNode
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.crypto import generate_keypair
from repro.errors import BlockValidationError
from tests.conftest import fresh_vm


KEYPAIR = generate_keypair(b"fork-node-tests")


def make_branches(common=3, a_extra=2, b_extra=4):
    """Two ChainBuilders sharing a ``common`` prefix, then diverging."""
    nonce = [0]

    def kv(key, value):
        tx = sign_transaction(KEYPAIR.private, nonce[0], "kvstore", "put", (key, value))
        nonce[0] += 1
        return tx

    branch_a = ChainBuilder(difficulty_bits=4, network="forktree")
    for height in range(1, common + 1):
        branch_a.add_block([kv(f"common{height}", "x")])
    branch_b = ChainBuilder(difficulty_bits=4, network="forktree")
    for block in branch_a.blocks[1:]:
        branch_b.blocks.append(block)
        result = branch_b.miner.executor.execute(
            branch_b.state, list(block.transactions), strict=True
        )
        branch_b.state.apply_writes(result.write_set)
        branch_b.results.append(result)
    for height in range(a_extra):
        branch_a.add_block([kv(f"a{height}", "a")])
    for height in range(b_extra):
        branch_b.add_block([kv(f"b{height}", "b"), kv(f"shared", f"b{height}")])
    return branch_a, branch_b


@pytest.fixture()
def node():
    genesis, state = make_genesis(network="forktree")
    return ForkAwareNode(
        genesis, state, fresh_vm(), ChainBuilder(difficulty_bits=4).pow
    )


def test_linear_extension(node):
    branch_a, _ = make_branches()
    for block in branch_a.blocks[1:]:
        assert node.add_block(block)
    assert node.height == branch_a.height
    assert node.state.root == branch_a.state.root


def test_duplicate_block_ignored(node):
    branch_a, _ = make_branches()
    node.add_block(branch_a.blocks[1])
    assert node.add_block(branch_a.blocks[1]) is False


def test_orphan_rejected(node):
    branch_a, _ = make_branches()
    with pytest.raises(BlockValidationError):
        node.add_block(branch_a.blocks[3])


def test_shorter_side_branch_stored_but_not_followed(node):
    branch_a, branch_b = make_branches(common=3, a_extra=4, b_extra=2)
    for block in branch_a.blocks[1:]:
        node.add_block(block)
    tip_before = node.tip.block_hash()
    changed = False
    for block in branch_b.blocks[4:]:
        changed |= node.add_block(block)
    assert not changed
    assert node.tip.block_hash() == tip_before
    assert node.state.root == branch_a.state.root
    assert len(node.branch_tips()) == 2


def test_reorg_to_longer_branch(node):
    branch_a, branch_b = make_branches(common=3, a_extra=2, b_extra=4)
    for block in branch_a.blocks[1:]:
        node.add_block(block)
    assert node.state.root == branch_a.state.root
    # Branch B arrives; it overtakes at its 3rd extra block (height 6).
    for block in branch_b.blocks[4:]:
        node.add_block(block)
    assert node.height == branch_b.height
    assert node.state.root == branch_b.state.root
    assert node.reorg_count >= 1
    assert list(node._active) == [
        b.block_hash() for b in branch_b.blocks
    ]


def test_reorg_back_and_forth(node):
    branch_a, branch_b = make_branches(common=2, a_extra=3, b_extra=4)
    for block in branch_a.blocks[1:]:
        node.add_block(block)
    for block in branch_b.blocks[3:]:
        node.add_block(block)
    assert node.state.root == branch_b.state.root
    # Branch A grows past B again.
    nonce = 9000

    def kv(key, value):
        nonlocal nonce
        tx = sign_transaction(KEYPAIR.private, nonce, "kvstore", "put", (key, value))
        nonce += 1
        return tx

    for height in range(3):
        branch_a.add_block([kv(f"late{height}", "a")])
        node.add_block(branch_a.blocks[-1])
    assert node.height == branch_a.height
    assert node.state.root == branch_a.state.root
    assert node.reorg_count >= 2


def test_undo_restores_deleted_and_fresh_cells(node):
    """Reorg across blocks that create and delete cells must restore
    state exactly (undo values include absences)."""
    nonce = [0]

    def tx(method, args):
        built = sign_transaction(KEYPAIR.private, nonce[0], "kvstore", method, args)
        nonce[0] += 1
        return built

    base = ChainBuilder(difficulty_bits=4, network="forktree")
    base.add_block([tx("put", ("cell", "original"))])
    node.add_block(base.blocks[1])

    # Branch A: delete the cell.  Branch B (longer): overwrite it twice.
    branch_a = base
    branch_a.add_block([tx("delete", ("cell",))])
    node.add_block(branch_a.blocks[2])
    assert node.state.get("kvstore", "kv:cell") is None

    branch_b = ChainBuilder(difficulty_bits=4, network="forktree")
    for block in base.blocks[1:2]:
        branch_b.blocks.append(block)
        result = branch_b.miner.executor.execute(
            branch_b.state, list(block.transactions), strict=True
        )
        branch_b.state.apply_writes(result.write_set)
    branch_b.add_block([tx("put", ("cell", "b1"))])
    branch_b.add_block([tx("put", ("cell", "b2"))])
    node.add_block(branch_b.blocks[2])
    node.add_block(branch_b.blocks[3])
    assert node.state.get("kvstore", "kv:cell") == b"b2"
    assert node.state.root == branch_b.state.root


def test_poisoned_branch_aborts_reorg(node):
    """A longer branch whose tip lies about its state root must not
    leave the node on a half-applied branch."""
    from dataclasses import replace

    from repro.chain.block import Block

    branch_a, branch_b = make_branches(common=2, a_extra=2, b_extra=3)
    for block in branch_a.blocks[1:]:
        node.add_block(block)  # node follows A, height 4
    # Corrupt branch B's height-5 tip: valid PoW + tx root, forged
    # state root — the overtaking block that forces a reorg attempt.
    good = branch_b.blocks[-1]
    forged_template = replace(good.header, state_root=bytes(32), nonce=0)
    forged = Block(
        header=branch_b.pow.solve(forged_template),
        transactions=good.transactions,
    )
    node.add_block(branch_b.blocks[3])  # height 3 side block: stored
    node.add_block(branch_b.blocks[4])  # height 4 side block: stored
    with pytest.raises(BlockValidationError):
        node.add_block(forged)
    # Node stays on (or returns to) the honest branch A.
    assert node.state.root == branch_a.state.root
    assert node.height == branch_a.height
    assert not node.knows(forged.header.header_hash())


def test_branch_tips_enumeration(node):
    branch_a, branch_b = make_branches(common=2, a_extra=1, b_extra=1)
    for block in branch_a.blocks[1:]:
        node.add_block(block)
    for block in branch_b.blocks[3:]:
        node.add_block(block)
    tips = {tip.block_hash() for tip in node.branch_tips()}
    assert branch_a.tip.block_hash() in tips
    assert branch_b.tip.block_hash() in tips
