"""Fork-aware block storage with reorg support.

The paper's chain-selection discussion (Alg. 3 line 8, §4.3) assumes
forks happen; superlight clients handle them by comparing certified
tips.  Full nodes — and therefore CIs and SPs — need more: they must
accept blocks on *any* known parent, track competing branches, and
reorganize their materialized state when a longer branch overtakes the
one they followed.

:class:`ForkAwareNode` does this with undo logs: committing a block
records each written cell's previous value, so rolling back to a fork
point is exact and cheap (no replay from genesis).  A reorg rolls back
to the common ancestor and applies the winning branch's blocks, fully
validating each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.executor import ExecutionResult, TransactionExecutor
from repro.chain.node import predict_root
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.crypto.hashing import Digest
from repro.errors import BlockValidationError


@dataclass(slots=True)
class _StoredBlock:
    block: Block
    parent: Digest
    height: int
    children: list[Digest] = field(default_factory=list)


class ForkAwareNode:
    """A full node that stores all branches and follows the best one.

    The *active* branch's state is materialized in ``self.state``;
    blocks on side branches are validated structurally (linkage, PoW,
    tx root, signatures) on arrival and semantically (state transition)
    when their branch becomes active.
    """

    def __init__(
        self,
        genesis: Block,
        genesis_state: StateStore,
        vm: VM,
        pow_engine: ProofOfWork,
    ) -> None:
        if genesis.header.height != 0:
            raise BlockValidationError("genesis block must have height 0")
        self.state = genesis_state
        self.executor = TransactionExecutor(vm)
        self.pow = pow_engine
        genesis_hash = genesis.header.header_hash()
        self._blocks: dict[Digest, _StoredBlock] = {
            genesis_hash: _StoredBlock(block=genesis, parent=b"", height=0)
        }
        self._genesis_hash = genesis_hash
        self._active: list[Digest] = [genesis_hash]  # genesis..tip hashes
        # Undo log per active block hash: cell -> value before the block.
        self._undo: dict[Digest, dict[bytes, bytes | None]] = {}
        self.reorg_count = 0

    # -- views ---------------------------------------------------------------

    @property
    def tip(self) -> Block:
        return self._blocks[self._active[-1]].block

    @property
    def height(self) -> int:
        return self.tip.header.height

    def knows(self, block_hash: Digest) -> bool:
        return block_hash in self._blocks

    def branch_tips(self) -> list[Block]:
        """Every leaf of the block tree (the active tip included)."""
        return [
            stored.block
            for stored in self._blocks.values()
            if not stored.children
        ]

    # -- ingestion -------------------------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Store ``block`` and follow it if its branch is now best.

        Returns True when the active tip changed (extension or reorg).
        Raises :class:`BlockValidationError` for structurally invalid or
        orphan blocks, and for semantic failures on the active branch.
        """
        block_hash = block.header.header_hash()
        if block_hash in self._blocks:
            return False
        parent_hash = block.header.prev_hash
        parent = self._blocks.get(parent_hash)
        if parent is None:
            raise BlockValidationError("orphan block: unknown parent")
        if block.header.height != parent.height + 1:
            raise BlockValidationError("height does not extend its parent")
        if not self.pow.check(block.header):
            raise BlockValidationError("consensus proof (PoW) invalid")
        if not block.check_tx_root():
            raise BlockValidationError("transaction root mismatch")

        self._blocks[block_hash] = _StoredBlock(
            block=block, parent=parent_hash, height=block.header.height
        )
        parent.children.append(block_hash)

        if parent_hash == self._active[-1]:
            self._extend_active(block_hash)  # plain extension
            return True
        if block.header.height > self.height:
            self._reorg_to(block_hash)
            return True
        return False

    # -- internals ---------------------------------------------------------------

    def _execute_active(self, block: Block) -> ExecutionResult:
        result = self.executor.execute(self.state, list(block.transactions), strict=True)
        predicted = predict_root(self.state, result)
        if predicted != block.header.state_root:
            raise BlockValidationError("state root mismatch after re-execution")
        return result

    def _extend_active(self, block_hash: Digest) -> None:
        block = self._blocks[block_hash].block
        result = self._execute_active(block)
        undo = {
            key: self.state.get_raw(key) for key in result.write_set
        }
        self.state.apply_writes(result.write_set)
        self._undo[block_hash] = undo
        self._active.append(block_hash)

    def _rollback_one(self) -> None:
        block_hash = self._active.pop()
        undo = self._undo.pop(block_hash)
        self.state.apply_writes(undo)

    def _path_from_genesis(self, block_hash: Digest) -> list[Digest]:
        path = []
        cursor = block_hash
        while cursor != self._genesis_hash:
            path.append(cursor)
            cursor = self._blocks[cursor].parent
        path.append(self._genesis_hash)
        path.reverse()
        return path

    def _reorg_to(self, new_tip: Digest) -> None:
        """Switch the active branch to end at ``new_tip``.

        If a block on the winning branch turns out semantically invalid
        (its state transition lies), the reorg is aborted, the invalid
        suffix is discarded, and the original branch is restored.
        """
        old_active = list(self._active)
        target_path = self._path_from_genesis(new_tip)
        # Find the fork point: longest common prefix of the two paths.
        fork_depth = 0
        for ours, theirs in zip(self._active, target_path):
            if ours != theirs:
                break
            fork_depth += 1
        while len(self._active) > fork_depth:
            self._rollback_one()
        try:
            for block_hash in target_path[fork_depth:]:
                self._extend_active(block_hash)
        except BlockValidationError:
            # Discard the poisoned branch and restore the old one.
            bad_suffix = target_path[len(self._active):]
            for block_hash in bad_suffix:
                stored = self._blocks.pop(block_hash, None)
                if stored is not None:
                    parent = self._blocks.get(stored.parent)
                    if parent is not None and block_hash in parent.children:
                        parent.children.remove(block_hash)
            while len(self._active) > fork_depth:
                self._rollback_one()
            for block_hash in old_active[fork_depth:]:
                self._extend_active(block_hash)
            raise
        self.reorg_count += 1
