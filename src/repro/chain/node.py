"""Full node: validates each block against its tip and the global state.

On each incoming block a full node re-checks everything §2.1 lists:
header linkage, the consensus proof, the transaction root, every
transaction's signature, and — by re-executing the block — the state
root.  A node without an enclave (the miner's peers, the SP) checks all
of it.  The CI in :mod:`repro.core.issuer` builds on this class and
delegates two items to the enclave that is about to verify the block:
its signatures (Alg. 2 line 19) and its post-state root (lines 22-23)
are checked there, once, not here as well.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.executor import ExecutionResult, TransactionExecutor
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.errors import BlockValidationError
from repro.merkle.partial import PartialSMT


class FullNode:
    """Holds the chain tip and the materialized global state; the chain
    itself is the miner's, or the issuer's archive."""

    def __init__(
        self,
        genesis: Block,
        genesis_state: StateStore,
        vm: VM,
        pow_engine: ProofOfWork,
    ) -> None:
        if genesis.header.height != 0:
            raise BlockValidationError("genesis block must have height 0")
        self.tip = genesis
        self.state = genesis_state
        self.executor = TransactionExecutor(vm)
        self.pow = pow_engine

    @property
    def height(self) -> int:
        return self.tip.header.height

    def check_header(self, block: Block) -> None:
        """The O(1) checks: linkage, height, consensus proof, ``H_tx``."""
        header = block.header
        prev = self.tip.header
        if header.height != prev.height + 1:
            raise BlockValidationError(
                f"height {header.height} does not extend tip {prev.height}"
            )
        if header.prev_hash != prev.header_hash():
            raise BlockValidationError("previous-hash linkage broken")
        if not self.pow.check(header):
            raise BlockValidationError("consensus proof (PoW) invalid")
        if not block.check_tx_root():
            raise BlockValidationError("transaction root mismatch")

    def validate_block(self, block: Block) -> ExecutionResult:
        """Validate ``block`` against the current tip without committing.

        Returns the execution result (read/write sets) on success;
        raises :class:`BlockValidationError` otherwise.
        """
        self.check_header(block)
        result = self.executor.execute(self.state, list(block.transactions))
        proven = self.state.prove_many(result.touched_keys())
        self.check_state_root(block, result, proven)
        return result

    def check_state_root(self, block: Block, result: ExecutionResult, proven) -> None:
        """Raise unless ``result``'s writes, replayed on ``proven`` — the
        touched cells' ``(key, pre-state value, proof)`` against the tip's
        state root — reach ``block``'s.  Proofs, not a copy of the whole
        state, so nothing is committed."""
        root = self.state.root
        if proven:
            partial = PartialSMT.from_proofs(root, proven)
            partial.update_batch(result.write_set)
            root = partial.root
        if root != block.header.state_root:
            raise BlockValidationError("state root mismatch after re-execution")

    def commit(self, block: Block, write_set: dict) -> None:
        """Commit a block :meth:`validate_block` accepted.  Nodes never
        reorg: a competing branch is only ever refused (DESIGN.md §8)."""
        self.state.apply_writes(write_set)
        self.tip = block

    def append_block(self, block: Block) -> ExecutionResult:
        """Validate then commit ``block``."""
        result = self.validate_block(block)
        self.commit(block, result.write_set)
        return result
