"""Full node: validates and stores the complete chain.

On each incoming block a full node re-checks everything §2.1 lists:
header linkage, the consensus proof, the transaction root, every
transaction's signature, and — by re-executing the block — the state
root.  A node without an enclave (the miner's peers, the SP) checks all
of it.  The CI in :mod:`repro.core.issuer` builds on this class and
delegates one item: the signatures of a block its enclave is about to
verify (Alg. 2 line 19) are checked there, once, not here as well.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.executor import ExecutionResult, TransactionExecutor
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.errors import BlockValidationError


class FullNode:
    """Holds the full chain and the materialized global state."""

    def __init__(
        self,
        genesis: Block,
        genesis_state: StateStore,
        vm: VM,
        pow_engine: ProofOfWork,
    ) -> None:
        if genesis.header.height != 0:
            raise BlockValidationError("genesis block must have height 0")
        self.blocks: list[Block] = [genesis]
        self.state = genesis_state
        self.executor = TransactionExecutor(vm)
        self.pow = pow_engine

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.height

    def validate_block(
        self, block: Block, *, verify_signatures: bool = True
    ) -> ExecutionResult:
        """Validate ``block`` against the current tip without committing.

        Returns the execution result (read/write sets) on success so a
        CI can reuse it; raises :class:`BlockValidationError` otherwise.
        ``verify_signatures=False`` is for the CI alone, whose enclave
        checks them before anything is committed.
        """
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
        result = self.executor.execute(
            self.state, list(block.transactions), verify_signatures=verify_signatures
        )
        # Predict the post-state root without committing: replay the
        # writes on proofs (cheap) rather than copying the whole state.
        predicted = predict_root(self.state, result)
        if predicted != header.state_root:
            raise BlockValidationError("state root mismatch after re-execution")
        return result

    def commit(self, block: Block, write_set: dict) -> None:
        """Commit a block :meth:`validate_block` accepted.  Nodes never
        reorg: a competing branch is only ever refused (DESIGN.md §8)."""
        self.state.apply_writes(write_set)
        self.blocks.append(block)

    def append_block(self, block: Block) -> ExecutionResult:
        """Validate then commit ``block``."""
        result = self.validate_block(block)
        self.commit(block, result.write_set)
        return result


def predict_root(state: StateStore, result: ExecutionResult) -> bytes:
    """The state root after ``result``'s writes, without committing them.
    The touched cells are proven once, here, and the entries kept on
    ``result.pre_state``: they are the update proof a CI ships."""
    from repro.merkle.partial import PartialSMT

    touched = result.touched_keys()
    if not touched:
        return state.root
    result.pre_state = tuple(state.prove_many(touched))
    partial = PartialSMT.from_proofs(state.root, result.pre_state)
    partial.update_batch(result.write_set)
    return partial.root
