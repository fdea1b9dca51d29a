"""ChainBuilder: a convenience harness that assembles whole chains.

Tests, examples, and the benchmark workload generators all need "a
chain of N blocks running workload W".  ChainBuilder wires a VM with
the Blockbench contracts, a miner, and a full state together and exposes
a compact API for growing the chain block by block.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.executor import ExecutionResult
from repro.chain.genesis import make_genesis
from repro.chain.miner import Miner
from repro.chain.state import StateStore
from repro.chain.transaction import Transaction
from repro.chain.vm import VM, Contract

# The module, not its names: the contracts subclass repro.chain.vm, so
# either package may be the one still importing when this line runs.
import repro.contracts


class ChainBuilder:
    """Owns a VM + miner + state and grows a chain deterministically."""

    def __init__(
        self,
        *,
        difficulty_bits: int = 4,
        state_depth: int = 64,
        network: str = "repro-net",
        contracts: Iterable[Contract] | None = None,
    ) -> None:
        self.vm = VM()
        deployed = (
            list(contracts)
            if contracts is not None
            else [factory() for factory in repro.contracts.BLOCKBENCH.values()]
        )
        for contract in deployed:
            self.vm.deploy(contract)
        self.pow = ProofOfWork(difficulty_bits)
        self.miner = Miner(self.vm, self.pow)
        genesis, state = make_genesis(network=network, state_depth=state_depth)
        self.genesis = genesis
        self.state: StateStore = state
        self.blocks: list[Block] = [genesis]
        self.results: list[ExecutionResult | None] = [None]

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.height

    def add_block(
        self, transactions: list[Transaction], *, verify_signatures: bool = True
    ) -> tuple[Block, ExecutionResult]:
        """Mine one block containing ``transactions`` and append it."""
        block, result = self.miner.make_block(
            self.tip.header,
            self.state,
            transactions,
            verify_signatures=verify_signatures,
        )
        self.blocks.append(block)
        self.results.append(result)
        return block, result

    def grow(
        self,
        num_blocks: int,
        tx_factory: Callable[[int], list[Transaction]],
        *,
        verify_signatures: bool = True,
    ) -> None:
        """Mine ``num_blocks`` blocks; ``tx_factory(height)`` supplies txs."""
        for _ in range(num_blocks):
            self.add_block(
                tx_factory(self.height + 1), verify_signatures=verify_signatures
            )

    def headers(self) -> list:
        return [block.header for block in self.blocks]
