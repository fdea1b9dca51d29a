"""Transaction execution with read/write-set tracking.

The executor is shared by three parties with different trust stances:

* the **miner**, which executes candidate transactions to build a block
  (invalid ones are filtered out),
* the **full node / CI**, which re-executes a received block strictly
  (any invalid transaction rejects the whole block; the CI host leaves
  the signatures of a block to the enclave that is about to check them), and
* the **enclave program**, which replays the block against a *partial*
  state reconstructed from Merkle proofs (Alg. 2, lines 18-21) — reads
  outside the proven slice raise, which is how incomplete update proofs
  are caught.

The block-level read set contains pre-state values only (later reads of
a cell written earlier in the same block hit the write buffer), matching
what the update proof must cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.state import BackingState, TrackedView
from repro.chain.transaction import Transaction
from repro.chain.vm import VM
from repro.errors import BlockValidationError, TransactionError


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of executing a transaction batch."""

    read_set: dict[bytes, bytes | None] = field(default_factory=dict)
    write_set: dict[bytes, bytes | None] = field(default_factory=dict)
    executed: list[Transaction] = field(default_factory=list)
    rejected: list[tuple[Transaction, str]] = field(default_factory=list)
    #: ``(key, pre-state value, SMT proof)`` per touched key, in key order
    #: (:func:`repro.chain.node.predict_root` proves them, once).
    pre_state: tuple = ()

    def touched_keys(self) -> list[bytes]:
        """Keys whose SMT paths an update proof must cover."""
        return sorted(set(self.read_set) | set(self.write_set))


class TransactionExecutor:
    """Deterministic batch executor over a VM."""

    def __init__(self, vm: VM) -> None:
        self.vm = vm

    def execute(
        self,
        backing: BackingState,
        transactions: list[Transaction],
        *,
        strict: bool = True,
        verify_signatures: bool = True,
    ) -> ExecutionResult:
        """Execute ``transactions`` against the pre-state ``backing``.

        ``strict=True`` (validator / enclave mode) raises on the first
        invalid transaction; ``strict=False`` (miner mode) filters
        invalid transactions into ``result.rejected`` instead.
        """
        block_view = TrackedView(backing)
        result = ExecutionResult()
        for tx in transactions:
            if verify_signatures and not tx.verify_signature():
                self._reject(result, tx, "invalid signature", strict)
                continue
            tx_view = TrackedView(block_view)
            sender = tx.sender.fingerprint().hex()
            try:
                self.vm.execute_call(tx_view, tx.contract, tx.method, tx.args, sender)
            except TransactionError as exc:
                self._reject(result, tx, str(exc), strict)
                continue
            # Commit the transaction's writes into the block view.
            for key, value in tx_view.writes.items():
                block_view.put_raw(key, value)
            result.executed.append(tx)
        result.read_set = dict(block_view.reads)
        result.write_set = dict(block_view.writes)
        return result

    def _reject(
        self, result: ExecutionResult, tx: Transaction, reason: str, strict: bool
    ) -> None:
        if strict:
            raise BlockValidationError(f"invalid transaction in block: {reason}")
        result.rejected.append((tx, reason))
