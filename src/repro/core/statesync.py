"""Certified state sync: bootstrap a full node without replaying history.

A natural application of DCert's constant-cost validation: a new node
first acts as a superlight client (validate the latest header +
certificate — O(1)), then downloads the full state *snapshot* from any
untrusted peer and checks it against the certified ``H_state``.  If the
recomputed commitment matches, the node can serve as a full node / SP
from that height onward — no header-chain replay, no transaction
re-execution, and nothing to trust but the enclave certificate.

This mirrors how production chains bootstrap ("snap sync"), but with
the trust anchored in the DCert certificate instead of in checkpoints
hard-coded by client developers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Block
from repro.chain.consensus import ProofOfWork
from repro.chain.node import FullNode
from repro.chain.state import StateStore
from repro.chain.vm import VM
from repro.core.certificate import Certificate
from repro.core.superlight import SuperlightClient
from repro.errors import StateError


@dataclass(frozen=True, slots=True)
class StateSnapshot:
    """A full state dump as served by an (untrusted) peer."""

    height: int
    cells: tuple[tuple[bytes, bytes], ...]
    depth: int

    def size_bytes(self) -> int:
        return sum(len(key) + len(value) for key, value in self.cells)


def export_snapshot(node: FullNode) -> StateSnapshot:
    """Peer side: dump the node's current state."""
    return StateSnapshot(
        height=node.height,
        cells=tuple(sorted(node.state._tree.items())),
        depth=node.state.depth,
    )


def bootstrap_full_node(
    client: SuperlightClient,
    tip_block: Block,
    tip_certificate: Certificate,
    snapshot: StateSnapshot,
    vm: VM,
    pow_engine: ProofOfWork,
) -> FullNode:
    """Build a full node at the certified tip from an untrusted snapshot.

    1. Validate the tip certificate as a superlight client (Alg. 3).
    2. Rebuild the state commitment from the snapshot cells and compare
       it to the certified header's ``H_state`` — any added, removed, or
       altered cell changes the SMT root and is caught here.
    3. Hand back a :class:`FullNode` anchored at the certified block.

    Raises :class:`StateError` if the snapshot does not commit to the
    certified state root.
    """
    client.validate_chain(tip_block.header, tip_certificate)
    state = StateStore(depth=snapshot.depth)
    state.apply_writes({key: value for key, value in snapshot.cells})
    if state.root != tip_block.header.state_root:
        raise StateError(
            "snapshot does not match the certified state root "
            "(tampered or stale snapshot)"
        )
    if snapshot.height != tip_block.header.height:
        raise StateError("snapshot height does not match the certified tip")
    node = FullNode.__new__(FullNode)
    node.blocks = [tip_block]
    node.state = state
    from repro.chain.executor import TransactionExecutor

    node.executor = TransactionExecutor(vm)
    node.pow = pow_engine
    return node
