"""Proof-of-work consensus.

The consensus proof ``pi_cons`` in a header is a nonce whose inclusion
drives the header hash below a difficulty target.  Difficulty here is
expressed in leading zero *bits* and deliberately kept low in the
simulations — DCert is consensus-agnostic (it only re-checks the proof,
Alg. 2 line 15), so puzzle hardness is not load-bearing for any result.

Chain selection (Alg. 3 line 8) is the client's, not a node's: its one
spelling is :func:`repro.core.superlight.wins_chain_selection`.
"""

from __future__ import annotations

from repro.chain.block import BlockHeader
from repro.errors import ConsensusError


class ProofOfWork:
    """PoW puzzle: ``header_hash < 2^(256 - difficulty_bits)``."""

    def __init__(self, difficulty_bits: int = 8) -> None:
        if not 0 <= difficulty_bits <= 64:
            raise ConsensusError("difficulty out of simulated range")
        self.difficulty_bits = difficulty_bits

    @property
    def target(self) -> int:
        return 1 << (256 - self.difficulty_bits)

    def check(self, header: BlockHeader) -> bool:
        """Verify the header's consensus proof (nonce meets its target)."""
        if header.difficulty_bits != self.difficulty_bits:
            return False
        return int.from_bytes(header.header_hash(), "big") < self.target

    def solve(self, template: BlockHeader) -> BlockHeader:
        """Find a nonce for ``template``; returns the solved header."""
        nonce = 0
        while True:
            candidate = BlockHeader(
                height=template.height,
                prev_hash=template.prev_hash,
                nonce=nonce,
                difficulty_bits=self.difficulty_bits,
                state_root=template.state_root,
                tx_root=template.tx_root,
                timestamp=template.timestamp,
            )
            if int.from_bytes(candidate.header_hash(), "big") < self.target:
                return candidate
            nonce += 1

